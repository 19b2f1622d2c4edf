// Shared pieces of the C and CUDA backends: identifier sanitation, the
// runtime-support preamble (Philox, fast rsqrt) embedded into generated
// translation units, and the kernel calling convention.
#pragma once

#include <string>

#include "pfc/ir/kernel.hpp"

namespace pfc::backend {

/// Turns an arbitrary kernel/field name into a valid C identifier.
std::string sanitize_identifier(const std::string& name);

/// C source of pfc_philox_uniform(...) and pfc_rsqrt_fast(...), textually
/// mirroring pfc::rng::philox_uniform (bit-identical results).
const char* runtime_preamble();

/// C source of the SIMD runtime for one translation unit: the pfc_vd vector
/// type (`width` doubles, GCC/Clang vector extensions), broadcast/iota
/// constructors, unaligned/aligned/non-temporal load-store helpers,
/// min/max/compare/select as vector selects, Philox on integer vectors,
/// and lane-wise fallbacks for the libm transcendentals. Each TU has
/// exactly one width; the text is `#ifndef`-guarded so concatenating
/// kernels stays safe. Must follow runtime_preamble() in the TU (it uses
/// pfc_u64 and pfc_rsqrt_fast from there).
std::string vector_preamble(int width);

/// The generated entry point signature, documented once:
///
///   extern "C" void NAME(double* const* fields,
///                        const long long* strides,   // 4 per field: x,y,z,c
///                        const long long* n,         // interior cells
///                        const long long* block_off, // global cell offset
///                        const long long* lo,        // 3: iteration box lo
///                        const long long* hi,        // 3: iteration box hi
///                        double t, long long t_step,
///                        const double* params);
///
/// `fields[i]` points at the interior origin of component 0 of
/// kernel.fields[i]. Loop dim d runs over [lo[d], hi[d]) — the full sweep
/// is lo = 0, hi[d] = n[d] + extent_plus[d]. The host uses sub-boxes both
/// to split slabs across threads (outer dim only) and to run the
/// interior/frontier decomposition of the communication-hiding distributed
/// step (any dim). The vector backend re-anchors its alignment peel to the
/// actual row pointer at lo[0], so sub-range execution stays bitwise
/// identical to the monolithic sweep at any SIMD width.
/// `block_off` makes loop coordinates global (analytic T(z), Philox
/// counters) when a block is part of a larger distributed domain.
using KernelFn = void (*)(double* const*, const long long*, const long long*,
                          const long long*, const long long*,
                          const long long*, double, long long, const double*);

}  // namespace pfc::backend
