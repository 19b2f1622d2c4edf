// ModelCompiler: drives the complete code-generation pipeline for one model
// instance (paper Fig. 1): continuum PDEs → discretization (full or split
// staggered kernels) → IR build (CSE, hoisting) → backend (C source + JIT,
// or interpreter) — and exposes every knob the paper's evaluation varies.
#pragma once

#include <cstdint>
#include <memory>

#include "pfc/app/grandchem.hpp"
#include "pfc/backend/interp.hpp"
#include "pfc/backend/jit.hpp"
#include "pfc/ir/kernel.hpp"
#include "pfc/obs/report.hpp"

namespace pfc::app {

enum class Backend { Jit, Interpreter };

/// Autotuning policy of a run (perf::autotune + app/tuning.hpp):
///   Off    — use the options exactly as given (the seed behaviour).
///   Cached — apply the persisted per-(model, machine) winner when the
///            tuning cache has one; run a full measured search (and persist
///            it) only on a miss.
///   Full   — always run the measured search and persist the winner.
enum class TuneMode { Off, Cached, Full };

struct CompileOptions {
  Backend backend = Backend::Jit;
  /// Split staggered-flux precompute kernels ("φ-split"/"µ-split") instead
  /// of recompute-on-both-sides ("φ-full"/"µ-full").
  bool split_phi = false;
  bool split_mu = false;
  bool fast_math = false;   ///< approximate div/sqrt/rsqrt (paper §3.5)
  bool cse = true;
  bool hoist_invariants = true;
  bool clamp_phi = true;    ///< project φ updates back into [0,1]
  /// Register-minimizing statement scheduling (GPU transformation; also
  /// valid for CPU code).
  bool schedule = false;
  std::size_t schedule_beam_width = 20;
  /// Explicit SIMD width (doubles) of the generated C innermost loop:
  /// 0 = auto (probe the JIT target's ISA; PFC_VECTOR_WIDTH env overrides),
  /// 1 = scalar, 2/4/8 = fixed. The interpreter backend is always scalar.
  int vector_width = 0;
  /// Non-temporal (streaming) stores for write-only destination fields of
  /// the vectorized loop — bypasses the write-allocate read of the store
  /// stream (paper §3.5's memory-bandwidth discussion).
  bool streaming_stores = false;
  /// Extra flags appended to the JIT compile line, after the default
  /// "-O3 -march=native -ffp-contract=off" (e.g. "-DNAME=..."). A flag
  /// that turns FMA contraction back on voids the bitwise agreement of
  /// tiers, widths and sub-ranges.
  std::string jit_extra_flags;
  /// Fault injection: force the first N JIT attempts to fail (the external
  /// compiler is replaced by `false`), driving the vector → scalar →
  /// interpreter degradation chain deterministically. Drivers populate this
  /// from resilience::FaultPlan::fail_jit_attempts.
  int fail_jit_attempts = 0;
  /// Content-addressed kernel cache directory: identical (source, flags)
  /// compiles dlopen one shared .so instead of re-running the external
  /// compiler (backend::KernelCache). Empty = the PFC_KERNEL_CACHE_DIR env
  /// decides (unset env = no caching).
  std::string cache_dir;
  /// LRU byte budget of the cache directory (0 = unlimited). Ignored when
  /// caching is off; overridden by PFC_KERNEL_CACHE_MB only when cache_dir
  /// itself came from the environment.
  std::uint64_t cache_max_bytes = 256ull << 20;
  /// Measured-autotuning policy (see TuneMode). The tuning cache lives next
  /// to the kernel cache (cache_dir / PFC_KERNEL_CACHE_DIR); with neither
  /// configured a search still runs but its winner cannot persist.
  TuneMode tune = TuneMode::Off;
};

/// One executable kernel: the optimized IR plus a backend handle.
class CompiledKernel {
 public:
  ir::Kernel ir;

  /// `range` restricts the sweep to a sub-box (nullptr = full box); the
  /// driver uses it for its frontier and interior sweeps.
  /// `plan` selects static slab ownership (see backend::run_compiled);
  /// the interpreter backend ignores it (fallback path, dynamic split).
  void run(const backend::Binding& b, const std::array<long long, 3>& n,
           double t, long long t_step, ThreadPool* pool = nullptr,
           obs::TraceRecorder* tracer = nullptr,
           const backend::CellRange* range = nullptr,
           const SlabPlan* plan = nullptr) const;

  /// SIMD width the kernel's code was emitted with (1 = scalar).
  int vector_width() const { return vector_width_; }

  /// backend::read_offset_ranges(ir), computed once when the compiler
  /// attaches the kernel; every launch validates its binding against it.
  const backend::ReadRanges& reads() const { return reads_; }

 private:
  friend class ModelCompiler;
  backend::ReadRanges reads_;
  backend::KernelFn fn_ = nullptr;  // JIT entry (library owned by model)
  std::shared_ptr<backend::InterpreterKernel> interp_;
  int vector_width_ = 1;
};

/// The compiled model: kernels in execution order per PDE.
class CompiledModel {
 public:
  std::vector<CompiledKernel> phi_kernels;  ///< staggered first if split
  std::vector<CompiledKernel> mu_kernels;
  std::optional<FieldPtr> phi_flux_field;
  std::optional<FieldPtr> mu_flux_field;

  /// Per-stage timings and pre/post-optimization op counts — including the
  /// kernel-cache provenance (cache_hit, content key, counters) when a
  /// cache directory was configured.
  const obs::CompileReport& compile_report() const { return report_; }

  /// The generated C translation unit (empty for interpreter backend).
  const std::string& generated_source() const { return source_; }

 private:
  friend class ModelCompiler;
  std::string source_;
  std::shared_ptr<backend::JitLibrary> library_;
  obs::CompileReport report_;
};

class ModelCompiler {
 public:
  explicit ModelCompiler(CompileOptions opts = {}) : opts_(opts) {}

  /// Runs the full pipeline on a model instance.
  CompiledModel compile(const GrandChemModel& model) const;

  /// Lower-level entry: compiles arbitrary PDE updates (used by tests and
  /// by the benchmark harness for single-kernel studies).
  CompiledModel compile_updates(const std::vector<fd::PdeUpdate>& pdes,
                                const fd::DiscretizeOptions& dopts) const;

  /// Pipeline front half only: PDE update -> optimized IR kernels. When
  /// `report` is given, per-stage timings and pre/post-optimization op
  /// counts accumulate into it.
  static std::vector<ir::Kernel> lower(const fd::PdeUpdate& pde,
                                       const fd::DiscretizeOptions& dopts,
                                       const CompileOptions& opts,
                                       std::optional<FieldPtr>* flux_field,
                                       obs::CompileReport* report = nullptr);

 private:
  CompileOptions opts_;
};

}  // namespace pfc::app
