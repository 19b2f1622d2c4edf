// ModelCompiler: drives the complete code-generation pipeline for one model
// instance (paper Fig. 1): continuum PDEs → discretization → IR build (CSE,
// hoisting) → backend (C source + JIT, or interpreter). compile() gives one
// kernel per PDE, run face-once where its split form divides less
// (DESIGN.md §5d); compile_updates() also gives the explicit split pair of
// the paper's Table 1 and Fig. 2, for tests and the figure drivers.
#pragma once

#include <cstdint>
#include <memory>

#include "pfc/app/grandchem.hpp"
#include "pfc/backend/interp.hpp"
#include "pfc/backend/jit.hpp"
#include "pfc/ir/kernel.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/support/enum_names.hpp"

namespace pfc::app {

enum class Backend { Jit, Interpreter };
constexpr support::EnumNames<Backend, 2> enum_names(Backend) {
  return {"backend", {{Backend::Jit, "jit"},
                      {Backend::Interpreter, "interpreter"}}};
}

// The autotuning policy's enum lives beside the report section that echoes
// it (obs/report.hpp).
using obs::TuneMode;

struct CompileOptions {
  Backend backend = Backend::Jit;
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
  /// The kernel's contract (name, fields, reads, writes, extent and entry
  /// ABI) and its recompute form, which op counts, the ECM and GPU models
  /// and the CUDA emitter read. A face-once kernel runs face_once()'s
  /// passes instead of this body.
  ir::Kernel ir;

  /// `range` restricts the sweep to a sub-box (nullptr = full box); the
  /// driver uses it for its frontier and interior sweeps.
  /// `plan` selects static slab ownership (see backend::run_compiled).
  /// `tile_rows` is a face-once kernel's tile height T (see
  /// backend::run_face_once; <= 0 sizes it to the per-core L2).
  void run(const backend::Binding& b, const std::array<long long, 3>& n,
           double t, long long t_step, ThreadPool* pool = nullptr,
           obs::TraceRecorder* tracer = nullptr,
           const backend::CellRange* range = nullptr,
           const SlabPlan* plan = nullptr, long long tile_rows = 0) const;

  /// SIMD width the kernel's code was emitted with (1 = scalar); the cell
  /// pass's for a face-once kernel.
  int vector_width() const { return vector_width_; }

  /// backend::read_offset_ranges(ir), computed once when the compiler
  /// attaches the kernel; every launch validates its binding against it.
  const backend::ReadRanges& reads() const { return reads_; }

  /// The passes this kernel runs face-once; empty when it runs `ir`.
  const backend::FaceOnce& face_once() const { return face_once_; }

 private:
  friend class ModelCompiler;
  backend::ReadRanges reads_;
  backend::FaceOnce face_once_;
  /// One backend handle per body it runs: `ir`, or each face-once pass.
  std::vector<backend::KernelFn> fns_;  // JIT entries (library owned by model)
  std::vector<std::shared_ptr<backend::InterpreterKernel>> interps_;
  int vector_width_ = 1;
};

/// The compiled model: kernels in execution order per PDE. compile() gives
/// one kernel per PDE; compile_updates() with split_staggered gives the
/// staggered-flux kernels first, then the one that reads their flux field.
class CompiledModel {
 public:
  std::vector<CompiledKernel> phi_kernels;
  std::vector<CompiledKernel> mu_kernels;

  /// Per-stage timings and pre/post-optimization op counts — including the
  /// kernel-cache provenance (cache_hit, content key, counters) when a
  /// cache directory was configured.
  const obs::CompileReport& compile_report() const { return report_; }

  /// The generated C translation unit (empty for interpreter backend): a
  /// face-once kernel's passes in place of its recompute body.
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

  /// Runs the full pipeline on a model instance: one kernel per PDE.
  CompiledModel compile(const GrandChemModel& model) const;

  /// Lower-level entry: compiles arbitrary PDE updates ([φ] or [φ, µ]; φ
  /// is clamped as discretization() says). With dopts.split_staggered each
  /// PDE compiles to its explicit split pair, whose flux field the
  /// staggered kernels write; this is the only way to get that pair, and
  /// tests and the figure drivers use it. Otherwise each PDE is one kernel.
  CompiledModel compile_updates(const std::vector<fd::PdeUpdate>& pdes,
                                const fd::DiscretizeOptions& dopts) const;

  /// How PDE `i` of a model (0 = φ, 1 = µ) is discretized: the model's
  /// dims, dx, dt and noise seed, and for φ the projection onto [0, 1] and
  /// the simplex when opts.clamp_phi. compile() lowers with these, and so
  /// does every caller of lower() that means compile()'s kernels.
  static fd::DiscretizeOptions discretization(const GrandChemParams& params,
                                              std::size_t i,
                                              const CompileOptions& opts);

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
