#include "pfc/app/compiler.hpp"

#include <algorithm>
#include <cstdio>

#include "pfc/backend/c_emitter.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/ir/opcount.hpp"
#include "pfc/ir/passes.hpp"
#include "pfc/ir/schedule.hpp"
#include "pfc/ir/vectorize.hpp"
#include "pfc/support/timer.hpp"

namespace pfc::app {

namespace {

// Compiler diagnostics span many lines; the report keeps only the headline.
std::string first_line(const std::string& s) {
  const auto nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

/// What one JIT attempt produced. compile_jit_tier fills it in place, so a
/// throwing attempt still leaves its source and emit time for the report.
struct JitAttempt {
  std::string source;  ///< the kernels joined into one TU
  double emit_seconds = 0.0;
  double ops_per_cell_widened = 0.0;
  std::vector<int> widths;  ///< per kernel: the width its loop runs at
  backend::KernelCacheResult lib;  ///< library, cache key/hit, compile time
  std::vector<backend::KernelFn> fns;  ///< per kernel
  bool cache_used = false;
  backend::KernelCacheStats cache_stats;  ///< process-wide, after the call
};

/// One JIT tier: emit the kernels at `width`, one translation unit each,
/// run the external compiler on them side by side (through the
/// content-addressed cache when `cache` names a directory, keyed by the
/// kernels joined into one TU), resolve the entry points.
void compile_jit_tier(const std::vector<const ir::Kernel*>& kernels,
                      const CompileOptions& o, int width,
                      const backend::JitLibrary::Options& jo,
                      const backend::KernelCacheConfig& cache,
                      JitAttempt& art) {
  Timer stage;
  backend::CEmitOptions eo;
  eo.fast_math = o.fast_math;
  eo.vector_width = width;
  eo.streaming_stores = o.streaming_stores;
  for (const ir::Kernel* k : kernels) {
    const ir::VectorPlan plan =
        ir::plan_vectorize(*k, {width, o.streaming_stores});
    art.ops_per_cell_widened += plan.enabled()
                                    ? plan.flops_per_cell_vector
                                    : double(plan.flops_per_cell_scalar);
    art.widths.push_back(plan.enabled() ? plan.width : 1);
  }
  backend::ModelSource src = backend::emit_model(kernels, eo);
  art.source = std::move(src.joined);
  art.emit_seconds = stage.seconds();

  if (!cache.directory.empty()) {
    art.lib = backend::KernelCache::shared().acquire(art.source, src.units,
                                                     jo, cache);
    art.cache_used = true;
    art.cache_stats = backend::KernelCache::shared().stats();
  } else {
    art.lib.library = std::make_shared<backend::JitLibrary>(
        backend::JitLibrary::compile(src.units, jo));
    art.lib.compile_seconds = art.lib.library->compile_seconds();
  }
  for (const ir::Kernel* k : kernels) {
    art.fns.push_back(art.lib.library->get(backend::entry_name(*k)));
  }
}

/// Per-cell divider instructions (sqrt plus division, an exact rsqrt one
/// of each): the cost ir::fold_radicals lowers.
long dividers(const ir::Kernel& k) {
  const ir::OpCounts c = ir::count_ops(k);
  return c.sqrts + c.divs + 2 * c.rsqrts;
}

/// PDE 0 is φ: projected onto [0, 1] and the simplex when clamp_phi.
void clamp_if_phi(fd::DiscretizeOptions& d, std::size_t i,
                  const CompileOptions& o) {
  d.clamp_unit_interval = i == 0 && o.clamp_phi;
  d.renormalize_simplex = d.clamp_unit_interval;
}

}  // namespace

void CompiledKernel::run(const backend::Binding& b,
                         const std::array<long long, 3>& n, double t,
                         long long t_step, ThreadPool* pool,
                         obs::TraceRecorder* tracer,
                         const backend::CellRange* range,
                         const SlabPlan* plan, long long tile_rows) const {
  PFC_ASSERT(!fns_.empty() || !interps_.empty(),
             "CompiledKernel has no backend");
  if (face_once_.empty()) {
    if (!fns_.empty()) {
      backend::run_compiled(ir, fns_.front(), b, n, t, t_step, pool, tracer,
                            vector_width_, range, plan, &reads_);
    } else {
      // Interpreter slabs carry no per-thread spans; the driver's kernel
      // span still covers the launch.
      interps_.front()->run(b, n, t, t_step, pool, range, plan);
    }
    return;
  }
  const backend::PassFn pass =
      !fns_.empty()
          ? backend::PassFn([&](std::size_t i, const backend::RawArgs& raw,
                                const double* params,
                                const backend::CellRange& box) {
              fns_[i](raw.fields.data(), raw.strides.data(), raw.n.data(),
                      raw.block_off.data(), box.lo.data(), box.hi.data(), t,
                      t_step, params);
            })
          : backend::PassFn([&](std::size_t i, const backend::RawArgs& raw,
                                const double* params,
                                const backend::CellRange& box) {
              interps_[i]->run_box(raw, params, box, t, t_step);
            });
  backend::run_face_once(ir, face_once_, pass, b, n, t_step, pool, tracer,
                         range, plan, &reads_, tile_rows);
}

std::vector<ir::Kernel> ModelCompiler::lower(
    const fd::PdeUpdate& pde, const fd::DiscretizeOptions& dopts,
    const CompileOptions& opts, std::optional<FieldPtr>* flux_field,
    obs::CompileReport* report) {
  Timer stage;
  fd::DiscretizeResult dres = fd::discretize(pde, dopts);
  if (flux_field != nullptr) *flux_field = dres.flux_field;
  if (report != nullptr) {
    report->add_stage("discretize", stage.seconds());
    for (const auto& sk : dres.kernels) {
      ir::OpCounts pre;
      for (const auto& a : sk.assignments) pre += ir::count_ops(a.rhs);
      report->ops_per_cell_pre += pre.normalized_flops();
    }
  }

  ir::BuildOptions bo;
  bo.cse = opts.cse;
  bo.hoist_invariants = opts.hoist_invariants;
  bo.dims = dopts.dims;

  std::vector<ir::Kernel> kernels;
  kernels.reserve(dres.kernels.size());
  for (const auto& sk : dres.kernels) {
    stage.reset();
    ir::Kernel k = ir::build_kernel(sk, bo);
    ir::fold_reciprocals(k);
    ir::fold_radicals(k);
    ir::share_sums(k);
    if (report != nullptr) report->add_stage("ir_build", stage.seconds());
    if (opts.schedule) {
      stage.reset();
      ir::ScheduleOptions so;
      so.beam_width = opts.schedule_beam_width;
      ir::schedule_min_register(k, so);
      if (report != nullptr) report->add_stage("schedule", stage.seconds());
    }
    if (report != nullptr) {
      report->ops_per_cell_post += ir::count_ops(k).normalized_flops();
      report->kernel_names.push_back(k.name);
    }
    kernels.push_back(std::move(k));
  }
  return kernels;
}

CompiledModel ModelCompiler::compile_updates(
    const std::vector<fd::PdeUpdate>& pdes,
    const fd::DiscretizeOptions& dopts) const {
  PFC_REQUIRE(pdes.size() >= 1 && pdes.size() <= 2,
              "compile_updates expects [phi] or [phi, mu] updates");
  CompiledModel out;

  for (std::size_t i = 0; i < pdes.size(); ++i) {
    fd::DiscretizeOptions d = dopts;
    clamp_if_phi(d, i, opts_);
    std::optional<FieldPtr> flux;
    std::vector<CompiledKernel>& dst =
        i == 0 ? out.phi_kernels : out.mu_kernels;
    for (ir::Kernel& k : lower(pdes[i], d, opts_, &flux, &out.report_)) {
      CompiledKernel ck;
      ck.ir = std::move(k);
      ck.reads_ = backend::read_offset_ranges(ck.ir);
      dst.push_back(std::move(ck));
    }
    if (d.split_staggered) continue;

    // The full kernel runs its split form face-once when that form has
    // fewer per-cell dividers. Its lowering times count as the stages they
    // are; its op counts and names stay out of the report.
    d.split_staggered = true;
    obs::CompileReport split_report;
    std::vector<ir::Kernel> split =
        lower(pdes[i], d, opts_, &flux, &split_report);
    for (const auto& [stage, t] : split_report.stage_timers) {
      out.report_.add_stage(stage, t.seconds);
    }
    long long split_dividers = 0;
    for (const ir::Kernel& k : split) split_dividers += dividers(k);
    CompiledKernel& full = dst.front();
    if (flux && split_dividers < dividers(full.ir)) {
      full.face_once_ = backend::make_face_once(full.ir, std::move(split),
                                                *flux);
    }
  }

  // Flatten the bodies the kernels run in execution order (φ group, then
  // µ group; a face-once kernel's passes in place of its own) — the shape
  // every tier compiles against.
  std::vector<const ir::Kernel*> kernel_ptrs;
  std::vector<CompiledKernel*> flat;
  for (auto* group : {&out.phi_kernels, &out.mu_kernels}) {
    for (auto& ck : *group) {
      if (ck.face_once_.empty()) {
        kernel_ptrs.push_back(&ck.ir);
        flat.push_back(&ck);
      }
      for (const ir::Kernel& pass : ck.face_once_.passes) {
        kernel_ptrs.push_back(&pass);
        flat.push_back(&ck);
      }
    }
  }

  // Resolve the SIMD width: 0 = probe the JIT target once per process. An
  // interpreter request stays scalar and never probes.
  int width = 1;
  if (opts_.backend != Backend::Interpreter) {
    width = opts_.vector_width;
    if (width <= 0) width = backend::probe_native_vector_width();
    PFC_REQUIRE(ir::vector_width_supported(width),
                "unsupported vector_width " + std::to_string(width) +
                    " (use 0=auto, 1, 2, 4 or 8)");
  }

  // The degradation chain (see obs::BackendTier): a JIT failure at one
  // rung retries the next instead of aborting the run; the surviving tier
  // and the first failure are recorded in the compile report. An explicit
  // interpreter request is the interpreter alone.
  using obs::BackendTier;
  std::vector<BackendTier> jit_tiers;
  if (opts_.backend == Backend::Jit) {
    if (width > 1) jit_tiers.push_back(BackendTier::Vector);
    jit_tiers.push_back(BackendTier::Scalar);
  }

  // Content-addressed kernel cache: options configure it explicitly, the
  // PFC_KERNEL_CACHE_DIR env enables it for unmodified binaries.
  backend::KernelCacheConfig cache;
  if (!opts_.cache_dir.empty()) {
    cache.directory = opts_.cache_dir;
    cache.max_bytes = opts_.cache_max_bytes;
  } else {
    cache = backend::kernel_cache_config_from_env();
  }

  int forced_failures = opts_.fail_jit_attempts;
  for (const BackendTier tier : jit_tiers) {
    const int w = tier == BackendTier::Vector ? width : 1;
    backend::JitLibrary::Options jo;
    jo.extra_flags = opts_.jit_extra_flags;
    // `false` always exits 1: an injected fault. Injected attempts bypass
    // the cache: they must exercise the external-compiler failure path,
    // not be absorbed by an earlier hit.
    const bool forced = forced_failures > 0;
    if (forced) jo.compiler = "false";
    JitAttempt art;
    Timer attempt;
    try {
      compile_jit_tier(kernel_ptrs, opts_, w, jo,
                       forced ? backend::KernelCacheConfig{} : cache, art);
    } catch (const Error& e) {
      // The attempt keeps the generated source and emit timing of the
      // failed compile: the report still shows what was tried.
      if (!art.source.empty()) out.source_ = art.source;
      if (art.emit_seconds > 0.0) {
        out.report_.add_stage("emit", art.emit_seconds);
      }
      out.report_.add_stage(
          "jit", std::max(0.0, attempt.seconds() - art.emit_seconds));
      ++out.report_.fallback_attempts;
      if (forced) --forced_failures;
      if (out.report_.fallback_reason.empty()) {
        out.report_.fallback_reason =
            forced ? "injected jit fault" : first_line(e.what());
      }
      std::fprintf(stderr,
                   "pfc jit: width-%d compile failed (%s), degrading\n", w,
                   forced ? "injected fault" : first_line(e.what()).c_str());
      continue;
    }

    out.report_.backend_tier = support::enum_name(tier);
    out.source_ = art.source;
    out.report_.add_stage("emit", art.emit_seconds);
    out.report_.add_stage("jit", art.lib.compile_seconds);
    out.report_.ops_per_cell_widened = art.ops_per_cell_widened;
    out.report_.vector_width = w;
    if (art.cache_used) {
      out.report_.cache_used = true;
      out.report_.cache_hit = art.lib.hit;
      out.report_.cache_key = art.lib.key;
      out.report_.cache_hits = art.cache_stats.hits;
      out.report_.cache_misses = art.cache_stats.misses;
      out.report_.cache_evictions = art.cache_stats.evictions;
      out.report_.cache_bytes = art.cache_stats.bytes;
    }
    out.library_ = art.lib.library;
    for (std::size_t i = 0; i < flat.size(); ++i) {
      flat[i]->vector_width_ = art.widths[i];  // face-once: the cell pass's
      flat[i]->fns_.push_back(art.fns[i]);
    }
    return out;
  }

  // The last rung cannot fail. The interpreter evaluates the IR cell by
  // cell; width stays 1 and the per-cell cost equals the post-optimization
  // scalar op count of the bodies it runs.
  out.report_.backend_tier = support::enum_name(BackendTier::Interpreter);
  out.report_.vector_width = 1;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    flat[i]->interps_.push_back(
        std::make_shared<backend::InterpreterKernel>(*kernel_ptrs[i]));
    out.report_.ops_per_cell_widened +=
        double(ir::count_ops(*kernel_ptrs[i]).normalized_flops());
  }
  return out;
}

fd::DiscretizeOptions ModelCompiler::discretization(
    const GrandChemParams& params, std::size_t i, const CompileOptions& opts) {
  fd::DiscretizeOptions d;
  d.dims = params.dims;
  d.dx = params.dx;
  d.dt = params.dt;
  d.rng_seed = params.rng_seed;
  clamp_if_phi(d, i, opts);
  return d;
}

CompiledModel ModelCompiler::compile(const GrandChemModel& model) const {
  // compile_updates clamps each PDE itself.
  return compile_updates({model.phi_update(), model.mu_update()},
                         discretization(model.params(), 0, opts_));
}

}  // namespace pfc::app
