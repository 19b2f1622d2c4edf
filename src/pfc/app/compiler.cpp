#include "pfc/app/compiler.hpp"

#include <cstdio>

#include "pfc/backend/kernel_cache.hpp"
#include "pfc/backend/registry.hpp"
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
}  // namespace

void CompiledKernel::run(const backend::Binding& b,
                         const std::array<long long, 3>& n, double t,
                         long long t_step, ThreadPool* pool,
                         obs::TraceRecorder* tracer,
                         const backend::CellRange* range,
                         const SlabPlan* plan) const {
  if (fn_ != nullptr) {
    backend::run_compiled(ir, fn_, b, n, t, t_step, pool, tracer,
                          vector_width_, range, plan, &reads_);
  } else {
    PFC_ASSERT(interp_ != nullptr, "CompiledKernel has no backend");
    // Interpreter slabs carry no per-thread spans; the driver's kernel span
    // still covers the launch.
    interp_->run(b, n, t, t_step, pool, range);
  }
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

  std::vector<std::vector<ir::Kernel>> groups;
  for (std::size_t i = 0; i < pdes.size(); ++i) {
    fd::DiscretizeOptions d = dopts;
    d.split_staggered = i == 0 ? opts_.split_phi : opts_.split_mu;
    d.clamp_unit_interval = i == 0 && opts_.clamp_phi;
    d.renormalize_simplex = d.clamp_unit_interval;
    std::optional<FieldPtr> flux;
    groups.push_back(lower(pdes[i], d, opts_, &flux, &out.report_));
    (i == 0 ? out.phi_flux_field : out.mu_flux_field) = flux;
  }

  const auto attach = [&](const std::vector<ir::Kernel>& ks,
                          std::vector<CompiledKernel>& dst) {
    for (const auto& k : ks) {
      CompiledKernel ck;
      ck.ir = k;
      ck.reads_ = backend::read_offset_ranges(k);
      dst.push_back(std::move(ck));
    }
  };
  attach(groups[0], out.phi_kernels);
  if (groups.size() > 1) attach(groups[1], out.mu_kernels);

  // Flatten the kernels in execution order (φ group, then µ group) — the
  // shape every registry backend compiles against.
  std::vector<const ir::Kernel*> kernel_ptrs;
  std::vector<CompiledKernel*> flat;
  for (auto* group : {&out.phi_kernels, &out.mu_kernels}) {
    for (auto& ck : *group) {
      kernel_ptrs.push_back(&ck.ir);
      flat.push_back(&ck);
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

  // Select through the backend registry: the degradation chain is every
  // registered backend whose probe accepts the request, priority-descending
  // (vector → scalar → interpreter for the built-ins). A JIT failure at one
  // rung retries the next instead of aborting the run; the surviving tier
  // and the first failure are recorded in the compile report. An explicit
  // interpreter request pins the chain to that single tier.
  std::vector<backend::ChainEntry> chain;
  if (opts_.backend == Backend::Interpreter) {
    const backend::Backend* interp =
        backend::BackendRegistry::instance().find("interpreter");
    PFC_ASSERT(interp != nullptr, "interpreter backend not registered");
    chain.push_back(backend::ChainEntry{interp, 1});
  } else {
    chain = backend::BackendRegistry::instance().chain(width);
  }

  int forced_failures = opts_.fail_jit_attempts;
  for (const backend::ChainEntry& entry : chain) {
    const backend::Backend& b = *entry.backend;
    const bool is_jit = b.capabilities().jit;

    backend::TierOptions to;
    to.vector_width = entry.width;
    to.fast_math = opts_.fast_math;
    to.streaming_stores = opts_.streaming_stores;
    to.extra_flags = opts_.jit_extra_flags;
    const bool forced = is_jit && forced_failures > 0;
    if (forced) to.compiler_override = "false";  // always exits 1: injected

    // Content-addressed kernel cache: options configure it explicitly, the
    // PFC_KERNEL_CACHE_DIR env enables it for unmodified binaries.
    // Injected-fault attempts bypass the cache — they must exercise the
    // external-compiler failure path, not be absorbed by an earlier hit.
    if (!opts_.cache_dir.empty()) {
      to.cache.directory = opts_.cache_dir;
      to.cache.max_bytes = opts_.cache_max_bytes;
    } else {
      to.cache = backend::kernel_cache_config_from_env();
    }
    to.use_cache = !forced && !to.cache.directory.empty();

    backend::TierArtifact art;
    Timer attempt;
    try {
      b.compile(kernel_ptrs, to, art);
    } catch (const Error& e) {
      // The artifact keeps the generated source and emit timing of the
      // failed attempt — the report still shows what was tried.
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
                   "pfc jit: width-%d compile failed (%s), degrading\n",
                   entry.width,
                   forced ? "injected fault" : first_line(e.what()).c_str());
      continue;
    }

    if (is_jit) {
      out.source_ = art.source;
      out.report_.add_stage("emit", art.emit_seconds);
      out.report_.add_stage("jit", art.jit_seconds);
    }
    out.report_.ops_per_cell_widened = art.ops_per_cell_widened;
    out.report_.vector_width = art.emit_width;
    out.report_.backend_tier = b.tier();
    if (art.cache_used) {
      out.report_.cache_used = true;
      out.report_.cache_hit = art.cache_hit;
      out.report_.cache_key = art.cache_key;
      out.report_.cache_hits = art.cache_stats.hits;
      out.report_.cache_misses = art.cache_stats.misses;
      out.report_.cache_evictions = art.cache_stats.evictions;
      out.report_.cache_bytes = art.cache_stats.bytes;
    }
    out.library_ = art.library;
    for (std::size_t i = 0; i < flat.size(); ++i) {
      flat[i]->vector_width_ = art.widths[i];
      if (!art.fns.empty()) {
        flat[i]->fn_ = art.fns[i];
      } else {
        flat[i]->interp_ = art.interps[i];
      }
    }
    return out;
  }

  PFC_ASSERT(false, "backend chain exhausted (interpreter tier missing?)");
  return out;
}

CompiledModel ModelCompiler::compile(const GrandChemModel& model) const {
  fd::DiscretizeOptions dopts;
  dopts.dims = model.params().dims;
  dopts.dx = model.params().dx;
  dopts.dt = model.params().dt;
  dopts.rng_seed = model.params().rng_seed;
  return compile_updates({model.phi_update(), model.mu_update()}, dopts);
}

}  // namespace pfc::app
