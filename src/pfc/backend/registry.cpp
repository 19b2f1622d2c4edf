#include "pfc/backend/registry.hpp"

#include <algorithm>
#include <cstring>

#include "pfc/backend/c_emitter.hpp"
#include "pfc/ir/opcount.hpp"
#include "pfc/support/assert.hpp"
#include "pfc/ir/vectorize.hpp"
#include "pfc/support/timer.hpp"

namespace pfc::backend {

BackendRegistry& BackendRegistry::instance() {
  // Meyers singleton: construction is thread-safe and works during the
  // static initialization of the RegisterBackend objects below.
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::add(std::unique_ptr<Backend> b, int priority) {
  PFC_REQUIRE(b != nullptr, "BackendRegistry::add: null backend");
  const std::string name = b->name();
  for (Entry& e : entries_) {
    if (name == e.backend->name()) {
      e.backend = std::move(b);
      e.priority = priority;
      return;
    }
  }
  entries_.push_back(Entry{std::move(b), priority});
}

const Backend* BackendRegistry::find(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (name == e.backend->name()) return e.backend.get();
  }
  return nullptr;
}

std::vector<const Backend*> BackendRegistry::all() const {
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const Entry& e : entries_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(), [](const Entry* a, const Entry* b) {
    if (a->priority != b->priority) return a->priority > b->priority;
    return std::strcmp(a->backend->name(), b->backend->name()) < 0;
  });
  std::vector<const Backend*> out;
  out.reserve(sorted.size());
  for (const Entry* e : sorted) out.push_back(e->backend.get());
  return out;
}

std::vector<ChainEntry> BackendRegistry::chain(int requested_width) const {
  std::vector<ChainEntry> out;
  for (const Backend* b : all()) {
    const int w = b->probe(requested_width);
    if (w > 0) out.push_back(ChainEntry{b, w});
  }
  return out;
}

namespace {

/// Shared body of the two JIT tiers: emit the kernels at the resolved
/// width, one translation unit each, run the external compiler on them side
/// by side (through the content-addressed cache when configured, keyed by
/// the kernels joined into one TU), resolve the entry points.
void compile_jit_tier(const std::vector<const ir::Kernel*>& kernels,
                      const TierOptions& o, int width, TierArtifact& art) {
  Timer stage;
  CEmitOptions eo;
  eo.fast_math = o.fast_math;
  eo.vector_width = width;
  eo.streaming_stores = o.streaming_stores;
  art.emit_width = width;
  for (const ir::Kernel* k : kernels) {
    const ir::VectorPlan plan =
        ir::plan_vectorize(*k, {width, o.streaming_stores});
    art.ops_per_cell_widened += plan.enabled()
                                    ? plan.flops_per_cell_vector
                                    : double(plan.flops_per_cell_scalar);
    art.widths.push_back(plan.enabled() ? plan.width : 1);
  }
  ModelSource src = emit_model(kernels, eo);
  art.source = std::move(src.joined);
  art.emit_seconds = stage.seconds();

  JitLibrary::Options jo;
  jo.extra_flags = o.extra_flags;
  if (!o.compiler_override.empty()) jo.compiler = o.compiler_override;

  if (o.use_cache && !o.cache.directory.empty()) {
    KernelCacheResult cached =
        KernelCache::shared().acquire(art.source, src.units, jo, o.cache);
    art.library = std::move(cached.library);
    art.jit_seconds = cached.compile_seconds;
    art.cache_used = true;
    art.cache_hit = cached.hit;
    art.cache_key = cached.key;
    art.cache_stats = KernelCache::shared().stats();
  } else {
    art.library =
        std::make_shared<JitLibrary>(JitLibrary::compile(src.units, jo));
    art.jit_seconds = art.library->compile_seconds();
  }
  for (const ir::Kernel* k : kernels) {
    art.fns.push_back(art.library->get(entry_name(*k)));
  }
}

class JitVectorBackend final : public Backend {
 public:
  const char* name() const override { return "jit-vector"; }
  const char* tier() const override { return "vector"; }
  BackendCapabilities capabilities() const override {
    return BackendCapabilities{true, 8, true};
  }
  int probe(int requested_width) const override {
    // Serves only genuinely vector requests; a scalar request goes straight
    // to the jit-scalar tier.
    return requested_width > 1 ? requested_width : 0;
  }
  void compile(const std::vector<const ir::Kernel*>& kernels,
               const TierOptions& o, TierArtifact& art) const override {
    compile_jit_tier(kernels, o, o.vector_width, art);
  }
};

class JitScalarBackend final : public Backend {
 public:
  const char* name() const override { return "jit-scalar"; }
  const char* tier() const override { return "scalar"; }
  BackendCapabilities capabilities() const override {
    return BackendCapabilities{true, 1, false};
  }
  int probe(int) const override { return 1; }  // serves any request at width 1
  void compile(const std::vector<const ir::Kernel*>& kernels,
               const TierOptions& o, TierArtifact& art) const override {
    compile_jit_tier(kernels, o, 1, art);
  }
};

class InterpreterBackend final : public Backend {
 public:
  const char* name() const override { return "interpreter"; }
  const char* tier() const override { return "interpreter"; }
  BackendCapabilities capabilities() const override {
    return BackendCapabilities{false, 1, false};
  }
  int probe(int) const override { return 1; }  // always available
  void compile(const std::vector<const ir::Kernel*>& kernels,
               const TierOptions&, TierArtifact& art) const override {
    // The interpreter evaluates the IR cell by cell; width stays 1 and the
    // per-cell cost equals the post-optimization scalar op count.
    art.emit_width = 1;
    for (const ir::Kernel* k : kernels) {
      art.interps.push_back(std::make_shared<InterpreterKernel>(*k));
      art.widths.push_back(1);
      art.ops_per_cell_widened +=
          double(ir::count_ops(*k).normalized_flops());
    }
  }
};

// Static-init registration of the built-in tiers, in degradation-chain
// order by priority. These live in the registry's own translation unit so
// the static library always links them alongside instance().
const RegisterBackend<JitVectorBackend> kRegisterJitVector{200};
const RegisterBackend<JitScalarBackend> kRegisterJitScalar{100};
const RegisterBackend<InterpreterBackend> kRegisterInterpreter{0};

}  // namespace

}  // namespace pfc::backend
