// Self-registering backend registry (ROADMAP item 3): the three execution
// tiers of the code-generation pipeline — JIT-C vector, JIT-C scalar and the
// IR interpreter — are plugins behind one `Backend` interface instead of
// branches of an enum. Each backend registers itself at static-init time
// (the torch::jit::backend<T> registration idiom), so adding a tier is one
// new translation unit, not an edit of every selection site:
//
//   namespace { const RegisterBackend<MyBackend> reg{priority}; }
//
// `ModelCompiler` and the resilience degradation chain ask the registry for
// the ordered chain serving a width request; `run_job`, the serve tier and
// the autotuner inherit that selection transparently. Priorities order the
// chain (higher = tried first); the interpreter registers at priority 0 and
// probes successfully for every request, so a chain always terminates in a
// tier that cannot fail.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pfc/backend/interp.hpp"
#include "pfc/backend/jit.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/ir/kernel.hpp"

namespace pfc::backend {

/// What a backend can do — consumed by the autotuner (to prune the knob
/// space) and by diagnostics (codegen_inspect-style listings).
struct BackendCapabilities {
  bool jit = false;               ///< runs generated C through the external compiler
  int max_vector_width = 1;       ///< widest SIMD width the tier can emit
  bool streaming_stores = false;  ///< honors CEmitOptions::streaming_stores
};

/// The knobs one tier attempt consumes. ModelCompiler maps the relevant
/// subset of app::CompileOptions down to this (the backend layer cannot see
/// app types — the dependency points the other way).
struct TierOptions {
  int vector_width = 1;        ///< resolved width for this attempt (>= 1)
  bool fast_math = false;
  bool streaming_stores = false;
  std::string extra_flags;     ///< appended to the JIT compile line
  /// Non-empty replaces the external compiler binary (fault injection uses
  /// "false" to force a deterministic compile failure).
  std::string compiler_override;
  /// Content-addressed kernel cache; an empty directory disables it.
  KernelCacheConfig cache;
  bool use_cache = false;
};

/// What one tier compile produces for a kernel set. compile() fills the
/// artifact in place so a throwing JIT attempt still leaves the generated
/// source and emit timing behind for the compile report.
struct TierArtifact {
  std::string source;  ///< kernels joined into one TU ("" for interpreter)
  std::shared_ptr<JitLibrary> library;  ///< null for the interpreter
  std::vector<KernelFn> fns;            ///< per input kernel (JIT tiers)
  std::vector<std::shared_ptr<InterpreterKernel>> interps;  ///< interpreter
  std::vector<int> widths;              ///< per-kernel emitted width
  int emit_width = 1;                   ///< width the TU was emitted at
  double ops_per_cell_widened = 0.0;
  double emit_seconds = 0.0;
  double jit_seconds = 0.0;
  /// Kernel-cache provenance (JIT tiers with use_cache).
  bool cache_used = false;
  bool cache_hit = false;
  std::string cache_key;
  KernelCacheStats cache_stats;
};

/// One execution tier. Implementations are stateless and registered once
/// per process; all per-compile state travels through TierOptions/
/// TierArtifact.
class Backend {
 public:
  virtual ~Backend() = default;
  /// Registry name ("jit-vector", "jit-scalar", "interpreter").
  virtual const char* name() const = 0;
  /// Report spelling of the tier ("vector", "scalar", "interpreter").
  virtual const char* tier() const = 0;
  virtual BackendCapabilities capabilities() const = 0;
  /// Cheap availability probe: the width this backend would emit at for a
  /// resolved request of `requested_width`; 0 when it cannot serve the
  /// request (e.g. the vector tier for a scalar request).
  virtual int probe(int requested_width) const = 0;
  /// Compiles `kernels` into one executable artifact. Throws pfc::Error on
  /// JIT failure; `art` keeps whatever was produced before the throw.
  virtual void compile(const std::vector<const ir::Kernel*>& kernels,
                       const TierOptions& opts, TierArtifact& art) const = 0;
};

/// An entry of the degradation chain: the backend plus the width its probe
/// resolved for the request.
struct ChainEntry {
  const Backend* backend = nullptr;
  int width = 1;
};

class BackendRegistry {
 public:
  /// The process-wide instance all registrations and lookups funnel
  /// through (constructed on first use; safe during static init).
  static BackendRegistry& instance();

  /// Registers a backend (normally via RegisterBackend below). Higher
  /// priority = earlier in the degradation chain. A re-registration under
  /// an existing name replaces the previous entry (latest wins).
  void add(std::unique_ptr<Backend> b, int priority);

  /// Lookup by registry name; nullptr when absent.
  const Backend* find(const std::string& name) const;

  /// Every registered backend, priority-descending (name-ascending on
  /// ties) — a deterministic order independent of registration order.
  std::vector<const Backend*> all() const;

  /// The degradation chain for a resolved width request: every backend
  /// whose probe() accepts the request, priority-descending. With the
  /// built-in tiers and width w > 1 this is jit-vector → jit-scalar →
  /// interpreter; width 1 skips the vector tier.
  std::vector<ChainEntry> chain(int requested_width) const;

  BackendRegistry(const BackendRegistry&) = delete;
  BackendRegistry& operator=(const BackendRegistry&) = delete;

 private:
  BackendRegistry() = default;
  struct Entry {
    std::unique_ptr<Backend> backend;
    int priority = 0;
  };
  std::vector<Entry> entries_;
};

/// Static-init self-registration helper:
///   namespace { const RegisterBackend<MyBackend> reg{priority}; }
template <typename T>
struct RegisterBackend {
  explicit RegisterBackend(int priority) {
    BackendRegistry::instance().add(std::make_unique<T>(), priority);
  }
};

}  // namespace pfc::backend
