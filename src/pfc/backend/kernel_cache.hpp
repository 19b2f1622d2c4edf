// Content-addressed kernel cache (ROADMAP item 1): the expensive artifact
// of this whole pipeline is the JIT-compiled shared object, so it is shared
// by content — SHA-256 of the generated C source plus every flag that
// changes the binary (compiler, optimization level, extra flags) — rather
// than by job identity. The thousandth job of a given model+params+dt+width
// combination pays a dlopen, not a compiler run.
//
// Two layers back one index:
//   * on disk, "<dir>/<key>.so" published atomically (tmp + rename), so
//     entries survive process restarts and several server processes can
//     share one directory;
//   * in memory, the dlopened library handle per key, so concurrent jobs in
//     one process share a single mapping, and requests for a key that is
//     already compiling wait for that compile instead of duplicating it.
//
// Eviction is LRU by total shared-object bytes. Evicting an entry unlinks
// the file and drops the index entry; libraries already handed out stay
// valid (the mapping outlives the unlink). A cache file that fails to
// dlopen — truncated, corrupted, wrong architecture — is removed and the
// request falls back to a fresh compile; corruption can cost time, never
// correctness. Hit/miss/eviction counters surface in CompileReport's
// "cache" section (report schema v5).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pfc/backend/jit.hpp"

namespace pfc::backend {

/// Per-request cache knobs (populated from app::CompileOptions or the
/// PFC_KERNEL_CACHE_DIR / PFC_KERNEL_CACHE_MB environment).
struct KernelCacheConfig {
  std::string directory;  ///< empty = caching disabled
  /// LRU byte budget over the cached shared objects (0 = unlimited).
  std::uint64_t max_bytes = 256ull << 20;
};

/// Process-wide cache counters (cumulative since start/reset).
struct KernelCacheStats {
  std::uint64_t hits = 0;    ///< memory or disk hits
  std::uint64_t misses = 0;  ///< compiles actually run
  std::uint64_t evictions = 0;
  std::uint64_t bytes = 0;   ///< current resident shared-object bytes
  std::uint64_t entries = 0;
};

/// What acquire() hands back: the library plus the provenance the compile
/// report records.
struct KernelCacheResult {
  std::shared_ptr<JitLibrary> library;
  std::string key;      ///< SHA-256 content address (64 hex chars)
  bool hit = false;     ///< served without running the external compiler
  double compile_seconds = 0.0;  ///< external-compiler wall time (0 on hit)
};

class KernelCache {
 public:
  /// The process-wide instance every compile funnels through (one index =
  /// one dedup domain for concurrent jobs).
  static KernelCache& shared();

  /// Content address of (source, opts): SHA-256 over the source text and
  /// the compiler/optimization/extra-flags triple. keep_sources is
  /// deliberately excluded — it changes scratch handling, not the binary.
  static std::string key_of(const std::string& source,
                            const JitLibrary::Options& opts);

  /// Returns the library for (source, opts), compiling at most once per
  /// key across all concurrent callers. Throws pfc::Error only when a
  /// fresh compile fails (a corrupted cache entry recompiles instead).
  KernelCacheResult acquire(const std::string& source,
                            const JitLibrary::Options& opts,
                            const KernelCacheConfig& config) {
    return acquire(source, {source}, opts, config);
  }

  /// The same for source compiled as several translation units: the entry
  /// is keyed by key_of(key_source, opts), a miss compiles `units` into
  /// one shared object. A model passes its kernels as one TU
  /// (ModelSource::joined) and one unit per kernel, so a probe that
  /// compiles the joined text as one unit shares the model's entry.
  KernelCacheResult acquire(const std::string& key_source,
                            const std::vector<std::string>& units,
                            const JitLibrary::Options& opts,
                            const KernelCacheConfig& config);

  KernelCacheStats stats() const;

  /// Test hook: drops the in-memory index and zeroes the counters. Cache
  /// files on disk are left alone (they are rediscovered as disk hits).
  void reset();

  KernelCache() = default;
  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_ = make_impl();
  static std::shared_ptr<Impl> make_impl();
};

/// The cache configuration the environment selects when the options carry
/// none: PFC_KERNEL_CACHE_DIR enables caching, PFC_KERNEL_CACHE_MB caps it
/// (default 256 MB). Returns a disabled config when the env is unset.
KernelCacheConfig kernel_cache_config_from_env();

}  // namespace pfc::backend
