#include "pfc/backend/kernel_cache.hpp"

#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "pfc/obs/metrics.hpp"
#include "pfc/support/assert.hpp"
#include "pfc/support/sha256.hpp"

namespace pfc::backend {

namespace fs = std::filesystem;

namespace {

/// Shared-registry mirrors of the cache accounting (what the serve
/// daemon's "metrics" request exposes; Impl's own counters stay the
/// source of truth for stats()).
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Gauge& bytes;
  obs::Gauge& entries;
};

CacheMetrics& cache_metrics() {
  auto& m = obs::MetricsRegistry::shared();
  static CacheMetrics cm{
      m.counter("pfc_kernel_cache_hits_total",
                "Kernel-cache lookups served from the index"),
      m.counter("pfc_kernel_cache_misses_total",
                "Kernel-cache lookups that compiled"),
      m.counter("pfc_kernel_cache_evictions_total",
                "Cached kernels unlinked by the LRU budget"),
      m.gauge("pfc_kernel_cache_bytes", "Bytes of cached shared objects"),
      m.gauge("pfc_kernel_cache_entries", "Cached shared objects"),
  };
  return cm;
}

}  // namespace

struct KernelCache::Impl {
  struct Entry {
    std::shared_ptr<JitLibrary> library;  ///< null until first load
    std::string path;
    std::uint64_t bytes = 0;
    std::uint64_t last_use = 0;  ///< LRU clock (monotonic sequence)
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::map<std::string, Entry> entries;   ///< key -> entry
  std::set<std::string> in_flight;        ///< keys currently compiling
  std::set<std::string> scanned_dirs;     ///< directories already indexed
  std::uint64_t clock = 0;
  std::uint64_t hits = 0, misses = 0, evictions = 0;

  std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& [k, e] : entries) sum += e.bytes;
    return sum;
  }

  /// Indexes pre-existing *.so files of `dir` once (cross-process reuse:
  /// a restarted server rediscovers what earlier processes compiled).
  /// Called under the lock.
  void scan_dir(const std::string& dir) {
    if (!scanned_dirs.insert(dir).second) return;
    std::error_code ec;
    for (const auto& de : fs::directory_iterator(dir, ec)) {
      const fs::path p = de.path();
      if (p.extension() != ".so") continue;
      const std::string key = p.stem().string();
      if (key.size() != 64 || entries.count(key) != 0) continue;
      Entry e;
      e.path = p.string();
      e.bytes = std::uint64_t(fs::file_size(p, ec));
      e.last_use = clock++;
      entries.emplace(key, std::move(e));
    }
  }

  /// Unlinks least-recently-used entries until the budget holds, never
  /// touching `keep` (the entry just inserted) so a single oversized
  /// kernel still caches. Called under the lock.
  void evict_to_budget(std::uint64_t max_bytes, const std::string& keep) {
    if (max_bytes == 0) return;
    while (entries.size() > 1 && total_bytes() > max_bytes) {
      auto victim = entries.end();
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        if (it->first == keep) continue;
        if (victim == entries.end() ||
            it->second.last_use < victim->second.last_use) {
          victim = it;
        }
      }
      if (victim == entries.end()) return;
      std::error_code ec;
      fs::remove(victim->second.path, ec);
      entries.erase(victim);
      ++evictions;
      cache_metrics().evictions.add(1);
    }
  }

  /// Refreshes the shared-registry level gauges. Called under the lock.
  void publish_levels() const {
    cache_metrics().bytes.set(double(total_bytes()));
    cache_metrics().entries.set(double(entries.size()));
  }
};

std::shared_ptr<KernelCache::Impl> KernelCache::make_impl() {
  return std::make_shared<Impl>();
}

KernelCache& KernelCache::shared() {
  static KernelCache instance;
  return instance;
}

std::string KernelCache::key_of(const std::string& source,
                                const JitLibrary::Options& opts) {
  std::string compiler = opts.compiler;
  if (compiler.empty()) {
    const char* env = std::getenv("CXX");
    compiler = (env != nullptr && *env != '\0') ? env : "c++";
  }
  support::Sha256 h;
  h.update(source);
  // NUL separators keep (flags, source) framing unambiguous.
  const char sep = '\0';
  h.update(&sep, 1);
  h.update(compiler);
  h.update(&sep, 1);
  h.update(opts.optimization);
  h.update(&sep, 1);
  h.update(opts.extra_flags);
  const auto d = h.digest();
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t b : d) {
    out.push_back(hex[b >> 4]);
    out.push_back(hex[b & 0xf]);
  }
  return out;
}

KernelCacheResult KernelCache::acquire(const std::string& key_source,
                                       const std::vector<std::string>& units,
                                       const JitLibrary::Options& opts,
                                       const KernelCacheConfig& config) {
  PFC_REQUIRE(!config.directory.empty(),
              "KernelCache::acquire needs a cache directory");
  std::shared_ptr<Impl> impl = impl_;

  KernelCacheResult result;
  result.key = key_of(key_source, opts);
  const std::string cache_path =
      config.directory + "/" + result.key + ".so";

  std::error_code ec;
  fs::create_directories(config.directory, ec);

  std::unique_lock<std::mutex> lock(impl->mutex);
  impl->scan_dir(config.directory);

  for (;;) {
    auto it = impl->entries.find(result.key);
    if (it != impl->entries.end()) {
      Impl::Entry& e = it->second;
      if (e.library == nullptr) {
        // Disk entry from a previous process (or an eviction survivor):
        // map it now. A corrupted file is removed and falls through to a
        // fresh compile instead of failing the job.
        try {
          e.library =
              std::make_shared<JitLibrary>(JitLibrary::load(e.path));
        } catch (const Error&) {
          fs::remove(e.path, ec);
          impl->entries.erase(it);
          break;  // recompile below
        }
      }
      e.last_use = impl->clock++;
      ++impl->hits;
      cache_metrics().hits.add(1);
      impl->publish_levels();
      result.library = e.library;
      result.hit = true;
      return result;
    }
    if (impl->in_flight.count(result.key) == 0) break;
    // Another thread is compiling this exact kernel: wait for it, then
    // re-check the index (one compile serves every concurrent requester).
    impl->cv.wait(lock);
  }

  impl->in_flight.insert(result.key);
  lock.unlock();

  std::shared_ptr<JitLibrary> library;
  std::uint64_t so_bytes = 0;
  try {
    JitLibrary compiled = JitLibrary::compile(units, opts);
    result.compile_seconds = compiled.compile_seconds();
    // Publish atomically: copy into the cache under a unique tmp name,
    // then rename. Readers only ever see complete files.
    const std::string tmp =
        cache_path + ".tmp." + std::to_string(::getpid());
    fs::copy_file(compiled.shared_object_path(), tmp,
                  fs::copy_options::overwrite_existing, ec);
    if (!ec) fs::rename(tmp, cache_path, ec);
    if (ec) {
      // Cache directory unusable (full disk, bad permissions): serve the
      // scratch-compiled library uncached rather than failing the job.
      fs::remove(tmp, ec);
      library = std::make_shared<JitLibrary>(std::move(compiled));
    } else {
      so_bytes = std::uint64_t(fs::file_size(cache_path, ec));
      // Drop the scratch copy and map the published file, so the resident
      // mapping and the index agree on one path.
      library = std::make_shared<JitLibrary>(JitLibrary::load(cache_path));
    }
  } catch (...) {
    lock.lock();
    impl->in_flight.erase(result.key);
    ++impl->misses;
    cache_metrics().misses.add(1);
    impl->cv.notify_all();
    throw;
  }

  lock.lock();
  impl->in_flight.erase(result.key);
  ++impl->misses;
  cache_metrics().misses.add(1);
  if (so_bytes > 0) {
    Impl::Entry e;
    e.library = library;
    e.path = cache_path;
    e.bytes = so_bytes;
    e.last_use = impl->clock++;
    impl->entries[result.key] = std::move(e);
    impl->evict_to_budget(config.max_bytes, result.key);
  }
  impl->publish_levels();
  impl->cv.notify_all();

  result.library = std::move(library);
  result.hit = false;
  return result;
}

KernelCacheStats KernelCache::stats() const {
  std::shared_ptr<Impl> impl = impl_;
  std::lock_guard<std::mutex> lock(impl->mutex);
  KernelCacheStats s;
  s.hits = impl->hits;
  s.misses = impl->misses;
  s.evictions = impl->evictions;
  s.bytes = impl->total_bytes();
  s.entries = impl->entries.size();
  return s;
}

void KernelCache::reset() {
  std::shared_ptr<Impl> impl = impl_;
  std::lock_guard<std::mutex> lock(impl->mutex);
  impl->entries.clear();
  impl->scanned_dirs.clear();
  impl->hits = impl->misses = impl->evictions = 0;
  impl->clock = 0;
  impl->publish_levels();
}

KernelCacheConfig kernel_cache_config_from_env() {
  KernelCacheConfig config;
  config.directory.clear();
  if (const char* dir = std::getenv("PFC_KERNEL_CACHE_DIR")) {
    if (*dir != '\0') config.directory = dir;
  }
  if (const char* mb = std::getenv("PFC_KERNEL_CACHE_MB")) {
    if (*mb != '\0') {
      char* end = nullptr;
      const long long v = std::strtoll(mb, &end, 10);
      if (end == mb || *end != '\0' || v < 0) {
        throw Error(std::string("pfc: invalid PFC_KERNEL_CACHE_MB \"") + mb +
                    "\" (expected a non-negative integer, 0 = unlimited)");
      }
      config.max_bytes = std::uint64_t(v) << 20;
    }
  }
  return config;
}

}  // namespace pfc::backend
