// Content-addressed kernel cache (backend::KernelCache): key stability,
// hit/miss/eviction accounting, corrupted-entry fallback, concurrent-compile
// dedup, one entry per multi-unit model — plus the PFC_JIT_TMPDIR
// isolation contract two compiles in one process rely on, and the failure
// paths of a multi-unit compile.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "pfc/backend/c_emitter.hpp"
#include "pfc/backend/jit.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/fd/discretize.hpp"
#include "pfc/ir/kernel.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::backend {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under /tmp, removed on destruction.
struct TempDir {
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "pfc_kc_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* made = ::mkdtemp(buf.data());
    PFC_REQUIRE(made != nullptr, "mkdtemp failed in test");
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::string tiny_source(const std::string& tag) {
  return "extern \"C\" void pfc_cache_probe_" + tag + "() {}\n";
}

bool is_lower_hex(const std::string& s) {
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

TEST(KernelCache, KeyIsStableAndContentAddressed) {
  JitLibrary::Options opts;
  const std::string a = KernelCache::key_of(tiny_source("a"), opts);
  EXPECT_EQ(a, KernelCache::key_of(tiny_source("a"), opts));
  EXPECT_EQ(a.size(), 64u);
  EXPECT_TRUE(is_lower_hex(a));

  // Anything that changes the binary changes the key...
  EXPECT_NE(a, KernelCache::key_of(tiny_source("b"), opts));
  JitLibrary::Options flags = opts;
  flags.extra_flags = "-DPFC_TEST";
  EXPECT_NE(a, KernelCache::key_of(tiny_source("a"), flags));
  JitLibrary::Options o2 = opts;
  o2.optimization = "-O2";
  EXPECT_NE(a, KernelCache::key_of(tiny_source("a"), o2));

  // ...and keep_sources, which only changes scratch handling, does not.
  JitLibrary::Options keep = opts;
  keep.keep_sources = true;
  EXPECT_EQ(a, KernelCache::key_of(tiny_source("a"), keep));
}

TEST(KernelCache, MissThenMemoryHit) {
  TempDir dir;
  KernelCacheConfig cfg;
  cfg.directory = dir.path;
  KernelCache& cache = KernelCache::shared();
  cache.reset();

  const KernelCacheResult first =
      cache.acquire(tiny_source("mh"), {}, cfg);
  ASSERT_NE(first.library, nullptr);
  EXPECT_FALSE(first.hit);
  EXPECT_GT(first.compile_seconds, 0.0);
  EXPECT_TRUE(fs::exists(dir.path + "/" + first.key + ".so"));

  const KernelCacheResult again =
      cache.acquire(tiny_source("mh"), {}, cfg);
  ASSERT_NE(again.library, nullptr);
  EXPECT_TRUE(again.hit);
  EXPECT_EQ(again.key, first.key);
  EXPECT_EQ(again.compile_seconds, 0.0);

  const KernelCacheStats st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_GT(st.bytes, 0u);
  cache.reset();
}

TEST(KernelCache, DiskHitSurvivesReset) {
  TempDir dir;
  KernelCacheConfig cfg;
  cfg.directory = dir.path;
  KernelCache& cache = KernelCache::shared();
  cache.reset();
  cache.acquire(tiny_source("disk"), {}, cfg);

  // reset() drops the in-memory index but leaves the files: the next
  // acquire rediscovers the entry as a disk hit (cross-process reuse).
  cache.reset();
  const KernelCacheResult r = cache.acquire(tiny_source("disk"), {}, cfg);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.compile_seconds, 0.0);
  const KernelCacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 0u);
  cache.reset();
}

TEST(KernelCache, LruEvictsOldestWhenOverBudget) {
  TempDir dir;
  KernelCacheConfig cfg;
  cfg.directory = dir.path;
  cfg.max_bytes = 1;  // every .so is larger: only the newest entry survives
  KernelCache& cache = KernelCache::shared();
  cache.reset();

  const KernelCacheResult a = cache.acquire(tiny_source("ev_a"), {}, cfg);
  const KernelCacheResult b = cache.acquire(tiny_source("ev_b"), {}, cfg);
  KernelCacheStats st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_FALSE(fs::exists(dir.path + "/" + a.key + ".so"));
  EXPECT_TRUE(fs::exists(dir.path + "/" + b.key + ".so"));
  // A library handed out before its entry was evicted stays valid.
  EXPECT_NE(a.library, nullptr);

  // The evicted entry is gone for real: asking again recompiles.
  const KernelCacheResult a2 = cache.acquire(tiny_source("ev_a"), {}, cfg);
  EXPECT_FALSE(a2.hit);
  st = cache.stats();
  EXPECT_EQ(st.misses, 3u);
  EXPECT_EQ(st.evictions, 2u);
  cache.reset();
}

TEST(KernelCache, CorruptedEntryFallsBackToRecompile) {
  TempDir dir;
  KernelCacheConfig cfg;
  cfg.directory = dir.path;
  KernelCache& cache = KernelCache::shared();
  cache.reset();
  KernelCacheResult first = cache.acquire(tiny_source("corrupt"), {}, cfg);
  // Unload the library before corrupting the file: dlopen dedups by inode,
  // so a still-mapped object would mask the corruption.
  cache.reset();
  first.library.reset();

  {
    std::ofstream f(dir.path + "/" + first.key + ".so",
                    std::ios::binary | std::ios::trunc);
    f << "not an ELF shared object";
  }

  // Corruption costs a recompile, never an error or a wrong library.
  const KernelCacheResult r = cache.acquire(tiny_source("corrupt"), {}, cfg);
  ASSERT_NE(r.library, nullptr);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(cache.stats().misses, 1u);

  // The recompile republished a loadable object.
  cache.reset();
  EXPECT_TRUE(cache.acquire(tiny_source("corrupt"), {}, cfg).hit);
  cache.reset();
}

TEST(KernelCache, ConcurrentAcquiresCompileOnce) {
  TempDir dir;
  KernelCacheConfig cfg;
  cfg.directory = dir.path;
  KernelCache& cache = KernelCache::shared();
  cache.reset();

  KernelCacheResult r1, r2;
  std::thread t1([&] { r1 = cache.acquire(tiny_source("cc"), {}, cfg); });
  std::thread t2([&] { r2 = cache.acquire(tiny_source("cc"), {}, cfg); });
  t1.join();
  t2.join();

  ASSERT_NE(r1.library, nullptr);
  ASSERT_NE(r2.library, nullptr);
  EXPECT_EQ(r1.key, r2.key);
  const KernelCacheStats st = cache.stats();
  EXPECT_EQ(st.misses, 1u) << "in-flight dedup must compile exactly once";
  EXPECT_EQ(st.hits, 1u);
  cache.reset();
}

/// A 2-D kernel `name`: diffusion of `src` into `dst`, plus noise.
ir::Kernel noisy_diffusion(const std::string& name) {
  auto src = Field::create(name + "_src", 2, 1);
  auto dst = Field::create(name + "_dst", 2, 1);
  fd::PdeUpdate pde;
  pde.name = name;
  pde.src = src;
  pde.dst = dst;
  const sym::Expr u = sym::at(src);
  pde.rhs = {sym::diff_op(sym::diff_op(u, 0), 0) +
             sym::diff_op(sym::diff_op(u, 1), 1) +
             0.01 * sym::random_uniform(0)};
  fd::DiscretizeOptions o;
  o.dims = 2;
  ir::BuildOptions bo;
  bo.dims = 2;
  return ir::build_kernel(fd::discretize(pde, o).kernels[0], bo);
}

// A model is one cache entry however it compiles: its kernels, compiled as
// one unit each, publish under the key of the joined one-TU text, so
// acquiring that text as a single unit — what a probe that emits the
// kernels itself does — is a hit, in this process and in a fresh one.
TEST(KernelCache, MultiUnitModelSharesTheJoinedEntry) {
  TempDir dir;
  KernelCacheConfig cfg;
  cfg.directory = dir.path;
  KernelCache& cache = KernelCache::shared();
  cache.reset();

  const ir::Kernel k1 = noisy_diffusion("mu_first");
  const ir::Kernel k2 = noisy_diffusion("mu_second");
  CEmitOptions eo;
  eo.vector_width = 4;
  const ModelSource model = emit_model({&k1, &k2}, eo);
  ASSERT_EQ(model.units.size(), 2u);
  std::string joined;
  for (const ir::Kernel* k : {&k1, &k2}) {
    eo.include_preamble = k == &k1;
    joined += emit_c(*k, eo) + "\n";
  }
  EXPECT_EQ(model.joined, joined);

  const KernelCacheResult built =
      cache.acquire(model.joined, model.units, {}, cfg);
  EXPECT_FALSE(built.hit);
  EXPECT_EQ(built.key, KernelCache::key_of(joined, {}));
  EXPECT_NO_THROW(built.library->get(entry_name(k1)));
  EXPECT_NO_THROW(built.library->get(entry_name(k2)));

  const KernelCacheResult probe = cache.acquire(joined, {}, cfg);
  EXPECT_TRUE(probe.hit);
  EXPECT_EQ(probe.key, built.key);
  KernelCache fresh;
  EXPECT_TRUE(fresh.acquire(joined, {}, cfg).hit);
  const KernelCacheStats st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.entries, 1u);
  cache.reset();
}

// PFC_JIT_TMPDIR isolation: two compiles in one process (here: truly
// concurrent, as the serve daemon's workers run them) each get their own
// pfc_jit_p<pid>_c<counter> scratch directory under the shared tmpdir and
// never collide.
TEST(JitTmpDir, ConcurrentCompilesGetUniqueScratchDirs) {
  TempDir dir;
  ASSERT_EQ(::setenv("PFC_JIT_TMPDIR", dir.path.c_str(), 1), 0);

  std::string dir_a, dir_b;
  std::thread ta([&] {
    JitLibrary lib = JitLibrary::compile(tiny_source("tmp_a"));
    dir_a = lib.directory();
    EXPECT_NO_THROW(lib.get("pfc_cache_probe_tmp_a"));
  });
  std::thread tb([&] {
    JitLibrary lib = JitLibrary::compile(tiny_source("tmp_b"));
    dir_b = lib.directory();
    EXPECT_NO_THROW(lib.get("pfc_cache_probe_tmp_b"));
  });
  ta.join();
  tb.join();
  ::unsetenv("PFC_JIT_TMPDIR");

  EXPECT_NE(dir_a, dir_b);
  const std::string prefix =
      dir.path + "/pfc_jit_p" + std::to_string(::getpid()) + "_c";
  EXPECT_EQ(dir_a.compare(0, prefix.size(), prefix), 0) << dir_a;
  EXPECT_EQ(dir_b.compare(0, prefix.size(), prefix), 0) << dir_b;
}

/// The message of the pfc::Error `f` throws ("" when it does not throw).
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// A multi-unit compile that fails — a second unit stopped by #error, or a
// compiler that always fails — throws with that unit's diagnostics, leaves
// PFC_JIT_TMPDIR empty and publishes nothing to the cache; the good units
// then still compile side by side and link into one library.
TEST(JitTmpDir, FailedUnitThrowsItsDiagnosticsAndLeavesNoScratch) {
  TempDir scratch, cache_dir;
  ASSERT_EQ(::setenv("PFC_JIT_TMPDIR", scratch.path.c_str(), 1), 0);
  KernelCacheConfig cfg;
  cfg.directory = cache_dir.path;
  KernelCache cache;
  const std::vector<std::string> good = {tiny_source("unit_a"),
                                         tiny_source("unit_b")};
  const std::vector<std::string> broken = {
      tiny_source("unit_a"), "#error second unit is broken\n"};

  std::string what = error_of([&] { JitLibrary::compile(broken, {}); });
  EXPECT_NE(what.find("unit 2 of 2"), std::string::npos) << what;
  EXPECT_NE(what.find("second unit is broken"), std::string::npos) << what;
  what = error_of([&] { cache.acquire("broken", broken, {}, cfg); });
  EXPECT_NE(what.find("second unit is broken"), std::string::npos) << what;

  JitLibrary::Options no_compiler;
  no_compiler.compiler = "false";
  what = error_of([&] { JitLibrary::compile(good, no_compiler); });
  EXPECT_NE(what.find("unit 1 of 2"), std::string::npos) << what;
  what = error_of([&] { cache.acquire("good", good, no_compiler, cfg); });
  EXPECT_NE(what.find("unit 1 of 2"), std::string::npos) << what;

  EXPECT_TRUE(fs::is_empty(scratch.path));
  EXPECT_TRUE(fs::is_empty(cache_dir.path));
  EXPECT_EQ(cache.stats().entries, 0u);

  const KernelCacheResult r = cache.acquire("good", good, {}, cfg);
  EXPECT_FALSE(r.hit);
  EXPECT_NO_THROW(r.library->get("pfc_cache_probe_unit_a"));
  EXPECT_NO_THROW(r.library->get("pfc_cache_probe_unit_b"));
  ::unsetenv("PFC_JIT_TMPDIR");
  EXPECT_TRUE(fs::is_empty(scratch.path));
}

}  // namespace
}  // namespace pfc::backend
