#include "pfc/backend/jit.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "pfc/support/assert.hpp"
#include "pfc/support/thread_pool.hpp"
#include "pfc/support/timer.hpp"

namespace pfc::backend {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void remove_tree(const std::string& dir) {
  // Besides our own kernel*.cpp/.o/.log and kernel.so the compiler may
  // leave temp objects behind on a failed compile or link (LTO scratch,
  // -save-temps passed via extra flags); remove whatever is there so a
  // failure never leaks scratch space.
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Scratch root for JIT build directories; PFC_JIT_TMPDIR overrides /tmp
// (tests point it at a private directory to assert nothing leaks).
std::string scratch_root() {
  if (const char* env = std::getenv("PFC_JIT_TMPDIR")) {
    if (*env != '\0') {
      std::error_code ec;
      std::filesystem::create_directories(env, ec);
      return env;
    }
  }
  return "/tmp";
}

}  // namespace

int probe_native_vector_width() {
  // The env override is re-read on every call (not cached) so a bad value
  // always fails fast and tests can flip it; only the ISA probe is cached.
  if (const char* env = std::getenv("PFC_VECTOR_WIDTH")) {
    if (*env != '\0') {
      char* end = nullptr;
      const long w = std::strtol(env, &end, 10);
      const bool valid =
          end != env && *end == '\0' && (w == 1 || w == 2 || w == 4 || w == 8);
      if (!valid) {
        throw Error(std::string("pfc: invalid PFC_VECTOR_WIDTH \"") + env +
                    "\" (accepted values: 1, 2, 4, 8)");
      }
      return int(w);
    }
  }
  static const int cached = [] {
    const char* env_cxx = std::getenv("CXX");
    const std::string compiler =
        (env_cxx != nullptr && *env_cxx != '\0') ? env_cxx : "c++";
    // Same scratch convention as the per-compile build dirs: honor
    // PFC_JIT_TMPDIR so sandboxed runs never touch the real /tmp.
    std::string tmpl_str = scratch_root() + "/pfc_probe_XXXXXX";
    char* tmpl = tmpl_str.data();
    const int fd = ::mkstemp(tmpl);
    if (fd < 0) return 4;
    ::close(fd);
    const std::string cmd = compiler +
                            " -O3 -march=native -dM -E -x c++ /dev/null > " +
                            tmpl + " 2>/dev/null";
    const int rc = std::system(cmd.c_str());
    const std::string macros = rc == 0 ? read_file(tmpl) : std::string{};
    std::remove(tmpl);
    if (macros.find("__AVX512F__") != std::string::npos) return 8;
    if (macros.find("__AVX__") != std::string::npos) return 4;
    if (macros.find("__SSE2__") != std::string::npos) return 2;
    if (macros.find("__ARM_NEON") != std::string::npos) return 2;
    return 4;
  }();
  return cached;
}

JitLibrary JitLibrary::load(const std::string& so_path) {
  JitLibrary lib;
  lib.so_path_ = so_path;
  lib.handle_ = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (lib.handle_ == nullptr) {
    const std::string err = ::dlerror();
    throw Error("pfc JIT dlopen failed for " + so_path + ": " + err);
  }
  return lib;
}

JitLibrary JitLibrary::compile(const std::vector<std::string>& units,
                               const Options& opts) {
  PFC_REQUIRE(!units.empty(), "JitLibrary::compile: no translation unit");
  // pid + atomic counter make the scratch name unique before mkdtemp even
  // runs: two threads compiling concurrently (the job server does this all
  // day) and two processes sharing PFC_JIT_TMPDIR each get their own
  // subdirectory, and a leftover directory from a crashed run can never be
  // picked up by a later compile.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmpl_str = scratch_root() + "/pfc_jit_p" +
                               std::to_string(::getpid()) + "_c" +
                               std::to_string(counter.fetch_add(1)) +
                               "_XXXXXX";
  std::vector<char> tmpl(tmpl_str.begin(), tmpl_str.end());
  tmpl.push_back('\0');
  const char* dir = ::mkdtemp(tmpl.data());
  PFC_REQUIRE(dir != nullptr, "mkdtemp failed for JIT scratch space");

  JitLibrary lib;
  lib.dir_ = dir;
  lib.keep_ = opts.keep_sources;

  // The units compile to objects side by side, at most one per CPU the
  // process may use, and link into one shared object; a failed unit stops
  // the queue.
  const std::size_t n = units.size();
  const std::string stem = lib.dir_ + "/kernel";
  const auto unit_path = [&](std::size_t i, const char* ext) {
    return stem + std::to_string(i) + ext;
  };
  for (std::size_t i = 0; i < n; ++i) {
    std::ofstream out(unit_path(i, ".cpp"));
    out << units[i];
    if (!out.good()) {
      remove_tree(lib.dir_);
      lib.dir_.clear();
      throw Error("cannot write JIT source file " + unit_path(i, ".cpp"));
    }
  }

  std::string compiler = opts.compiler;
  if (compiler.empty()) {
    const char* env = std::getenv("CXX");
    compiler = (env != nullptr && *env != '\0') ? env : "c++";
  }
  const auto command = [&](const std::string& args, const char* libs,
                           const std::string& log) {
    return compiler + " " + opts.optimization + " -fPIC " + args + " " +
           opts.extra_flags + libs + " > " + log + " 2>&1";
  };
  const auto fail = [&](const std::string& what, const std::string& log) {
    const std::string text = read_file(log);
    if (!opts.keep_sources) remove_tree(lib.dir_);
    throw Error("pfc JIT " + what + " failed:\n" + text);
  };

  Timer timer;
  std::vector<std::string> cmds;
  for (std::size_t i = 0; i < n; ++i) {
    cmds.push_back(command(
        "-c -o " + unit_path(i, ".o") + " " + unit_path(i, ".cpp"), "",
        unit_path(i, ".log")));
  }
  std::vector<int> rc(n, 0);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  ThreadPool pool(
      int(std::min(n, std::size_t(ThreadPool::hardware_threads()))));
  pool.run_on_all([&](int) {
    for (std::size_t i = next++; i < n && !failed; i = next++) {
      rc[i] = std::system(cmds[i].c_str());
      if (rc[i] != 0) failed = true;
    }
  });
  // Units start in index order, so the lowest failed unit always ran.
  for (std::size_t i = 0; i < n; ++i) {
    if (rc[i] != 0) {
      fail("compilation (unit " + std::to_string(i + 1) + " of " +
               std::to_string(n) + ")",
           unit_path(i, ".log"));
    }
  }
  std::string objects;
  for (std::size_t i = 0; i < n; ++i) {
    objects.append(" ").append(unit_path(i, ".o"));
  }
  const std::string cmd =
      command("-shared -o " + stem + ".so" + objects, " -lm", stem + ".log");
  if (std::system(cmd.c_str()) != 0) fail("link", stem + ".log");
  lib.compile_seconds_ = timer.seconds();

  lib.so_path_ = lib.dir_ + "/kernel.so";
  lib.handle_ = ::dlopen(lib.so_path_.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (lib.handle_ == nullptr) {
    const std::string err = ::dlerror();
    if (!opts.keep_sources) remove_tree(lib.dir_);
    throw Error("pfc JIT dlopen failed: " + err);
  }
  return lib;
}

JitLibrary::JitLibrary(JitLibrary&& other) noexcept
    : handle_(other.handle_),
      dir_(std::move(other.dir_)),
      so_path_(std::move(other.so_path_)),
      keep_(other.keep_),
      compile_seconds_(other.compile_seconds_) {
  other.handle_ = nullptr;
  other.dir_.clear();
  other.so_path_.clear();
}

JitLibrary& JitLibrary::operator=(JitLibrary&& other) noexcept {
  if (this != &other) {
    this->~JitLibrary();
    new (this) JitLibrary(std::move(other));
  }
  return *this;
}

JitLibrary::~JitLibrary() {
  if (handle_ != nullptr) ::dlclose(handle_);
  if (!dir_.empty() && !keep_) remove_tree(dir_);
}

KernelFn JitLibrary::get(const std::string& name) const {
  PFC_REQUIRE(handle_ != nullptr, "JitLibrary is empty (moved from?)");
  void* sym = ::dlsym(handle_, name.c_str());
  PFC_REQUIRE(sym != nullptr, "JIT symbol not found: " + name);
  return reinterpret_cast<KernelFn>(sym);
}

}  // namespace pfc::backend
