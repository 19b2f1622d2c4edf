// JIT execution of generated kernels: the generated C++ source is compiled
// with the system compiler into a shared object and loaded with dlopen.
// This mirrors the paper's production path (generate → vendor compiler →
// link into the application); see DESIGN.md §2 for the substitution note.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pfc/backend/codegen_common.hpp"

namespace pfc::backend {

/// Widest double-vector (in lanes) the JIT's target supports, probed once
/// by preprocessing an empty file with the JIT compiler's own flags
/// (-march=native) and inspecting the ISA macros: AVX-512 → 8, AVX → 4,
/// SSE2/NEON → 2. The env var PFC_VECTOR_WIDTH (1/2/4/8) overrides the
/// probe and is checked strictly: any other value throws pfc::Error listing
/// the accepted ones. An unusable compiler falls back to 4 (GCC/Clang
/// vector extensions lower any width to whatever the target has). The ISA
/// probe is cached after the first call; the env override is not.
int probe_native_vector_width();

/// A compiled shared object holding one or more kernel entry points.
/// Move-only RAII: unloads the library and removes the scratch directory.
/// Scratch directories live under /tmp (or PFC_JIT_TMPDIR when set); each
/// compile gets its own "pfc_jit_p<pid>_c<counter>_XXXXXX" subdirectory
/// (pid + a process-wide atomic counter), so concurrent compiles in one
/// process — or several server processes sharing one PFC_JIT_TMPDIR — can
/// never collide. Scratch space is fully removed — including any stray
/// compiler artifacts — on failure too.
class JitLibrary {
 public:
  struct Options {
    std::string compiler;             ///< default: $CXX or "c++"
    std::string extra_flags;          ///< appended to the command line
    bool keep_sources = false;        ///< keep scratch dir for inspection
    /// No FMA contraction: every tier, width and sub-range runs the
    /// same IEEE operations per cell, so results never depend on which
    /// loop body (vector, peel or remainder) computed a cell.
    std::string optimization = "-O3 -march=native -ffp-contract=off";
  };

  /// Compiles the translation units into one shared object: one object
  /// per unit, side by side (at most one compile per CPU of the affinity
  /// mask), then one link. Throws pfc::Error with the diagnostics of the
  /// lowest-numbered failed unit, or of the link.
  static JitLibrary compile(const std::vector<std::string>& units,
                            const Options& opts);
  static JitLibrary compile(const std::string& source, const Options& opts) {
    return compile(std::vector<std::string>{source}, opts);
  }
  static JitLibrary compile(const std::string& source) {
    return compile(source, Options{});
  }

  /// dlopens an already-compiled shared object (a kernel-cache hit). The
  /// file is owned by the caller (the cache): no scratch directory is
  /// created and nothing is removed on destruction. Throws pfc::Error when
  /// the file is missing or not loadable (a corrupted cache entry).
  static JitLibrary load(const std::string& so_path);

  JitLibrary(JitLibrary&& other) noexcept;
  JitLibrary& operator=(JitLibrary&& other) noexcept;
  ~JitLibrary();

  /// Resolves an entry point; throws if missing.
  KernelFn get(const std::string& name) const;

  /// Scratch directory (useful with keep_sources; empty for load()ed
  /// libraries).
  const std::string& directory() const { return dir_; }

  /// Path of the loaded shared object (inside the scratch directory for
  /// compiled libraries, the cache path for load()ed ones).
  const std::string& shared_object_path() const { return so_path_; }

  /// Wall-clock seconds the external compiler took (paper §5.1 discusses
  /// recompilation cost); 0.0 for load()ed libraries.
  double compile_seconds() const { return compile_seconds_; }

 private:
  JitLibrary() = default;

  void* handle_ = nullptr;
  std::string dir_;
  std::string so_path_;
  bool keep_ = false;
  double compile_seconds_ = 0.0;
};

}  // namespace pfc::backend
