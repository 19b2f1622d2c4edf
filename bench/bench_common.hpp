// Shared helpers for the benchmark harness: lowering single PDEs of the
// P1/P2 models to optimized IR kernels, timing one PDE's explicit split
// pair, formatting, and emitting the BENCH_<name>.json reports in the same
// pfc-obs-report-v7 schema the examples write (tools/report_check.cpp
// validates it).
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pfc/app/compiler.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/support/thread_pool.hpp"
#include "pfc/support/timer.hpp"

namespace pfc::bench {

enum class Which { PhiP1, MuP1, PhiP2, MuP2 };

inline const char* which_name(Which w) {
  switch (w) {
    case Which::PhiP1: return "P1 phi";
    case Which::MuP1: return "P1 mu";
    case Which::PhiP2: return "P2 phi";
    case Which::MuP2: return "P2 mu";
  }
  return "?";
}

inline bool is_phi(Which w) { return w == Which::PhiP1 || w == Which::PhiP2; }

inline app::GrandChemParams params_of(Which w, int dims) {
  return w == Which::PhiP1 || w == Which::MuP1 ? app::make_p1(dims)
                                               : app::make_p2(dims);
}

/// Lowers one kernel family (full: 1 kernel; split: staggered + main).
inline std::vector<ir::Kernel> lower_kernels(Which w, bool split,
                                             int dims = 3) {
  const app::GrandChemParams params = params_of(w, dims);
  app::GrandChemModel model(params);
  const app::CompileOptions co;
  fd::DiscretizeOptions d =
      app::ModelCompiler::discretization(params, is_phi(w) ? 0 : 1, co);
  d.split_staggered = split;
  std::optional<FieldPtr> flux;
  return app::ModelCompiler::lower(
      is_phi(w) ? model.phi_update() : model.mu_update(), d, co, &flux);
}

/// MLUP/s of one PDE's explicit split pair (3-D): the pair compiled
/// through ModelCompiler::compile_updates, its kernels swept `steps` times
/// over one block of `cells` on `threads` threads with static slabs, as a
/// Simulation launches them. φ holds the benches' lamellar interface and µ
/// is 0, ghosts included; each other field the pair binds (its flux field)
/// is allocated at n + 1 per axis, as face_once_bitwise binds it.
inline double split_pair_mlups(Which w, int threads, int steps,
                               const std::array<long long, 3>& cells,
                               int vector_width = 0) {
  const app::GrandChemParams params = params_of(w, 3);
  app::GrandChemModel model(params);
  app::CompileOptions co;
  co.vector_width = vector_width;
  fd::DiscretizeOptions d = app::ModelCompiler::discretization(params, 0, co);
  d.split_staggered = true;
  const app::CompiledModel cm = app::ModelCompiler(co).compile_updates(
      {model.phi_update(), model.mu_update()}, d);
  const std::vector<app::CompiledKernel>& pair =
      is_phi(w) ? cm.phi_kernels : cm.mu_kernels;

  const std::unique_ptr<ThreadPool> pool =
      threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  const SlabPlan plan = SlabPlan::make(0, cells[2], threads);
  const std::array<std::int64_t, 3> n{cells[0], cells[1], cells[2]};
  std::vector<std::unique_ptr<Array>> arrays;
  for (const FieldPtr& f : {model.phi_src(), model.phi_dst(), model.mu_src(),
                            model.mu_dst()}) {
    arrays.push_back(std::make_unique<Array>(f, n, 1, pool.get()));
    Array& a = *arrays.back();
    const bool phi = f->id() == model.phi_src()->id() ||
                     f->id() == model.phi_dst()->id();
    for (int c = 0; c < a.components(); ++c) {
      for (long long z = -1; z <= cells[2]; ++z) {
        for (long long y = -1; y <= cells[1]; ++y) {
          for (long long x = -1; x <= cells[0]; ++x) {
            const double s =
                app::interface_profile(double(x % 16) - 8.0, 10.0);
            a.at(x, y, z, c) = !phi ? 0.0 : c == 0 ? 1.0 - s : c == 1 ? s : 0.0;
          }
        }
      }
    }
  }
  const auto array_of = [&](const FieldPtr& f) -> Array& {
    for (auto& a : arrays) {
      if (a->field()->id() == f->id()) return *a;
    }
    arrays.push_back(std::make_unique<Array>(
        f, std::array<std::int64_t, 3>{n[0] + 1, n[1] + 1, n[2] + 1}, 0,
        pool.get()));
    return *arrays.back();
  };
  std::vector<backend::Binding> bindings;
  for (const app::CompiledKernel& k : pair) {
    backend::Binding b;
    for (const FieldPtr& f : k.ir.fields) b.arrays.push_back(&array_of(f));
    bindings.push_back(std::move(b));
  }

  Timer timer;
  for (int step = 0; step < steps; ++step) {
    for (std::size_t k = 0; k < pair.size(); ++k) {
      pair[k].run(bindings[k], cells, 0.0, step, pool.get(), nullptr,
                  nullptr, pool != nullptr ? &plan : nullptr);
    }
  }
  return obs::safe_rate(double(n[0] * n[1] * n[2]) * steps,
                        timer.seconds()) /
         1e6;
}

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Builds a bench report in the shared schema from derived scalar results
/// (model predictions, measured rates) plus optional timers/counters.
inline obs::Json bench_report_json(
    const std::string& bench_name,
    const std::map<std::string, double>& derived,
    const std::map<std::string, obs::TimerStat>& timers = {},
    const std::map<std::string, std::uint64_t>& counters = {}) {
  return obs::BenchReport{bench_name, timers, counters, derived}.to_json();
}

/// Writes BENCH_<name>.json to the working directory (the trajectory file
/// the bench drivers collect) and announces the path.
inline void write_bench_report(const std::string& bench_name,
                               const obs::Json& report) {
  const std::string path = "BENCH_" + bench_name + ".json";
  obs::write_json(path, report);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace pfc::bench
