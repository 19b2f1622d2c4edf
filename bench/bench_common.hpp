// Shared helpers for the benchmark harness: lowering single PDEs of the
// P1/P2 models to optimized IR kernels, formatting, and emitting the
// BENCH_<name>.json reports in the same pfc-obs-report-v7 schema the
// examples write (tools/report_check.cpp validates it; v2-v6 are still
// read).
#pragma once

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "pfc/app/compiler.hpp"
#include "pfc/app/params.hpp"
#include "pfc/obs/report.hpp"

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

/// Lowers one kernel family (full: 1 kernel; split: staggered + main).
inline std::vector<ir::Kernel> lower_kernels(Which w, bool split,
                                             int dims = 3) {
  const app::GrandChemParams params =
      (w == Which::PhiP1 || w == Which::MuP1) ? app::make_p1(dims)
                                              : app::make_p2(dims);
  app::GrandChemModel model(params);
  const bool is_phi = w == Which::PhiP1 || w == Which::PhiP2;

  fd::DiscretizeOptions d;
  d.dims = dims;
  d.dx = params.dx;
  d.dt = params.dt;
  d.split_staggered = split;
  d.clamp_unit_interval = is_phi;
  d.renormalize_simplex = is_phi;
  std::optional<FieldPtr> flux;
  return app::ModelCompiler::lower(
      is_phi ? model.phi_update() : model.mu_update(), d,
      app::CompileOptions{}, &flux);
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
