// pfc_perfbench: the measuring half of the benchmark. perfbench/run.py
// builds it, runs it inside a scratch directory and turns its report into
// the benchmark's result line.
//
//   pfc_perfbench run --workload W --seed N --seconds S --trace 0|1
//                     --spec perfbench/spec.json [--corrupt-checksum]
//   pfc_perfbench inputs --workload W --seed N --seconds S --spec FILE
//
// `run` prints one JSON object: correct/attempted/failed, the metrics
// (end-to-end without --trace, per-layer with it), the host signature and
// the choices behind the numbers, and the spans of a traced run.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "pfc/backend/kernel_cache.hpp"

namespace {

using pb::Json;

int usage() {
  std::fprintf(stderr,
               "usage: pfc_perfbench run|inputs --workload W --seed N "
               "--seconds S [--trace 0|1] --spec FILE [--corrupt-checksum]\n");
  return 2;
}

Json load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw pfc::Error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string err;
  Json j = Json::parse(ss.str(), &err);
  if (!j.is_object()) throw pfc::Error(path + ": " + err);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode != "run" && mode != "inputs") return usage();

  pb::Args a;
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw pfc::Error("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = value();
      else if (k == "--seed") a.seed = std::stoull(value());
      else if (k == "--seconds") a.seconds = std::stod(value());
      else if (k == "--trace") a.trace = value() == "1";
      else if (k == "--spec") a.spec_path = value();
      else if (k == "--corrupt-checksum") a.corrupt_checksum = true;
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pfc_perfbench: %s\n", e.what());
      return usage();
    }
  }
  if (a.workload.empty() || a.spec_path.empty() || a.seconds <= 0) {
    return usage();
  }

  try {
    const Json spec = load_spec(a.spec_path);
    if (mode == "inputs") {
      Json in;
      if (a.workload == "eutectic_3d") in = pb::describe_eutectic(spec, a.seed);
      else if (a.workload == "dendrite_2d_blocks") in = pb::describe_dendrite(spec, a.seed);
      else return usage();
      std::printf("%s\n", in.dump(-1).c_str());
      return 0;
    }

    // The host signature also runs the once-per-process SIMD width probe,
    // so no timed set-up pays it.
    const Json host = pb::host_signature();
    pb::Result r;
    if (a.workload == "eutectic_3d") r = pb::run_eutectic(a, spec);
    else if (a.workload == "dendrite_2d_blocks") r = pb::run_dendrite(a, spec);
    else return usage();

    if (a.trace) {
      // Tuner stability: repeated tune=full searches on one small P2 job
      // spec into a scratch tuning cache. No timed workload tunes.
      pfc::backend::KernelCache::shared().reset();
      pb::tuner_probe(spec, "kc_tune", r);
    }

    Json failures = Json::array();
    for (const std::string& f : r.failures) failures.push(Json(f));
    r.info.set("host", host);
    const Json out = Json::object()
                         .set("correct", Json(r.correct))
                         .set("attempted", Json(r.attempted))
                         .set("failed", Json(r.failed))
                         .set("metrics", r.metrics)
                         .set("failures", failures)
                         .set("info", r.info)
                         .set("spans", r.tracer.to_json());
    std::printf("%s\n", out.dump(-1).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfc_perfbench: %s\n", e.what());
    return 1;
  }
}
