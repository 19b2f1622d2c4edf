// eutectic_3d: the paper's node-level production run. P1 ternary eutectic in
// one cubic block on pinned pool threads (static slabs, first-touch), full
// kernels. Cold jobs start from an empty kernel cache, so their set-up pays
// the JIT; warm jobs find the kernels on disk and make the timed window.
// The block size, thread count and job length come from spec.json.
#include <cmath>
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "pfc/app/params.hpp"
#include "pfc/app/simulation.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/support/topology.hpp"

namespace pb {

namespace fs = std::filesystem;
using namespace pfc;

namespace {

/// The block edge and thread count of spec.json, and the seed's
/// translation of a lamellar front (six lamellae along x, a front height
/// that varies along y) in x and y. The box is periodic, so every seed
/// solves the same physics on a permuted grid.
struct Inputs {
  long long n = 0;
  int threads = 0;
  support::PinPolicy pin = support::PinPolicy::None;
  long long ox = 0, oy = 0;
};

Inputs make_inputs(const Json& ws, std::uint64_t seed) {
  const std::array<long long, 3> cells = triple_at(ws, "cells");
  if (cells[0] != cells[1] || cells[1] != cells[2] || cells[0] < 8) {
    throw Error("spec.json: eutectic_3d cells must be a cube of edge >= 8");
  }
  const long long n = cells[0];
  const Json* pin = ws.find("pin");
  if (pin == nullptr) throw Error("spec.json: eutectic_3d has no pin");
  return Inputs{n, int(int_at(ws, "threads")),
                support::parse_pin_policy(pin->str()), draw(seed, 1, n),
                draw(seed, 2, n)};
}

double phi0(const Inputs& in, double eps, long long x, long long y,
            long long z, int c) {
  const long long n = in.n;
  const long long xs = (x + in.ox) % n;
  const long long ys = (y + in.oy) % n;
  const double zf = 24.0 + 4.0 * std::sin(2.0 * M_PI * double(ys) / n);
  // signed distance to the solid slab [-0.5, zf) on the periodic z axis
  const double zd = double(z);
  const double d = zd < zf ? -std::min(zf - zd, zd + 0.5)
                           : std::min(zd - zf, double(n) - 0.5 - zd);
  const double solid = app::interface_profile(d, 2.5 * eps);
  if (c == 0) return 1.0 - solid;
  const int lamella = 1 + int((xs * 6) / n) % 3;
  return c == lamella ? solid : 0.0;
}

app::SimulationOptions options(const Inputs& in, const std::string& dir) {
  app::SimulationOptions o;
  o.cells = {in.n, in.n, in.n};
  o.threads = in.threads;
  o.pin = in.pin;
  o.compile.cache_dir = dir;
  return o;
}

std::string checksums(const app::Simulation& sim) {
  return hex64(app::interior_checksum(sim.phi())) + ":" +
         hex64(app::interior_checksum(sim.mu()));
}

/// One job: set-up against the kernel cache in `dir` (emptied first when
/// `cold`, so the set-up pays the JIT; otherwise a disk hit), `job_steps`
/// steps and the job's result; `wall` covers all three. At `k_check` the
/// state is checked against `reference` and its checksums are kept. With a
/// tracer the set-up runs through probe_front_end, `sim` keeps the
/// simulation and `fe` the front end for the layer rows.
JobRun solve(const Inputs& in, const app::GrandChemParams& params,
             const std::string& dir, bool cold, long long job_steps,
             long long k_check, const Json& reference, Tracer* tr,
             std::optional<app::Simulation>& sim,
             std::optional<FrontEnd>* fe) {
  JobRun out;
  if (cold) fs::remove_all(dir);
  backend::KernelCache::shared().reset();
  sim.reset();
  try {
    const double t0 = now_s();
    if (tr != nullptr) {
      fe->emplace(probe_front_end(params, dir, tr));
      Scope sc(tr, "app.construct", 1);
      sim.emplace((*fe)->model, options(in, dir));
    } else {
      const app::GrandChemModel model(params);
      sim.emplace(model, options(in, dir));
    }
    {
      Scope sc(tr, "app.init", 1);
      const double ti = now_s();
      sim->init_phi([&](long long x, long long y, long long z, int c) {
        return phi0(in, params.epsilon, x, y, z, c);
      });
      sim->init_mu([](long long, long long, long long, int) { return 0.0; });
      out.init_s = now_s() - ti;
    }
    out.setup = now_s() - t0;

    for (long long step = 1; step <= job_steps; ++step) {
      const double ts = now_s();
      {
        Scope sc(tr, "app.step", 1);
        sim->run(1);
      }
      out.step_s.push_back(now_s() - ts);
      if (step == k_check) {
        const double tc = now_s();
        out.why = health_scan({&sim->phi()}, {&sim->mu()});
        if (out.why.empty()) {
          out.why = check_reference(sim->phi(), 0, 2, reference,
                                    &out.observed);
        }
        out.check = checksums(*sim);
        // The check is the benchmark's work, not the job's.
        out.wall -= now_s() - tc;
      }
    }
    app::JobResult res;
    res.name = "eutectic_3d";
    res.steps = job_steps;
    res.run = sim->report();
    res.compile = sim->compiled().compile_report();
    res.phi_checksum = app::interior_checksum(sim->phi());
    res.mu_checksum = app::interior_checksum(sim->mu());
    (void)res.to_json().dump(-1);
    out.wall += now_s() - t0;
    const std::string h = health_scan({&sim->phi()}, {&sim->mu()});
    if (out.why.empty() && !h.empty()) out.why = "final " + h;
  } catch (const std::exception& e) {
    out.why = std::string("solve threw: ") + e.what();
  }
  return out;
}

}  // namespace

Json describe_eutectic(const Json& spec, std::uint64_t seed) {
  const Inputs in = make_inputs(workload_spec(spec, "eutectic_3d"), seed);
  const double eps = app::make_p1(3).epsilon;
  // A fingerprint of the initial condition: a few probe cells.
  Json probe = Json::array();
  for (long long i = 0; i < 8; ++i) {
    probe.push(Json(phi0(in, eps, 21 * i, 13 * i, 20 + i, 1 + int(i % 3))));
  }
  return Json::object()
      .set("cells", Json(in.n))
      .set("threads", Json(in.threads))
      .set("offset_x", Json(in.ox))
      .set("offset_y", Json(in.oy))
      .set("phi_probe", probe);
}

Result run_eutectic(const Args& a, const Json& spec) {
  const Json& ws = workload_spec(spec, "eutectic_3d");
  const long long k_check = int_at(ws, "check_step");
  const long long steps = std::max(k_check, int_at(ws, "job_steps"));
  const Json& reference = *ws.find("reference");
  const Inputs in = make_inputs(ws, a.seed);
  const app::GrandChemParams params = app::make_p1(3);
  const long long cells = in.n * in.n * in.n;
  const std::string dir = "kc_eutectic";

  Result r;
  r.tracer = Tracer(a.trace);
  std::optional<app::Simulation> sim;
  std::optional<FrontEnd> fe;
  r.info.set("job_steps", Json(steps));
  r.info.set("field_bytes",
             Json((long long)(cells * 12 * 8)));  // φ 2×4 + µ 2×2 doubles

  if (!a.trace) {
    compute_runs(a, ws, cells, [&](bool cold) {
      return solve(in, params, dir, cold, cold ? k_check : steps, k_check,
                   reference, nullptr, sim, &fe);
    }, r);
    sim.reset();
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  // A traced run solves the job cold twice, untraced and then under spans;
  // the two walls give bench.trace_overhead_frac and the checksums must
  // agree.
  const JobRun plain = solve(in, params, dir, true, steps, k_check,
                             reference, nullptr, sim, &fe);
  r.attempt(plain.why.empty(), plain.why);
  JobRun traced = solve(in, params, dir, true, steps, k_check, reference,
                        &r.tracer, sim, &fe);
  if (traced.why.empty() && traced.check != plain.check) {
    traced.why = "traced and untraced checksums differ";
  }
  r.attempt(traced.why.empty(), traced.why);
  r.info.set("checksum_at_check_step", Json(traced.check));

  // --- traced: per-layer rows ------------------------------------------------
  if (!sim || !fe) {
    throw Error("eutectic_3d: the traced solve failed: " + traced.why);
  }
  const backend::KernelCacheStats cs = backend::KernelCache::shared().stats();
  front_end_rows(*fe, r);
  r.metric("backend.cache_hits", double(cs.hits), "count");
  r.metric("backend.cache_misses", double(cs.misses), "count");
  r.metric("bench.trace_overhead_frac", traced.wall / plain.wall - 1.0,
           "ratio");
  r.metric("app.init_s", traced.init_s, "s");
  std::vector<double> step_ms;
  for (double t : traced.step_s) step_ms.push_back(t * 1e3);
  single_block_layers(sim, fe->model, in.threads, median(step_ms), steps, r);
  serve_probe("serve_probe", r);
  return r;
}

}  // namespace pb
