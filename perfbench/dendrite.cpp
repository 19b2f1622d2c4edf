// dendrite_2d_blocks: P2 dendrites with seeded Philox noise on a square 2-D
// box split into square blocks, stepped by in-process ranks of one thread
// each with interior/frontier overlap, a health scan every step and an
// on-disk checkpoint at a fixed step interval. Each block fits in L2, so the
// kernels are compute-bound and the exchange, frontier, health and
// checkpoint work take a visible share of every step. The geometry, rank
// count and intervals come from the workload's spec.json entry.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "pfc/app/distributed.hpp"
#include "pfc/app/params.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/grid/boundary.hpp"
#include "pfc/resilience/checkpoint.hpp"

namespace pb {

namespace fs = std::filesystem;
using namespace pfc;

namespace {

constexpr int kNuclei = 8;
constexpr double kRadius = 10.0;
constexpr double kRow = 48.0;

/// The geometry of spec.json, and the seed's shift of a row of eight
/// alternating-phase nuclei along the periodic x axis and key of the
/// Philox fluctuation stream.
struct Inputs {
  long long n = 0;  ///< cells per side
  int blocks = 0;   ///< blocks per side
  int ranks = 0;
  int threads_per_rank = 0;
  long long health_every = 0, checkpoint_every = 0;
  long long ox = 0;
  std::uint64_t noise_seed = 0;
};

Inputs make_inputs(const Json& ws, std::uint64_t seed) {
  const std::array<long long, 3> cells = triple_at(ws, "cells");
  const std::array<long long, 3> blocks = triple_at(ws, "blocks");
  if (cells[0] != cells[1] || cells[2] != 1 || blocks[0] != blocks[1] ||
      blocks[2] != 1 || blocks[0] < 1 || cells[0] % blocks[0] != 0) {
    throw Error("spec.json: dendrite_2d_blocks needs a square 2-D box split "
                "into equal square blocks");
  }
  Inputs in;
  in.n = cells[0];
  in.blocks = int(blocks[0]);
  in.ranks = int(int_at(ws, "ranks"));
  in.threads_per_rank = int(int_at(ws, "threads_per_rank"));
  in.health_every = int_at(ws, "health_every");
  in.checkpoint_every = int_at(ws, "checkpoint_every");
  in.ox = draw(seed, 1, in.n);
  in.noise_seed = mix64(seed ^ 0xd1b54a32d192ed03ull);
  return in;
}

double phi0(const Inputs& in, double eps, long long x, long long y, int c) {
  const double n = double(in.n);
  const double xs = double((x + in.ox) % in.n);
  double best = 1e30;
  int phase = 1;
  for (int k = 0; k < kNuclei; ++k) {
    double dx = xs - (k + 0.5) * n / kNuclei;
    if (dx > n / 2) dx -= n;
    if (dx < -n / 2) dx += n;
    const double dy = double(y) - kRow;
    const double d = std::sqrt(dx * dx + dy * dy) - kRadius;
    if (d < best) {
      best = d;
      phase = 1 + k % 2;
    }
  }
  const double solid = app::interface_profile(best, 2.5 * eps);
  if (c == 0) return 1.0 - solid;
  return c == phase ? solid : 0.0;
}

app::GrandChemParams params_for(const Inputs& in) {
  app::GrandChemParams p = app::make_p2(2);
  p.rng_seed = in.noise_seed;
  return p;
}

app::DistributedOptions options(const Inputs& in, const std::string& dir,
                                const std::string& ckpt_dir) {
  app::DistributedOptions o;
  o.cells = {in.n, in.n, 1};
  o.blocks_per_dim = {in.blocks, in.blocks, 1};
  o.overlap = app::OverlapMode::InteriorFrontier;
  o.threads = in.threads_per_rank;
  o.health = obs::HealthOptions{}.enable().every(int(in.health_every))
                 .with_policy(obs::HealthPolicy::Warn);
  o.resilience = resilience::ResilienceOptions{}
                     .every(in.checkpoint_every)
                     .with_directory(ckpt_dir);
  o.compile.cache_dir = dir;
  return o;
}

/// The gathered global φ as an Array, for the analysis functions.
Array global_phi(const Inputs& in, const app::GrandChemModel& m,
                 const std::vector<double>& g) {
  const long long n = in.n;
  Array a(m.phi_src(), {n, n, 1}, 1);
  const std::size_t plane = std::size_t(n * n);
  for (int c = 0; c < a.components(); ++c) {
    for (long long y = 0; y < n; ++y) {
      for (long long x = 0; x < n; ++x) {
        a.at(x, y, 0, c) = g[std::size_t(x + n * y) + plane * std::size_t(c)];
      }
    }
  }
  grid::fill_ghosts(a, grid::BoundaryKind::Periodic);
  return a;
}

std::string checksum(const std::vector<double>& g) {
  return hex64(resilience::fnv1a64(g.data(), g.size() * sizeof(double)));
}

/// What one job saw. Step times are rank 0's view from barrier to barrier,
/// so each is the rank-synchronised step. A traced job also keeps the
/// ranks' waits and busy times, the run report and the compiled model.
struct SolveRun : JobRun {
  std::vector<double> skew_ms;  ///< worst rank's barrier wait per step
  std::vector<double> busy;     ///< per-rank summed run(1) seconds
  obs::RunReport report;
  std::optional<app::CompiledModel> compiled;
};

/// One job: set-up against the kernel cache in `dir` (emptied first when
/// `cold`, so the ranks compile identical kernels and meet in the cache's
/// in-flight dedup; otherwise a disk hit), `job_steps` steps with their
/// checkpoints and the job's result; `wall` covers all three. At `k_check`
/// the gathered φ is checked against `reference` and its checksum kept.
/// With a tracer the set-up runs through probe_front_end (kept in `fe`)
/// and rank 0 records its calls.
SolveRun solve(const Inputs& in, const app::GrandChemParams& params,
               const std::string& dir, bool cold, long long job_steps,
               long long k_check, const Json& reference, Tracer* tr,
               std::optional<FrontEnd>* fe) {
  SolveRun out;
  const std::string ckpt = "ckpt_dendrite";
  if (cold) fs::remove_all(dir);
  fs::remove_all(ckpt);
  backend::KernelCache::shared().reset();
  const auto nr = std::size_t(in.ranks);
  try {
    const double t0 = now_s();
    std::optional<app::GrandChemModel> model;
    if (tr != nullptr) {
      fe->emplace(probe_front_end(params, dir, tr));
      model.emplace((*fe)->model);
    } else {
      model.emplace(params);
    }
    const app::DistributedOptions opts = options(in, dir, ckpt);
    // Each rank appends to its own history; they are read after the join.
    std::vector<std::vector<double>> waits(nr), runs(nr);
    long long violations = 0;

    mpi::run(in.ranks, [&](mpi::Comm& comm) {
      const int rank = comm.rank();
      Tracer* rt = rank == 0 ? tr : nullptr;
      std::optional<Scope> construct;
      construct.emplace(rt, "app.construct", 1);
      app::DistributedSimulation sim(*model, opts, &comm);
      construct.reset();
      {
        Scope sc(rt, "app.init", 1);
        const double ti = now_s();
        sim.init(
            [&](long long x, long long y, long long, int c) {
              return phi0(in, params.epsilon, x, y, c);
            },
            [](long long, long long, long long, int) { return 0.0; });
        if (rank == 0) out.init_s = now_s() - ti;
      }
      comm.barrier();
      double t_prev = now_s();
      double t_steps = 0.0;
      if (rank == 0) out.setup = t_prev - t0;

      for (long long step = 1; step <= job_steps; ++step) {
        const double ts = now_s();
        {
          Scope sc(rt, "app.step", 1);
          sim.run(1);
        }
        const double t_run = now_s();
        comm.barrier();
        const double te = now_s();
        if (tr != nullptr) {
          waits[std::size_t(rank)].push_back(te - t_run);
          runs[std::size_t(rank)].push_back(t_run - ts);
        }
        if (rank == 0) out.step_s.push_back(te - t_prev);
        t_steps += te - t_prev;
        t_prev = te;
        if (step == k_check) {
          // The check is the benchmark's work, not the job's.
          const std::vector<double> g = sim.gather_phi();
          if (rank == 0) {
            const Array phi = global_phi(in, *model, g);
            out.why = health_scan({&phi}, {});
            if (out.why.empty()) {
              out.why = check_reference(phi, 0, 1, reference, &out.observed);
            }
            out.check = checksum(g);
          }
          comm.barrier();
          t_prev = now_s();
        }
      }

      // The job's result: the gathered φ checksum and the run report.
      const double tres = now_s();
      const std::vector<double> g = sim.gather_phi();
      const obs::RunReport rep = sim.report();
      if (rank == 0) {
        app::JobResult res;
        res.name = "dendrite_2d_blocks";
        res.steps = job_steps;
        res.run = rep;
        res.compile = sim.compiled().compile_report();
        res.phi_checksum =
            resilience::fnv1a64(g.data(), g.size() * sizeof(double));
        (void)res.to_json().dump(-1);
        out.wall = out.setup + t_steps + (now_s() - tres);
        out.report = rep;
        out.compiled.emplace(sim.compiled());
      }

      // Verification after the job: the in-run monitor's count and a scan
      // of the final φ.
      const double v = comm.allreduce_sum(
          double(sim.health().stats().total_violations()));
      if (rank == 0) {
        violations = (long long)v;
        if (out.why.empty()) {
          const Array phi = global_phi(in, *model, g);
          const std::string h = health_scan({&phi}, {});
          if (!h.empty()) out.why = "final " + h;
        }
      }
    });
    if (tr != nullptr) {
      out.busy.assign(nr, 0.0);
      for (std::size_t i = 0; i < waits[0].size(); ++i) {
        double worst = 0.0;
        for (std::size_t k = 0; k < nr; ++k) {
          worst = std::max(worst, waits[k][i]);
          out.busy[k] += runs[k][i];
        }
        out.skew_ms.push_back(worst * 1e3);
      }
    }
    if (out.why.empty() && violations != 0) {
      out.why = "in-run health monitor found " + std::to_string(violations) +
                " violations";
    }
  } catch (const std::exception& e) {
    out.why = std::string("solve threw: ") + e.what();
  }
  fs::remove_all(ckpt);
  return out;
}

}  // namespace

Json describe_dendrite(const Json& spec, std::uint64_t seed) {
  const Inputs in = make_inputs(workload_spec(spec, "dendrite_2d_blocks"),
                                seed);
  const double eps = app::make_p2(2).epsilon;
  Json probe = Json::array();
  for (long long i = 0; i < 8; ++i) {
    probe.push(Json(phi0(in, eps, 61 * i, 40 + i, 1 + int(i % 2))));
  }
  return Json::object()
      .set("cells", Json(in.n))
      .set("blocks", Json(in.blocks))
      .set("ranks", Json(in.ranks))
      .set("offset_x", Json(in.ox))
      .set("noise_seed", Json(hex64(in.noise_seed)))
      .set("phi_probe", probe);
}

Result run_dendrite(const Args& a, const Json& spec) {
  const Json& ws = workload_spec(spec, "dendrite_2d_blocks");
  const long long k_check = int_at(ws, "check_step");
  const long long steps = std::max(k_check, int_at(ws, "job_steps"));
  const Json& reference = *ws.find("reference");
  const Inputs in = make_inputs(ws, a.seed);
  const app::GrandChemParams params = params_for(in);
  const std::string dir = "kc_dendrite";
  const long long bn = in.n / in.blocks;

  Result r;
  r.tracer = Tracer(a.trace);
  std::optional<FrontEnd> fe;
  r.info.set("job_steps", Json(steps));
  r.info.set("field_bytes_per_block",
             Json((bn + 2) * (bn + 2) * 8 * 8));  // φ 2×3 + µ 2×1, ghosts

  if (!a.trace) {
    compute_runs(a, ws, in.n * in.n, [&](bool cold) -> JobRun {
      return solve(in, params, dir, cold, cold ? k_check : steps, k_check,
                   reference, nullptr, &fe);
    }, r);
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  // A traced run solves the job cold twice, untraced and then under spans;
  // the two walls give bench.trace_overhead_frac and the checksums must
  // agree.
  const SolveRun plain = solve(in, params, dir, true, steps, k_check,
                               reference, nullptr, &fe);
  r.attempt(plain.why.empty(), plain.why);
  SolveRun second = solve(in, params, dir, true, steps, k_check, reference,
                          &r.tracer, &fe);
  if (second.why.empty() && second.check != plain.check) {
    second.why = "traced and untraced checksums differ";
  }
  r.attempt(second.why.empty(), second.why);
  r.info.set("checksum_at_check_step", Json(second.check));

  // --- traced: per-layer rows ------------------------------------------------
  if (!fe || !second.compiled) {
    throw Error("dendrite_2d_blocks: the traced solve failed: " + second.why);
  }
  const backend::KernelCacheStats cs = backend::KernelCache::shared().stats();
  front_end_rows(*fe, r);
  r.metric("backend.cache_hits", double(cs.hits), "count");
  r.metric("backend.cache_misses", double(cs.misses), "count");
  r.metric("bench.trace_overhead_frac", second.wall / plain.wall - 1.0,
           "ratio");
  std::vector<double> step_ms;
  for (double t : second.step_s) step_ms.push_back(t * 1e3);
  const double step_p50 = median(step_ms);
  r.metric("mpi.rank_skew_ms", median(second.skew_ms), "ms");
  r.metric("app.block_imbalance",
           *std::max_element(second.busy.begin(), second.busy.end()) /
               mean(second.busy),
           "ratio");
  r.metric("app.init_s", second.init_s, "s");

  // Rank 0's blocks, initialised from the seeded initial state.
  const app::GrandChemModel& m = fe->model;
  const grid::BlockForest forest({in.n, in.n, 1}, {in.blocks, in.blocks, 1},
                                 in.ranks, 2);
  const auto mine = forest.blocks_of_rank(0);
  std::vector<BlockArrays> arrays;
  arrays.reserve(mine.size());
  r.metric("field.alloc_s", r.time("field.alloc", 1, [&] {
             for (const grid::Block* b : mine) {
               arrays.push_back(make_block(m, b->size, nullptr));
             }
           }), "s");
  std::vector<BlockRef> blocks;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    BlockArrays& ba = arrays[i];
    const grid::Block& b = *mine[i];
    for (int c = 0; c < ba.phi_src.components(); ++c) {
      for (long long y = 0; y < b.size[1]; ++y) {
        for (long long x = 0; x < b.size[0]; ++x) {
          ba.phi_src.at(x, y, 0, c) = phi0(in, params.epsilon,
                                           x + b.offset[0], y + b.offset[1], c);
        }
      }
    }
    ba.mu_src.fill(0.0);
    grid::fill_ghosts(ba.phi_src, grid::BoundaryKind::Periodic);
    grid::fill_ghosts(ba.mu_src, grid::BoundaryKind::Periodic);
    blocks.push_back(BlockRef{&ba, b.offset});
  }

  const std::array<long long, 3> bsize{bn, bn, 1};
  kernel_rows(*second.compiled, m, blocks, bsize, in.threads_per_rank, 7, 1,
              r, nullptr);
  double sweep_ms = 0.0;
  overlap_rows(*second.compiled, m, blocks, bsize, in.threads_per_rank, r,
               &sweep_ms);
  exchange_rows(m, {in.n, in.n, 1}, {in.blocks, in.blocks, 1}, in.ranks, 20,
                r);
  r.metric("grid.boundary_ms", r.time("grid.boundary", 5, [&] {
             for (BlockArrays& ba : arrays) {
               grid::fill_ghosts(ba.phi_dst, grid::BoundaryKind::Periodic);
               grid::fill_ghosts(ba.mu_dst, grid::BoundaryKind::Periodic);
             }
           }) * 1e3, "ms");
  std::vector<const Array*> phis, mus;
  for (const BlockArrays& ba : arrays) {
    phis.push_back(&ba.phi_src);
    mus.push_back(&ba.mu_src);
  }
  const double health_ms =
      r.time("obs.health", 7, [&] { (void)health_scan(phis, mus); }) * 1e3;
  r.metric("obs.health_ms", health_ms, "ms");
  const double exchange_ms = r.metrics.find("grid.exchange_ms")
                                 ->find("value")->number();
  r.metric("app.step_self_ms",
           step_p50 - (sweep_ms + exchange_ms + health_ms), "ms");
  result_json_row(steps, second.report, second.compiled->compile_report(), r);
  std::vector<resilience::CheckpointArray> list;
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    list.push_back({"phi_src/" + std::to_string(i), &arrays[i].phi_src});
    list.push_back({"mu_src/" + std::to_string(i), &arrays[i].mu_src});
  }
  checkpoint_rows(list, steps, 0, r);
  r.metric("support.pool_launch_us", pool_launch_us(in.threads_per_rank),
           "us");
  serve_probe("serve_probe", r);
  return r;
}

}  // namespace pb
