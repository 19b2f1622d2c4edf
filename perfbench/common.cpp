#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "pfc/app/analysis.hpp"
#include "pfc/app/tuning.hpp"
#include "pfc/backend/c_emitter.hpp"
#include "pfc/backend/kernel_cache.hpp"
#include "pfc/backend/kernel_runner.hpp"
#include "pfc/grid/ghost_exchange.hpp"
#include "pfc/ir/opcount.hpp"
#include "pfc/mpi/simmpi.hpp"
#include "pfc/obs/health.hpp"
#include "pfc/perf/autotune.hpp"
#include "pfc/perf/ecm.hpp"
#include "pfc/resilience/checkpoint.hpp"
#include "pfc/grid/boundary.hpp"
#include "pfc/serve/server.hpp"
#include "pfc/support/thread_pool.hpp"
#include "pfc/support/topology.hpp"

namespace pb {

namespace fs = std::filesystem;
using namespace pfc;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

long long draw(std::uint64_t seed, std::uint64_t stream, long long n) {
  return (long long)(mix64(mix64(seed) ^ mix64(stream + 0x5bd1e995ull)) %
                     std::uint64_t(n));
}

// --- spans -------------------------------------------------------------------

int Tracer::begin(const std::string& name, long long run_id) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start = now_s();
  s.parent = open_.empty() ? -1 : open_.back();
  s.run_id = run_id;
  spans_.push_back(std::move(s));
  open_.push_back(int(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  if (!enabled_ || id < 0) return;
  spans_[std::size_t(id)].end = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add(const std::string& name, double start, double end,
                 long long run_id) {
  if (!enabled_) return;
  spans_.push_back(Span{name, start, end,
                        open_.empty() ? -1 : open_.back(), run_id});
}

void Tracer::merge(const Tracer& other) {
  if (!enabled_) return;
  const int base = int(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

double Tracer::self_seconds(int id) const {
  const Span& p = spans_[std::size_t(id)];
  std::vector<std::pair<double, double>> kids;
  for (const Span& s : spans_) {
    if (s.parent == id) kids.emplace_back(s.start, s.end);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0, lo = 0.0, hi = -1.0;
  for (const auto& [a, b] : kids) {
    if (a > hi) {
      if (hi > lo) covered += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) covered += hi - lo;
  return (p.end - p.start) - covered;
}

Json Tracer::to_json() const {
  Json arr = Json::array();
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    arr.push(Json::object()
                 .set("name", Json(s.name))
                 .set("start_s", Json(s.start - t0))
                 .set("end_s", Json(s.end - t0))
                 .set("self_s", Json(self_seconds(int(i))))
                 .set("parent", Json(s.parent))
                 .set("run", Json(s.run_id)));
  }
  return arr;
}


// --- statistics ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / double(v.size());
}

Tail tail(std::vector<double> v, int percentile) {
  Tail t;
  t.percentile = percentile;
  t.samples = (long long)v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const long long n = t.samples;
  const long long rank = std::max<long long>(1, (percentile * n + 99) / 100);
  t.value = v[std::size_t(rank - 1)];
  t.beyond = n - rank;
  return t;
}

Json tail_info(const Tail& t) {
  return Json::object()
      .set("percentile", Json(t.percentile))
      .set("samples", Json(t.samples))
      .set("samples_beyond", Json(t.beyond));
}

// --- result -------------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.set(name, Json::object()
                        .set("value", Json(value))
                        .set("unit", Json(unit)));
}

double Result::time(const std::string& name, int reps,
                    const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    Scope s(&tracer, name);
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

void Result::fail(const std::string& why) {
  correct = false;
  failures.push_back(why);
}

void Result::attempt(bool ok, const std::string& why) {
  ++attempted;
  if (!ok) {
    ++failed;
    fail(why);
  }
}

const Json& workload_spec(const Json& spec, const std::string& name) {
  const Json* ws = spec.find("workloads");
  const Json* w = ws != nullptr ? ws->find(name) : nullptr;
  if (w == nullptr) throw Error("spec.json has no workload " + name);
  return *w;
}

double num_at(const Json& obj, const std::string& key) {
  const Json* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    throw Error("spec.json: missing number \"" + key + "\"");
  }
  return v->number();
}

long long int_at(const Json& obj, const std::string& key) {
  const double v = num_at(obj, key);
  if (v != std::floor(v)) {
    throw Error("spec.json: \"" + key + "\" must be a whole number");
  }
  return (long long)v;
}

std::array<long long, 3> triple_at(const Json& obj, const std::string& key) {
  const Json* v = obj.find(key);
  if (v == nullptr || !v->is_array() || v->elements().size() != 3) {
    throw Error("spec.json: \"" + key + "\" must be three numbers");
  }
  std::array<long long, 3> out{};
  for (std::size_t i = 0; i < 3; ++i) {
    const Json& e = v->elements()[i];
    if (!e.is_number()) {
      throw Error("spec.json: \"" + key + "\" must be three numbers");
    }
    out[i] = (long long)e.number();
  }
  return out;
}

int tail_percentile(const Json& ws, const std::string& metric) {
  const Json* t = ws.find("tail_percentile");
  if (t == nullptr) throw Error("spec.json: missing \"tail_percentile\"");
  return int(int_at(*t, metric));
}

// --- host ---------------------------------------------------------------------

namespace {

std::string first_line_of(const std::string& cmd) {
  std::string out;
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof buf, p) != nullptr) out = buf;
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

}  // namespace

Json host_signature() {
  const char* cxx = std::getenv("CXX");
  const std::string compiler =
      (cxx != nullptr && *cxx != '\0') ? cxx : std::string("c++");
  const support::Topology topo = support::Topology::detect();
  return Json::object()
      .set("nproc", Json(ThreadPool::hardware_threads()))
      .set("l2_bytes", Json((long long)::sysconf(_SC_LEVEL2_CACHE_SIZE)))
      .set("l3_bytes", Json((long long)::sysconf(_SC_LEVEL3_CACHE_SIZE)))
      .set("compiler", Json(first_line_of(compiler + " --version")))
      .set("native_vector_width", Json(backend::probe_native_vector_width()))
      .set("machine_signature",
           Json(perf::machine_signature(topo, perf::default_machine())));
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

// --- verification ---------------------------------------------------------------

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
  return buf;
}

namespace {

std::string compare_reference(const Array& phi, int liquid_phase,
                              int front_axis, const Json& reference,
                              Json* observed) {
  const app::PhaseStats st = app::phase_statistics(phi);
  const long long front =
      app::front_position(phi, liquid_phase, front_axis);
  Json fr = Json::array();
  for (double f : st.fractions) fr.push(Json(f));
  if (observed != nullptr) {
    observed->set("fractions", fr)
        .set("interface_fraction", Json(st.interface_fraction))
        .set("simplex_violation", Json(st.simplex_violation))
        .set("front_position", Json(front));
  }
  const double tol = num_at(reference, "fraction_tol");
  const Json* ref_fr = reference.find("fractions");
  if (ref_fr == nullptr ||
      ref_fr->elements().size() != st.fractions.size()) {
    return "reference fractions missing or of the wrong length";
  }
  for (std::size_t i = 0; i < st.fractions.size(); ++i) {
    const double want = ref_fr->elements()[i].number();
    if (!(std::abs(st.fractions[i] - want) <= tol)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "phase %zu fraction %.12g off reference %.12g (tol %g)", i,
                    st.fractions[i], want, tol);
      return buf;
    }
  }
  const double want_if = num_at(reference, "interface_fraction");
  if (!(std::abs(st.interface_fraction - want_if) <=
        num_at(reference, "interface_tol"))) {
    return "interface fraction " + std::to_string(st.interface_fraction) +
           " off reference " + std::to_string(want_if);
  }
  const long long want_front = (long long)num_at(reference, "front_position");
  if (std::llabs(front - want_front) >
      (long long)num_at(reference, "front_tol")) {
    return "front position " + std::to_string(front) + " off reference " +
           std::to_string(want_front);
  }
  return "";
}

}  // namespace

std::string check_reference(const Array& phi, int liquid_phase,
                            int front_axis, const Json& reference,
                            Json* observed) {
  try {
    return compare_reference(phi, liquid_phase, front_axis, reference,
                             observed);
  } catch (const std::exception& e) {
    // Reported, not thrown: the dendrite check runs on one rank while the
    // others wait in a barrier.
    return std::string("reference check: ") + e.what();
  }
}

std::string health_scan(const std::vector<const Array*>& phi,
                        const std::vector<const Array*>& mu) {
  obs::HealthMonitor mon(
      obs::HealthOptions{}.enable().with_policy(obs::HealthPolicy::Ignore));
  for (std::size_t i = 0; i < phi.size(); ++i) {
    mon.scan_block(*phi[i], i < mu.size() ? mu[i] : nullptr);
  }
  const std::uint64_t found = mon.finish_scan(1);
  if (found == 0) return "";
  return "health scan: " + std::to_string(found) + " violations (" +
         mon.stats().to_json().dump(-1) + ")";
}

void compute_runs(const Args& a, const Json& ws, long long cells,
                  const std::function<JobRun(bool cold)>& job, Result& r) {
  const int cold_jobs = int(int_at(ws, "cold_jobs"));
  const int min_warm = int(int_at(ws, "min_warm_jobs"));
  const long long k_check = int_at(ws, "check_step");
  std::vector<double> setup_s, solve_s, step_ms;
  double step_wall = 0.0;
  int warm = 0;
  std::string first_check;
  for (int i = 0;; ++i) {
    const bool cold = i < cold_jobs;
    if (!cold && warm >= min_warm && step_wall >= a.seconds) break;
    JobRun run = job(cold);
    if (i == 0) {
      first_check = run.check;
      r.info.set("observed_at_check_step", run.observed);
      r.info.set("checksum_at_check_step", Json(run.check));
    } else {
      if (a.corrupt_checksum && warm == 0 && !cold && !run.check.empty()) {
        run.check[0] = run.check[0] == '0' ? '1' : '0';
      }
      if (run.why.empty() && run.check != first_check) {
        run.why = "step-" + std::to_string(k_check) +
                  " checksums differ between jobs of one run";
      }
    }
    r.attempt(run.why.empty(), run.why);
    // A job that failed before stepping would never fill the window.
    if (!run.why.empty() && run.step_s.empty()) break;
    if (cold) {
      setup_s.push_back(run.setup);
      continue;
    }
    ++warm;
    solve_s.push_back(run.wall);
    for (double t : run.step_s) {
      step_wall += t;
      step_ms.push_back(t * 1e3);
    }
  }

  const Tail st = tail(step_ms, tail_percentile(ws, "step_ms_tail"));
  r.metric("setup_s", median(setup_s), "s");
  r.metric("solve_s", median(solve_s), "s");
  r.metric("run_mlups",
           step_wall > 0 ? double(cells) * double(step_ms.size()) /
                               step_wall * 1e-6
                         : 0.0,
           "MLUP/s");
  r.metric("step_ms_p50", median(step_ms), "ms");
  r.metric("step_ms_tail", st.value, "ms");
  r.metric("ok_frac",
           r.attempted > 0 ? double(r.attempted - r.failed) /
                                 double(r.attempted)
                           : 0.0,
           "ratio");
  Json quantiles = Json::object();
  for (int q : {50, 75, 90, 95, 99, 100}) {
    quantiles.set("p" + std::to_string(q), Json(tail(step_ms, q).value));
  }
  r.info.set("warm_jobs", Json(warm));
  r.info.set("steps_measured", Json((long long)step_ms.size()));
  r.info.set("step_ms_tail", tail_info(st));
  r.info.set("step_ms_quantiles", quantiles);
  Json setups = Json::array(), walls = Json::array();
  for (double t : setup_s) setups.push(Json(t));
  for (double t : solve_s) walls.push(Json(t));
  r.info.set("setup_s_each", setups);
  r.info.set("solve_s_each", walls);
}

// --- layer probes ---------------------------------------------------------------

FrontEnd probe_front_end(const app::GrandChemParams& params,
                         const std::string& cache_dir, Tracer* tr) {
  double t0 = now_s();
  std::optional<app::GrandChemModel> model;
  fd::PdeUpdate phi_pde, mu_pde;
  {
    Scope s(tr, "sym.derive");
    model.emplace(params);
    phi_pde = model->phi_update();
    mu_pde = model->mu_update();
  }
  FrontEnd fe{*model, {}, {}};
  fe.derive_s = now_s() - t0;

  // The same lowering ModelCompiler::compile performs for full kernels.
  const app::CompileOptions copts;
  t0 = now_s();
  {
    Scope s(tr, "ir.lower");
    for (int i = 0; i < 2; ++i) {
      fd::DiscretizeOptions d;
      d.dims = params.dims;
      d.dx = params.dx;
      d.dt = params.dt;
      d.rng_seed = params.rng_seed;
      d.split_staggered = false;
      d.clamp_unit_interval = i == 0 && copts.clamp_phi;
      d.renormalize_simplex = d.clamp_unit_interval;
      std::optional<FieldPtr> flux;
      auto ks = app::ModelCompiler::lower(i == 0 ? phi_pde : mu_pde, d, copts,
                                          &flux);
      for (auto& k : ks) fe.kernels.push_back(std::move(k));
    }
  }
  fe.lower_s = now_s() - t0;

  // One translation unit at the native width, as the JIT tiers emit it.
  t0 = now_s();
  {
    Scope s(tr, "backend.emit");
    backend::CEmitOptions eo;
    eo.vector_width = backend::probe_native_vector_width();
    bool first = true;
    for (const ir::Kernel& k : fe.kernels) {
      eo.include_preamble = first;
      first = false;
      fe.source += backend::emit_c(k, eo);
      fe.source += "\n";
    }
  }
  fe.emit_s = now_s() - t0;

  // Miss: the external compiler runs and the object is published.
  const backend::KernelCacheConfig cfg{cache_dir, 256ull << 20};
  backend::JitLibrary::Options jo;
  t0 = now_s();
  {
    Scope s(tr, "backend.jit");
    fe.jit_was_miss = !backend::KernelCache::shared().acquire(fe.source, jo,
                                                              cfg).hit;
  }
  fe.jit_s = now_s() - t0;

  // Hit: what a fresh process pays to map the published object.
  t0 = now_s();
  {
    Scope s(tr, "backend.cache_load");
    backend::KernelCache fresh;
    fe.load_was_hit = fresh.acquire(fe.source, jo, cfg).hit;
  }
  fe.cache_load_s = now_s() - t0;
  if (!fe.jit_was_miss || !fe.load_was_hit) {
    throw Error("bench: the cache probe did not see a miss then a hit in " +
                cache_dir);
  }
  return fe;
}

BlockArrays make_block(const app::GrandChemModel& m,
                       const std::array<long long, 3>& n,
                       ThreadPool* first_touch) {
  const std::array<std::int64_t, 3> s{n[0], n[1], n[2]};
  return BlockArrays{Array(m.phi_src(), s, 1, first_touch),
                     Array(m.phi_dst(), s, 1, first_touch),
                     Array(m.mu_src(), s, 1, first_touch),
                     Array(m.mu_dst(), s, 1, first_touch)};
}

namespace {

backend::Binding bind(const ir::Kernel& k, const app::GrandChemModel& m,
                      BlockArrays& b, const std::array<long long, 3>& offset) {
  backend::Binding out;
  out.block_offset = offset;
  for (const auto& f : k.fields) {
    Array* a = nullptr;
    if (f->id() == m.phi_src()->id()) a = &b.phi_src;
    else if (f->id() == m.phi_dst()->id()) a = &b.phi_dst;
    else if (f->id() == m.mu_src()->id()) a = &b.mu_src;
    else if (f->id() == m.mu_dst()->id()) a = &b.mu_dst;
    if (a == nullptr) throw Error("bench: kernel needs field " + f->name());
    out.arrays.push_back(a);
  }
  return out;
}

/// Interior box and frontier slabs of a kernel's iteration space with a
/// `width`-thick shell, outermost dimension first (the decomposition the
/// distributed driver's interior/frontier overlap uses for full kernels).
struct Regions {
  backend::CellRange interior;
  std::vector<backend::CellRange> frontier;
};

Regions split_regions(const ir::Kernel& k, const std::array<long long, 3>& n,
                      int dims, long long width) {
  Regions r;
  backend::CellRange inner = backend::full_range(k, n);
  for (int d = dims - 1; d >= 0; --d) {
    const auto dd = std::size_t(d);
    backend::CellRange lo = inner, hi = inner;
    lo.hi[dd] = std::min(inner.hi[dd], inner.lo[dd] + width);
    hi.lo[dd] = std::max(lo.hi[dd], inner.hi[dd] - width);
    if (lo.cells() > 0) r.frontier.push_back(lo);
    if (hi.cells() > 0) r.frontier.push_back(hi);
    inner.lo[dd] = lo.hi[dd];
    inner.hi[dd] = hi.lo[dd];
  }
  r.interior = inner;
  return r;
}

}  // namespace

void kernel_rows(const app::CompiledModel& cm, const app::GrandChemModel& m,
                 const std::vector<BlockRef>& blocks,
                 const std::array<long long, 3>& n, int threads, int reps,
                 int reps_t1, Result& r, std::map<std::string, double>* ms) {
  std::unique_ptr<ThreadPool> pool;
  SlabPlan plan;
  const int dims = m.params().dims;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(
        ThreadPoolOptions{threads, support::PinPolicy::Compact});
    plan = SlabPlan::make(0, n[std::size_t(dims - 1)], threads, 1);
  }
  const long long cells = n[0] * n[1] * n[2] * (long long)blocks.size();
  const perf::MachineModel machine = perf::default_machine();
  std::vector<const app::CompiledKernel*> all;
  for (const auto& k : cm.phi_kernels) all.push_back(&k);
  for (const auto& k : cm.mu_kernels) all.push_back(&k);
  double sum_t1 = 0.0, sum_tn = 0.0;
  for (const app::CompiledKernel* ck : all) {
    std::vector<backend::Binding> bs;
    for (const BlockRef& b : blocks) {
      bs.push_back(bind(ck->ir, m, *b.arrays, b.offset));
    }
    const auto sweep = [&](ThreadPool* p) {
      for (const backend::Binding& b : bs) {
        ck->run(b, n, 0.0, 0, p, nullptr, nullptr, p ? &plan : nullptr);
      }
    };
    const std::string span = "backend.kernel." + ck->ir.name;
    const double tn = r.time(span, reps, [&] { sweep(pool.get()); });
    const double t1 = threads > 1
                          ? r.time(span + ".t1", reps_t1,
                                   [&] { sweep(nullptr); })
                          : tn;
    sum_t1 += t1;
    sum_tn += tn;
    const ir::OpCounts oc = ir::count_ops(ck->ir);
    const double bytes = 8.0 * double(oc.loads + oc.stores);
    const perf::EcmPrediction ecm = perf::ecm_predict(
        ck->ir, n, machine, perf::TrafficSource::LayerCondition,
        ck->vector_width());
    const std::string p = "backend.kernel." + ck->ir.name + ".";
    const double mlups = double(cells) / tn * 1e-6;
    r.metric(p + "ms_p50", tn * 1e3, "ms");
    r.metric(p + "mlups", mlups, "MLUP/s");
    r.metric(p + "t1_mlups", double(cells) / t1 * 1e-6, "MLUP/s");
    r.metric(p + "ecm_mlups", ecm.mlups(machine, std::max(1, threads)),
             "MLUP/s");
    r.metric(p + "bytes_per_lup_computed", bytes, "B/LUP");
    r.metric(p + "gbs_computed", mlups * bytes * 1e-3, "GB/s");
    if (ms != nullptr) (*ms)[ck->ir.name] = tn * 1e3;
  }
  r.metric("support.scaling_eff",
           sum_t1 / (sum_tn * double(std::max(1, threads))), "ratio");
}

void overlap_rows(const app::CompiledModel& cm, const app::GrandChemModel& m,
                  const std::vector<BlockRef>& blocks,
                  const std::array<long long, 3>& n, int threads, Result& r,
                  double* total_ms) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(
        ThreadPoolOptions{threads, support::PinPolicy::Compact});
  }
  double interior = 0.0, frontier = 0.0;
  for (const auto* group : {&cm.phi_kernels, &cm.mu_kernels}) {
    for (const app::CompiledKernel& ck : *group) {
      const Regions reg = split_regions(ck.ir, n, m.params().dims, 1);
      std::vector<backend::Binding> bs;
      for (const BlockRef& b : blocks) {
        bs.push_back(bind(ck.ir, m, *b.arrays, b.offset));
      }
      interior += r.time("backend.interior", 3, [&] {
        for (const auto& b : bs) {
          ck.run(b, n, 0.0, 0, pool.get(), nullptr, &reg.interior);
        }
      });
      frontier += r.time("backend.frontier", 3, [&] {
        for (const auto& b : bs) {
          for (const auto& slab : reg.frontier) {
            ck.run(b, n, 0.0, 0, pool.get(), nullptr, &slab);
          }
        }
      });
    }
  }
  r.metric("backend.interior_ms", interior * 1e3, "ms");
  r.metric("backend.frontier_ms", frontier * 1e3, "ms");
  if (total_ms != nullptr) *total_ms = (interior + frontier) * 1e3;
}

void thread_balance_rows(const app::CompiledModel& cm,
                         const app::GrandChemModel& m, BlockArrays& b,
                         const std::array<long long, 3>& n, int threads,
                         int reps, Result& r) {
  ThreadPool pool(ThreadPoolOptions{threads, support::PinPolicy::Compact});
  const int dims = m.params().dims;
  const auto outer = std::size_t(dims - 1);
  const SlabPlan plan = SlabPlan::make(0, n[outer], threads, 1);
  std::vector<const app::CompiledKernel*> all;
  for (const auto& k : cm.phi_kernels) all.push_back(&k);
  for (const auto& k : cm.mu_kernels) all.push_back(&k);
  std::vector<backend::Binding> bs;
  for (const app::CompiledKernel* ck : all) {
    bs.push_back(bind(ck->ir, m, b, {0, 0, 0}));
  }
  std::vector<double> skew_ms, imbalance;
  std::vector<double> busy(std::size_t(threads), 0.0);
  for (int rep = 0; rep < reps; ++rep) {
    std::fill(busy.begin(), busy.end(), 0.0);
    Scope sc(&r.tracer, "support.slab_balance");
    for (std::size_t k = 0; k < all.size(); ++k) {
      const app::CompiledKernel& ck = *all[k];
      pool.run_on_all([&](int w) {
        backend::CellRange range = backend::full_range(ck.ir, n);
        const auto [lo, hi] = plan.slab(w, range.lo[outer], range.hi[outer]);
        range.lo[outer] = lo;
        range.hi[outer] = hi;
        const double t0 = now_s();
        if (lo < hi) ck.run(bs[k], n, 0.0, 0, nullptr, nullptr, &range);
        busy[std::size_t(w)] += now_s() - t0;
      });
    }
    const auto [lo, hi] = std::minmax_element(busy.begin(), busy.end());
    skew_ms.push_back((*hi - *lo) * 1e3);
    imbalance.push_back(*hi / mean(busy));
  }
  r.metric("mpi.rank_skew_ms", median(skew_ms), "ms");
  r.metric("app.block_imbalance", median(imbalance), "ratio");
}

void single_block_layers(std::optional<app::Simulation>& sim,
                         const app::GrandChemModel& model, int threads,
                         double step_p50_ms, long long steps, Result& r) {
  const std::array<long long, 3> n = {sim->phi().size()[0],
                                      sim->phi().size()[1],
                                      sim->phi().size()[2]};
  const long long cells = n[0] * n[1] * n[2];
  const app::CompiledModel cm = sim->compiled();
  const obs::RunReport report = sim->report();
  std::vector<double> phi_state(std::size_t(sim->phi().interior_count()));
  std::vector<double> mu_state(std::size_t(sim->mu().interior_count()));
  sim->phi().copy_interior_out(phi_state.data());
  sim->mu().copy_interior_out(mu_state.data());
  sim.reset();

  std::optional<BlockArrays> arrays;
  {
    std::unique_ptr<ThreadPool> ft;
    if (threads > 1) {
      ft = std::make_unique<ThreadPool>(
          ThreadPoolOptions{threads, support::PinPolicy::Compact});
    }
    r.metric("field.alloc_s", r.time("field.alloc", 1, [&] {
               arrays.emplace(make_block(model, n, ft.get()));
             }), "s");
  }
  arrays->phi_src.copy_interior_in(phi_state.data());
  arrays->mu_src.copy_interior_in(mu_state.data());
  phi_state = {};
  mu_state = {};
  grid::fill_ghosts(arrays->phi_src, grid::BoundaryKind::Periodic);
  grid::fill_ghosts(arrays->mu_src, grid::BoundaryKind::Periodic);

  // Enough repetitions for a steady median on small grids too.
  const int reps = int(std::clamp<long long>(20'000'000 / cells, 5, 51));
  std::map<std::string, double> kernel_ms;
  const std::vector<BlockRef> blocks{BlockRef{&*arrays, {0, 0, 0}}};
  kernel_rows(cm, model, blocks, n, threads, reps, std::max(3, reps / 2), r,
              &kernel_ms);
  overlap_rows(cm, model, blocks, n, threads, r, nullptr);

  const double boundary = r.time("grid.boundary", reps, [&] {
    grid::fill_ghosts(arrays->phi_dst, grid::BoundaryKind::Periodic);
    grid::fill_ghosts(arrays->mu_dst, grid::BoundaryKind::Periodic);
  });
  r.metric("grid.boundary_ms", boundary * 1e3, "ms");
  double children = boundary * 1e3;
  for (const auto& [name, ms] : kernel_ms) children += ms;
  r.metric("app.step_self_ms", step_p50_ms - children, "ms");
  thread_balance_rows(cm, model, *arrays, n, threads, std::max(3, reps / 2),
                      r);

  r.metric("obs.health_ms", r.time("obs.health", std::max(3, reps / 2), [&] {
             (void)health_scan({&arrays->phi_src}, {&arrays->mu_src});
           }) * 1e3, "ms");
  result_json_row(steps, report, cm.compile_report(), r);
  checkpoint_rows({{"phi", &arrays->phi_src}, {"mu", &arrays->mu_src}}, steps,
                  -1, r);
  arrays.reset();
  r.metric("support.pool_launch_us", pool_launch_us(threads), "us");
  exchange_rows(model, n, {1, 1, 1}, 1, 3, r);
}

void front_end_rows(const FrontEnd& fe, Result& r) {
  r.metric("sym.derive_s", fe.derive_s, "s");
  r.metric("ir.lower_s", fe.lower_s, "s");
  opcount_rows(fe.kernels, r);
  r.metric("backend.emit_s", fe.emit_s, "s");
  r.metric("backend.source_kb", double(fe.source.size()) / 1024.0, "kB");
  r.metric("backend.jit_s", fe.jit_s, "s");
  r.metric("backend.cache_load_s", fe.cache_load_s, "s");
}

void result_json_row(long long steps, const obs::RunReport& run,
                     const obs::CompileReport& compile, Result& r) {
  app::JobResult res;
  res.name = "result";
  res.steps = steps;
  res.run = run;
  res.compile = compile;
  r.metric("obs.result_json_ms",
           r.time("obs.result_json", 5,
                  [&] { (void)res.to_json().dump(-1); }) * 1e3,
           "ms");
}

void checkpoint_rows(const std::vector<resilience::CheckpointArray>& arrays,
                     long long step, int rank, Result& r) {
  resilience::CheckpointMeta meta;
  meta.step = step;
  const double t = r.time("resilience.checkpoint", 3, [&] {
    resilience::write_checkpoint("ckpt_probe", meta, arrays, rank);
  });
  double bytes = 0.0;
  for (const auto& e : fs::directory_iterator("ckpt_probe")) {
    bytes += double(e.file_size());
  }
  fs::remove_all("ckpt_probe");
  r.metric("resilience.checkpoint_ms", t * 1e3, "ms");
  r.metric("resilience.checkpoint_mb", bytes / double(1 << 20), "MiB");
}

void opcount_rows(const std::vector<ir::Kernel>& ks, Result& r) {
  ir::OpCounts total;
  for (const auto& k : ks) total += ir::count_ops(k);
  r.metric("ir.flops_per_lup", double(total.normalized_flops()), "flop/LUP");
  r.metric("ir.loads_per_lup", double(total.loads), "count");
  r.metric("ir.stores_per_lup", double(total.stores), "count");
}

double pool_launch_us(int threads) {
  ThreadPool pool(std::max(1, threads));
  const auto body = [](std::int64_t, std::int64_t) {};
  for (int i = 0; i < 100; ++i) pool.parallel_for(0, threads, body);
  std::vector<double> t;
  for (int rep = 0; rep < 21; ++rep) {
    const double t0 = now_s();
    for (int i = 0; i < 200; ++i) pool.parallel_for(0, threads, body);
    t.push_back((now_s() - t0) / 200.0 * 1e6);
  }
  return median(t);
}

// --- serve layer -----------------------------------------------------------------

namespace {

/// One served job as its client saw it.
struct JobTrace {
  double submit = 0, started = -1, terminal = -1;  ///< client clock
  double server_queued = -1, server_duration = -1;  ///< from the events
  long long events = 0;
  std::string terminal_kind;
};

/// serve.* layer rows from the jobs' event timelines.
void serve_rows(const std::vector<JobTrace>& jobs, double batch_wall,
                int workers, Result& r) {
  std::vector<double> queue_ms, overhead_ms;
  double busy = 0.0, events = 0.0;
  long long rejected = 0, failed = 0;
  for (const JobTrace& j : jobs) {
    events += double(j.events);
    if (j.terminal_kind == "rejected") ++rejected;
    if (j.terminal_kind != "finished") ++failed;
    if (j.server_queued < 0 || j.server_duration < 0) continue;
    queue_ms.push_back(j.server_queued * 1e3);
    // Everything the client waits for beyond running the job itself:
    // queueing, transport, decoding and the result's serialization.
    overhead_ms.push_back(((j.terminal - j.submit) - j.server_duration) * 1e3);
    busy += j.server_duration;
  }
  r.metric("serve.queue_wait_ms_p50", median(queue_ms), "ms");
  r.metric("serve.overhead_ms_p50", median(overhead_ms), "ms");
  r.metric("serve.worker_busy_frac",
           batch_wall > 0 ? busy / (double(workers) * batch_wall) : 0.0,
           "ratio");
  r.metric("serve.events_per_job",
           jobs.empty() ? 0.0 : events / double(jobs.size()), "count");
  r.metric("serve.rejected", double(rejected), "count");
  r.metric("serve.failed", double(failed), "count");
}

/// Submits one spec over the Unix socket and records the client-side
/// event timeline (spans serve.submit, serve.queue, serve.run when traced).
JobTrace submit_job(const std::string& socket, const app::JobSpec& spec,
                    Tracer* tr, long long id) {
  JobTrace jt;
  Scope sc(tr, "serve.submit", id);
  jt.submit = now_s();
  try {
    serve::Client client("unix:" + socket);
    const Json term = client.submit(spec.to_json(), [&](const Json& ev) {
      ++jt.events;
      if (ev.find("event")->str() == "started") {
        jt.started = now_s();
        if (const Json* q = ev.find("queued_seconds")) {
          jt.server_queued = q->number();
        }
      }
    });
    jt.terminal = now_s();
    ++jt.events;
    jt.terminal_kind = term.find("event")->str();
    if (const Json* d = term.find("duration_seconds")) {
      jt.server_duration = d->number();
    }
  } catch (const std::exception& e) {
    jt.terminal = now_s();
    jt.terminal_kind = std::string("transport: ") + e.what();
  }
  if (tr != nullptr && tr->enabled() && jt.started > 0) {
    tr->add("serve.queue", jt.submit, jt.started, id);
    tr->add("serve.run", jt.started, jt.terminal, id);
  }
  return jt;
}

}  // namespace

void serve_probe(const std::string& dir, Result& r) {
  fs::create_directories(dir);
  serve::ServeOptions so;
  so.socket_path = dir + "/p.sock";
  so.workers = 1;
  so.quiet = true;
  so.cache.directory = dir + "/kc";
  serve::JobServer server(so);
  server.start();
  app::JobSpec spec;
  spec.name = "probe";
  spec.model.preset = "two_phase";
  spec.steps = 20;
  spec.simulation.cells = {32, 32, 1};
  std::vector<JobTrace> jobs;
  const double t0 = now_s();
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(submit_job(so.socket_path, spec, &r.tracer, i));
  }
  const double wall = now_s() - t0;
  server.stop();
  serve_rows(jobs, wall, so.workers, r);
}

void tuner_probe(const Json& spec_json, const std::string& dir, Result& r) {
  const Json* rec = spec_json.find("tuner_probe");
  const Json* preset = rec != nullptr ? rec->find("preset") : nullptr;
  if (preset == nullptr) throw Error("spec.json: no tuner_probe preset");
  app::JobSpec spec;
  spec.name = "tuner-probe";
  spec.model.preset = preset->str();
  spec.model.dims = 2;
  spec.steps = int_at(*rec, "steps");
  spec.simulation.threads = int(int_at(*rec, "threads"));
  spec.simulation.cells = triple_at(*rec, "cells");
  const int repeats = int(int_at(*rec, "repeats"));
  const app::GrandChemModel model(spec.make_params());
  std::vector<double> search_s, gain;
  std::map<std::string, int> winners;
  for (int i = 0; i < repeats; ++i) {
    app::SimulationOptions o = spec.simulation;
    o.compile.tune = app::TuneMode::Full;
    o.compile.cache_dir = dir;
    obs::TuningStats st;
    r.time("perf.autotune_apply", 1, [&] { st = app::autotune_apply(model, o); });
    search_s.push_back(st.search_seconds);
    gain.push_back(st.baseline_mlups > 0 ? st.best_mlups / st.baseline_mlups
                                         : 0.0);
    ++winners[st.best_config];
  }
  int top = 0;
  for (const auto& [label, n] : winners) top = std::max(top, n);
  r.metric("perf.tune_search_s", median(search_s), "s");
  r.metric("perf.tune_best_over_baseline", median(gain), "ratio");
  r.metric("perf.tune_winner_agreement", double(top) / double(repeats),
           "ratio");
  r.info.set("tuner_probe", Json::object()
                                .set("repeats", Json(repeats))
                                .set("distinct_winners",
                                     Json((long long)winners.size())));
}

void exchange_rows(const app::GrandChemModel& m,
                   const std::array<long long, 3>& cells,
                   const std::array<int, 3>& blocks, int ranks, int reps,
                   Result& r) {
  const int dims = m.params().dims;
  const auto nr = std::size_t(ranks);
  std::vector<double> total_ms(nr, 0.0), wait_ms(nr, 0.0), bytes(nr, 0.0),
      msgs(nr, 0.0);
  mpi::run(ranks, [&](mpi::Comm& comm) {
    const grid::BlockForest forest(cells, blocks, ranks, dims);
    grid::GhostExchange ex(forest, &comm,
                           std::max(m.phi_src()->components(),
                                    m.mu_src()->components()));
    std::vector<BlockArrays> arrays;
    const auto mine = forest.blocks_of_rank(comm.rank());
    arrays.reserve(mine.size());
    long long remote_faces = 0;
    for (const grid::Block* b : mine) {
      arrays.push_back(make_block(m, b->size, nullptr));
      arrays.back().phi_dst.fill(0.5);
      arrays.back().mu_dst.fill(0.1);
      for (int axis = 0; axis < dims; ++axis) {
        for (int side : {-1, 1}) {
          const grid::Block* nb = forest.neighbor(*b, axis, side);
          if (nb != nullptr && nb->owner != comm.rank()) ++remote_faces;
        }
      }
    }
    std::vector<grid::LocalBlockField> phi, mu;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      phi.push_back({mine[i], &arrays[i].phi_dst});
      mu.push_back({mine[i], &arrays[i].mu_dst});
    }
    std::vector<double> tot, wait;
    std::size_t step_bytes = 0;
    for (int rep = 0; rep < reps + 2; ++rep) {
      comm.barrier();
      const double t0 = now_s();
      double w = 0.0;
      step_bytes = 0;
      // Rank 0 records its calls; the main thread waits in mpi::run.
      Tracer* tr = comm.rank() == 0 ? &r.tracer : nullptr;
      for (auto* f : {&phi, &mu}) {
        {
          Scope s(tr, "grid.exchange.begin");
          ex.begin(*f, f == &phi ? 11 : 12);
        }
        const double tw = now_s();
        {
          Scope s(tr, "grid.exchange.finish");
          ex.finish();
        }
        w += now_s() - tw;
        step_bytes += ex.last_bytes_sent();
      }
      if (rep >= 2) {  // first rounds size the persistent buffers
        tot.push_back((now_s() - t0) * 1e3);
        wait.push_back(w * 1e3);
      }
    }
    const auto rk = std::size_t(comm.rank());
    total_ms[rk] = median(tot);
    wait_ms[rk] = median(wait);
    bytes[rk] = double(step_bytes);
    msgs[rk] = double(2 * remote_faces);
  });
  r.metric("grid.exchange_ms", *std::max_element(total_ms.begin(),
                                                 total_ms.end()), "ms");
  r.metric("grid.exchange_wait_ms", *std::max_element(wait_ms.begin(),
                                                      wait_ms.end()), "ms");
  r.metric("grid.exchange_bytes_per_step",
           std::accumulate(bytes.begin(), bytes.end(), 0.0), "B");
  r.metric("grid.exchange_msgs_per_step",
           std::accumulate(msgs.begin(), msgs.end(), 0.0), "count");
}

}  // namespace pb
