// Validates a pfc-obs report JSON file (pfc-obs-report-v7, the only
// revision any producer writes) by strict decode -> re-emit -> equality:
// the file decodes as a run, compile or bench report (obs/report.hpp, a
// run report's embedded compile report included), and writing the decoded
// report back out gives the input again. Decoding refuses an unknown or
// missing key, a mistyped or out-of-range value, a derived value that
// disagrees with the fields it is computed from and a broken cross-field
// rule; re-emitting catches whatever the decoder reads but the producers
// never write. The field lists in report.cpp are the schema, so this file
// spells none of its keys. Run by ctest against the files quickstart,
// distributed_demo and the Fig. 2 bench emit.
//
// With --trace the argument is instead a chrome://tracing trace file (as
// written by obs::TraceRecorder) and the structure of its traceEvents is
// validated, including that kernel and ghost-exchange spans are present.
//
// With --checkpoint the argument is a checkpoint manifest; it is read with
// resilience::read_manifest, the decoder a restart uses (typed keys,
// contiguous offsets, dt > 0, a state file of the exact size).
//
// The --require-* flags read the decoded report:
//   --require-vector-width  a compile report is present (top-level or
//                           embedded); its vector width is one of 1, 2,
//                           4, 8 whenever it is present, flag or not;
//   --require-overlap       the run's overlap section is enabled;
//   --require-cache         the compile report carries its cache section;
//   --require-threading     the run's thread pool has >= 1 threads;
//   --require-tuning        the run's tuning section is enabled.
//
// With --jobspec the argument is a pfc-jobspec-v2 file; it is parsed with
// the same strict decoder the serve daemon uses (unknown keys, type
// mismatches and out-of-range values are errors) and cross-field validated.
//
// With --metrics the argument is a pfc-serve-metrics-v1 snapshot (what
// the daemon's "metrics" request returns): schema, per-family type/help,
// label shapes and histogram consistency (cumulative bucket counts are
// monotone, end at "+Inf" and agree with the total count) are validated.
// Any further arguments name families that must exist with a nonzero
// total — what the serve_roundtrip test pins after running real jobs.
//
// With --prom the argument is a Prometheus text exposition (the daemon's
// "metrics_text" reply): every sample's family must carry # HELP and
// # TYPE lines before its first sample, metric names must match the
// Prometheus charset, counters must end in _total, and histograms must
// expose _bucket/_sum/_count series with a "+Inf" bucket.
//
// Usage: report_check [--require-vector-width] [--require-overlap]
//                     [--require-cache] [--require-threading]
//                     [--require-tuning] <report.json> [run|compile|bench]
//        report_check --trace <trace.json>
//        report_check --checkpoint <manifest.json>
//        report_check --jobspec <jobspec.json>
//        report_check --metrics <metrics.json> [required-family...]
//        report_check --prom <metrics.prom>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "pfc/app/jobspec.hpp"
#include "pfc/obs/json.hpp"
#include "pfc/obs/metrics.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/resilience/checkpoint.hpp"
#include "pfc/support/enum_names.hpp"

namespace {

int g_errors = 0;

void fail(const std::string& msg) {
  std::fprintf(stderr, "report_check: %s\n", msg.c_str());
  ++g_errors;
}

void check_finite_nonneg(const pfc::obs::Json& v, const std::string& where) {
  if (!v.is_number()) {
    fail(where + ": expected a number");
    return;
  }
  const double x = v.number();
  if (!(x >= 0.0)) fail(where + ": negative or non-finite value");
}

std::string read_file(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (!f) {
    fail(std::string("cannot open ") + path);
    return "";
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

void check_finite(const pfc::obs::Json& v, const std::string& where) {
  if (!v.is_number()) {
    fail(where + ": expected a number");
    return;
  }
  const double x = v.number();
  if (!(x - x == 0.0)) fail(where + ": non-finite value");
}

/// --trace mode: structural validation of a chrome://tracing document.
int check_trace(const char* path) {
  const std::string text = read_file(path);
  if (g_errors) return 1;
  std::string err;
  const pfc::obs::Json j = pfc::obs::Json::parse(text, &err);
  if (!err.empty()) {
    fail("parse error: " + err);
    return 1;
  }
  const pfc::obs::Json* events =
      j.is_object() ? j.find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array()) {
    fail("top level must be an object with a \"traceEvents\" array");
    return 1;
  }
  std::size_t kernel_spans = 0, ghost_spans = 0, slab_spans = 0;
  for (std::size_t i = 0; i < events->elements().size(); ++i) {
    const pfc::obs::Json& e = events->elements()[i];
    const std::string where = "traceEvents[" + std::to_string(i) + ']';
    if (!e.is_object()) {
      fail(where + ": expected an object");
      continue;
    }
    for (const char* key : {"name", "cat", "ph", "ts", "pid", "tid"}) {
      if (!e.find(key)) fail(where + ": missing \"" + key + '"');
    }
    if (g_errors) continue;
    check_finite(*e.find("ts"), where + "/ts");
    const std::string ph =
        e.find("ph")->is_string() ? e.find("ph")->str() : "";
    if (ph != "X" && ph != "i") {
      fail(where + ": ph must be \"X\" or \"i\"");
      continue;
    }
    if (ph == "X") {
      if (!e.find("dur")) {
        fail(where + ": complete event without \"dur\"");
      } else {
        check_finite(*e.find("dur"), where + "/dur");
      }
    }
    const std::string cat =
        e.find("cat")->is_string() ? e.find("cat")->str() : "";
    if (ph == "X" && cat == "kernel") ++kernel_spans;
    if (ph == "X" && cat == "ghost") ++ghost_spans;
    if (ph == "X" && cat == "slab") ++slab_spans;
  }
  if (kernel_spans == 0) fail("no kernel spans (cat \"kernel\", ph \"X\")");
  if (ghost_spans == 0) {
    fail("no ghost-exchange/boundary spans (cat \"ghost\", ph \"X\")");
  }
  if (g_errors) {
    std::fprintf(stderr, "report_check: %s FAILED (%d error%s)\n", path,
                 g_errors, g_errors == 1 ? "" : "s");
    return 1;
  }
  std::printf("report_check: %s OK (%zu events: %zu kernel, %zu ghost, "
              "%zu slab spans)\n",
              path, events->elements().size(), kernel_spans, ghost_spans,
              slab_spans);
  return 0;
}

/// --checkpoint mode: the manifest through the restart's own reader.
int check_checkpoint(const char* path) {
  try {
    const pfc::resilience::Manifest m = pfc::resilience::read_manifest(path);
    std::printf("report_check: %s OK (checkpoint, %zu arrays, %llu "
                "doubles)\n",
                path, m.arrays.size(),
                (unsigned long long)(m.arrays.back().offset +
                                     m.arrays.back().count));
    return 0;
  } catch (const pfc::Error& e) {
    fail(e.what());
    std::fprintf(stderr, "report_check: %s FAILED (1 error)\n", path);
    return 1;
  }
}

/// A report decoded as one kind, and its re-emitted JSON.
struct Decoded {
  pfc::obs::ReportKind kind;
  std::optional<pfc::obs::RunReport> run;
  /// The compile report itself, or the one a run report embeds.
  std::optional<pfc::obs::CompileReport> compile;
  pfc::obs::Json again;
};

Decoded decode(pfc::obs::ReportKind kind, const pfc::obs::Json& j) {
  using pfc::obs::ReportKind;
  Decoded d{kind, {}, {}, {}};
  switch (kind) {
    case ReportKind::Run:
      d.run = pfc::obs::RunReport::from_json(j);
      d.compile = d.run->compile;
      d.again = d.run->to_json();
      break;
    case ReportKind::Compile:
      d.compile = pfc::obs::CompileReport::from_json(j);
      d.again = d.compile->to_json();
      break;
    case ReportKind::Bench:
      d.again = pfc::obs::BenchReport::from_json(j).to_json();
      break;
  }
  return d;
}

/// The first line at which the indented dumps of `a` and `b` differ
/// ("" when they are equal).
std::string first_difference(const pfc::obs::Json& a,
                             const pfc::obs::Json& b) {
  std::istringstream x(a.dump(2)), y(b.dump(2));
  for (std::string l, m; std::getline(x, l);) {
    if (!std::getline(y, m) || l != m) return "\"" + l + "\"";
  }
  return a == b ? "" : "the end";
}

/// One labeled series of a --metrics family. Returns the series' scalar
/// total (value, or count for histograms) so required-family checks can
/// assert nonzero activity.
double check_metric_series(const pfc::obs::Json& v, const std::string& type,
                           const std::string& where) {
  if (!v.is_object()) {
    fail(where + ": expected an object");
    return 0.0;
  }
  const pfc::obs::Json* labels = v.find("labels");
  if (!labels || !labels->is_object()) {
    fail(where + "/labels must be an object");
  } else {
    for (const auto& [k, lv] : labels->items()) {
      if (!lv.is_string()) fail(where + "/labels/" + k + ": expected a string");
    }
  }
  if (type == "counter" || type == "gauge") {
    const pfc::obs::Json* value = v.find("value");
    if (!value) {
      fail(where + ": missing \"value\"");
      return 0.0;
    }
    if (type == "counter") {
      check_finite_nonneg(*value, where + "/value");
    } else {
      check_finite(*value, where + "/value");
    }
    return value->is_number() ? value->number() : 0.0;
  }
  // histogram
  const pfc::obs::Json* count = v.find("count");
  const pfc::obs::Json* sum = v.find("sum");
  const pfc::obs::Json* buckets = v.find("buckets");
  if (!count || !sum || !buckets) {
    fail(where + ": histogram needs \"count\", \"sum\" and \"buckets\"");
    return 0.0;
  }
  check_finite_nonneg(*count, where + "/count");
  check_finite(*sum, where + "/sum");
  if (!buckets->is_array() || buckets->elements().empty()) {
    fail(where + "/buckets must be a non-empty array");
    return 0.0;
  }
  double prev = 0.0;
  bool saw_inf = false;
  for (std::size_t i = 0; i < buckets->elements().size(); ++i) {
    const pfc::obs::Json& b = buckets->elements()[i];
    const std::string bw = where + "/buckets[" + std::to_string(i) + ']';
    if (!b.is_object()) {
      fail(bw + ": expected an object");
      continue;
    }
    const pfc::obs::Json* le = b.find("le");
    const pfc::obs::Json* bc = b.find("count");
    if (!le || !bc) {
      fail(bw + ": needs \"le\" and \"count\"");
      continue;
    }
    if (le->is_string()) {
      if (le->str() != "+Inf") {
        fail(bw + "/le: string edge must be \"+Inf\"");
      } else if (i + 1 != buckets->elements().size()) {
        fail(bw + "/le: \"+Inf\" must be the last bucket");
      } else {
        saw_inf = true;
      }
    } else {
      check_finite_nonneg(*le, bw + "/le");
    }
    check_finite_nonneg(*bc, bw + "/count");
    if (bc->is_number()) {
      if (bc->number() < prev) {
        fail(bw + "/count: cumulative counts must be nondecreasing");
      }
      prev = bc->number();
    }
  }
  if (!saw_inf) fail(where + "/buckets: missing the \"+Inf\" bucket");
  if (count->is_number() && prev != count->number()) {
    fail(where + ": +Inf bucket count (" +
         std::to_string((long long)prev) + ") must equal count (" +
         std::to_string((long long)count->number()) + ')');
  }
  return count->is_number() ? count->number() : 0.0;
}

/// --metrics mode: structural validation of a pfc-serve-metrics-v1
/// snapshot; `required` families must exist with a nonzero total.
int check_metrics(const char* path, const std::vector<std::string>& required) {
  const std::string text = read_file(path);
  if (g_errors) return 1;
  std::string err;
  const pfc::obs::Json j = pfc::obs::Json::parse(text, &err);
  if (!err.empty()) {
    fail("parse error: " + err);
    return 1;
  }
  if (!j.is_object()) {
    fail("top level must be an object");
    return 1;
  }
  const pfc::obs::Json* schema = j.find("schema");
  if (!schema || !schema->is_string() ||
      schema->str() != pfc::obs::kMetricsSchema) {
    fail(std::string("schema must be \"") + pfc::obs::kMetricsSchema + '"');
  }
  const pfc::obs::Json* metrics = j.find("metrics");
  if (!metrics || !metrics->is_object()) {
    fail("\"metrics\" must be an object");
    return 1;
  }
  // The serve daemon's families have pinned kinds: a registry refactor
  // must not silently demote pfc_jobs_rejected_total to a gauge or grow
  // pfc_tenant_inflight series without their tenant label.
  static const std::map<std::string, std::string> kServeKinds = {
      {"pfc_jobs_submitted_total", "counter"},
      {"pfc_jobs_finished_total", "counter"},
      {"pfc_jobs_failed_total", "counter"},
      {"pfc_jobs_rejected_total", "counter"},
      {"pfc_jobs_cancelled_total", "counter"},
      {"pfc_jobs_deadline_exceeded_total", "counter"},
      {"pfc_jobs_watchdog_killed_total", "counter"},
      {"pfc_jobs_degraded_total", "counter"},
      {"pfc_queue_depth", "gauge"},
      {"pfc_jobs_inflight", "gauge"},
      {"pfc_tenant_inflight", "gauge"},
      {"pfc_job_duration_seconds", "histogram"},
      {"pfc_job_queue_seconds", "histogram"},
  };
  std::map<std::string, double> totals;
  for (const auto& [name, fam] : metrics->items()) {
    const std::string where = "metrics/" + name;
    if (!pfc::obs::valid_metric_name(name)) {
      fail(where + ": invalid metric name");
    }
    if (!fam.is_object()) {
      fail(where + ": expected an object");
      continue;
    }
    const pfc::obs::Json* type = fam.find("type");
    const pfc::obs::Json* help = fam.find("help");
    const pfc::obs::Json* values = fam.find("values");
    if (!type || !type->is_string() ||
        (type->str() != "counter" && type->str() != "gauge" &&
         type->str() != "histogram")) {
      fail(where + "/type must be \"counter\", \"gauge\" or \"histogram\"");
      continue;
    }
    if (!help || !help->is_string() || help->str().empty()) {
      fail(where + "/help must be a non-empty string");
    }
    const auto pinned = kServeKinds.find(name);
    if (pinned != kServeKinds.end() && type->str() != pinned->second) {
      fail(where + "/type must be \"" + pinned->second +
           "\" (serve-family kind is pinned), got \"" + type->str() + '"');
    }
    if (!values || !values->is_array() || values->elements().empty()) {
      fail(where + "/values must be a non-empty array");
      continue;
    }
    double total = 0.0;
    for (std::size_t i = 0; i < values->elements().size(); ++i) {
      const std::string vw = where + "/values[" + std::to_string(i) + ']';
      total += check_metric_series(values->elements()[i], type->str(), vw);
      if (name == "pfc_tenant_inflight") {
        const pfc::obs::Json* labels = values->elements()[i].find("labels");
        if (!labels || labels->find("tenant") == nullptr) {
          fail(vw + ": pfc_tenant_inflight series needs a \"tenant\" label");
        }
      }
    }
    totals[name] = total;
  }
  for (const std::string& name : required) {
    auto it = totals.find(name);
    if (it == totals.end()) {
      fail("required family \"" + name + "\" is missing");
    } else if (!(it->second > 0.0)) {
      fail("required family \"" + name + "\" has a zero total");
    }
  }
  if (g_errors) {
    std::fprintf(stderr, "report_check: %s FAILED (%d error%s)\n", path,
                 g_errors, g_errors == 1 ? "" : "s");
    return 1;
  }
  std::printf("report_check: %s OK (metrics, %zu families, %zu required)\n",
              path, metrics->items().size(), required.size());
  return 0;
}

/// --prom mode: lint of the Prometheus text exposition.
int check_prom(const char* path) {
  const std::string text = read_file(path);
  if (g_errors) return 1;
  std::map<std::string, std::string> types;  // family -> counter|gauge|...
  std::set<std::string> helped;
  std::set<std::string> sampled;  // families with >= 1 sample line
  std::map<std::string, std::set<std::string>> histogram_series;
  std::map<std::string, bool> histogram_inf;
  std::size_t samples = 0;
  std::size_t lineno = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    const std::string line =
        text.substr(start, end == std::string::npos ? end : end - start);
    start = end == std::string::npos ? text.size() + 1 : end + 1;
    ++lineno;
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(lineno);
    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name counter|gauge|histogram"
      std::size_t p = line.find_first_not_of(' ', 1);
      if (p == std::string::npos) continue;
      const std::size_t kw_end = line.find(' ', p);
      const std::string kw =
          line.substr(p, kw_end == std::string::npos ? kw_end : kw_end - p);
      if (kw != "HELP" && kw != "TYPE") continue;  // other comments are legal
      if (kw_end == std::string::npos) {
        fail(where + ": # " + kw + " without a metric name");
        continue;
      }
      p = line.find_first_not_of(' ', kw_end);
      const std::size_t name_end = line.find(' ', p);
      const std::string name = line.substr(
          p, name_end == std::string::npos ? name_end : name_end - p);
      if (!pfc::obs::valid_metric_name(name)) {
        fail(where + ": invalid metric name \"" + name + '"');
        continue;
      }
      if (sampled.count(name) != 0) {
        fail(where + ": # " + kw + " for \"" + name +
             "\" after its first sample");
      }
      if (kw == "HELP") {
        if (name_end == std::string::npos ||
            line.find_first_not_of(' ', name_end) == std::string::npos) {
          fail(where + ": # HELP " + name + " has no text");
        }
        if (!helped.insert(name).second) {
          fail(where + ": duplicate # HELP for \"" + name + '"');
        }
      } else {
        const std::string type =
            name_end == std::string::npos
                ? ""
                : line.substr(line.find_first_not_of(' ', name_end));
        if (type != "counter" && type != "gauge" && type != "histogram") {
          fail(where + ": # TYPE " + name + " has unknown type \"" + type +
               '"');
        }
        if (!types.emplace(name, type).second) {
          fail(where + ": duplicate # TYPE for \"" + name + '"');
        }
      }
      continue;
    }
    // sample line: name[{labels}] value
    const std::size_t name_end = line.find_first_of("{ ");
    const std::string series =
        line.substr(0, name_end == std::string::npos ? name_end : name_end);
    if (!pfc::obs::valid_metric_name(series)) {
      fail(where + ": invalid metric name \"" + series + '"');
      continue;
    }
    // resolve the family: histogram series drop a _bucket/_sum/_count
    // suffix, everything else is its own family
    std::string family = series;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::size_t len = std::strlen(suffix);
      if (series.size() > len &&
          series.compare(series.size() - len, len, suffix) == 0) {
        const std::string base = series.substr(0, series.size() - len);
        auto it = types.find(base);
        if (it != types.end() && it->second == "histogram") {
          family = base;
          histogram_series[base].insert(suffix);
          break;
        }
      }
    }
    auto type_it = types.find(family);
    if (type_it == types.end()) {
      fail(where + ": sample \"" + series + "\" has no preceding # TYPE");
      continue;
    }
    if (helped.count(family) == 0) {
      fail(where + ": sample \"" + series + "\" has no preceding # HELP");
    }
    if (type_it->second == "counter" &&
        (series.size() < 6 ||
         series.compare(series.size() - 6, 6, "_total") != 0)) {
      fail(where + ": counter \"" + series + "\" must end in _total");
    }
    if (type_it->second == "histogram" && family == series) {
      fail(where + ": histogram \"" + family +
           "\" sample must be a _bucket/_sum/_count series");
    }
    if (family != series && series.size() > 7 &&
        series.compare(series.size() - 7, 7, "_bucket") == 0 &&
        line.find("le=\"+Inf\"") != std::string::npos) {
      histogram_inf[family] = true;
    }
    // the value is the last space-separated token
    const std::size_t sp = line.find_last_of(' ');
    if (sp == std::string::npos) {
      fail(where + ": sample without a value");
    } else {
      char* endp = nullptr;
      const std::string value = line.substr(sp + 1);
      std::strtod(value.c_str(), &endp);
      if (endp == value.c_str() || *endp != '\0') {
        fail(where + ": unparseable sample value \"" + value + '"');
      }
    }
    sampled.insert(family);
    ++samples;
  }
  for (const auto& [name, type] : types) {
    if (helped.count(name) == 0) {
      fail("# TYPE " + name + " without a # HELP line");
    }
    if (type != "histogram") continue;
    const auto& series = histogram_series[name];
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      if (series.count(suffix) == 0) {
        fail("histogram \"" + name + "\" has no " + suffix + " series");
      }
    }
    if (!histogram_inf[name]) {
      fail("histogram \"" + name + "\" has no le=\"+Inf\" bucket");
    }
  }
  if (types.empty()) fail("no # TYPE lines (empty exposition)");
  if (g_errors) {
    std::fprintf(stderr, "report_check: %s FAILED (%d error%s)\n", path,
                 g_errors, g_errors == 1 ? "" : "s");
    return 1;
  }
  std::printf("report_check: %s OK (prometheus, %zu families, %zu samples)\n",
              path, types.size(), samples);
  return 0;
}

/// --jobspec mode: strict decode + cross-field validation of a job spec.
int check_jobspec(const char* path) {
  const std::string text = read_file(path);
  if (g_errors) return 1;
  try {
    const pfc::app::JobSpec spec = pfc::app::JobSpec::parse(text);
    const auto& b = spec.simulation.blocks_per_dim;
    std::printf("report_check: %s OK (jobspec \"%s\", preset %s, %lld "
                "steps, blocks %dx%dx%d)\n",
                path, spec.name.c_str(), spec.model.preset.c_str(),
                spec.steps, b[0], b[1], b[2]);
    return 0;
  } catch (const pfc::Error& e) {
    fail(e.what());
    std::fprintf(stderr, "report_check: %s FAILED (1 error)\n", path);
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--trace") == 0) {
    return check_trace(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "--checkpoint") == 0) {
    return check_checkpoint(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "--jobspec") == 0) {
    return check_jobspec(argv[2]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "--metrics") == 0) {
    std::vector<std::string> required;
    for (int i = 3; i < argc; ++i) required.emplace_back(argv[i]);
    return check_metrics(argv[2], required);
  }
  if (argc == 3 && std::strcmp(argv[1], "--prom") == 0) {
    return check_prom(argv[2]);
  }
  bool require_vector_width = false;
  bool require_overlap = false;
  bool require_cache = false;
  bool require_threading = false;
  bool require_tuning = false;
  while (argc >= 2 && std::strncmp(argv[1], "--", 2) == 0) {
    if (std::strcmp(argv[1], "--require-vector-width") == 0) {
      require_vector_width = true;
    } else if (std::strcmp(argv[1], "--require-overlap") == 0) {
      require_overlap = true;
    } else if (std::strcmp(argv[1], "--require-cache") == 0) {
      require_cache = true;
    } else if (std::strcmp(argv[1], "--require-threading") == 0) {
      require_threading = true;
    } else if (std::strcmp(argv[1], "--require-tuning") == 0) {
      require_tuning = true;
    } else {
      std::fprintf(stderr, "report_check: unknown flag %s\n", argv[1]);
      return 2;
    }
    --argc;
    ++argv;
  }
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr,
                 "usage: report_check [--require-vector-width] "
                 "[--require-overlap] [--require-cache] "
                 "[--require-threading] [--require-tuning] "
                 "<report.json> [kind]\n"
                 "       report_check --trace <trace.json>\n"
                 "       report_check --checkpoint <manifest.json>\n"
                 "       report_check --jobspec <jobspec.json>\n"
                 "       report_check --metrics <metrics.json> "
                 "[required-family...]\n"
                 "       report_check --prom <metrics.prom>\n");
    return 2;
  }
  const std::string text = read_file(argv[1]);
  if (g_errors) return 1;
  std::string err;
  const pfc::obs::Json j = pfc::obs::Json::parse(text, &err);
  if (!err.empty()) {
    fail("parse error: " + err);
    return 1;
  }

  // The named kind, or else the first kind the report decodes as.
  using pfc::obs::ReportKind;
  std::optional<Decoded> d;
  std::string errors;
  for (const auto& e : enum_names(ReportKind{}).entries) {
    if (argc == 3 && std::strcmp(argv[2], e.name) != 0) continue;
    try {
      d = decode(e.value, j);
      break;
    } catch (const pfc::Error& x) {
      errors += (errors.empty() ? "" : "\n  ") + std::string(x.what());
    }
  }
  if (!d) {
    fail(errors.empty()
             ? pfc::support::unknown_enum_message<ReportKind>(argv[2])
             : errors);
  } else if (const std::string at = first_difference(j, d->again);
             !at.empty()) {
    fail("the decoded report re-emits differently, from line " + at);
  }
  if (d && require_vector_width && !d->compile) {
    fail("--require-vector-width: no compile report (top-level or "
         "embedded)");
  }
  if (d && require_overlap && !(d->run && d->run->overlap.enabled)) {
    fail("--require-overlap: the run did not overlap its exchange");
  }
  if (d && require_cache && !(d->compile && d->compile->cache_used)) {
    fail("--require-cache: no compile report with a kernel-cache section");
  }
  if (d && require_threading && !(d->run && d->run->threading.threads >= 1)) {
    fail("--require-threading: not a run report with >= 1 threads");
  }
  if (d && require_tuning && !(d->run && d->run->tuning.enabled)) {
    fail("--require-tuning: the run did not tune");
  }

  if (g_errors) {
    std::fprintf(stderr, "report_check: %s FAILED (%d error%s)\n", argv[1],
                 g_errors, g_errors == 1 ? "" : "s");
    return 1;
  }
  std::printf("report_check: %s OK (%s report, decode -> re-emit equal)\n",
              argv[1], pfc::support::enum_name(d->kind));
  return 0;
}
