// Live metrics for long-running services (the serve daemon above all): a
// process-wide registry of counters, gauges and fixed-bucket histograms,
// written lock-free from any thread and snapshot-able without stopping
// writers.
//
// This complements the per-run RunReport: that one totals the timers of
// a single driver and dies with it; MetricsRegistry outlives every job
// and answers "what is this process doing *right now*" —
// queue depth, jobs in flight, job-duration distribution, kernel-cache
// hit counts — in two exposition formats:
//
//   * to_json()        — the pfc-serve-metrics-v1 snapshot the daemon's
//                        "metrics" request returns (validated by
//                        report_check --metrics),
//   * to_prometheus()  — Prometheus text exposition (# HELP / # TYPE +
//                        samples; histograms as cumulative _bucket/_sum/
//                        _count series), linted by report_check --prom.
//
// Concurrency contract: metric handles returned by counter()/gauge()/
// histogram() stay valid for the registry's lifetime and may be updated
// from any thread without locks (relaxed atomics; Gauge::add and
// Histogram sum use a CAS loop). Snapshots lock only the family index,
// never the writers, so a snapshot taken mid-update is "torn-free" at
// the level tests can assert: a histogram's total count always equals
// the sum of its bucket counts, and cumulative bucket counts are
// monotone.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "pfc/obs/json.hpp"

namespace pfc::obs {

/// Monotonic event counter; add() is safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, resident bytes, current MLUPS).
/// set()/add() are wait-free / lock-free from any thread.
class Gauge {
 public:
  void set(double v) { bits_.store(pack(v), std::memory_order_relaxed); }
  void add(double delta) {
    std::uint64_t old = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(old, pack(unpack(old) + delta),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return unpack(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t pack(double v);
  static double unpack(std::uint64_t bits);
  std::atomic<std::uint64_t> bits_{0};  // pack(0.0) == 0
};

/// Fixed-bucket histogram of nonnegative samples (durations, sizes).
/// Bounds are the inclusive upper edges of the finite buckets; one
/// overflow (+Inf) bucket is implicit. observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  struct Snapshot {
    std::vector<double> bounds;          ///< finite upper edges
    std::vector<std::uint64_t> counts;   ///< per-bucket, bounds+1 entries
    std::uint64_t count = 0;             ///< == sum of counts, always
    double sum = 0.0;                    ///< sum of observed values
  };
  /// Consistent by construction: count is derived from the bucket counts
  /// read in one pass, so it can never disagree with them.
  Snapshot snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

  /// Duration buckets the serve metrics use: 10 ms .. 5 min, roughly
  /// geometric.
  static std::vector<double> duration_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> sum_bits_{0};  // packed double, CAS-added
};

/// One metric's labels, e.g. {{"preset", "two_phase"}}. Order is kept as
/// given (exposition is deterministic); equality is by exact sequence.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Valid Prometheus metric name ([a-zA-Z_:][a-zA-Z0-9_:]*)?
bool valid_metric_name(const std::string& name);

inline constexpr const char* kMetricsSchema = "pfc-serve-metrics-v1";

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide instance the daemon exposes. Library code (kernel
  /// cache, serve workers) records here so one scrape sees everything.
  static MetricsRegistry& shared();

  /// Returns the metric for (name, labels), creating the family on first
  /// use. A family's kind and help are fixed by the first call; a
  /// conflicting re-registration throws pfc::Error. References stay valid
  /// for the registry's lifetime — look up once, update lock-free.
  Counter& counter(const std::string& name, const std::string& help,
                   const MetricLabels& labels = {});
  /// A monotonically increasing float quantity exposed as a Prometheus
  /// counter (busy seconds); backed by Gauge::add.
  Gauge& counter_double(const std::string& name, const std::string& help,
                        const MetricLabels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const MetricLabels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds,
                       const MetricLabels& labels = {});

  /// pfc-serve-metrics-v1 snapshot:
  ///   {"schema": "...", "metrics": {"<name>": {"type", "help",
  ///     "values": [{"labels": {...}, "value": x} |
  ///                {"labels": {...}, "count": n, "sum": s,
  ///                 "buckets": [{"le": b|"+Inf", "count": cumulative}]}]}}}
  Json to_json() const;

  /// Prometheus text exposition format (one # HELP and # TYPE line per
  /// family, histogram series as cumulative _bucket{le=...}/_sum/_count).
  std::string to_prometheus() const;

  /// Test hook: drops every family (handed-out references become stale —
  /// only use between test cases).
  void reset();

 private:
  enum class Kind { Counter, CounterDouble, Gauge, Histogram };

  struct Series {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::Counter;
    std::string help;
    /// Keyed by canonical label serialization; insertion-ordered values
    /// are kept in the map (std::map sorts by key — deterministic).
    std::map<std::string, Series> series;
  };

  Family& family(const std::string& name, const std::string& help, Kind kind);
  Series& series(Family& f, const MetricLabels& labels);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

}  // namespace pfc::obs
