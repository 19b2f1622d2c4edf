#include "pfc/obs/health.hpp"

#include <cmath>
#include <cstdio>

#include "pfc/field/array.hpp"
#include "pfc/support/assert.hpp"

namespace pfc::obs {

const char* health_policy_name(HealthPolicy p) {
  switch (p) {
    case HealthPolicy::Ignore: return "ignore";
    case HealthPolicy::Warn: return "warn";
    case HealthPolicy::Throw: return "throw";
    case HealthPolicy::Recover: return "recover";
  }
  return "?";
}

HealthPolicy parse_health_policy(const std::string& name) {
  if (name == "ignore") return HealthPolicy::Ignore;
  if (name == "warn") return HealthPolicy::Warn;
  if (name == "throw") return HealthPolicy::Throw;
  if (name == "recover") return HealthPolicy::Recover;
  throw Error("pfc: unknown health policy \"" + name +
              "\" (expected ignore, warn, throw or recover)");
}

Json HealthStats::to_json() const {
  return Json::object()
      .set("checks", Json(std::uint64_t(checks)))
      .set("nonfinite_values", Json(nonfinite_values))
      .set("phase_sum_violations", Json(phase_sum_violations))
      .set("simplex_violations", Json(simplex_violations))
      .set("mu_blowups", Json(mu_blowups))
      .set("max_phase_sum_error", Json(max_phase_sum_error))
      .set("conservation_drift", Json(conservation_drift));
}

HealthStats HealthStats::from_json(const Json& j) {
  const auto num = [&j](const char* key) {
    const Json* v = j.find(key);
    return v != nullptr && v->is_number() ? v->number() : 0.0;
  };
  HealthStats s;
  s.checks = (long long)num("checks");
  s.nonfinite_values = (std::uint64_t)num("nonfinite_values");
  s.phase_sum_violations = (std::uint64_t)num("phase_sum_violations");
  s.simplex_violations = (std::uint64_t)num("simplex_violations");
  s.mu_blowups = (std::uint64_t)num("mu_blowups");
  s.max_phase_sum_error = num("max_phase_sum_error");
  s.conservation_drift = num("conservation_drift");
  return s;
}

HealthMonitor::HealthMonitor(const HealthOptions& opts, Registry* registry)
    : opts_(opts), registry_(registry) {
  PFC_REQUIRE(opts.every_n_steps >= 1,
              "health: every_n_steps must be >= 1, got " +
                  std::to_string(opts.every_n_steps));
}

void HealthMonitor::scan_block(const Array& phi, const Array* mu) {
  if (!opts_.enabled) return;
  // Rows are read through raw pointers (stride(0) == 1): the per-cell
  // component order of the sums is the one Array::at() would visit.
  const auto& n = phi.size();
  const int comps = phi.components();
  const std::int64_t cs = phi.component_stride();
  const double lo = -opts_.simplex_tol, hi = 1.0 + opts_.simplex_tol;
  for (std::int64_t z = 0; z < n[2]; ++z) {
    for (std::int64_t y = 0; y < n[1]; ++y) {
      const double* row = phi.origin(0) + y * phi.stride(1) + z * phi.stride(2);
      for (std::int64_t x = 0; x < n[0]; ++x) {
        double sum = 0.0;
        bool cell_finite = true;
        for (int c = 0; c < comps; ++c) {
          const double v = row[x + c * cs];
          if (!std::isfinite(v)) {
            ++scan_nonfinite_;
            cell_finite = false;
            continue;
          }
          if (v < lo || v > hi) ++scan_simplex_;
          sum += v;
        }
        if (cell_finite) {
          const double err = std::abs(sum - 1.0);
          if (err > opts_.phase_sum_tol) ++scan_phase_sum_;
          if (err > stats_.max_phase_sum_error) {
            stats_.max_phase_sum_error = err;
          }
          scan_phase_total_ += sum;
        }
        ++scan_cells_;
      }
    }
  }
  if (mu != nullptr) {
    const auto& m = mu->size();
    for (int c = 0; c < mu->components(); ++c) {
      for (std::int64_t z = 0; z < m[2]; ++z) {
        for (std::int64_t y = 0; y < m[1]; ++y) {
          const double* row =
              mu->origin(c) + y * mu->stride(1) + z * mu->stride(2);
          for (std::int64_t x = 0; x < m[0]; ++x) {
            const double v = row[x];
            if (!std::isfinite(v)) {
              ++scan_nonfinite_;
            } else if (std::abs(v) > opts_.mu_limit) {
              ++scan_mu_;
            }
          }
        }
      }
    }
  }
}

std::uint64_t HealthMonitor::finish_scan(long long step) {
  if (!opts_.enabled) return 0;
  ++stats_.checks;
  stats_.nonfinite_values += scan_nonfinite_;
  stats_.phase_sum_violations += scan_phase_sum_;
  stats_.simplex_violations += scan_simplex_;
  stats_.mu_blowups += scan_mu_;
  if (scan_cells_ > 0) {
    const double drift =
        std::abs(scan_phase_total_ / double(scan_cells_) - 1.0);
    if (drift > stats_.conservation_drift) {
      stats_.conservation_drift = drift;
    }
  }
  if (registry_ != nullptr) {
    registry_->counter("health/checks").add(1);
    if (scan_nonfinite_ > 0) {
      registry_->counter("health/nonfinite_values").add(scan_nonfinite_);
    }
    if (scan_phase_sum_ > 0) {
      registry_->counter("health/phase_sum_violations").add(scan_phase_sum_);
    }
    if (scan_simplex_ > 0) {
      registry_->counter("health/simplex_violations").add(scan_simplex_);
    }
    if (scan_mu_ > 0) {
      registry_->counter("health/mu_blowups").add(scan_mu_);
    }
  }

  const std::uint64_t found =
      scan_nonfinite_ + scan_phase_sum_ + scan_simplex_ + scan_mu_;
  char detail[160];
  if (found > 0) {
    std::snprintf(detail, sizeof detail,
                  "step %lld: %llu non-finite, %llu phase-sum, %llu simplex, "
                  "%llu mu-blowup violations",
                  step, (unsigned long long)scan_nonfinite_,
                  (unsigned long long)scan_phase_sum_,
                  (unsigned long long)scan_simplex_,
                  (unsigned long long)scan_mu_);
  }
  scan_nonfinite_ = scan_phase_sum_ = scan_simplex_ = scan_mu_ = 0;
  scan_phase_total_ = 0.0;
  scan_cells_ = 0;

  if (found == 0) return 0;
  switch (opts_.policy) {
    case HealthPolicy::Ignore:
      break;
    case HealthPolicy::Warn:
      std::fprintf(stderr, "pfc health warning: %s\n", detail);
      break;
    case HealthPolicy::Throw:
      throw Error(std::string("pfc health check failed: ") + detail);
    case HealthPolicy::Recover:
      // the driver rolls back; the monitor only reports
      std::fprintf(stderr, "pfc health (recovering): %s\n", detail);
      break;
  }
  return found;
}

}  // namespace pfc::obs
