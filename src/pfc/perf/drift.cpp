#include "pfc/perf/drift.hpp"

#include <algorithm>
#include <cmath>

#include "pfc/support/assert.hpp"

namespace pfc::perf {

double predicted_kernel_mlups(const ir::Kernel& k,
                              const std::array<long long, 3>& block,
                              const MachineModel& m, int cores,
                              int vector_width) {
  try {
    const double mlups =
        ecm_predict(k, block, m, TrafficSource::LayerCondition, vector_width)
            .mlups(m, cores);
    return std::isfinite(mlups) && mlups > 0.0 ? mlups : 0.0;
  } catch (const Error&) {
    return 0.0;  // model limitation, not a run failure
  }
}

std::map<std::string, double> predicted_mlups_by_kernel(
    const std::vector<const ir::Kernel*>& kernels,
    const std::array<long long, 3>& block, const MachineModel& m, int cores,
    int vector_width) {
  std::map<std::string, double> out;
  for (const ir::Kernel* k : kernels) {
    out[k->name] = predicted_kernel_mlups(*k, block, m, cores, vector_width);
  }
  return out;
}

void fill_model_accuracy(obs::RunReport& rep,
                         const std::map<std::string, double>& predicted_mlups,
                         long long cells_per_launch, int dims,
                         const NetworkModel& net) {
  rep.model_accuracy.clear();
  for (const auto& [name, t] : rep.kernel_timers) {
    obs::ModelAccuracy a;
    a.measured_seconds = t.seconds;
    const auto it = predicted_mlups.find(name);
    const double mlups = it != predicted_mlups.end() ? it->second : 0.0;
    if (mlups > 0.0) {
      a.predicted_seconds = obs::safe_rate(
          double(t.count) * double(cells_per_launch), mlups * 1e6);
    }
    a.ratio = obs::safe_rate(a.measured_seconds, a.predicted_seconds);
    rep.model_accuracy["kernel/" + name] = a;
  }
  if (rep.exchange_bytes > 0 || rep.exchange_seconds > 0.0) {
    obs::ModelAccuracy a;
    a.measured_seconds = rep.exchange_seconds;
    // Per step the runtime exchanges both fields over all axes and both
    // directions (messages_per_step); volume comes from the measured bytes
    // so only the latency/bandwidth model itself is under test.
    const double comm_pred =
        net.latency_s * double(messages_per_step(dims)) * double(rep.steps) +
        double(rep.exchange_bytes) / (net.bandwidth_gbytes * 1e9);
    if (rep.overlap.enabled) {
      // The overlapped step hides wire time behind interior compute; the
      // measured exchange timer only sees the exposed part, so the honest
      // prediction is what max(T_interior, T_comm) leaves uncovered (with
      // the residual floor the Table 2 model also uses).
      rep.overlap.hidden_seconds =
          std::min(rep.overlap.interior_seconds, comm_pred);
      rep.overlap.hidden_fraction = std::clamp(
          obs::safe_rate(rep.overlap.hidden_seconds, comm_pred), 0.0, 1.0);
      a.predicted_seconds =
          std::max(comm_pred - rep.overlap.interior_seconds,
                   comm_pred * net.overlap_residual);
    } else {
      a.predicted_seconds = comm_pred;
    }
    a.ratio = obs::safe_rate(a.measured_seconds, a.predicted_seconds);
    // The network model prices messages between ranks. Ghost copies that
    // stay on the rank (a periodic block's self-copies, neighbouring blocks
    // of one rank) send no byte, so such a run gets no entry.
    if (rep.exchange_bytes > 0) rep.model_accuracy["exchange"] = a;
  }
}

}  // namespace pfc::perf
