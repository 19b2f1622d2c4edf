// Model-vs-measured drift tracking (paper Fig. 2 / Table 2 validation, run
// on every simulation instead of only in the bench harness): compares the
// ECM-predicted per-kernel time and the network-model-predicted exchange
// time against the measured timers of a RunReport and fills its
// `model_accuracy` section.
//
// Drivers cache the per-kernel ECM predictions once at construction (block
// geometry and thread count are fixed there), so report() only does a few
// divisions per kernel.
#pragma once

#include <map>
#include <string>

#include "pfc/ir/kernel.hpp"
#include "pfc/obs/report.hpp"
#include "pfc/perf/ecm.hpp"
#include "pfc/perf/netmodel.hpp"

namespace pfc::perf {

/// ECM-predicted MLUP/s of one kernel at `block` on `cores` threads.
/// `vector_width` is the SIMD width of the generated code (0 = machine
/// width, see ecm_predict). Returns 0.0 (meaning "no prediction") instead
/// of throwing if the model cannot handle the kernel, so drift tracking
/// never kills a run.
double predicted_kernel_mlups(const ir::Kernel& k,
                              const std::array<long long, 3>& block,
                              const MachineModel& m, int cores,
                              int vector_width = 0);

/// ECM-predicted MLUP/s of `chain`, kernels that each sweep the block once
/// per update (a face-once kernel's passes, or a model's kernels): their
/// times add, so the rate is the harmonic combination of theirs. 0.0 when
/// any kernel has no prediction.
double predicted_chain_mlups(const std::vector<const ir::Kernel*>& chain,
                             const std::array<long long, 3>& block,
                             const MachineModel& m, int cores,
                             int vector_width = 0);

/// Fills rep.model_accuracy from cached per-kernel predictions and the
/// measured kernel timers:
///   predicted_seconds = launches * cells_per_launch / (MLUP/s * 1e6)
///   ratio             = measured / predicted  (safe_rate-guarded)
/// Kernels without a prediction get predicted == ratio == 0. When the run
/// exchanged ghost bytes, an "exchange" entry compares the measured
/// exchange time with the network model's latency + bandwidth terms.
void fill_model_accuracy(obs::RunReport& rep,
                         const std::map<std::string, double>& predicted_mlups,
                         long long cells_per_launch, int dims,
                         const NetworkModel& net = {});

}  // namespace pfc::perf
