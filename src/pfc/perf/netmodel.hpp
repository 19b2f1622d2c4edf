// Analytic network / communication model (DESIGN.md §2): reproduces the
// paper's Table 2 (communication-hiding and GPUDirect options) and the
// Fig. 3 scaling studies on top of measured or modelled per-node compute
// times. Ghost-layer message volumes come from block geometry.
#pragma once

#include <array>

#include "pfc/ir/kernel.hpp"

namespace pfc::perf {

struct NetworkModel {
  double latency_s = 1.5e-6;        ///< per message (Aries/OmniPath-class)
  double bandwidth_gbytes = 10.0;   ///< per NIC, large-message
  /// staging the buffers through host memory when CUDA-aware MPI is absent:
  /// extra PCIe copy per byte
  double host_staging_gbytes = 12.5;  ///< PCIe gen3 x16 effective
  /// fraction of communication that overlapping can hide behind compute
  /// (phi exchange hides fully behind mu; mu exchange needs the inner/outer
  /// split, leaving the outer-shell recompute exposed)
  double overlap_residual = 0.08;
};

struct CommConfig {
  bool overlap = false;
  bool gpudirect = false;
};

/// Ghost-exchange bytes per time step for one block (both fields, all six
/// faces, `ghost` layers, doubles).
double ghost_bytes_per_step(const std::array<long long, 3>& block,
                            int phi_components, int mu_components,
                            int ghost = 1);

/// Number of point-to-point messages per step (axis-sequential exchange of
/// two fields over `dims` axes, both directions).
int messages_per_step(int dims);

/// One time step's duration given per-step compute seconds and the comm
/// configuration (paper Table 2 structure).
double step_time(double compute_s, double comm_bytes, int messages,
                 const CommConfig& cfg, const NetworkModel& net);

/// Step time of the interior/frontier-split overlapped step the runtime
/// actually executes: the wire time runs concurrently with interior
/// compute, and the frontier slabs are computed outside the overlap window —
///   max(T_interior, T_comm) + T_frontier.
/// Unlike step_time's `overlap` flag (a modelled residual), this form takes
/// the measured or modelled interior/frontier split explicitly, so
/// model-drift tracking can compare it against the runtime's phase timers.
double overlapped_step_time(double interior_s, double frontier_s,
                            double comm_bytes, int messages,
                            const NetworkModel& net);

/// Weak/strong scaling efficiency: per-rank MLUP/s when `ranks` ranks each
/// compute their block in `compute_s` and exchange `comm_bytes`.
/// Includes a mild log-scale latency growth for collective-style sync.
double scaled_mlups_per_rank(double block_cells, double compute_s,
                             double comm_bytes, int messages, int ranks,
                             const CommConfig& cfg, const NetworkModel& net);

}  // namespace pfc::perf
