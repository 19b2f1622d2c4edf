// CPU topology probe for NUMA-aware thread placement (DESIGN.md §11).
//
// Reads the Linux sysfs tree (packages, cores, SMT siblings, NUMA nodes)
// and intersects it with the process CPU affinity mask, so pinning decisions
// respect cpusets/taskset the same way hardware_threads() does. A fake
// sysfs root can be injected (PFC_SYSFS_ROOT or the explicit overload) for
// deterministic unit tests on any machine.
#pragma once

#include <string>
#include <vector>

#include "pfc/support/enum_names.hpp"

namespace pfc::support {

/// How ThreadPool workers are bound to CPUs.
enum class PinPolicy {
  /// No binding; the OS scheduler places threads (the seed behaviour).
  None,
  /// Fill one package before the next: physical cores first (package
  /// major, core minor), SMT siblings only once every physical core of
  /// every package carries a worker. Best for cache sharing.
  Compact,
  /// Round-robin across NUMA nodes, physical cores first. Best for
  /// memory-bandwidth-bound sweeps: every node's controllers are engaged
  /// even at low thread counts.
  Scatter,
};

constexpr EnumNames<PinPolicy, 3> enum_names(PinPolicy) {
  return {"pin policy", {{PinPolicy::None, "none"},
                         {PinPolicy::Compact, "compact"},
                         {PinPolicy::Scatter, "scatter"}}};
}
/// parse_enum<PinPolicy> under the name perfbench's eutectic workload
/// calls.
inline PinPolicy parse_pin_policy(const std::string& name) {
  return parse_enum<PinPolicy>(name);
}

/// How kernel launches split the outer loop across the pool.
enum class Dispatch {
  /// parallel_for chunks re-enqueued per launch (the seed behaviour).
  Dynamic,
  /// Static slab ownership: worker w runs the same rows for every launch
  /// of every step — the rows first-touch placed on w's NUMA node.
  Static,
};
constexpr EnumNames<Dispatch, 2> enum_names(Dispatch) {
  return {"dispatch", {{Dispatch::Dynamic, "dynamic"},
                       {Dispatch::Static, "static"}}};
}

/// Temporal-blocking (wavefront) schedule of the fused φ/µ substep.
enum class BlockingMode {
  Off,   ///< reference order: φ sweep, exchange, µ sweep, exchange
  Auto,  ///< fuse with perf::blocking_plan-sized tiles when profitable
  Fixed, ///< fuse with a caller-chosen tile height (blocking_tile_rows)
};
constexpr EnumNames<BlockingMode, 3> enum_names(BlockingMode) {
  return {"blocking mode", {{BlockingMode::Off, "off"},
                            {BlockingMode::Auto, "auto"},
                            {BlockingMode::Fixed, "fixed"}}};
}

/// One logical CPU the process may run on.
struct CpuSlot {
  int cpu = 0;      ///< logical cpu id (sysfs cpuN)
  int core = 0;     ///< topology/core_id (unique within a package)
  int package = 0;  ///< topology/physical_package_id
  int node = 0;     ///< NUMA node owning this cpu
  bool smt = false; ///< true if an earlier cpu shares this (package, core)
};

/// The machine as visible to this process: only CPUs inside the affinity
/// mask appear (unless detection is told not to restrict).
struct Topology {
  std::vector<CpuSlot> cpus;  ///< sorted by logical cpu id
  int packages = 1;
  int nodes = 1;
  int cores = 1;  ///< distinct physical cores across packages
  /// Unified (or data) L2 bytes of the first CPU: the per-core cache a
  /// worker's per-thread buffers should fit (cpuN/cache/index*/level == 2).
  /// 1 MiB when the tree has no cache entry.
  long long l2_bytes = 1 << 20;

  /// Probes /sys (or $PFC_SYSFS_ROOT when set) restricted to the process
  /// affinity mask. Never throws: unreadable trees degrade to a flat
  /// single-package, single-node topology over the allowed CPUs.
  static Topology detect();
  /// Probes `sysfs_root` (a directory containing devices/system/...).
  /// `respect_affinity` intersects with sched_getaffinity.
  static Topology detect(const std::string& sysfs_root, bool respect_affinity);

  /// CPU ids in worker-binding order for `policy` (empty for None).
  /// Worker i binds to order[i % order.size()].
  std::vector<int> pin_order(PinPolicy policy) const;
};

/// Number of CPUs the process may run on (sched_getaffinity), at least 1.
/// Falls back to std::thread::hardware_concurrency off Linux.
int allowed_cpu_count();

}  // namespace pfc::support
