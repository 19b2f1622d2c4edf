#include "pfc/support/topology.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "pfc/support/assert.hpp"

#ifdef __linux__
#include <sched.h>
#endif

namespace pfc::support {

namespace {

/// Parses a sysfs cpu list like "0-3,8,10-11" into cpu ids. Malformed
/// pieces are skipped (probe code must never throw).
std::vector<int> parse_cpu_list(const std::string& text) {
  std::vector<int> cpus;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto dash = item.find('-');
    try {
      if (dash == std::string::npos) {
        cpus.push_back(std::stoi(item));
      } else {
        const int lo = std::stoi(item.substr(0, dash));
        const int hi = std::stoi(item.substr(dash + 1));
        for (int c = lo; c <= hi && c - lo < 1 << 20; ++c) cpus.push_back(c);
      }
    } catch (const std::exception&) {
      // skip malformed entry
    }
  }
  return cpus;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  return true;
}

/// Reads a small integer file (e.g. topology/core_id); def on failure.
int read_int(const std::string& path, int def) {
  std::string text;
  if (!read_file(path, &text)) return def;
  try {
    return std::stoi(text);
  } catch (const std::exception&) {
    return def;
  }
}

std::vector<int> affinity_cpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
#endif
  return cpus;
}

}  // namespace

int allowed_cpu_count() {
  const auto cpus = affinity_cpus();
  if (!cpus.empty()) return static_cast<int>(cpus.size());
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

Topology Topology::detect() {
  const char* root = std::getenv("PFC_SYSFS_ROOT");
  return detect(root != nullptr && *root != '\0' ? root : "/sys", true);
}

Topology Topology::detect(const std::string& sysfs_root,
                          bool respect_affinity) {
  Topology topo;
  const std::string cpu_dir = sysfs_root + "/devices/system/cpu";

  std::vector<int> online;
  std::string text;
  if (read_file(cpu_dir + "/online", &text)) online = parse_cpu_list(text);

  std::vector<int> allowed = respect_affinity ? affinity_cpus()
                                              : std::vector<int>{};
  if (online.empty()) {
    // No sysfs tree: fall back to the affinity mask (or one flat cpu set).
    online = allowed;
    if (online.empty()) {
      const int n = allowed_cpu_count();
      for (int c = 0; c < n; ++c) online.push_back(c);
    }
  }
  if (!allowed.empty()) {
    const std::set<int> mask(allowed.begin(), allowed.end());
    online.erase(std::remove_if(online.begin(), online.end(),
                                [&](int c) { return mask.count(c) == 0; }),
                 online.end());
    if (online.empty()) online = allowed;  // mask disjoint from sysfs: trust it
  }
  std::sort(online.begin(), online.end());
  online.erase(std::unique(online.begin(), online.end()), online.end());

  // NUMA node of each cpu from devices/system/node/node*/cpulist.
  std::map<int, int> cpu_node;
  for (int node = 0; node < 1024; ++node) {
    const std::string list_path = sysfs_root + "/devices/system/node/node" +
                                  std::to_string(node) + "/cpulist";
    if (!read_file(list_path, &text)) {
      if (node > 0) break;  // node0 may be absent on fake trees; keep probing
      continue;
    }
    for (int c : parse_cpu_list(text)) cpu_node[c] = node;
  }

  std::set<std::pair<int, int>> seen_cores;  // (package, core)
  std::set<int> packages, nodes;
  for (int c : online) {
    const std::string base = cpu_dir + "/cpu" + std::to_string(c);
    CpuSlot slot;
    slot.cpu = c;
    slot.package = read_int(base + "/topology/physical_package_id", 0);
    slot.core = read_int(base + "/topology/core_id", c);
    const auto it = cpu_node.find(c);
    slot.node = it != cpu_node.end() ? it->second : 0;
    slot.smt = !seen_cores.insert({slot.package, slot.core}).second;
    packages.insert(slot.package);
    nodes.insert(slot.node);
    topo.cpus.push_back(slot);
  }
  if (topo.cpus.empty()) {
    topo.cpus.push_back(CpuSlot{});  // degenerate but never empty
    packages.insert(0);
    nodes.insert(0);
    seen_cores.insert({0, 0});
  }
  topo.packages = static_cast<int>(packages.size());
  topo.nodes = static_cast<int>(nodes.size());
  topo.cores = static_cast<int>(seen_cores.size());
  for (int i = 0; i < 16; ++i) {
    const std::string idx = cpu_dir + "/cpu" +
                            std::to_string(topo.cpus.front().cpu) +
                            "/cache/index" + std::to_string(i);
    std::string type, size;
    if (read_int(idx + "/level", 0) != 2 || !read_file(idx + "/type", &type) ||
        type.rfind("Instruction", 0) == 0 || !read_file(idx + "/size", &size)) {
      continue;
    }
    const long long v = std::atoll(size.c_str());  // "2048K"
    const int shift = size.find('M') != std::string::npos   ? 20
                      : size.find('K') != std::string::npos ? 10
                                                            : 0;
    if (v > 0) topo.l2_bytes = v << shift;
    break;
  }
  return topo;
}

std::vector<int> Topology::pin_order(PinPolicy policy) const {
  std::vector<int> order;
  if (policy == PinPolicy::None || cpus.empty()) return order;
  order.reserve(cpus.size());

  auto emit = [&](bool smt_pass) {
    if (policy == PinPolicy::Compact) {
      // Package-major, core-minor: saturate one socket before the next.
      std::vector<CpuSlot> sorted(cpus);
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const CpuSlot& a, const CpuSlot& b) {
                         if (a.package != b.package) return a.package < b.package;
                         if (a.node != b.node) return a.node < b.node;
                         if (a.core != b.core) return a.core < b.core;
                         return a.cpu < b.cpu;
                       });
      for (const auto& s : sorted) {
        if (s.smt == smt_pass) order.push_back(s.cpu);
      }
    } else {
      // Scatter: round-robin across NUMA nodes so every memory controller
      // is engaged even at low thread counts.
      std::map<int, std::vector<int>> by_node;
      for (const auto& s : cpus) {
        if (s.smt == smt_pass) by_node[s.node].push_back(s.cpu);
      }
      bool more = true;
      for (std::size_t i = 0; more; ++i) {
        more = false;
        for (auto& [node, list] : by_node) {
          (void)node;
          if (i < list.size()) {
            order.push_back(list[i]);
            more = true;
          }
        }
      }
    }
  };
  emit(false);  // physical cores first
  emit(true);   // then SMT siblings
  return order;
}

}  // namespace pfc::support
