// A small work-sharing thread pool.
//
// Used (a) by the backend to run generated kernels in parallel over slabs of
// the iteration space (the role OpenMP plays in the paper's generated C code)
// and (b) by the in-process message-passing layer's rank driver.
//
// Workers are persistent and have stable indices (0 = the caller), so a
// pinned pool gives each worker a fixed CPU for the lifetime of the pool —
// the basis for NUMA first-touch placement and static slab ownership
// (DESIGN.md §11).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "pfc/support/topology.hpp"

namespace pfc {

/// A static partition of an outer-axis iteration range into per-worker
/// slabs, matching ThreadPool::parallel_for's chunk math exactly (ceil
/// division rounded up to `align`). Sharing one plan between first-touch
/// initialization and every kernel launch keeps each worker's slab on the
/// pages that worker faulted in.
struct SlabPlan {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  int workers = 1;
  std::int64_t chunk = 0;

  static SlabPlan make(std::int64_t begin, std::int64_t end, int workers,
                       std::int64_t align = 1);

  /// Worker w's slab clipped to [lo_limit, hi_limit). Worker 0 extends
  /// down to lo_limit and the last worker up to hi_limit, so a caller may
  /// pass a box larger than [begin, end) (ghost-extended kernel ranges)
  /// and still get a complete disjoint cover. Returns an empty range
  /// (lo >= hi) when the worker has no rows.
  std::pair<std::int64_t, std::int64_t> slab(int w, std::int64_t lo_limit,
                                             std::int64_t hi_limit) const;
};

struct ThreadPoolOptions {
  int num_threads = 1;
  /// Binding of workers to CPUs (support::Topology::pin_order). None
  /// leaves placement to the OS scheduler.
  support::PinPolicy pin = support::PinPolicy::None;
};

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1), unpinned.
  explicit ThreadPool(int num_threads);
  /// Creates a pool, binding each worker (including the calling thread,
  /// worker 0) to the CPUs selected by opts.pin. The caller's original
  /// affinity is restored by the destructor.
  explicit ThreadPool(const ThreadPoolOptions& opts);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// The pinning policy this pool was built with.
  support::PinPolicy pin_policy() const { return pin_; }
  /// CPU worker `index` is bound to, or -1 when unpinned.
  int worker_cpu(int index) const;

  /// Runs fn(chunk_begin, chunk_end) across the pool covering [begin, end).
  /// Blocks until all chunks are done. The calling thread participates.
  /// `chunk_align` rounds the chunk size up to a multiple (interior chunk
  /// boundaries land on multiples of begin + k*align; the last chunk takes
  /// the remainder) — the backend uses it to keep SIMD slab splits aligned.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>& fn,
                    std::int64_t chunk_align = 1);

  /// Runs fn(thread_index) once on every pool member (including the caller,
  /// which gets index 0). Blocks until done. When fn throws on any member,
  /// the first exception thrown is rethrown on the caller once every member
  /// has returned; the pool stays usable.
  void run_on_all(const std::function<void(int)>& fn);

  /// Number of usable hardware threads, at least 1. Respects the process
  /// CPU affinity mask (cpuset/taskset), so containerized runs and
  /// `ctest -j` don't oversubscribe.
  static int hardware_threads();

 private:
  void worker_main(int index);
  void apply_pinning();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::function<void(int)> current_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  /// The first exception a member of the current run_on_all threw.
  std::exception_ptr error_;
  bool stop_ = false;

  support::PinPolicy pin_ = support::PinPolicy::None;
  std::vector<int> worker_cpu_;   ///< per worker index; empty when unpinned
  bool restore_affinity_ = false;
  std::vector<unsigned char> saved_affinity_;  ///< caller's mask (opaque)
};

}  // namespace pfc
