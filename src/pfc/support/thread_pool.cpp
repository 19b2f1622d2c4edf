#include "pfc/support/thread_pool.hpp"

#include <algorithm>
#include <cstring>
#include <exception>

#include "pfc/support/assert.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace pfc {

namespace {

#ifdef __linux__
void bind_current_thread(int cpu) {
  if (cpu < 0 || cpu >= CPU_SETSIZE) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // Best effort: a shrunken cpuset or racing affinity change is not fatal.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}
#else
void bind_current_thread(int) {}
#endif

}  // namespace

SlabPlan SlabPlan::make(std::int64_t begin, std::int64_t end, int workers,
                        std::int64_t align) {
  SlabPlan plan;
  plan.begin = begin;
  plan.end = end;
  plan.workers = std::max(1, workers);
  const std::int64_t n = std::max<std::int64_t>(0, end - begin);
  const std::int64_t a = std::max<std::int64_t>(1, align);
  std::int64_t chunk = (n + plan.workers - 1) / plan.workers;
  chunk = (chunk + a - 1) / a * a;
  plan.chunk = std::max<std::int64_t>(chunk, a);
  return plan;
}

std::pair<std::int64_t, std::int64_t> SlabPlan::slab(
    int w, std::int64_t lo_limit, std::int64_t hi_limit) const {
  std::int64_t lo = begin + chunk * w;
  std::int64_t hi = begin + chunk * (w + 1);
  if (w == 0) lo = lo_limit;
  if (w == workers - 1) hi = hi_limit;
  lo = std::max(lo, lo_limit);
  hi = std::min(hi, hi_limit);
  return {lo, hi};
}

ThreadPool::ThreadPool(int num_threads)
    : ThreadPool(ThreadPoolOptions{num_threads, support::PinPolicy::None}) {}

ThreadPool::ThreadPool(const ThreadPoolOptions& opts) : pin_(opts.pin) {
  const int num_threads = opts.num_threads;
  PFC_REQUIRE(num_threads >= 1, "thread pool needs at least one thread");
  if (pin_ != support::PinPolicy::None) {
    const auto order = support::Topology::detect().pin_order(pin_);
    if (!order.empty()) {
      worker_cpu_.resize(static_cast<std::size_t>(num_threads));
      for (int i = 0; i < num_threads; ++i) {
        worker_cpu_[static_cast<std::size_t>(i)] =
            order[static_cast<std::size_t>(i) % order.size()];
      }
    } else {
      pin_ = support::PinPolicy::None;
    }
  }
  apply_pinning();  // bind the caller (worker 0) before spawning
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

void ThreadPool::apply_pinning() {
  if (worker_cpu_.empty()) return;
#ifdef __linux__
  cpu_set_t saved;
  CPU_ZERO(&saved);
  if (pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved) == 0) {
    saved_affinity_.resize(sizeof(saved));
    std::memcpy(saved_affinity_.data(), &saved, sizeof(saved));
    restore_affinity_ = true;
  }
#endif
  bind_current_thread(worker_cpu_[0]);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
#ifdef __linux__
  if (restore_affinity_) {
    cpu_set_t saved;
    std::memcpy(&saved, saved_affinity_.data(), sizeof(saved));
    (void)pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
  }
#endif
}

int ThreadPool::worker_cpu(int index) const {
  if (index < 0 || static_cast<std::size_t>(index) >= worker_cpu_.size()) {
    return -1;
  }
  return worker_cpu_[static_cast<std::size_t>(index)];
}

void ThreadPool::worker_main(int index) {
  if (!worker_cpu_.empty()) {
    bind_current_thread(worker_cpu_[static_cast<std::size_t>(index)]);
  }
  std::uint64_t seen = 0;
  for (;;) {
    std::function<void(int)> fn;
    {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = current_;
    }
    std::exception_ptr error;
    try {
      fn(index);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (error && !error_) error_ = error;
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::run_on_all(const std::function<void(int)>& fn) {
  if (workers_.empty()) {
    fn(0);
    return;
  }
  {
    std::lock_guard lock(mutex_);
    current_ = fn;
    pending_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  cv_start_.notify_all();
  std::exception_ptr error;
  try {
    fn(0);
  } catch (...) {
    error = std::current_exception();
  }
  std::unique_lock lock(mutex_);
  if (error && !error_) error_ = error;
  // The workers read fn's captures: leave only once every one is done.
  cv_done_.wait(lock, [&] { return pending_ == 0; });
  error = std::exchange(error_, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn,
    std::int64_t chunk_align) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const int nt = num_threads();
  if (nt == 1 || n == 1) {
    fn(begin, end);
    return;
  }
  const std::int64_t align = std::max<std::int64_t>(1, chunk_align);
  std::int64_t chunk = (n + nt - 1) / nt;
  chunk = (chunk + align - 1) / align * align;
  run_on_all([&](int t) {
    const std::int64_t lo = begin + chunk * t;
    const std::int64_t hi = std::min(end, lo + chunk);
    if (lo < hi) fn(lo, hi);
  });
}

int ThreadPool::hardware_threads() {
  // The affinity mask (cpuset/taskset) is the real budget in containers
  // and under `ctest -j`; raw hardware_concurrency over-counts there.
  return support::allowed_cpu_count();
}

}  // namespace pfc
