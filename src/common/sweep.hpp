// Parallel sweep execution for the figure/extension harnesses.
//
// Every bench re-runs full multi-server sessions across grids of user count
// n, NPC count m and replica count l. The configurations are independent by
// construction — each one owns its Simulation, Network, RNG streams and
// probe sinks — so they can fan out over a thread pool. The contract:
//
//  * Results are collected and emitted in deterministic config order
//    (index order), regardless of which thread finished first.
//  * Each job must be self-contained: no shared mutable state (a telemetry
//    context belongs to the one job whose session it observes). Jobs
//    therefore produce bit-identical results at any thread count.
//  * ROIA_BENCH_THREADS selects the worker count (default: hardware
//    concurrency). 1 is exact legacy behaviour: jobs run inline on the
//    calling thread, in ascending index order, with no threads spawned.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace roia::par {

/// Worker count for sweep fan-out: ROIA_BENCH_THREADS when set (clamped to
/// >= 1), otherwise std::thread::hardware_concurrency().
[[nodiscard]] std::size_t sweepThreads();

/// Runs fn(0) .. fn(count-1), each call independent, on up to `threads`
/// workers (0 = sweepThreads()). With one thread the calls happen inline in
/// ascending index order — exact legacy behaviour. With more, indices are
/// handed out in descending order: population sweeps are typically sorted
/// ascending and per-config cost grows super-linearly with n, so starting
/// the heaviest configs first shortens the makespan. Execution order never
/// affects results — jobs are independent. The first exception thrown by
/// any job is rethrown on the calling thread after all workers finish.
template <class Fn>
void forEachIndex(std::size_t count, Fn&& fn, std::size_t threads = 0) {
  if (threads == 0) threads = sweepThreads();
  if (count == 0) return;
  if (threads <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  const std::size_t workers = threads < count ? threads : count;
  std::atomic<std::size_t> remaining{count};
  std::atomic<bool> failed{false};
  std::exception_ptr firstError;
  std::mutex errorMutex;

  auto work = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t ticket = remaining.fetch_sub(1, std::memory_order_relaxed);
      if (ticket == 0 || ticket > count) break;  // exhausted (guards wrap-around)
      try {
        fn(ticket - 1);
      } catch (...) {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError) firstError = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  if (firstError) std::rethrow_exception(firstError);
}

/// Maps fn over 0..count-1 and returns the results in index order. Result
/// must be default-constructible and movable.
template <class Result, class Fn>
std::vector<Result> runSweep(std::size_t count, Fn&& fn, std::size_t threads = 0) {
  std::vector<Result> results(count);
  forEachIndex(
      count, [&](std::size_t i) { results[i] = fn(i); }, threads);
  return results;
}

/// Convenience: one job per element of `configs`, fn(config) -> Result.
template <class Result, class Config, class Fn>
std::vector<Result> runSweep(const std::vector<Config>& configs, Fn&& fn,
                             std::size_t threads = 0) {
  return runSweep<Result>(
      configs.size(), [&](std::size_t i) { return fn(configs[i]); }, threads);
}

}  // namespace roia::par
