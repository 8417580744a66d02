#include "common/sweep.hpp"

#include <cstdlib>

namespace roia::par {

std::size_t sweepThreads() {
  // Read once on the calling thread before any fan-out; no concurrent
  // setenv exists in this process.
  if (const char* env = std::getenv("ROIA_BENCH_THREADS")) {  // NOLINT(concurrency-mt-unsafe)
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<std::size_t>(parsed);
    return 1;  // malformed or <= 0: safest is the legacy serial path
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace roia::par
