// Tests for the parallel sweep runner: result ordering, inline serial
// execution, exception propagation and the ROIA_BENCH_THREADS knob — plus
// the headline determinism contract:
// measurement sweeps and managed/chaos sessions produce bit-identical
// outputs at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/sweep.hpp"
#include "game/measurement.hpp"
#include "model/tick_model.hpp"
#include "rms/session.hpp"

namespace roia {
namespace {

// Each gtest case runs in its own process (ctest invokes the binary with a
// filter per test), so mutating ROIA_BENCH_THREADS here cannot leak into
// other tests.
struct ThreadsEnvGuard {
  void set(const char* value) { ::setenv("ROIA_BENCH_THREADS", value, 1); }
  ~ThreadsEnvGuard() { ::unsetenv("ROIA_BENCH_THREADS"); }
};

TEST(SweepRunnerTest, ResultsComeBackInIndexOrder) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const std::vector<std::size_t> results = par::runSweep<std::size_t>(
        17, [](std::size_t i) { return i * i; }, threads);
    ASSERT_EQ(results.size(), 17u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], i * i) << "threads=" << threads;
    }
  }
}

TEST(SweepRunnerTest, SingleThreadRunsInlineInAscendingOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  par::forEachIndex(
      8,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
      },
      1);
  std::vector<std::size_t> ascending(8);
  std::iota(ascending.begin(), ascending.end(), 0u);
  EXPECT_EQ(order, ascending);
}

TEST(SweepRunnerTest, MultiThreadRunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  par::forEachIndex(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(SweepRunnerTest, ConfigOverloadMapsEachElement) {
  const std::vector<int> configs{3, 1, 4, 1, 5};
  const std::vector<int> doubled =
      par::runSweep<int>(configs, [](int value) { return value * 2; }, 4);
  EXPECT_EQ(doubled, (std::vector<int>{6, 2, 8, 2, 10}));
}

TEST(SweepRunnerTest, ExceptionsPropagateToCaller) {
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_THROW(par::forEachIndex(
                     16,
                     [](std::size_t i) {
                       if (i == 7) throw std::runtime_error("job failed");
                     },
                     threads),
                 std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(SweepRunnerTest, EmptySweepIsANoOp) {
  const std::vector<int> results = par::runSweep<int>(
      0, [](std::size_t) { return 1; }, 4);
  EXPECT_TRUE(results.empty());
}

TEST(SweepRunnerTest, EnvKnobSelectsThreadCount) {
  ThreadsEnvGuard env;
  env.set("3");
  EXPECT_EQ(par::sweepThreads(), 3u);
  env.set("1");
  EXPECT_EQ(par::sweepThreads(), 1u);
  env.set("0");  // malformed / non-positive values fall back to serial
  EXPECT_EQ(par::sweepThreads(), 1u);
  env.set("banana");
  EXPECT_EQ(par::sweepThreads(), 1u);
}

// --- Determinism across thread counts ---

model::ModelParameters syntheticParameters() {
  model::ModelParameters params;
  params.set(model::ParamKind::kUaDser, model::ParamFunction::linear(1.0, 0.0015));
  params.set(model::ParamKind::kUa, model::ParamFunction::quadratic(1.2, 0.009, 1.2e-4));
  params.set(model::ParamKind::kAoi, model::ParamFunction::quadratic(0.1, 0.45, 0.8e-4));
  params.set(model::ParamKind::kSu, model::ParamFunction::linear(1.5, 0.2));
  params.set(model::ParamKind::kFaDser, model::ParamFunction::linear(0.55, 0.0007));
  params.set(model::ParamKind::kFa, model::ParamFunction::linear(0.9, 0.0023));
  params.set(model::ParamKind::kMigIni, model::ParamFunction::linear(150.0, 5.0));
  params.set(model::ParamKind::kMigRcv, model::ParamFunction::linear(80.0, 2.2));
  return params;
}

void expectSamplesIdentical(const game::ParameterSamples& a, const game::ParameterSamples& b) {
  for (std::size_t p = 0; p < rtf::kPhaseCount; ++p) {
    ASSERT_EQ(a.perItem[p].x, b.perItem[p].x) << "phase " << p;
    ASSERT_EQ(a.perItem[p].y, b.perItem[p].y) << "phase " << p;
  }
}

TEST(SweepDeterminismTest, MeasurementSweepsAreBitIdenticalAcrossThreadCounts) {
  ThreadsEnvGuard env;
  game::MeasurementConfig config;
  config.warmup = SimDuration::seconds(1);
  config.measure = SimDuration::seconds(1);
  const std::vector<std::size_t> populations{12, 24, 36};

  env.set("1");
  const game::ParameterSamples serialRep =
      game::measureReplicationParameters(config, populations);
  const game::ParameterSamples serialMig =
      game::measureMigrationParameters(config, populations, 2);
  env.set("4");
  const game::ParameterSamples parallelRep =
      game::measureReplicationParameters(config, populations);
  const game::ParameterSamples parallelMig =
      game::measureMigrationParameters(config, populations, 2);

  expectSamplesIdentical(serialRep, parallelRep);
  expectSamplesIdentical(serialMig, parallelMig);
}

std::vector<double> summaryFingerprint(const rms::SessionSummary& summary) {
  std::vector<double> fp;
  fp.push_back(static_cast<double>(summary.peakUsers));
  fp.push_back(static_cast<double>(summary.peakServers));
  fp.push_back(summary.maxTickMs);
  fp.push_back(static_cast<double>(summary.violationPeriods));
  fp.push_back(static_cast<double>(summary.migrations));
  fp.push_back(static_cast<double>(summary.replicasAdded));
  fp.push_back(static_cast<double>(summary.replicasRemoved));
  fp.push_back(summary.serverSeconds);
  fp.push_back(summary.clientUpdateRateAvgHz);
  fp.push_back(summary.clientWorstGapMs);
  fp.push_back(static_cast<double>(summary.crashesInjected));
  fp.push_back(static_cast<double>(summary.crashesDetected));
  fp.push_back(static_cast<double>(summary.clientsRehomed));
  fp.push_back(static_cast<double>(summary.clientsLost));
  for (const rms::TimelinePoint& p : summary.timeline) {
    fp.push_back(p.timeSec);
    fp.push_back(static_cast<double>(p.users));
    fp.push_back(static_cast<double>(p.servers));
    fp.push_back(static_cast<double>(p.pendingServers));
    fp.push_back(p.avgCpuLoad);
    fp.push_back(p.avgTickMs);
    fp.push_back(p.maxTickMs);
    fp.push_back(static_cast<double>(p.migrationsOrdered));
    fp.push_back(p.violation ? 1.0 : 0.0);
    fp.push_back(static_cast<double>(p.crashesDetected));
    fp.push_back(static_cast<double>(p.clientsRehomed));
  }
  return fp;
}

TEST(SweepDeterminismTest, ManagedAndChaosSessionsAreBitIdenticalAcrossThreadCounts) {
  // Two per-config jobs — a clean Fig. 8-style dynamic session and a chaos
  // session (loss + crash) — swept at 1 and 4 threads. Per-config outputs
  // must be bit-identical: the fan-out must not change any RNG draw or
  // event order inside a config.
  const model::TickModel tickModel(syntheticParameters());

  auto makeConfigs = [] {
    std::vector<rms::ManagedSessionConfig> configs(2);
    for (rms::ManagedSessionConfig& config : configs) {
      config.scenario = game::WorkloadScenario::paperSession(
          40, SimDuration::seconds(6), SimDuration::seconds(3), SimDuration::seconds(6));
      config.tail = SimDuration::seconds(2);
      config.rms.controlPeriod = SimDuration::seconds(1);
      config.rms.serverStartupDelay = SimDuration::seconds(2);
    }
    configs[1].rms.useNetworkMonitoring = true;
    configs[1].rms.detectFailures = true;
    // Two replicas from the start so the mid-plateau crash has a victim
    // (the synthetic model's capacity never triggers replication at n=40),
    // and no removal hysteresis so RMS cannot shrink back to one before the
    // crash fires.
    configs[1].initialReplicas = 2;
    configs[1].modelStrategy.removalFraction = 0.0;
    rms::SessionFaultPlan plan;
    plan.link.dropProbability = 0.03;
    plan.crashAt = SimDuration::seconds(8);
    configs[1].faults = plan;
    return configs;
  };

  auto runAll = [&](std::size_t threads) {
    return par::runSweep<rms::SessionSummary>(
        makeConfigs(),
        [&](const rms::ManagedSessionConfig& config) {
          return rms::runManagedSession(config, tickModel);
        },
        threads);
  };

  const std::vector<rms::SessionSummary> serial = runAll(1);
  const std::vector<rms::SessionSummary> parallel = runAll(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].policy, parallel[i].policy);
    EXPECT_EQ(summaryFingerprint(serial[i]), summaryFingerprint(parallel[i])) << "config " << i;
  }
  // The chaos config actually exercised the fault plan.
  EXPECT_GE(serial[1].crashesInjected, 1u);
}

}  // namespace
}  // namespace roia
