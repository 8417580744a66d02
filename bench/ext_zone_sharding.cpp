// Extension: zone sharding beyond the single-zone n_max.
//
// The paper's replication axis saturates at n_max(l_max): past that point a
// single zone cannot take more users at tick threshold U, no matter how many
// replicas it gets. Zoning is the way out (Fig. 1's second distribution
// axis): partition the world into Z zones, each with its own server group,
// and pay the inter-zone coordination cost (border shadows + deterministic
// handoffs) instead of the per-replica shadow cost.
//
// This sweep measures the total sustained population at U for Z = 1..4
// zones (Z x 1 grids of equal-size zones, so per-zone density is constant):
// for each Z it tries population fractions of Z * n_max(l) and reports the
// largest one whose steady-state worst-replica p95 tick stays below U. The
// expected result is a supported-user total that rises monotonically with Z
// past the single-zone n_max.
//
// Determinism: every session is seeded from its config; sessions fan out
// over the sweep pool (ROIA_BENCH_THREADS) and all output is printed after
// collection, so stdout is byte-identical across thread counts.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/sweep.hpp"
#include "model/thresholds.hpp"
#include "rms/sharded_session.hpp"

int main() {
  roia::benchharness::TelemetryScope telemetryScope;
  using namespace roia;
  using benchharness::printHeader;

  printHeader("zone sharding — total supported users vs. zone count");
  std::printf("calibrating the scalability model first (paper section V-A)...\n");
  const game::CalibrationResult calibration = benchharness::runCalibration(true);
  const model::TickModel tickModel(calibration.parameters);

  constexpr double kUpperTickMs = 40.0;
  constexpr std::size_t kReplicasPerZone = 2;
  const std::size_t nMaxPerZone =
      model::nMax(tickModel, kReplicasPerZone, 0, kUpperTickMs * 1000.0);
  std::printf("single-zone capacity n_max(l=%zu) = %zu users at U = %.0f ms\n", kReplicasPerZone,
              nMaxPerZone, kUpperTickMs);

  struct SweepConfig {
    std::size_t zones;
    double fraction;
    std::size_t users;
  };
  struct SweepResult {
    SweepConfig config;
    rms::ShardedSessionSummary summary;
  };

  const std::vector<double> fractions{0.55, 0.75, 0.95};
  std::vector<SweepConfig> configs;
  for (std::size_t zones = 1; zones <= 4; ++zones) {
    for (const double fraction : fractions) {
      const auto users = static_cast<std::size_t>(
          fraction * static_cast<double>(zones) * static_cast<double>(nMaxPerZone));
      configs.push_back(SweepConfig{zones, fraction, users});
    }
  }

  const std::vector<SweepResult> results =
      par::runSweep<SweepResult>(configs, [&](const SweepConfig& config) {
        rms::ShardedSessionConfig session;
        session.gridCols = config.zones;
        session.gridRows = 1;
        session.zoneExtent = Vec2{1000.0, 1000.0};
        session.replicasPerZone = kReplicasPerZone;
        session.borderWidth = session.fps.aoiRadius;  // full cross-border AOI
        session.users = config.users;
        session.warmup = SimDuration::seconds(3);
        session.duration = SimDuration::seconds(10);
        session.seed = 9000 + config.zones * 17 + config.users;
        // Telemetry reports the run with the most handoffs.
        if (config.zones == 4 && config.fraction == fractions.back()) {
          session.telemetry = telemetryScope.context();
        }
        return SweepResult{config, rms::runShardedSession(session)};
      });

  printHeader("steady-state tick per configuration");
  std::printf("# zones   users   p95_ms   avg_ms   handoffs   border_shadows   conserved\n");
  for (const SweepResult& r : results) {
    std::printf("  %5zu   %5zu   %6.2f   %6.2f   %8llu   %14llu   %9s\n", r.config.zones,
                r.summary.users, r.summary.steadyP95TickMs, r.summary.steadyAvgTickMs,
                static_cast<unsigned long long>(r.summary.handoffsReceived),
                static_cast<unsigned long long>(r.summary.borderShadows),
                r.summary.conserved() ? "yes" : "NO");
  }

  printHeader("total supported users vs. zone count");
  std::printf("# zones   sustained_users   vs_single_zone_n_max\n");
  std::size_t previous = 0;
  bool monotone = true;
  bool beyondSingleZone = false;
  for (std::size_t zones = 1; zones <= 4; ++zones) {
    std::size_t sustained = 0;
    for (const SweepResult& r : results) {
      if (r.config.zones != zones) continue;
      if (r.summary.steadyP95TickMs < kUpperTickMs && r.summary.conserved()) {
        sustained = std::max(sustained, r.summary.users);
      }
    }
    std::printf("  %5zu   %15zu   %s\n", zones, sustained,
                sustained > nMaxPerZone ? "beyond" : "within");
    if (sustained < previous) monotone = false;
    if (sustained > nMaxPerZone) beyondSingleZone = true;
    previous = sustained;
  }
  std::printf("\nsustained users monotone in zone count: %s\n", monotone ? "yes" : "NO");
  std::printf("scaling beyond the single-zone n_max:    %s\n", beyondSingleZone ? "yes" : "NO");

  // Per-zone prediction with the coordination term, for comparison: the
  // model extension (zoneTickMicros) prices each neighbor's border band.
  printHeader("model: per-zone tick with inter-zone coordination term");
  model::TickModel zoned = tickModel;
  model::CoordinationParams coordination;
  coordination.perNeighborMicros = 120.0;
  coordination.perBorderEntityMicros = 2.0;
  zoned.setCoordination(coordination);
  std::printf("# neighbors   borderShare   n_max_zoned(l=%zu)\n", kReplicasPerZone);
  for (const std::size_t neighbors : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    for (const double borderShare : {0.0, 0.2, 0.4}) {
      const std::size_t n = model::nMaxZoned(zoned, kReplicasPerZone, 0, kUpperTickMs * 1000.0,
                                             neighbors, borderShare);
      std::printf("  %9zu   %11.2f   %12zu\n", neighbors, borderShare, n);
    }
  }
  return 0;
}
