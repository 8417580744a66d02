// roia_e2e: one workload of the end-to-end host-time benchmark, in one
// process. Each rep runs the workload's calibration campaign (timed as
// set-up) and then its session through the library runner (timed as the
// session); --trace adds one session through the decorated mirror. Every
// rep and the trace print one JSON object per line; run.py aggregates them.
//
//   roia_e2e --workload NAME --seed N [--reps N] [--budget-s S] [--smoke] [--trace]
//
// --reps is the minimum rep count (default 1); with --budget-s, reps go on
// until S host seconds have passed since the first one started.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "mirror.hpp"
#include "workloads.hpp"

namespace {

using roia::e2e::LayerTrace;

struct Options {
  std::string workload;
  std::uint64_t seed{42};
  int reps{1};
  double budgetS{0.0};
  roia::e2e::Size size{roia::e2e::Size::kFull};
  bool trace{false};
};

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "roia_e2e: %s\nusage: roia_e2e --workload NAME --seed N [--reps N] "
               "[--budget-s S] [--smoke] [--trace]\n",
               problem);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--reps") {
      options.reps = std::atoi(value().c_str());
    } else if (arg == "--budget-s") {
      options.budgetS = std::atof(value().c_str());
    } else if (arg == "--smoke") {
      options.size = roia::e2e::Size::kSmoke;
    } else if (arg == "--trace") {
      options.trace = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  const auto& names = roia::e2e::workloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    usage("unknown or missing --workload");
  }
  if (options.reps < 0) usage("--reps must be >= 0");
  return options;
}

double wallS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Prints one flat JSON object per line.
class JsonLine {
 public:
  JsonLine& num(const char* key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return raw(key, buffer);
  }
  JsonLine& str(const char* key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  JsonLine& flag(const char* key, bool value) { return raw(key, value ? "true" : "false"); }
  void print() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  JsonLine& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

/// The process's resident-set high-water mark (VmHWM). getrusage's
/// ru_maxrss is no use here: Linux carries it across exec, so a child of a
/// large parent reports the parent's peak.
double peakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Derives the per-layer metrics of one traced session.
void printTrace(const LayerTrace& t, double sessionS, double cpuUsedS, const std::string& digest,
                bool conserved) {
  const auto s = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };
  std::vector<std::int64_t> ticks = t.tickNs;
  std::sort(ticks.begin(), ticks.end());
  const auto percentileUs = [&](double q) {
    if (ticks.empty()) return 0.0;
    const auto index = static_cast<std::size_t>(q * static_cast<double>(ticks.size() - 1));
    return static_cast<double>(ticks[index]) * 1e-3;
  };
  const std::int64_t tickNs = std::accumulate(ticks.begin(), ticks.end(), std::int64_t{0});
  std::int64_t gameNs = 0;
  for (const roia::e2e::Span& span : t.game) gameNs += span.ns;
  // Ticks and the gaps between them are timed apart; each self time is its
  // bucket minus the timed calls the mirror saw inside it.
  const std::int64_t tickSelfNs = tickNs - gameNs - t.predict.ns;
  const std::int64_t nonTickNs = t.gapNs - t.decide.ns - t.admission.ns;
  const auto nonTickEvents = static_cast<double>(t.events - std::min<std::uint64_t>(t.events, ticks.size()));

  JsonLine line;
  line.str("kind", "trace").num("session_s", sessionS).str("digest", digest).flag("conserved",
                                                                                  conserved);
  line.num("sim.events", static_cast<double>(t.events))
      .num("sim.ns_per_event", ratio(static_cast<double>(nonTickNs), nonTickEvents))
      .num("sim.non_tick_s", s(nonTickNs))
      .num("sim.queue_peak", static_cast<double>(t.queuePeak))
      .num("sim.cpu_util", ratio(cpuUsedS, sessionS));
  line.num("net.frames", static_cast<double>(t.frames))
      .num("net.bytes", static_cast<double>(t.bytes))
      .num("net.delivery_ratio",
           ratio(static_cast<double>(t.ingressBytes), static_cast<double>(t.egressBytes)))
      .num("net.frames_dropped", static_cast<double>(t.framesDropped))
      .num("net.frames_duplicated", static_cast<double>(t.framesDuplicated));
  line.num("rtf.ticks", static_cast<double>(ticks.size()))
      .num("rtf.tick_us_p50", percentileUs(0.50))
      .num("rtf.tick_us_p99", percentileUs(0.99))
      .num("rtf.tick_self_s", s(tickSelfNs))
      .num("rtf.tick_share", ratio(s(tickNs), sessionS))
      .num("rtf.migrations", static_cast<double>(t.migrations))
      .num("rtf.handoffs", static_cast<double>(t.handoffs))
      .num("rtf.admission_vetoes", static_cast<double>(t.admissionVetoes));
  for (std::size_t k = 0; k < roia::e2e::kGameCallCount; ++k) {
    const roia::e2e::Span& span = t.game[k];
    const std::string prefix = std::string("game.") + roia::e2e::kGameCallNames[k];
    line.num((prefix + ".calls").c_str(), static_cast<double>(span.calls))
        .num((prefix + ".s").c_str(), s(span.ns))
        .num((prefix + ".ns_per_call").c_str(),
             ratio(static_cast<double>(span.ns), static_cast<double>(span.calls)));
  }
  const auto aoiCalls = static_cast<double>(t.game[0].calls);
  line.num("game.aoi.visible_per_query", ratio(static_cast<double>(t.aoiVisible), aoiCalls));
  line.num("admission.calls", static_cast<double>(t.admission.calls))
      .num("admission.s", s(t.admission.ns));
  line.num("rms.decide.calls", static_cast<double>(t.decide.calls))
      .num("rms.decide.us_per_call",
           ratio(static_cast<double>(t.decide.ns) * 1e-3, static_cast<double>(t.decide.calls)))
      .num("rms.migrations_ordered", static_cast<double>(t.migrationsOrdered))
      .num("rms.replicas_added", static_cast<double>(t.replicasAdded))
      .num("rms.drains", static_cast<double>(t.drains));
  line.num("model.predict.calls", static_cast<double>(t.predict.calls))
      .num("model.predict.ns_per_call",
           ratio(static_cast<double>(t.predict.ns), static_cast<double>(t.predict.calls)));
  // The share of the session spent inside Cluster::run: the five self times
  // add up to it. What they miss is the runner's work outside Cluster::run
  // (cluster build, audit, teardown).
  line.num("trace.coverage",
           ratio(s(gameNs + t.predict.ns + tickSelfNs + t.decide.ns + t.admission.ns + nonTickNs),
                 sessionS));
  line.num("trace.unspanned_ticks", static_cast<double>(t.unspannedTicks))
      .num("trace.misplaced_calls", static_cast<double>(t.misplacedCalls));
  line.print();
}

int run(const Options& options) {
  using namespace roia::e2e;
  const double start = wallS();
  Calibration calibration;
  int rep = 0;
  for (; rep < options.reps || (options.budgetS > 0.0 && wallS() - start < options.budgetS); ++rep) {
    calibration = calibrate(options.workload, options.seed, options.size);
    const SessionPlan plan =
        planSession(options.workload, options.seed, options.size, calibration.parameters);
    const double sessionStart = wallS();
    const Summary summary = runLibrary(plan);
    const double sessionS = wallS() - sessionStart;
    JsonLine()
        .str("kind", "rep")
        .num("rep", rep)
        .num("setup_s", calibration.totalS())
        .num("measure_repl_s", calibration.measureReplS)
        .num("measure_mig_s", calibration.measureMigS)
        .num("fit_s", calibration.fitS)
        .num("session_s", sessionS)
        .num("sim_s", plan.simSeconds)
        .str("digest", hex(fnv1a(canonicalText(calibration.parameters, summary))))
        .flag("conserved", conserved(summary))
        .print();
  }

  if (options.trace) {
    if (rep == 0) calibration = calibrate(options.workload, options.seed, options.size);
    const SessionPlan plan =
        planSession(options.workload, options.seed, options.size, calibration.parameters);
    LayerTrace trace;
    const double cpuStart = cpuS();
    const double sessionStart = wallS();
    const Summary summary = runMirror(plan, trace);
    const double sessionS = wallS() - sessionStart;
    const double cpuUsedS = cpuS() - cpuStart;
    printTrace(trace, sessionS, cpuUsedS, hex(fnv1a(canonicalText(calibration.parameters, summary))),
               conserved(summary));
  }

  JsonLine().str("kind", "process").num("peak_rss_mb", peakRssMiB()).print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "roia_e2e: %s: %s\n", options.workload.c_str(), error.what());
    return 1;
  }
}
