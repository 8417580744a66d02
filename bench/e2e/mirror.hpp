// The traced mirror: a decorated copy of the three session runners of
// src/rms that times every call into each layer's public interface from
// outside. The application, the RMS strategy, the tick predictor and the
// admission gate are wrapped in timing decorators; everything else comes
// from public counters. `run.py --selftest` checks that the mirror's
// digest equals the library runner's, so the copy cannot drift silently.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "workloads.hpp"

namespace roia::e2e {

/// Host time and call count of one timed interface.
struct Span {
  std::uint64_t calls{0};
  std::int64_t ns{0};
};

/// The rtf::Application entry points the mirror times, named as in the
/// per-layer metrics (`game.<name>.*`).
enum class GameCall : std::size_t {
  kAoi,        // computeAreaOfInterest
  kSuBuild,    // buildStateUpdate
  kUa,         // applyUserInput
  kFa,         // applyForwardedInteraction
  kShadow,     // onShadowUpdated
  kNpc,        // updateNpc
  kTickBegin,  // onTickBegin
  kMig,        // exportUserState + importUserState
  kCount
};
constexpr std::size_t kGameCallCount = static_cast<std::size_t>(GameCall::kCount);
constexpr std::array<const char*, kGameCallCount> kGameCallNames{
    "aoi", "su_build", "ua", "fa", "shadow", "npc", "tick_begin", "mig"};

/// Everything one traced session measured.
struct LayerTrace {
  // game: application calls (all of them run inside server ticks).
  std::array<Span, kGameCallCount> game{};
  std::uint64_t aoiVisible{0};

  // rtf: one span per server tick, from onTickBegin to the probe listener.
  std::vector<std::int64_t> tickNs;
  std::uint64_t migrations{0};
  std::uint64_t handoffs{0};
  std::uint64_t admissionVetoes{0};

  // Wrapped callables. The predictor runs inside ticks; the admission gate
  // and the strategy run between them.
  Span predict;
  Span admission;
  Span decide;

  // sim: host time inside Cluster::run outside tick spans, and the event
  // queue.
  std::int64_t gapNs{0};
  std::uint64_t events{0};
  std::size_t queuePeak{0};

  // Checks of the split into self times; both must stay 0. A tick opened
  // while another was still open, or left open at the end of a run, is
  // unspanned; a timed call on the wrong side of a tick boundary (a game
  // call or the predictor between ticks, the strategy or the admission gate
  // inside one) is misplaced.
  std::uint64_t unspannedTicks{0};
  std::uint64_t misplacedCalls{0};

  // net
  std::uint64_t frames{0};
  std::uint64_t bytes{0};
  std::uint64_t ingressBytes{0};
  std::uint64_t egressBytes{0};
  std::uint64_t framesDropped{0};
  std::uint64_t framesDuplicated{0};

  // rms
  std::uint64_t migrationsOrdered{0};
  std::uint64_t replicasAdded{0};
  std::uint64_t drains{0};
};

/// Runs the plan through the decorated copy of its session runner.
[[nodiscard]] Summary runMirror(const SessionPlan& plan, LayerTrace& trace);

}  // namespace roia::e2e
