// The FPS demo application (our RTFDemo analogue), implementing
// rtf::Application. Its mechanics are chosen to reproduce the computational
// characteristics the paper reports for RTFDemo in section V-A:
//
//  * applying an attack iterates through ALL users to check who is hit, and
//    attack frequency grows with the user count -> t_ua grows faster than
//    linear (fitted quadratically in the paper),
//  * the area of interest uses the Euclidean Distance Algorithm: for user U
//    every other user is tested, and each subscription is charged a scan of
//    U's update list for duplicates -> t_aoi quadratic,
//  * state updates aggregate equivalent records per visible entity ->
//    t_su linear,
//  * inputs are deserialized once each; attack share grows with n ->
//    t_ua_dser linear,
//  * forwarded inputs are rare and cheap -> t_fa, t_fa_dser small.
//
// The quadratic shapes above describe the *default* Euclidean profile. With
// `FpsConfig::interestPolicy = kGrid` the application routes attack
// validation, NPC target scans and shadow re-indexing through the flat-grid
// index (InterestPolicy::scanCandidates), which localizes those costs to
// the interest circle and flips the fitted exponents to ~linear — the
// experiment ext_interest_management quantifies.
//
// All cost constants live in FpsConfig; units are simulated microseconds on
// a reference server (see sim::CpuCostModel).
#pragma once

#include <cstdint>
#include <memory>

#include "common/math.hpp"
#include "game/commands.hpp"
#include "game/interest.hpp"
#include "game/state_update.hpp"
#include "rtf/application.hpp"

namespace roia::game {

/// Which IM algorithm a scenario runs with (see game/interest.hpp).
enum class InterestPolicyKind : std::uint8_t {
  kEuclidean = 0,  ///< the paper's baseline: all-pairs distance tests
  kGrid = 1,       ///< persistent flat grid, costs localized to the AOI circle
};

struct FpsConfig {
  // --- gameplay ---
  Vec2 arenaOrigin{0, 0};
  Vec2 arenaExtent{1000, 1000};
  double aoiRadius{220.0};
  double attackRange{260.0};
  double moveSpeed{80.0};       // units per second
  double attackDamage{8.0};
  double respawnHealth{100.0};
  double tickSeconds{0.04};     // integration step of one loop iteration

  // --- interest management ---
  InterestPolicyKind interestPolicy{InterestPolicyKind::kEuclidean};
  /// Grid cell edge length; 0 picks aoiRadius / 2.
  double gridCellSize{0.0};

  // --- application-logic cost constants (reference microseconds) ---
  double moveApplyCost{1.2};
  double attackValidateBaseCost{1.2};
  /// Per candidate avatar scanned while resolving one attack (the quadratic
  /// driver under Euclidean; localized to the circle under the grid).
  double attackScanPerEntityCost{0.10};
  double applyHitCost{1.5};
  double fwdApplyCost{1.8};
  double npcBaseCost{2.0};
  double npcScanPerEntityCost{0.02};
  /// The interest-management costs, in InterestCosts field order: pair
  /// test, subscribe scan, rebuild, sweep, cell visit, candidate test. The
  /// grid's candidate test (0.002) is far cheaper than the Euclidean pair
  /// test (0.45): candidates sit contiguously in the CSR entry array and
  /// the test is a branch-free compare over the SoA position columns, where
  /// the Euclidean scan walks every record.
  InterestCosts interestCosts{0.45, 0.011, 0.08, 0.004, 0.05, 0.002};
  /// Per visible entity gathered into a state update.
  double suGatherPerEntityCost{1.0};
  /// Shadow maintenance: fixed part per snapshot...
  double shadowIndexBaseCost{0.3};
  /// ...plus interest-index upkeep that grows with the candidate count
  /// (drives the replication-overhead term of Eq. (1)).
  double shadowIndexPerEntityCost{0.0025};
  /// Decoding + updating + re-encoding the per-player stats blob.
  double statsUpdateCost{0.4};
  /// Points per kill on the scoreboard.
  std::uint64_t killScore{100};
};

/// Instantiates the IM algorithm selected by `config.interestPolicy`, with
/// the config's cost constants.
std::unique_ptr<InterestPolicy> makeInterestPolicy(const FpsConfig& config);

/// Switches `config` to the flat-grid policy together with the SoA cost
/// profile measured for it: slot-handle gathers over contiguous columns
/// replace the per-visible-id hash find + fat-record walk of the seed
/// encoder, so the per-entity gather constant drops with them (0.12 vs 1.0,
/// the ~8x ratio observed between the SoA and seed AOI+gather
/// micro-benchmarks). All other constants are unchanged — the grid's own
/// costs (rebuild/sweep/cell-visit/candidate-test) are already in
/// `config.interestCosts`.
void applyGridInterestProfile(FpsConfig& config);

class FpsApplication final : public rtf::Application {
 public:
  explicit FpsApplication(FpsConfig config = {});

  [[nodiscard]] const FpsConfig& config() const { return config_; }

  /// Swaps the interest-management algorithm (default: the policy selected
  /// by FpsConfig::interestPolicy). See game/interest.hpp.
  void setInterestPolicy(std::unique_ptr<InterestPolicy> policy);
  [[nodiscard]] InterestPolicy& interestPolicy() { return *interest_; }

  void onTickBegin(rtf::World& world, rtf::CostMeter& meter) override;

  void applyUserInput(rtf::World& world, rtf::EntityRef avatar,
                      std::span<const std::uint8_t> commands, rtf::CostMeter& meter,
                      rtf::ForwardSink& forward, Rng& rng) override;

  void applyForwardedInteraction(rtf::World& world, rtf::EntityRef target, EntityId source,
                                 std::span<const std::uint8_t> payload, rtf::CostMeter& meter,
                                 rtf::ForwardSink& forward) override;

  std::vector<std::uint8_t> exportUserState(rtf::ConstEntityRef avatar,
                                            rtf::CostMeter& meter) override;
  void importUserState(rtf::EntityRef avatar, std::span<const std::uint8_t> state,
                       rtf::CostMeter& meter) override;

  void onShadowUpdated(rtf::World& world, rtf::EntityRef shadow, rtf::CostMeter& meter) override;

  void updateNpc(rtf::World& world, rtf::EntityRef npc, rtf::CostMeter& meter, Rng& rng) override;

  void computeAreaOfInterest(const rtf::World& world, rtf::ConstEntityRef viewer,
                             rtf::CostMeter& meter, std::vector<std::uint32_t>& out) override;

  void buildStateUpdate(const rtf::World& world, rtf::ConstEntityRef viewer,
                        std::span<const std::uint32_t> visible, rtf::CostMeter& meter,
                        std::vector<std::uint8_t>& out) override;

 private:
  void applyMove(rtf::EntityRef avatar, const MoveCommand& move, rtf::CostMeter& meter);
  void applyAttack(rtf::World& world, rtf::EntityRef attacker, const AttackCommand& attack,
                   rtf::CostMeter& meter, rtf::ForwardSink& forward, Rng& rng);
  /// Applies damage; returns true when the hit was lethal (the target
  /// respawned). Increments the victim's death count on a kill.
  bool applyDamage(rtf::EntityRef target, double damage, Rng* rng, rtf::CostMeter& meter);
  void creditKill(rtf::EntityRef attacker, rtf::CostMeter& meter);
  void clampToArena(Vec2& position) const;

  FpsConfig config_;
  std::unique_ptr<InterestPolicy> interest_;
  /// Reused across buildStateUpdate calls: gathering runs once per client
  /// per tick, and the visible-set size is stable between ticks.
  StateUpdatePayload payloadScratch_;
};

}  // namespace roia::game
