// Instancing-based load distribution.
//
// RTF's third distribution method (Fig. 1) creates independent copies of a
// zone. Where replication runs out — the zone is at l_max and no stronger
// flavor exists, the paper's "critical user density" — an MMO-style
// provider opens another *instance* and routes new joins there. The
// director implements that routing policy on top of the cluster's
// instancing support, with the per-instance capacity taken from the
// scalability model (e.g. the 80 % trigger of the instance's replica
// count).
#pragma once

#include <cstddef>
#include <vector>

#include "rtf/cluster.hpp"

namespace roia::rms {

class InstanceDirector {
 public:
  struct Config {
    /// Maximum users routed into one instance (take it from the model,
    /// e.g. triggerFraction * n_max(replicasPerInstance)).
    std::size_t usersPerInstanceCap{190};
    /// Servers provisioned for each fresh instance.
    std::size_t replicasPerInstance{1};
  };

  /// `templateZone` must already have at least one server; it doubles as
  /// the first instance.
  InstanceDirector(rtf::Cluster& cluster, ZoneId templateZone, Config config);

  /// Zone a new user should join: the fullest instance still below the
  /// cap (fill instances before opening new ones), or a fresh instance.
  ZoneId routeJoin();

  /// All instances, template first.
  [[nodiscard]] const std::vector<ZoneId>& instances() const { return instances_; }
  [[nodiscard]] std::size_t instanceCount() const { return instances_.size(); }

  /// Total users over all instances.
  [[nodiscard]] std::size_t totalUsers() const;

  /// Shuts down instances that have no users left (template excluded).
  /// Returns how many were retired. Server teardown goes through the
  /// cluster; their zones remain registered but unused.
  std::size_t retireEmptyInstances();

 private:
  ZoneId openInstance();

  rtf::Cluster& cluster_;
  ZoneId templateZone_;
  Config config_;
  std::vector<ZoneId> instances_;
};

}  // namespace roia::rms
