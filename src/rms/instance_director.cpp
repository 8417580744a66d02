#include "rms/instance_director.hpp"

#include <algorithm>
#include <stdexcept>

namespace roia::rms {

InstanceDirector::InstanceDirector(rtf::Cluster& cluster, ZoneId templateZone, Config config)
    : cluster_(cluster), templateZone_(templateZone), config_(config) {
  if (cluster_.zones().replicaCount(templateZone) == 0) {
    throw std::invalid_argument("InstanceDirector: template zone has no servers");
  }
  if (config_.usersPerInstanceCap == 0) {
    throw std::invalid_argument("InstanceDirector: zero per-instance capacity");
  }
  instances_.push_back(templateZone);
}

ZoneId InstanceDirector::openInstance() {
  const ZoneId instance = cluster_.createInstance(templateZone_);
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config_.replicasPerInstance); ++i) {
    cluster_.addServer(instance);
  }
  instances_.push_back(instance);
  return instance;
}

ZoneId InstanceDirector::routeJoin() {
  // Fill the fullest instance that still has headroom: keeps sessions
  // socially dense and lets emptying instances drain for retirement.
  ZoneId best{};
  std::size_t bestUsers = 0;
  bool found = false;
  for (const ZoneId instance : instances_) {
    const std::size_t users = cluster_.zoneUserCount(instance);
    if (users >= config_.usersPerInstanceCap) continue;
    if (!found || users > bestUsers) {
      best = instance;
      bestUsers = users;
      found = true;
    }
  }
  return found ? best : openInstance();
}

std::size_t InstanceDirector::totalUsers() const {
  std::size_t total = 0;
  for (const ZoneId instance : instances_) {
    total += cluster_.zoneUserCount(instance);
  }
  return total;
}

std::size_t InstanceDirector::retireEmptyInstances() {
  std::size_t retired = 0;
  for (auto it = instances_.begin(); it != instances_.end();) {
    const ZoneId instance = *it;
    if (instance == templateZone_ || cluster_.zoneUserCount(instance) > 0) {
      ++it;
      continue;
    }
    for (const ServerId server : cluster_.zones().replicas(instance)) {
      cluster_.removeServer(server);
    }
    it = instances_.erase(it);
    ++retired;
  }
  return retired;
}

}  // namespace roia::rms
