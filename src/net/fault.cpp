#include "net/fault.hpp"

#include <algorithm>
#include <utility>

namespace roia::net {

void FaultInjector::partition(std::string name, const std::vector<NodeId>& nodes, SimTime start,
                              SimTime end) {
  Partition p;
  for (const NodeId node : nodes) p.group.insert(node.value);
  p.start = start;
  p.end = end;
  partitions_[std::move(name)] = std::move(p);
}

void FaultInjector::heal(const std::string& name, SimTime at) {
  auto it = partitions_.find(name);
  if (it != partitions_.end()) it->second.end = at;
}

bool FaultInjector::isPartitioned(NodeId from, NodeId to, SimTime now) const {
  for (const auto& [name, p] : partitions_) {
    if (now < p.start || now >= p.end) continue;
    const bool fromInside = p.group.contains(from.value);
    const bool toInside = p.group.contains(to.value);
    if (fromInside != toInside) return true;
  }
  return false;
}

void FaultInjector::schedulePreemption(ServerId server, SimTime notice, SimDuration window) {
  preemptions_.push_back(Preemption{server, notice, window});
  // Keep (notice, server) order so claims come out deterministically no
  // matter the scheduling order.
  std::sort(preemptions_.begin(), preemptions_.end(), [](const Preemption& a, const Preemption& b) {
    return a.notice != b.notice ? a.notice < b.notice : a.server < b.server;
  });
}

std::vector<FaultInjector::Preemption> FaultInjector::claimDuePreemptions(SimTime now) {
  std::vector<Preemption> due;
  auto it = preemptions_.begin();
  while (it != preemptions_.end() && it->notice <= now) {
    due.push_back(*it);
    ++it;
  }
  preemptions_.erase(preemptions_.begin(), it);
  return due;
}

void FaultInjector::setMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_.reset();
    return;
  }
  metrics_ = MetricSet{
      &registry->counter("roia_fault_frames_judged_total"),
      &registry->counter("roia_fault_frames_dropped_total"),
      &registry->counter("roia_fault_frames_duplicated_total"),
      &registry->counter("roia_fault_frames_delayed_total"),
      &registry->counter("roia_fault_frames_reordered_total"),
      &registry->counter("roia_fault_frames_partitioned_total"),
  };
}

FaultInjector::Verdict FaultInjector::judge(NodeId from, NodeId to, SimTime now) {
  ++stats_.framesJudged;
  if (metrics_) metrics_->judged->increment();
  Verdict verdict;

  if (isPartitioned(from, to, now)) {
    ++stats_.framesPartitioned;
    ++stats_.framesDropped;
    if (metrics_) {
      metrics_->partitioned->increment();
      metrics_->dropped->increment();
    }
    verdict.drop = true;
    return verdict;  // consumes no randomness: partitions are time-driven
  }

  const FaultParams& params = defaultFaults_;
  if (params.inert()) return verdict;  // fault-free links perturb nothing

  if (params.dropProbability > 0.0 && rng_.chance(params.dropProbability)) {
    ++stats_.framesDropped;
    if (metrics_) metrics_->dropped->increment();
    verdict.drop = true;
    return verdict;
  }
  if (params.jitterMax > SimDuration::zero()) {
    verdict.extraDelay = SimDuration::microseconds(static_cast<std::int64_t>(
        rng_.uniformInt(0, static_cast<std::uint64_t>(params.jitterMax.micros))));
    if (verdict.extraDelay > SimDuration::zero()) {
      ++stats_.framesDelayed;
      if (metrics_) metrics_->delayed->increment();
    }
  }
  if (params.reorderProbability > 0.0 && rng_.chance(params.reorderProbability)) {
    ++stats_.framesReordered;
    if (metrics_) metrics_->reordered->increment();
    verdict.reorder = true;
  }
  if (params.duplicateProbability > 0.0 && rng_.chance(params.duplicateProbability)) {
    ++stats_.framesDuplicated;
    if (metrics_) metrics_->duplicated->increment();
    verdict.duplicate = true;
    if (params.jitterMax > SimDuration::zero()) {
      verdict.duplicateExtraDelay = SimDuration::microseconds(static_cast<std::int64_t>(
          rng_.uniformInt(0, static_cast<std::uint64_t>(params.jitterMax.micros))));
    }
  }
  return verdict;
}

}  // namespace roia::net
