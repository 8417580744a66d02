// Tests for the simulated network: latency/bandwidth timing, per-link FIFO
// ordering, node detachment, multicast and traffic accounting.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "serialize/message.hpp"
#include "sim/simulation.hpp"

namespace roia::net {
namespace {

ser::Frame makeFrame(std::size_t payloadBytes, std::uint8_t fill = 0x42) {
  ser::Frame frame;
  frame.type = ser::MessageType::kStateUpdate;
  frame.payload.assign(payloadBytes, fill);
  return frame;
}

struct Fixture {
  sim::Simulation sim;
  Network net{sim};
};

TEST(NetworkTest, DeliversWithLatency) {
  Fixture f;
  std::vector<std::int64_t> arrivals;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode(
      [&](NodeId, const ser::Frame&) { arrivals.push_back(f.sim.now().micros); });
  LinkParams params;
  params.latency = SimDuration::milliseconds(5);
  params.bandwidthBytesPerSec = 1e12;  // negligible transmit time
  f.net.setDefaultLinkParams(params);

  f.net.send(a, b, makeFrame(10));
  f.sim.runAll();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 5000);
}

TEST(NetworkTest, BandwidthAddsTransmitTime) {
  Fixture f;
  std::vector<std::int64_t> arrivals;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode(
      [&](NodeId, const ser::Frame&) { arrivals.push_back(f.sim.now().micros); });
  LinkParams params;
  params.latency = SimDuration::zero();
  params.bandwidthBytesPerSec = 1e6;  // 1 MB/s -> 1 us per byte
  f.net.setDefaultLinkParams(params);

  const std::size_t wire = f.net.send(a, b, makeFrame(991));
  EXPECT_EQ(wire, ser::encodedFrameSize(991));
  f.sim.runAll();
  ASSERT_EQ(arrivals.size(), 1u);
  // 1 us per byte; floating-point truncation may shave one microsecond.
  EXPECT_NEAR(static_cast<double>(arrivals[0]), static_cast<double>(wire), 1.0);
}

TEST(NetworkTest, PerLinkFifoOrderEvenWithVaryingSizes) {
  Fixture f;
  std::vector<int> order;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode([&](NodeId, const ser::Frame& frame) {
    order.push_back(static_cast<int>(frame.payload.size()));
  });
  LinkParams params;
  params.latency = SimDuration::milliseconds(1);
  params.bandwidthBytesPerSec = 1e5;
  f.net.setDefaultLinkParams(params);

  // Big frame first, then a small one that would naively arrive earlier.
  f.net.send(a, b, makeFrame(5000));
  f.net.send(a, b, makeFrame(1));
  f.sim.runAll();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 5000);
  EXPECT_EQ(order[1], 1);
}

TEST(NetworkTest, SenderIdIsReported) {
  Fixture f;
  NodeId seen{};
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode([&](NodeId from, const ser::Frame&) { seen = from; });
  f.net.send(a, b, makeFrame(1));
  f.sim.runAll();
  EXPECT_EQ(seen, a);
}

TEST(NetworkTest, RemovedNodeDropsInFlightFrames) {
  Fixture f;
  int delivered = 0;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode([&](NodeId, const ser::Frame&) { ++delivered; });
  f.net.send(a, b, makeFrame(10));
  f.net.removeNode(b);
  f.sim.runAll();
  EXPECT_EQ(delivered, 0);
  EXPECT_FALSE(f.net.nodeAttached(b));
  EXPECT_TRUE(f.net.nodeAttached(a));
}

TEST(NetworkTest, SendToUnknownNodeThrows) {
  Fixture f;
  const NodeId a = f.net.addNode(nullptr);
  EXPECT_THROW(f.net.send(a, NodeId{99}, makeFrame(1)), std::out_of_range);
}

TEST(NetworkTest, MulticastReachesAll) {
  Fixture f;
  int count = 0;
  const NodeId a = f.net.addNode(nullptr);
  std::vector<NodeId> group;
  for (int i = 0; i < 5; ++i) {
    group.push_back(f.net.addNode([&](NodeId, const ser::Frame&) { ++count; }));
  }
  f.net.multicast(a, group, makeFrame(8));
  f.sim.runAll();
  EXPECT_EQ(count, 5);
}

TEST(NetworkTest, TrafficAccounting) {
  Fixture f;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode([](NodeId, const ser::Frame&) {});
  const std::size_t w1 = f.net.send(a, b, makeFrame(100));
  const std::size_t w2 = f.net.send(a, b, makeFrame(200));
  f.sim.runAll();

  EXPECT_EQ(f.net.nodeEgress(a).messages, 2u);
  EXPECT_EQ(f.net.nodeEgress(a).bytes, w1 + w2);
  EXPECT_EQ(f.net.nodeIngress(b).messages, 2u);
  EXPECT_EQ(f.net.nodeIngress(b).bytes, w1 + w2);
  EXPECT_EQ(f.net.nodeIngress(a).messages, 0u);
  EXPECT_EQ(f.net.totals().bytes, w1 + w2);
}

TEST(NetworkTest, PerLinkOverridesBeatDefaults) {
  Fixture f;
  std::vector<std::int64_t> arrivals;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode(
      [&](NodeId, const ser::Frame&) { arrivals.push_back(f.sim.now().micros); });
  const NodeId c = f.net.addNode(
      [&](NodeId, const ser::Frame&) { arrivals.push_back(f.sim.now().micros); });
  LinkParams slow;
  slow.latency = SimDuration::milliseconds(50);
  slow.bandwidthBytesPerSec = 1e12;
  f.net.setLinkParams(a, c, slow);
  LinkParams fast;
  fast.latency = SimDuration::microseconds(100);
  fast.bandwidthBytesPerSec = 1e12;
  f.net.setDefaultLinkParams(fast);

  f.net.send(a, b, makeFrame(1));  // default link
  f.net.send(a, c, makeFrame(1));  // overridden link
  f.sim.runAll();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 100);
  EXPECT_EQ(arrivals[1], 50000);
}

TEST(NetworkTest, RemoveNodeDropsInFlightFrames) {
  Fixture f;
  int delivered = 0;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode([&](NodeId, const ser::Frame&) { ++delivered; });
  LinkParams params;
  params.latency = SimDuration::milliseconds(5);
  params.bandwidthBytesPerSec = 1e12;
  f.net.setDefaultLinkParams(params);

  f.net.send(a, b, makeFrame(10));
  f.net.send(a, b, makeFrame(10));
  // Detach before the frames land: they must vanish, not crash or deliver.
  f.sim.runUntil(SimTime{1000});
  f.net.removeNode(b);
  f.sim.runAll();
  EXPECT_EQ(delivered, 0);
  // Egress was still charged at send time; ingress never happened.
  EXPECT_EQ(f.net.nodeEgress(a).messages, 2u);
  EXPECT_EQ(f.net.nodeIngress(b).messages, 0u);
}

TEST(NetworkTest, MulticastAccountsPerRecipient) {
  Fixture f;
  int atB = 0, atC = 0;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode([&](NodeId, const ser::Frame&) { ++atB; });
  const NodeId c = f.net.addNode([&](NodeId, const ser::Frame&) { ++atC; });

  f.net.multicast(a, {b, c}, makeFrame(100));
  f.sim.runAll();
  EXPECT_EQ(atB, 1);
  EXPECT_EQ(atC, 1);

  // A multicast is n unicasts on the wire: egress and the global totals
  // count one message per recipient, each of the same wire size.
  const std::size_t wire = ser::encodedFrameSize(100);
  EXPECT_EQ(f.net.nodeEgress(a).messages, 2u);
  EXPECT_EQ(f.net.nodeEgress(a).bytes, 2 * wire);
  EXPECT_EQ(f.net.nodeIngress(b).messages, 1u);
  EXPECT_EQ(f.net.nodeIngress(b).bytes, wire);
  EXPECT_EQ(f.net.nodeIngress(c).messages, 1u);
  EXPECT_EQ(f.net.totals().messages, 2u);
  EXPECT_EQ(f.net.totals().bytes, 2 * wire);
}

TEST(NetworkTest, HandlerReplacement) {
  Fixture f;
  int first = 0, second = 0;
  const NodeId a = f.net.addNode(nullptr);
  const NodeId b = f.net.addNode([&](NodeId, const ser::Frame&) { ++first; });
  f.net.send(a, b, makeFrame(1));
  f.sim.runAll();
  f.net.setHandler(b, [&](NodeId, const ser::Frame&) { ++second; });
  f.net.send(a, b, makeFrame(1));
  f.sim.runAll();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

}  // namespace
}  // namespace roia::net
