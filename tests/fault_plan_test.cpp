#include <gtest/gtest.h>

#include <vector>

#include "net/packet.h"
#include "sim/faults.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace praft::sim {
namespace {

// ---------------------------------------------------------------------------
// Window boundary semantics: every window is [from, to) — active at the
// first instant, inactive at the last.
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, CrashWindowBoundaryInstants) {
  FaultPlan plan;
  plan.crash(2, 100, 200);
  EXPECT_FALSE(plan.is_down(2, 99));
  EXPECT_TRUE(plan.is_down(2, 100));   // t == from: down
  EXPECT_TRUE(plan.is_down(2, 199));
  EXPECT_FALSE(plan.is_down(2, 200));  // t == to: back up
  EXPECT_FALSE(plan.is_down(1, 150));  // other nodes unaffected
}

TEST(FaultPlanTest, PartitionWindowBoundaryInstants) {
  FaultPlan plan;
  plan.partition_pair(0, 1, 100, 200);
  EXPECT_FALSE(plan.is_blocked(0, 1, 99));
  EXPECT_TRUE(plan.is_blocked(0, 1, 100));
  EXPECT_TRUE(plan.is_blocked(1, 0, 150));  // bidirectional
  EXPECT_FALSE(plan.is_blocked(0, 1, 200));
}

TEST(FaultPlanTest, OverlappingPartitionsUnion) {
  // Two windows on the same pair act as their union, including the overlap
  // and each window's exclusive tail.
  FaultPlan plan;
  plan.partition_pair(0, 1, 100, 300);
  plan.partition_pair(0, 1, 200, 400);
  EXPECT_TRUE(plan.is_blocked(0, 1, 150));
  EXPECT_TRUE(plan.is_blocked(0, 1, 250));  // overlap
  EXPECT_TRUE(plan.is_blocked(0, 1, 350));
  EXPECT_FALSE(plan.is_blocked(0, 1, 400));
}

TEST(FaultPlanTest, CrashDuringPartition) {
  // A crash window inside a partition window: both predicates hold
  // independently, and the partition outlives the crash.
  FaultPlan plan;
  plan.partition_pair(0, 1, 100, 500);
  plan.crash(0, 200, 300);
  EXPECT_TRUE(plan.is_blocked(0, 1, 250));
  EXPECT_TRUE(plan.is_down(0, 250));
  EXPECT_FALSE(plan.is_down(0, 350));        // recovered...
  EXPECT_TRUE(plan.is_blocked(0, 1, 350));   // ...but still partitioned
}

TEST(FaultPlanTest, IsolateVsPartitionPair) {
  // isolate(n) blocks n against EVERY peer; partition_pair only the named
  // pair. Both may be active at once; healing one leaves the other.
  FaultPlan plan;
  plan.isolate(0, 100, 200);
  plan.partition_pair(0, 3, 100, 300);
  EXPECT_TRUE(plan.is_blocked(0, 1, 150));   // via isolate
  EXPECT_TRUE(plan.is_blocked(0, 3, 150));   // via both
  EXPECT_FALSE(plan.is_blocked(1, 2, 150));  // bystanders unaffected
  // Isolation over, pair partition still active:
  EXPECT_FALSE(plan.is_blocked(0, 1, 250));
  EXPECT_TRUE(plan.is_blocked(0, 3, 250));
  EXPECT_FALSE(plan.is_blocked(0, 3, 300));
}

// ---------------------------------------------------------------------------
// Drop bursts and the duplication/reordering knobs.
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, DropBurstWindowsTakeMaxOverBase) {
  FaultPlan plan;
  plan.set_drop_rate(0.01);
  plan.drop_burst(0.5, 100, 200);
  plan.drop_burst(0.3, 150, 400);
  EXPECT_DOUBLE_EQ(plan.drop_rate_at(50), 0.01);    // base only
  EXPECT_DOUBLE_EQ(plan.drop_rate_at(100), 0.5);    // t == from
  EXPECT_DOUBLE_EQ(plan.drop_rate_at(175), 0.5);    // overlap: max, not sum
  EXPECT_DOUBLE_EQ(plan.drop_rate_at(200), 0.3);    // first burst over
  EXPECT_DOUBLE_EQ(plan.drop_rate_at(400), 0.01);   // all over
}

TEST(FaultPlanTest, ChaosKnobsDefaultOff) {
  const FaultPlan plan;
  EXPECT_DOUBLE_EQ(plan.drop_rate(), 0.0);
  EXPECT_DOUBLE_EQ(plan.duplicate_rate(), 0.0);
  EXPECT_DOUBLE_EQ(plan.reorder_rate(), 0.0);
  EXPECT_DOUBLE_EQ(plan.drop_rate_at(12345), 0.0);
}

// ---------------------------------------------------------------------------
// Network-level behavior of the new knobs.
// ---------------------------------------------------------------------------

struct TestNet {
  explicit TestNet(uint64_t seed = 1)
      : sim(seed), net(sim, LatencyMatrix(1, msec(10))) {
    a = net.add_node(0, [this](net::Packet&& p) {
      received.push_back(static_cast<int>(test::tag_of(p)));
    });
    b = net.add_node(0, [](net::Packet&&) {});
  }
  Simulator sim;
  Network net;
  NodeId a, b;
  std::vector<int> received;
};

TEST(NetworkChaosTest, DuplicationDeliversTwiceFifoOtherwiseIntact) {
  TestNet w;
  w.net.faults().set_duplicate_rate(1.0);  // every message duplicated
  test::send_tagged(w.net, w.b, w.a, 7, 8);
  w.sim.run_until(sec(1));
  ASSERT_EQ(w.received.size(), 2u);
  EXPECT_EQ(w.received[0], 7);
  EXPECT_EQ(w.received[1], 7);
  EXPECT_EQ(w.net.messages_delivered(), 2u);
}

TEST(NetworkChaosTest, ReorderingAllowsOvertaking) {
  // With reordering on, some later-sent message eventually beats an
  // earlier-sent one on the same link — impossible under the FIFO clamp.
  TestNet w(7);
  w.net.faults().set_reorder_rate(0.5);
  bool overtaken = false;
  for (int round = 0; round < 200 && !overtaken; ++round) {
    w.received.clear();
    test::send_tagged(w.net, w.b, w.a, 0, 8);
    test::send_tagged(w.net, w.b, w.a, 1, 8);
    w.sim.run_for(sec(1));
    ASSERT_EQ(w.received.size(), 2u);
    overtaken = (w.received[0] == 1);
  }
  EXPECT_TRUE(overtaken);
}

TEST(NetworkChaosTest, FifoPreservedWhenKnobsOff) {
  TestNet w(7);
  for (int round = 0; round < 50; ++round) {
    w.received.clear();
    test::send_tagged(w.net, w.b, w.a, 0, 8);
    test::send_tagged(w.net, w.b, w.a, 1, 8);
    w.sim.run_for(sec(1));
    ASSERT_EQ(w.received.size(), 2u);
    EXPECT_EQ(w.received[0], 0);
    EXPECT_EQ(w.received[1], 1);
  }
}

TEST(NetworkChaosTest, DropBurstWindowDropsThenHeals) {
  TestNet w;
  w.net.faults().drop_burst(1.0, 0, sec(1));  // everything dropped early on
  test::send_tagged(w.net, w.b, w.a, 1, 8);
  w.sim.run_until(sec(2));
  EXPECT_TRUE(w.received.empty());
  test::send_tagged(w.net, w.b, w.a, 2, 8);  // after the burst: delivered
  w.sim.run_until(sec(3));
  ASSERT_EQ(w.received.size(), 1u);
  EXPECT_EQ(w.received[0], 2);
}

}  // namespace
}  // namespace praft::sim
