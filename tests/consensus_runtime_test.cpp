// Tests for the shared consensus runtime layer: epoch-guarded timers,
// batching, sparse-log gap/watermark behaviour, the Raft-family core shared
// by Raft and Raft*, and the runtime protocol registry that instantiates all
// four protocols by name.
#include <gtest/gtest.h>

#include "common/check.h"
#include "consensus/applier.h"
#include "consensus/batcher.h"
#include "consensus/log.h"
#include "consensus/registry.h"
#include "consensus/timer.h"
#include "raft/node.h"
#include "raftstar/node.h"
#include "scripted_env.h"
#include "storage/wal.h"

namespace praft {
namespace {

using test::ScriptedEnv;

// ---------------------------------------------------------------------------
// ElectionTimer: epoch guards, quiet-period checks, gating.
// ---------------------------------------------------------------------------

TEST(ElectionTimerTest, FiresAfterQuietPeriod) {
  ScriptedEnv env;
  consensus::ElectionTimer timer(env, msec(100), msec(100));
  int expirations = 0;
  timer.set_handler([&](bool expired) {
    if (expired) ++expirations;
  });
  timer.start();
  env.advance(msec(99));
  EXPECT_EQ(expirations, 0);
  env.advance(msec(2));
  EXPECT_EQ(expirations, 1);
}

TEST(ElectionTimerTest, TouchDefersExpiry) {
  ScriptedEnv env;
  consensus::ElectionTimer timer(env, msec(100), msec(100));
  int expirations = 0;
  int firings = 0;
  timer.set_handler([&](bool expired) {
    ++firings;
    if (expired) ++expirations;
  });
  timer.start();
  env.advance(msec(60));
  timer.touch();  // leader activity 60ms in
  env.advance(msec(50));
  // The timer fired at t=100 but only 50ms had passed since the touch.
  EXPECT_EQ(firings, 1);
  EXPECT_EQ(expirations, 0);
  // No further activity: the rearmed timer expires at t=200.
  env.advance(msec(100));
  EXPECT_EQ(expirations, 1);
}

TEST(ElectionTimerTest, StaleTimerNeverFiresAfterReset) {
  ScriptedEnv env;
  consensus::ElectionTimer timer(env, msec(100), msec(100));
  int firings = 0;
  timer.set_handler([&](bool) { ++firings; });
  timer.start();
  env.advance(msec(50));
  timer.reset();  // the t=100 callback is now stale
  env.advance(msec(60));
  // t=110: the original callback came due but its epoch is dead; the reset
  // chain fires at t=150.
  EXPECT_EQ(firings, 0);
  env.advance(msec(45));
  EXPECT_EQ(firings, 1);
}

TEST(ElectionTimerTest, CancelStopsTheChain) {
  ScriptedEnv env;
  consensus::ElectionTimer timer(env, msec(100), msec(100));
  int firings = 0;
  timer.set_handler([&](bool) { ++firings; });
  timer.start();
  timer.cancel();
  env.advance(sec(10));
  EXPECT_EQ(firings, 0);
}

TEST(ElectionTimerTest, GateSuppressesExpiryButChainContinues) {
  ScriptedEnv env;
  consensus::ElectionTimer timer(env, msec(100), msec(100));
  bool leader = true;  // gate: only non-leaders expire
  int expirations = 0;
  timer.set_gate([&] { return !leader; });
  timer.set_handler([&](bool expired) {
    if (expired) ++expirations;
  });
  timer.start();
  env.advance(msec(500));
  EXPECT_EQ(expirations, 0);  // suppressed while leading
  leader = false;
  env.advance(msec(200));
  EXPECT_GE(expirations, 1);  // the chain was still alive
}

TEST(PeriodicTimerTest, GateFalseKillsChainAndStartRestartsIt) {
  ScriptedEnv env;
  consensus::PeriodicTimer timer(env);
  bool active = true;
  int ticks = 0;
  timer.set_gate([&] { return active; });
  timer.set_handler([&] { ++ticks; });
  timer.start(msec(10));
  env.advance(msec(35));
  EXPECT_EQ(ticks, 3);
  active = false;
  env.advance(msec(50));
  EXPECT_EQ(ticks, 3);  // chain died at the first gated firing
  active = true;
  env.advance(msec(50));
  EXPECT_EQ(ticks, 3);  // dead chains do not resurrect on their own
  timer.start(msec(10));
  env.advance(msec(25));
  EXPECT_EQ(ticks, 5);
}

// ---------------------------------------------------------------------------
// Batcher: coalescing within the delay window.
// ---------------------------------------------------------------------------

TEST(BatcherTest, CoalescesPokesWithinWindow) {
  ScriptedEnv env;
  int flushes = 0;
  consensus::Batcher batcher(env, msec(5), [&] { ++flushes; });
  batcher.poke();
  batcher.poke();
  batcher.poke();
  EXPECT_TRUE(batcher.pending());
  env.advance(msec(5));
  EXPECT_EQ(flushes, 1);
  EXPECT_FALSE(batcher.pending());
  batcher.poke();
  env.advance(msec(5));
  EXPECT_EQ(flushes, 2);
}

// ---------------------------------------------------------------------------
// Logs and the apply watermark.
// ---------------------------------------------------------------------------

struct TestEntry {
  int term = 0;
  kv::Command cmd;
};

TEST(ContiguousLogTest, SentinelAndBoundsChecks) {
  consensus::ContiguousLog<TestEntry> log;
  EXPECT_EQ(log.last_index(), 0);
  EXPECT_EQ(log.at(0).term, 0);  // sentinel
  log.append(TestEntry{3, kv::noop_command()});
  EXPECT_EQ(log.last_index(), 1);
  EXPECT_EQ(log.at(1).term, 3);
  EXPECT_THROW((void)log.at(2), CheckFailure);
  EXPECT_THROW((void)log.at(-1), CheckFailure);
  log.truncate_after(0);
  EXPECT_EQ(log.last_index(), 0);
  EXPECT_THROW(log.truncate_after(1), CheckFailure);
}

struct TestSlot {
  bool chosen = false;
  kv::Command cmd;
};

TEST(SparseLogTest, GapsPauseTheWatermarkAndRepairResumesIt) {
  consensus::SparseLog<TestSlot> log;
  consensus::Applier applier;
  std::vector<consensus::LogIndex> applied;
  applier.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  auto get = [&](consensus::LogIndex i) -> const kv::Command* {
    const TestSlot* s = log.find(i);
    return (s != nullptr && s->chosen) ? &s->cmd : nullptr;
  };

  // Instances decided out of order: 1 and 3 chosen, 2 missing.
  log.materialize(1) = TestSlot{true, kv::noop_command()};
  log.materialize(3) = TestSlot{true, kv::noop_command()};
  applier.commit_to(3, get);
  EXPECT_EQ(applier.commit_index(), 3);  // watermark holds past the gap
  EXPECT_EQ(applier.applied(), 1);       // delivery paused at the gap
  ASSERT_EQ(applied.size(), 1u);

  // Repair the gap: delivery resumes in order, exactly once per index.
  log.materialize(2) = TestSlot{true, kv::noop_command()};
  applier.commit_to(3, get);
  EXPECT_EQ(applier.applied(), 3);
  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(applied[0], 1);
  EXPECT_EQ(applied[1], 2);
  EXPECT_EQ(applied[2], 3);

  // Re-raising an old watermark re-delivers nothing.
  applier.commit_to(2, get);
  EXPECT_EQ(applier.commit_index(), 3);
  EXPECT_EQ(applied.size(), 3u);
}

TEST(ApplierTest, UnboundedDrainForZeroBasedSlots) {
  // Mencius-style: 0-based slot space, per-slot decisions, no commit index.
  consensus::SparseLog<TestSlot> log;
  consensus::Applier applier(/*start=*/-1);
  int applies = 0;
  applier.set_apply([&](consensus::LogIndex, const kv::Command&) {
    ++applies;
  });
  auto get = [&](consensus::LogIndex i) -> const kv::Command* {
    const TestSlot* s = log.find(i);
    return (s != nullptr && s->chosen) ? &s->cmd : nullptr;
  };
  EXPECT_EQ(applier.next_index(), 0);
  log.materialize(0) = TestSlot{true, kv::noop_command()};
  log.materialize(1) = TestSlot{true, kv::noop_command()};
  log.materialize(3) = TestSlot{true, kv::noop_command()};
  applier.drain(get);
  EXPECT_EQ(applies, 2);
  EXPECT_EQ(applier.next_index(), 2);
  log.materialize(2) = TestSlot{true, kv::noop_command()};
  applier.drain(get);
  EXPECT_EQ(applies, 4);
  EXPECT_EQ(applier.next_index(), 4);
}

// ---------------------------------------------------------------------------
// RaftFamilyNode: the core Raft and Raft* share, tested once for both.
// ---------------------------------------------------------------------------

template <typename Node>
class RaftFamilyTest : public ::testing::Test {};
using RaftFamilyNodes = ::testing::Types<raft::RaftNode, raftstar::RaftStarNode>;
TYPED_TEST_SUITE(RaftFamilyTest, RaftFamilyNodes);

TYPED_TEST(RaftFamilyTest, LeaderCountsItselfOnlyForDurableEntries) {
  using Node = TypeParam;
  using Message = typename Node::Message;
  ScriptedEnv env;
  storage::DurableStore store;
  typename Node::Options opt;
  opt.election_timeout_min = msec(150);
  opt.election_timeout_max = msec(300);
  opt.heartbeat_interval = msec(50);
  opt.batch_delay = 0;
  opt.fsync_duration = msec(2);
  consensus::Group g;
  g.self = 0;
  g.members = {0, 1, 2};
  Node n(g, env, opt, &store);
  n.start();
  n.force_election();
  typename Node::VoteReply vote;
  vote.term = 1;
  vote.voter = 1;
  vote.granted = true;
  n.on_packet(net::Packet{1, 0, 64, Message{vote}});
  ASSERT_TRUE(n.is_leader());
  const consensus::LogIndex idx =
      n.submit(kv::Command{kv::Op::kPut, 1, 1, 8, 0, 1});
  ASSERT_GT(idx, 0);

  // Follower 1 holds the whole log: with the leader's own copy that is a
  // majority, but the leader's copy is not on disk yet, so it is no replica.
  typename Node::AppendReply ack;
  ack.term = 1;
  ack.follower = 1;
  ack.ok = true;
  ack.match_index = idx;
  n.on_packet(net::Packet{1, 0, 64, Message{ack}});
  EXPECT_EQ(n.commit_index(), 0);
  env.advance(msec(1));  // the fsync is under way
  EXPECT_EQ(n.commit_index(), 0);
  env.advance(msec(5));  // ...and done: the leader counts itself
  EXPECT_EQ(n.commit_index(), idx);
}

// ---------------------------------------------------------------------------
// Protocol registry: all four protocols constructible by name.
// ---------------------------------------------------------------------------

consensus::Group group_of(NodeId self, std::initializer_list<NodeId> members) {
  consensus::Group g;
  g.self = self;
  g.members = members;
  return g;
}

TEST(RegistryTest, ListsTheFourBuiltinProtocols) {
  auto& reg = consensus::ProtocolRegistry::instance();
  EXPECT_TRUE(reg.contains("raft"));
  EXPECT_TRUE(reg.contains("raftstar"));
  EXPECT_TRUE(reg.contains("multipaxos"));
  EXPECT_TRUE(reg.contains("mencius"));
  EXPECT_FALSE(reg.contains("viewstamped-replication"));
  EXPECT_GE(consensus::protocol_names().size(), 4u);
}

TEST(RegistryTest, UnknownProtocolNameIsAnError) {
  ScriptedEnv env;
  EXPECT_THROW(
      consensus::make_node("nonexistent", group_of(0, {0, 1, 2}), env),
      CheckFailure);
}

TEST(RegistryTest, InstantiatesAllFourProtocolsByName) {
  for (const char* name : {"raft", "raftstar", "multipaxos", "mencius"}) {
    SCOPED_TRACE(name);
    ScriptedEnv env;
    consensus::TimingOptions timing;
    timing.election_timeout_min = msec(150);
    timing.election_timeout_max = msec(300);
    timing.heartbeat_interval = msec(50);
    timing.batch_delay = 0;
    auto node =
        consensus::make_node(name, group_of(0, {0, 1, 2}), env, timing);
    ASSERT_NE(node, nullptr);
    node->set_apply([](consensus::LogIndex, const kv::Command&) {});
    node->start();
    EXPECT_EQ(node->id(), 0);
    const bool leaderless = std::string(name) == "mencius";
    if (leaderless) {
      // Every Mencius replica leads its own residue class: submissions are
      // always accepted.
      EXPECT_TRUE(node->is_leader());
      EXPECT_GE(node->submit(kv::noop_command()), 0);
    } else {
      // Freshly started leader-based nodes cannot accept submissions yet.
      EXPECT_FALSE(node->is_leader());
      EXPECT_EQ(node->submit(kv::noop_command()), -1);
      // A leadership attempt talks to the peers.
      node->force_election();
      EXPECT_FALSE(env.outbox.empty());
    }
  }
}

TEST(RegistryTest, SingleNodeGroupCommitsThroughTheIface) {
  // End-to-end through NodeIface: a single-node raft group elects itself,
  // accepts a submission, and applies it.
  ScriptedEnv env;
  consensus::TimingOptions timing;
  timing.election_timeout_min = msec(50);
  timing.election_timeout_max = msec(100);
  timing.heartbeat_interval = msec(20);
  timing.batch_delay = 0;
  auto node = consensus::make_node("raft", group_of(7, {7}), env, timing);
  int applies = 0;
  node->set_apply([&](consensus::LogIndex, const kv::Command&) { ++applies; });
  node->start();
  node->force_election();
  ASSERT_TRUE(node->is_leader());
  EXPECT_GE(node->submit(kv::noop_command()), 0);
  env.advance(msec(5));  // batch flush
  EXPECT_GE(applies, 1);
  EXPECT_GE(node->commit_index(), 1);
}

}  // namespace
}  // namespace praft
