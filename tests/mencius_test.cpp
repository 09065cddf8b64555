#include <gtest/gtest.h>

#include "mencius/node.h"
#include "mencius/server.h"
#include "scripted_env.h"
#include "test_util.h"

namespace praft {
namespace {

using test::ApplyRecord;

consensus::Group group_of(NodeId self, std::initializer_list<NodeId> members) {
  consensus::Group g;
  g.self = self;
  g.members = members;
  return g;
}

mencius::Options unit_options() {
  mencius::Options o;
  o.batch_delay = 0;
  o.heartbeat_interval = msec(50);
  o.revoke_timeout = msec(600);
  o.learn_after = msec(100);
  return o;
}

// ---------------------------------------------------------------------------
// Unit tests on MenciusNode.
// ---------------------------------------------------------------------------

TEST(MenciusUnitTest, OwnSlotsAreResidueClass) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(11, {10, 11, 12}), env, unit_options());
  n.start();
  EXPECT_EQ(n.rank(), 1);
  EXPECT_EQ(n.submit(kv::Command{kv::Op::kPut, 1, 1, 8, 0, 1}), 1);
  EXPECT_EQ(n.submit(kv::Command{kv::Op::kPut, 2, 2, 8, 0, 2}), 4);
  EXPECT_EQ(n.submit(kv::Command{kv::Op::kPut, 3, 3, 8, 0, 3}), 7);
  EXPECT_EQ(n.owner_of(4), 11);
  EXPECT_EQ(n.owner_of(5), 12);
}

TEST(MenciusUnitTest, SeeingOthersSlotsSkipsOwnTurns) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(10, {10, 11, 12}), env, unit_options());
  n.start();
  // Owner 11 proposes at slot 7 (its third turn); we should cede slots 0, 3
  // and 6 and broadcast the skip.
  mencius::AcceptOwn ao;
  ao.owner = 11;
  ao.items = {mencius::OwnItem{7, kv::Command{kv::Op::kPut, 5, 5, 8, 9, 1}}};
  n.on_packet(net::Packet{11, 10, 64, mencius::Message{ao}});
  EXPECT_EQ(n.slots_skipped(), 3);
  EXPECT_EQ(n.next_own(), 9);
  env.advance(msec(5));  // flush
  bool skip_seen = false;
  for (const auto& s : env.outbox) {
    const auto* m = std::any_cast<mencius::Message>(&s.payload);
    if (m == nullptr) continue;
    if (const auto* sr = std::get_if<mencius::SkipRange>(m)) {
      skip_seen = true;
      EXPECT_EQ(sr->lo, 0);
      EXPECT_EQ(sr->hi, 7);
    }
  }
  EXPECT_TRUE(skip_seen);
}

TEST(MenciusUnitTest, QuorumAcksDecideOwnSlot) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(10, {10, 11, 12}), env, unit_options());
  std::vector<kv::Command> acked;
  n.set_early_ack([&](const kv::Command& c) { acked.push_back(c); });
  std::vector<consensus::LogIndex> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  n.start();
  const kv::Command c{kv::Op::kPut, 1, 1, 8, 0, 1};
  ASSERT_EQ(n.submit(c), 0);
  mencius::AcceptOwnOk ok;
  ok.acceptor = 11;
  ok.indexes = {0};
  n.on_packet(net::Packet{11, 10, 48, mencius::Message{ok}});
  // Majority (self + 11) reached: decided; slot 0 has no predecessors so it
  // executes AND acks.
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0], 0);
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_TRUE(acked[0] == c);
}

TEST(MenciusUnitTest, CommutativeOpAckedBeforeExecution) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(11, {10, 11, 12}), env, unit_options());
  std::vector<kv::Command> acked;
  n.set_early_ack([&](const kv::Command& c) { acked.push_back(c); });
  std::vector<consensus::LogIndex> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  n.start();
  // Owner 10's slot 0 holds a DIFFERENT key, not yet decided (no watermark).
  mencius::AcceptOwn ao;
  ao.owner = 10;
  ao.items = {mencius::OwnItem{0, kv::Command{kv::Op::kPut, 77, 1, 8, 9, 1}}};
  n.on_packet(net::Packet{10, 11, 64, mencius::Message{ao}});
  // Our op on key 5 lands at slot 1.
  const kv::Command mine{kv::Op::kPut, 5, 2, 8, 0, 1};
  ASSERT_EQ(n.submit(mine), 1);
  mencius::AcceptOwnOk ok;
  ok.acceptor = 12;
  ok.indexes = {1};
  n.on_packet(net::Packet{12, 11, 48, mencius::Message{ok}});
  // Slot 0 is valued-but-undecided: cannot execute slot 1, but the keys
  // commute, so the client is acked early (the Mencius optimization).
  EXPECT_TRUE(applied.empty());
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_TRUE(acked[0] == mine);
}

TEST(MenciusUnitTest, ConflictingOpWaitsForExecution) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(11, {10, 11, 12}), env, unit_options());
  std::vector<kv::Command> acked;
  n.set_early_ack([&](const kv::Command& c) { acked.push_back(c); });
  n.start();
  // Owner 10's slot 0 holds the SAME key (undecided).
  mencius::AcceptOwn ao;
  ao.owner = 10;
  ao.items = {mencius::OwnItem{0, kv::Command{kv::Op::kPut, 5, 1, 8, 9, 1}}};
  n.on_packet(net::Packet{10, 11, 64, mencius::Message{ao}});
  const kv::Command mine{kv::Op::kPut, 5, 2, 8, 0, 1};
  ASSERT_EQ(n.submit(mine), 1);
  mencius::AcceptOwnOk ok;
  ok.acceptor = 12;
  ok.indexes = {1};
  n.on_packet(net::Packet{12, 11, 48, mencius::Message{ok}});
  EXPECT_TRUE(acked.empty());  // conflicting: must wait for slot 0
  // Slot 0 decides via owner 10's watermark; now both execute and ack fires.
  mencius::StatusBeat sb;
  sb.from = 10;
  sb.next_own = 3;
  sb.decided_floor = 3;
  sb.rev_floor = -1;
  n.on_packet(net::Packet{10, 11, 40, mencius::Message{sb}});
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_TRUE(acked[0] == mine);
}

TEST(MenciusUnitTest, SkipRangeDecidesForeignSlots) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(11, {10, 11, 12}), env, unit_options());
  std::vector<consensus::LogIndex> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  n.start();
  // Skips from owners 10 and 12 covering their slots below 3, plus our own
  // proposal at slot 1 — the full prefix becomes executable.
  const kv::Command mine{kv::Op::kPut, 5, 2, 8, 0, 1};
  n.submit(mine);
  mencius::AcceptOwnOk ok;
  ok.acceptor = 10;
  ok.indexes = {1};
  n.on_packet(net::Packet{10, 11, 48, mencius::Message{ok}});
  n.on_packet(net::Packet{10, 11, 40,
                          mencius::Message{mencius::SkipRange{10, 0, 3}}});
  n.on_packet(net::Packet{12, 11, 40,
                          mencius::Message{mencius::SkipRange{12, 0, 3}}});
  ASSERT_EQ(applied.size(), 3u);  // slots 0,1,2
}

// Scan cursors and incremental early-ack bookkeeping: each case pins the
// result a full rescan of the slot space gives.

void deliver(mencius::MenciusNode& n, NodeId from, mencius::Message m) {
  net::Packet p;
  p.from = from;
  p.to = n.id();
  p.bytes = 64;
  p.payload = std::move(m);
  n.on_packet(p);
}

// Slots `n` reports decided in [lo, hi), probed through a LearnReq as peer
// `asker` would see them.
std::vector<consensus::LogIndex> decided_slots(test::ScriptedEnv& env,
                                               mencius::MenciusNode& n,
                                               NodeId asker,
                                               consensus::LogIndex lo,
                                               consensus::LogIndex hi) {
  deliver(n, asker, mencius::LearnReq{asker, lo, hi});
  std::vector<consensus::LogIndex> out;
  for (const auto& sent : env.take_for(asker)) {
    const auto* m = std::any_cast<mencius::Message>(&sent.payload);
    if (m == nullptr) continue;
    if (const auto* lv = std::get_if<mencius::LearnVals>(m)) {
      for (const auto& si : lv->slots) out.push_back(si.index);
    }
  }
  return out;
}

// The own decided floor `n` publishes on its next status beat.
consensus::LogIndex published_decided_floor(test::ScriptedEnv& env) {
  env.clear();
  env.advance(unit_options().heartbeat_interval);
  for (const auto& sent : env.outbox) {
    const auto* m = std::any_cast<mencius::Message>(&sent.payload);
    if (m == nullptr) continue;
    if (const auto* sb = std::get_if<mencius::StatusBeat>(m)) {
      return sb->decided_floor;
    }
  }
  ADD_FAILURE() << "no status beat sent";
  return -2;
}

mencius::AcceptOwn accept_own(NodeId owner,
                              std::vector<mencius::OwnItem> items,
                              consensus::LogIndex decided_floor,
                              consensus::LogIndex rev_floor = -1) {
  mencius::AcceptOwn ao;
  ao.owner = owner;
  ao.items = std::move(items);
  ao.decided_floor = decided_floor;
  ao.rev_floor = rev_floor;
  return ao;
}

mencius::StatusBeat status_beat(NodeId from, consensus::LogIndex decided_floor,
                                consensus::LogIndex rev_floor) {
  return mencius::StatusBeat{from, decided_floor, decided_floor, rev_floor};
}

mencius::AcceptOwnOk accept_ok(NodeId acceptor,
                               std::vector<consensus::LogIndex> indexes) {
  mencius::AcceptOwnOk ok;
  ok.acceptor = acceptor;
  ok.indexes = std::move(indexes);
  return ok;
}

kv::Command put(uint64_t key, uint64_t seq) {
  return kv::Command{kv::Op::kPut, key, seq, 8, 0, seq};
}

TEST(MenciusUnitTest, AcceptBelowSweptOwnerFloorIsStillAutoDecided) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(11, {10, 11, 12}), env, unit_options());
  std::vector<consensus::LogIndex> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command&) {
    applied.push_back(i);
  });
  n.start();
  // Owner 10's beat moves its decided floor to 4: the sweep passes slots 0
  // and 3 while we hold no value for either.
  deliver(n, 10, status_beat(10, 4, -1));
  EXPECT_TRUE(decided_slots(env, n, 12, 0, 10).empty());
  // The accept for slot 0 arrives late, carrying a stale floor: the value
  // is below the owner's watermark, so it is the decided one.
  deliver(n, 10, accept_own(10, {mencius::OwnItem{0, put(77, 1)}}, 0));
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0], 0);
}

TEST(MenciusUnitTest, AcceptAtOrBelowOwnerRevFloorIsNotAutoDecided) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(11, {10, 11, 12}), env, unit_options());
  std::vector<std::pair<consensus::LogIndex, kv::Command>> applied;
  n.set_apply([&](consensus::LogIndex i, const kv::Command& c) {
    applied.emplace_back(i, c);
  });
  n.start();
  // Owner 10 published decided floor 7 and revoked floor 3: the sweep has
  // passed slots 0, 3 and 6.
  deliver(n, 10, status_beat(10, 7, 3));
  deliver(n, 10,
          accept_own(10,
                     {mencius::OwnItem{0, put(76, 1)},
                      mencius::OwnItem{3, put(77, 2)},
                      mencius::OwnItem{6, put(78, 3)}},
                     7, 3));
  // Only slot 6 is above the revoked zone; 0 and 3 wait for explicit decides
  // however far the floors move. (Our own slots 1 and 4 were ceded as skips.)
  const std::vector<consensus::LogIndex> expected{1, 4, 6};
  EXPECT_EQ(decided_slots(env, n, 12, 0, 10), expected);
  deliver(n, 10, status_beat(10, 10, 3));
  EXPECT_EQ(decided_slots(env, n, 12, 0, 10), expected);
  EXPECT_TRUE(applied.empty());
  // The revoker's decide notice settles slot 0 (as a skip) and it executes,
  // followed by our skip at slot 1.
  mencius::LearnVals lv;
  lv.from = 12;
  lv.slots = {mencius::SlotInfo{0, true, kv::noop_command()}};
  deliver(n, 12, lv);
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0].first, 0);
  EXPECT_TRUE(applied[0].second.is_noop());
}

TEST(MenciusUnitTest, OwnDecidedFloorFollowsSnapshotJump) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(10, {10, 11, 12}), env, unit_options());
  n.set_state_hooks([] { return kv::StoreImage{}; },
                    [](const kv::StoreImage&, consensus::LogIndex) {});
  n.start();
  ASSERT_EQ(n.submit(put(1, 1)), 0);
  deliver(n, 11, accept_ok(11, {0}));
  ASSERT_EQ(n.submit(put(2, 2)), 3);  // undecided: the floor stops here
  EXPECT_EQ(published_decided_floor(env), 3);
  // A checkpoint through slot 10 jumps the apply floor past the cursor; the
  // first own slot not known decided is now 12.
  mencius::SnapshotXfer sx;
  sx.from = 11;
  sx.snap.last_index = 10;
  deliver(n, 11, sx);
  EXPECT_EQ(n.applied_floor(), 11);
  EXPECT_EQ(published_decided_floor(env), 12);
  ASSERT_EQ(n.submit(put(3, 3)), 12);
  deliver(n, 11, accept_ok(11, {12}));
  EXPECT_EQ(published_decided_floor(env), 15);
}

TEST(MenciusUnitTest, DecidedCommutingOwnSlotAckedPastUndecidedOwnSlot) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(11, {10, 11, 12}), env, unit_options());
  std::vector<kv::Command> acked;
  n.set_early_ack([&](const kv::Command& c) { acked.push_back(c); });
  n.start();
  const kv::Command first = put(5, 1);
  const kv::Command second = put(6, 2);
  ASSERT_EQ(n.submit(first), 1);
  ASSERT_EQ(n.submit(second), 4);
  // Every foreign slot below 5 holds a value (other keys, undecided).
  deliver(n, 10,
          accept_own(10,
                     {mencius::OwnItem{0, put(70, 1)},
                      mencius::OwnItem{3, put(73, 2)}},
                     0));
  deliver(n, 12, accept_own(12, {mencius::OwnItem{2, put(72, 1)}}, 0));
  // Only slot 4 reaches its quorum: it is acked while slot 1 still waits.
  deliver(n, 12, accept_ok(12, {4}));
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_TRUE(acked[0] == second);
  deliver(n, 10, accept_ok(10, {1}));
  ASSERT_EQ(acked.size(), 2u);
  EXPECT_TRUE(acked[1] == first);
}

TEST(MenciusUnitTest, NothingAtOrAboveInfoFloorIsAcked) {
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(11, {10, 11, 12}), env, unit_options());
  std::vector<kv::Command> acked;
  n.set_early_ack([&](const kv::Command& c) { acked.push_back(c); });
  n.start();
  const kv::Command first = put(5, 1);
  const kv::Command second = put(6, 2);
  ASSERT_EQ(n.submit(first), 1);
  ASSERT_EQ(n.submit(second), 4);
  deliver(n, 12, accept_ok(12, {1, 4}));  // both decided
  // Slot 0 is unknown: no own slot may be acked yet.
  EXPECT_TRUE(acked.empty());
  // Slot 0 gets a value; slots 2 and 3 are still unknown, so only slot 1 is
  // below the information floor.
  deliver(n, 10, accept_own(10, {mencius::OwnItem{0, put(70, 1)}}, 0));
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_TRUE(acked[0] == first);
  deliver(n, 12, accept_own(12, {mencius::OwnItem{2, put(72, 1)}}, 0));
  EXPECT_EQ(acked.size(), 1u);  // slot 3 is still unknown
  deliver(n, 10, accept_own(10, {mencius::OwnItem{3, put(73, 2)}}, 0));
  ASSERT_EQ(acked.size(), 2u);
  EXPECT_TRUE(acked[1] == second);
}

TEST(MenciusUnitTest, IdleGroupSendsNoLearnReq) {
  // Every owner sits at its first unused turn: nothing is stalled, so the
  // maintenance loop must not ask anyone to teach slot 0 or its neighbours.
  test::ScriptedEnv env;
  mencius::MenciusNode n(group_of(10, {10, 11, 12}), env, unit_options());
  n.start();
  int beats = 0;
  int learn_reqs = 0;
  for (int tick = 0; tick < 40; ++tick) {  // 2 s of heartbeats
    deliver(n, 11, status_beat(11, 1, -1));
    deliver(n, 12, status_beat(12, 2, -1));
    env.advance(unit_options().heartbeat_interval);
    for (const auto& sent : env.outbox) {
      const auto* m = std::any_cast<mencius::Message>(&sent.payload);
      if (m == nullptr) continue;
      beats += std::holds_alternative<mencius::StatusBeat>(*m) ? 1 : 0;
      learn_reqs += std::holds_alternative<mencius::LearnReq>(*m) ? 1 : 0;
    }
    env.clear();
  }
  EXPECT_GT(beats, 0);
  EXPECT_EQ(learn_reqs, 0);
}

// ---------------------------------------------------------------------------
// Cluster-level tests.
// ---------------------------------------------------------------------------

harness::Cluster::ServerFactory mencius_factory(
    mencius::Options opt, std::shared_ptr<ApplyRecord> record = nullptr) {
  return [opt, record](harness::NodeHost& host, const consensus::Group& g)
             -> std::unique_ptr<harness::ReplicaServer> {
    harness::CostModel costs;
    costs.enabled = false;
    auto s = std::make_unique<mencius::MenciusServer>(host, g, costs, opt);
    if (record) {
      s->set_apply_probe(
          [record](NodeId n, consensus::LogIndex i, const kv::Command& c) {
            record->observe(n, i, c);
          });
    }
    return s;
  };
}

mencius::Options lan_mencius_options() {
  mencius::Options o;
  o.batch_delay = msec(1);
  o.heartbeat_interval = msec(40);
  o.revoke_timeout = msec(800);
  o.learn_after = msec(150);
  return o;
}

TEST(MenciusClusterTest, AllRegionsCommitWithoutForwarding) {
  auto record = std::make_shared<ApplyRecord>();
  harness::Cluster cluster(test::lan_config(41));
  cluster.build_replicas(mencius_factory(lan_mencius_options(), record));
  cluster.metrics().set_window(0, kTimeMax);
  kv::WorkloadConfig wl;
  wl.read_fraction = 0.0;
  wl.conflict_rate = 0.0;
  cluster.add_clients(2, wl, msec(100));
  cluster.run_for(sec(5));
  EXPECT_GT(cluster.metrics().completed(), 500);
  for (SiteId s = 0; s < 5; ++s) {
    EXPECT_GT(cluster.metrics().writes(s).count(), 0) << "site " << s;
  }
  EXPECT_FALSE(record->violation);
}

TEST(MenciusClusterTest, ReplicasConverge) {
  harness::Cluster cluster(test::lan_config(42));
  cluster.build_replicas(mencius_factory(lan_mencius_options()));
  kv::WorkloadConfig wl = test::small_workload();
  cluster.add_clients(2, wl, msec(100));
  cluster.run_for(sec(5));
  cluster.stop_clients();
  cluster.run_for(sec(3));
  EXPECT_TRUE(test::stores_converged(cluster));
  EXPECT_GT(cluster.server(0).store().applied_count(), 0u);
}

TEST(MenciusClusterTest, IdleRegionsSkipTheirTurns) {
  harness::Cluster cluster(test::lan_config(43));
  std::vector<mencius::MenciusServer*> servers;
  auto factory = [&servers](harness::NodeHost& host, const consensus::Group& g)
      -> std::unique_ptr<harness::ReplicaServer> {
    harness::CostModel costs;
    costs.enabled = false;
    auto s = std::make_unique<mencius::MenciusServer>(host, g, costs,
                                                      lan_mencius_options());
    servers.push_back(s.get());
    return s;
  };
  cluster.build_replicas(factory);
  // Only region 0 has clients; all other owners must skip constantly.
  auto& host = cluster.make_host(0);
  test::OneShotClient client(host);
  cluster.run_for(msec(200));
  for (int i = 0; i < 50; ++i) {
    client.send(cluster.server(0).id(),
                kv::Command{kv::Op::kPut, static_cast<uint64_t>(i), 1, 8, 0, 0});
    cluster.run_for(msec(100));
    ASSERT_FALSE(client.waiting()) << "op " << i;
  }
  int64_t total_skips = 0;
  for (auto* s : servers) total_skips += s->node().slots_skipped();
  EXPECT_GT(total_skips, 100);
  cluster.run_for(sec(2));
  EXPECT_TRUE(test::stores_converged(cluster));
}

TEST(MenciusClusterTest, CrashedOwnerIsRevokedAndSystemProceeds) {
  auto record = std::make_shared<ApplyRecord>();
  harness::Cluster cluster(test::lan_config(44));
  cluster.build_replicas(mencius_factory(lan_mencius_options(), record));
  cluster.metrics().set_window(0, kTimeMax);
  kv::WorkloadConfig wl;
  wl.read_fraction = 0.0;
  wl.conflict_rate = 0.0;
  cluster.add_clients(1, wl, msec(100));
  cluster.run_for(sec(2));
  // Kill replica 3 permanently; its in-flight slots must be revoked.
  const Time t = cluster.sim().now();
  cluster.net().faults().crash(cluster.server(3).id(), t, t + sec(600));
  cluster.run_for(sec(1));
  const int64_t during = cluster.metrics().completed();
  cluster.run_for(sec(6));  // revoke_timeout passes; progress resumes
  EXPECT_GT(cluster.metrics().completed(), during + 100);
  EXPECT_FALSE(record->violation);
  // The four live replicas converge (dead one is excluded).
  const uint64_t fp = cluster.server(0).store().fingerprint();
  cluster.stop_clients();
  cluster.run_for(sec(3));
  for (int i : {1, 2, 4}) {
    EXPECT_EQ(cluster.server(i).store().fingerprint(),
              cluster.server(0).store().fingerprint())
        << "replica " << i;
  }
  (void)fp;
}

TEST(MenciusClusterTest, BrokenHandPortStallsSkippingOwners) {
  // Ablation A2 (§A.4): the hand-port that misses the AppendEntries/propose
  // side of the Phase2b delta never marks its OWN skips executable. Owners
  // that skip (the idle regions) stall their local execution, while the busy
  // owner — whose slots were really proposed — keeps applying. The correct
  // port keeps every store in lock-step.
  for (const bool correct : {true, false}) {
    mencius::Options opt = lan_mencius_options();
    opt.decide_own_skips = correct;
    harness::Cluster cluster(test::lan_config(45));
    cluster.build_replicas(mencius_factory(opt));
    test::OneShotClient client(cluster.make_host(1));
    cluster.run_for(msec(200));
    for (int i = 0; i < 10; ++i) {
      client.send(cluster.server(1).id(),
                  kv::Command{kv::Op::kPut, static_cast<uint64_t>(i), 1, 8, 0, 0});
      cluster.run_for(msec(300));
      ASSERT_FALSE(client.waiting()) << "op " << i;
    }
    cluster.run_for(sec(2));
    const auto applied_busy = cluster.server(1).store().applied_count();
    const auto applied_idle = cluster.server(0).store().applied_count();
    if (correct) {
      EXPECT_EQ(applied_idle, applied_busy) << "correct port keeps pace";
    } else {
      EXPECT_LT(applied_idle, applied_busy) << "broken port stalls skipper";
    }
  }
}

TEST(MenciusClusterTest, CommutativityTableDrainsAfterQuiesce) {
  // Every per-key count is released when its slot executes, so a write load
  // over many distinct keys leaves the table empty once the cluster is idle:
  // the table is bounded by the unexecuted window, not by the key space.
  harness::Cluster cluster(test::lan_config(46));
  std::vector<mencius::MenciusServer*> servers;
  auto factory = [&servers](harness::NodeHost& host, const consensus::Group& g)
      -> std::unique_ptr<harness::ReplicaServer> {
    harness::CostModel costs;
    costs.enabled = false;
    auto s = std::make_unique<mencius::MenciusServer>(host, g, costs,
                                                      lan_mencius_options());
    servers.push_back(s.get());
    return s;
  };
  cluster.build_replicas(factory);
  kv::WorkloadConfig wl;
  wl.read_fraction = 0.0;
  wl.conflict_rate = 0.0;
  cluster.add_clients(2, wl, msec(100));
  cluster.run_for(sec(3));
  cluster.stop_clients();
  cluster.run_for(sec(3));
  ASSERT_TRUE(test::stores_converged(cluster));
  EXPECT_GT(cluster.server(0).store().size(), 200u);
  ASSERT_EQ(servers.size(), 5u);
  for (auto* s : servers) {
    EXPECT_EQ(s->node().unapplied_keys(), 0u) << "replica " << s->id();
  }
}

}  // namespace
}  // namespace praft
