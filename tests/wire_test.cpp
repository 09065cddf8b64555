#include <gtest/gtest.h>

#include <any>
#include <cstdlib>
#include <vector>

#include "chaos/runner.h"
#include "common/check.h"
#include "common/rng.h"
#include "consensus/batcher.h"
#include "consensus/timing.h"
#include "harness/wire.h"
#include "kv/command.h"
#include "lease/manager.h"
#include "lease/wire.h"
#include "mencius/wire.h"
#include "net/buffer_pool.h"
#include "net/wire.h"
#include "paxos/wire.h"
#include "raft/node.h"
#include "raft/wire.h"
#include "raftstar/wire.h"
#include "scripted_env.h"

namespace praft {
namespace {

// ---------------------------------------------------------------------------
// Randomized message generators. Every field is drawn from the full domain
// the protocols use (negative sentinels included) so the round-trip property
// exercises sign handling, empty and non-empty vectors, and the value_size
// payload skip.
// ---------------------------------------------------------------------------

kv::Command rand_cmd(Rng& r) {
  kv::Command c;
  c.op = static_cast<kv::Op>(r.below(3));
  c.key = r.next();
  c.value = r.next();
  c.value_size = static_cast<uint32_t>(r.below(4097));
  c.client = static_cast<NodeId>(r.range(-1, 64));
  c.seq = r.next();
  return c;
}

std::vector<kv::Command> rand_cmds(Rng& r, size_t max_n = 4) {
  std::vector<kv::Command> out(r.below(max_n + 1));
  for (auto& c : out) c = rand_cmd(r);
  return out;
}

consensus::Snapshot rand_snap(Rng& r) {
  consensus::Snapshot s;
  s.last_index = r.range(0, 1 << 20);
  s.last_term = r.range(0, 1 << 10);
  s.state.applied_count = r.next();
  s.state.cells.resize(r.below(4));
  for (auto& cell : s.state.cells) {
    cell = kv::StoreImage::Cell{r.next(), r.next(), r.next()};
  }
  return s;
}

consensus::Ballot rand_ballot(Rng& r) {
  return consensus::Ballot{r.range(-1, 1 << 20),
                           static_cast<NodeId>(r.range(-1, 64))};
}

NodeId rand_node(Rng& r) { return static_cast<NodeId>(r.range(-1, 64)); }

// ---------------------------------------------------------------------------
// The tentpole property, checked three ways for every message m:
//   1. encode(m).size() == wire_size(m)  (the cost model bills exact bytes)
//   2. decode(encode(m)) == m            (the frame is lossless)
//   3. the registry round-trip through std::any agrees with (2)
// ---------------------------------------------------------------------------

template <typename Msg, typename Enc, typename Dec>
void expect_roundtrip(const Msg& m, Enc enc, Dec dec, net::BufferPool& pool) {
  const size_t claimed = wire_size(m);
  const net::Frame f = enc(m, pool);
  ASSERT_EQ(f.size(), claimed) << "encoded size != wire_size";
  const Msg back = dec(net::view(f));
  EXPECT_TRUE(m == back) << "decode(encode(m)) != m";

  const net::Codec* codec = net::codec_registry().find(std::any(m));
  ASSERT_NE(codec, nullptr);
  const net::Frame rf = codec->encode(std::any(m), pool);
  ASSERT_EQ(rf.size(), claimed);
  EXPECT_TRUE(codec->equals(std::any(m), codec->decode(net::view(rf))));
}

TEST(WireRoundTrip, Raft) {
  using namespace praft::raft;
  Rng r(101);
  net::BufferPool pool;
  for (int it = 0; it < 50; ++it) {
    auto e = [&] { return Entry{r.range(0, 999), rand_cmd(r)}; };
    std::vector<Entry> entries(r.below(4));
    for (auto& x : entries) x = e();
    const Message msgs[] = {
        Message{RequestVote{r.range(0, 999), rand_node(r), r.range(0, 999),
                            r.range(0, 999)}},
        Message{VoteReply{r.range(0, 999), rand_node(r), r.chance(0.5)}},
        Message{AppendEntries{r.range(0, 999), rand_node(r), r.range(0, 999),
                              r.range(0, 999), entries, r.range(0, 999)}},
        Message{AppendReply{r.range(0, 999), rand_node(r), r.chance(0.5),
                            r.range(0, 999), r.range(0, 999)}},
        Message{InstallSnapshot{r.range(0, 999), rand_node(r), rand_snap(r)}},
        Message{InstallSnapshotReply{r.range(0, 999), rand_node(r),
                                     r.range(0, 999)}},
    };
    for (const Message& m : msgs) expect_roundtrip(m, &encode, &decode, pool);
  }
}

TEST(WireRoundTrip, RaftStar) {
  using namespace praft::raftstar;
  Rng r(202);
  net::BufferPool pool;
  for (int it = 0; it < 50; ++it) {
    std::vector<Entry> entries(r.below(4));
    for (auto& x : entries) x = Entry{r.range(0, 999), rand_cmd(r)};
    VoteReply vr;
    vr.term = r.range(0, 999);
    vr.voter = rand_node(r);
    vr.granted = r.chance(0.5);
    vr.log_bal = r.range(-1, 999);
    vr.extra_from = r.range(0, 999);
    vr.extras = entries;
    vr.has_snap = r.chance(0.5);
    if (vr.has_snap) vr.snap = rand_snap(r);
    AppendReply ar;
    ar.term = r.range(0, 999);
    ar.follower = rand_node(r);
    ar.ok = r.chance(0.5);
    ar.match_index = r.range(0, 999);
    ar.follower_last = r.range(0, 999);
    ar.conflict_hint = r.range(0, 999);
    ar.piggyback_ids.resize(r.below(4));
    for (auto& id : ar.piggyback_ids) id = rand_node(r);
    const Message msgs[] = {
        Message{RequestVote{r.range(0, 999), rand_node(r), r.range(0, 999),
                            r.range(0, 999)}},
        Message{vr},
        Message{AppendEntries{r.range(0, 999), rand_node(r), r.range(0, 999),
                              r.range(0, 999), entries, r.range(0, 999)}},
        Message{ar},
        Message{InstallSnapshot{r.range(0, 999), rand_node(r), rand_snap(r)}},
        Message{InstallSnapshotReply{r.range(0, 999), rand_node(r),
                                     r.range(0, 999)}},
    };
    for (const Message& m : msgs) expect_roundtrip(m, &encode, &decode, pool);
  }
}

TEST(WireRoundTrip, Paxos) {
  using namespace praft::paxos;
  Rng r(303);
  net::BufferPool pool;
  for (int it = 0; it < 50; ++it) {
    PrepareOk pok;
    pok.bal = rand_ballot(r);
    pok.sender = rand_node(r);
    pok.accepted.resize(r.below(4));
    for (auto& a : pok.accepted) {
      a = AcceptedVal{r.range(0, 999), rand_ballot(r), rand_cmd(r)};
    }
    pok.has_snap = r.chance(0.5);
    if (pok.has_snap) pok.snap = rand_snap(r);
    const Message msgs[] = {
        Message{Prepare{rand_ballot(r), rand_node(r), r.range(1, 999)}},
        Message{pok},
        Message{AcceptBatch{rand_ballot(r), rand_node(r), r.range(0, 999),
                            rand_cmds(r), r.range(0, 999)}},
        Message{AcceptOkBatch{rand_ballot(r), rand_node(r), r.range(0, 999),
                              r.range(0, 999)}},
        Message{Reject{rand_ballot(r), rand_node(r)}},
        Message{Heartbeat{rand_ballot(r), rand_node(r), r.range(0, 999)}},
        Message{LearnRequest{rand_node(r), r.range(0, 999), r.range(0, 999)}},
        Message{LearnValues{rand_node(r), r.range(0, 999), rand_cmds(r)}},
        Message{SnapshotTransfer{rand_node(r), rand_snap(r)}},
    };
    for (const Message& m : msgs) expect_roundtrip(m, &encode, &decode, pool);
  }
}

TEST(WireRoundTrip, Mencius) {
  using namespace praft::mencius;
  Rng r(404);
  net::BufferPool pool;
  for (int it = 0; it < 50; ++it) {
    auto items = [&] {
      std::vector<OwnItem> out(r.below(4));
      for (auto& x : out) x = OwnItem{r.range(0, 999), rand_cmd(r)};
      return out;
    };
    auto indexes = [&] {
      std::vector<consensus::LogIndex> out(r.below(4));
      for (auto& x : out) x = r.range(0, 999);
      return out;
    };
    LearnVals lv;
    lv.from = rand_node(r);
    lv.slots.resize(r.below(4));
    for (auto& s : lv.slots) {
      s = SlotInfo{r.range(0, 999), r.chance(0.5), rand_cmd(r)};
    }
    RevPrepareOk rpo;
    rpo.from = rand_node(r);
    rpo.bal = rand_ballot(r);
    rpo.accepted.resize(r.below(4));
    for (auto& a : rpo.accepted) {
      a = RevAccepted{r.range(0, 999), rand_ballot(r), r.chance(0.5),
                      r.chance(0.5), rand_cmd(r)};
    }
    const Message msgs[] = {
        Message{AcceptOwn{rand_node(r), items(), r.range(0, 999),
                          r.range(-1, 999)}},
        Message{AcceptOwnOk{rand_node(r), indexes()}},
        Message{AcceptOwnRej{rand_node(r), indexes(), r.range(0, 999)}},
        Message{SkipRange{rand_node(r), r.range(0, 999), r.range(0, 999)}},
        Message{StatusBeat{rand_node(r), r.range(0, 999), r.range(0, 999),
                           r.range(-1, 999)}},
        Message{LearnReq{rand_node(r), r.range(0, 999), r.range(0, 999)}},
        Message{lv},
        Message{RevPrepare{rand_node(r), rand_ballot(r), rand_node(r),
                           r.range(0, 999), r.range(0, 999)}},
        Message{rpo},
        Message{RevAccept{rand_node(r), rand_ballot(r), items()}},
        Message{RevAcceptOk{rand_node(r), rand_ballot(r), indexes()}},
        Message{SnapshotXfer{rand_node(r), rand_snap(r)}},
    };
    for (const Message& m : msgs) expect_roundtrip(m, &encode, &decode, pool);
  }
}

TEST(WireRoundTrip, HarnessAndLease) {
  Rng r(505);
  net::BufferPool pool;
  for (int it = 0; it < 50; ++it) {
    const harness::Message hmsgs[] = {
        harness::Message{harness::ClientRequest{rand_cmd(r)}},
        harness::Message{harness::ClientReply{r.next(), r.next(),
                                              r.chance(0.5), rand_node(r)}},
        harness::Message{harness::Forward{rand_cmd(r), rand_node(r)}},
        harness::Message{harness::ForwardReply{rand_cmd(r), r.next(),
                                               r.chance(0.5)}},
    };
    for (const auto& m : hmsgs) {
      expect_roundtrip(m, &harness::encode, &harness::decode, pool);
    }
    const lease::Message lmsgs[] = {
        lease::Message{lease::Grant{rand_node(r), rand_node(r),
                                    r.range(0, 1 << 30)}},
        lease::Message{lease::GrantAck{rand_node(r), r.range(0, 1 << 30)}},
    };
    for (const auto& m : lmsgs) {
      expect_roundtrip(m, &lease::encode, &lease::decode, pool);
    }
  }
}

// kv::Command::operator== deliberately ignores value_size (two puts with the
// same token are the same op for agreement checking), so the lossless-frame
// property above cannot see a value_size corruption. Check it explicitly:
// the modeled payload size must survive the round trip — it is what the
// byte-accurate cost model bills for.
TEST(WireRoundTrip, ValueSizeSurvivesExactly) {
  net::BufferPool pool;
  for (uint32_t vs : {0u, 8u, 100u, 4096u}) {
    kv::Command c;
    c.op = kv::Op::kPut;
    c.key = 7;
    c.value = 9;
    c.value_size = vs;
    c.client = 3;
    c.seq = 11;
    const harness::Message m{harness::ClientRequest{c}};
    const net::Frame f = harness::encode(m, pool);
    EXPECT_EQ(f.size(), harness::wire_size(m));
    const auto back = harness::decode(net::view(f));
    const auto& req = std::get<harness::ClientRequest>(back);
    EXPECT_EQ(req.cmd.value_size, vs);
  }
}

TEST(WireRegistry, EveryFamilyInstalled) {
  auto& reg = net::codec_registry();
  for (net::Family fam :
       {net::Family::kRaft, net::Family::kRaftStar, net::Family::kMultiPaxos,
        net::Family::kMencius, net::Family::kHarness, net::Family::kLease}) {
    EXPECT_NE(reg.find(fam), nullptr)
        << "family " << static_cast<int>(fam) << " missing";
  }
  EXPECT_EQ(reg.find(std::any(42)), nullptr);  // foreign payloads: no codec
}

TEST(WireFrame, HeaderFieldsAreFixedOffset) {
  net::BufferPool pool;
  const raft::Message m{raft::VoteReply{5, 2, true}};
  const net::Frame f = raft::encode(m, pool);
  EXPECT_EQ(net::frame_family(net::view(f)), net::Family::kRaft);
  EXPECT_EQ(net::frame_opcode(net::view(f)), 1);  // variant alternative index
  // Total length is patched into the header at finish().
  const uint8_t* d = f.data();
  const uint32_t len = static_cast<uint32_t>(d[net::kOffLength]) |
                       (static_cast<uint32_t>(d[net::kOffLength + 1]) << 8) |
                       (static_cast<uint32_t>(d[net::kOffLength + 2]) << 16) |
                       (static_cast<uint32_t>(d[net::kOffLength + 3]) << 24);
  EXPECT_EQ(len, f.size());
}

// ---------------------------------------------------------------------------
// Buffer pool units: reuse, growth, exhaustion, reset.
// ---------------------------------------------------------------------------

TEST(BufferPool, SteadyStateReusesWithoutSlabAllocs) {
  net::BufferPool pool(/*frames=*/8, /*frame_capacity=*/256);
  for (int i = 0; i < 1000; ++i) {
    net::Frame f = pool.acquire(100);
    ASSERT_GE(f.capacity(), 100u);
  }  // each frame returns to the freelist at scope exit
  const net::PoolStats st = pool.stats();
  EXPECT_EQ(st.slab_allocs, 0u) << "steady state must not allocate";
  EXPECT_EQ(st.acquires, 1000u);
  EXPECT_EQ(st.reuses, 1000u);
  EXPECT_EQ(st.outstanding, 0u);
  EXPECT_EQ(st.high_water, 1u);
}

TEST(BufferPool, ExhaustionGrowsAndKeepsFramesStable) {
  net::BufferPool pool(/*frames=*/2, /*frame_capacity=*/64);
  std::vector<net::Frame> held;
  for (int i = 0; i < 10; ++i) held.push_back(pool.acquire(32));
  const net::PoolStats st = pool.stats();
  EXPECT_EQ(st.outstanding, 10u);
  EXPECT_EQ(st.high_water, 10u);
  EXPECT_EQ(st.slab_allocs, 8u);  // 2 preallocated + 8 grown on demand
  for (auto& f : held) {
    ASSERT_NE(f.data(), nullptr);
    f.data()[0] = 0xAB;  // every slab stays writable while held
  }
  held.clear();
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.free_frames(), 10u);  // grown slabs join the freelist
}

TEST(BufferPool, OversizedRequestGrowsSlab) {
  net::BufferPool pool(/*frames=*/2, /*frame_capacity=*/64);
  {
    net::Frame f = pool.acquire(5000);  // bigger than frame_capacity
    EXPECT_GE(f.capacity(), 5000u);
  }
  EXPECT_GE(pool.stats().slab_grows, 1u);
  // The grown slab is reused at its grown capacity: no second grow.
  const uint64_t grows = pool.stats().slab_grows;
  { net::Frame f = pool.acquire(5000); }
  EXPECT_EQ(pool.stats().slab_grows, grows);
}

TEST(BufferPool, ResetRestoresPreallocationAndClearsStats) {
  net::BufferPool pool(/*frames=*/4, /*frame_capacity=*/64);
  { net::Frame f = pool.acquire(32); }
  pool.reset();
  const net::PoolStats st = pool.stats();
  EXPECT_EQ(st.acquires, 0u);
  EXPECT_EQ(st.reuses, 0u);
  EXPECT_EQ(st.outstanding, 0u);
  EXPECT_EQ(pool.free_frames(), 4u);
}

TEST(BufferPool, ResetWithOutstandingFramesIsAnError) {
  net::BufferPool pool(/*frames=*/2, /*frame_capacity=*/64);
  net::Frame f = pool.acquire(32);
  EXPECT_THROW(pool.reset(), CheckFailure);
}

// ---------------------------------------------------------------------------
// Batcher: byte-budget expedite, note_acked clamp, and the epoch/cancel guard.
// ---------------------------------------------------------------------------

consensus::TimingOptions batch_opt() {
  consensus::TimingOptions o;
  o.batch_delay = msec(5);
  o.batch_flush_bytes = 1000;
  return o;
}

TEST(Batcher, FlushesOnceAfterDelay) {
  test::ScriptedEnv env;
  int flushes = 0;
  consensus::Batcher b(env, batch_opt(), [&] { ++flushes; });
  b.add_pending(10);
  b.add_pending(10);  // second submit rides the same armed flush
  EXPECT_EQ(b.pending_bytes(), 20u);
  env.advance(msec(4));
  EXPECT_EQ(flushes, 0);
  env.advance(msec(2));
  EXPECT_EQ(flushes, 1);
  EXPECT_EQ(b.pending_bytes(), 0u);
  EXPECT_EQ(b.inflight_bytes(), 20u);
  // note_acked clamps: over-reporting (snapshot jumps) cannot wedge it.
  b.note_acked(1 << 30);
  EXPECT_EQ(b.inflight_bytes(), 0u);
}

TEST(Batcher, ByteBudgetExpeditesFlush) {
  test::ScriptedEnv env;
  int flushes = 0;
  consensus::Batcher b(env, batch_opt(), [&] { ++flushes; });
  b.add_pending(400);
  b.add_pending(700);  // crosses batch_flush_bytes=1000: expedite to now
  env.advance(0);
  EXPECT_EQ(flushes, 1);
  EXPECT_EQ(b.expedited_flushes(), 1u);
  // The abandoned delay timer fires later but its epoch is stale: no double
  // flush, and nothing pending gets lost.
  env.advance(msec(10));
  EXPECT_EQ(flushes, 1);
}

TEST(Batcher, CancelInvalidatesArmedFlush) {
  test::ScriptedEnv env;
  int flushes = 0;
  consensus::Batcher b(env, batch_opt(), [&] { ++flushes; });
  b.add_pending(10);
  b.cancel();  // deposed leader / crashed node
  env.advance(msec(50));
  EXPECT_EQ(flushes, 0);
  EXPECT_EQ(b.pending_bytes(), 0u);
  // The batcher is reusable after a cancel (re-elected leader).
  b.add_pending(10);
  env.advance(msec(10));
  EXPECT_EQ(flushes, 1);
}

// Regression for the deposed-leader race: a Raft leader arms a batched
// flush, is deposed before the delay elapses, and the stale flush must not
// replicate against the new term's state.
TEST(Batcher, DeposedRaftLeaderFlushIsInert) {
  test::ScriptedEnv env;
  raft::Options opt;
  opt.election_timeout_min = msec(150);
  opt.election_timeout_max = msec(300);
  opt.heartbeat_interval = msec(40);
  opt.batch_delay = msec(5);
  consensus::Group g;
  g.self = 0;
  g.members = {0, 1, 2};
  raft::RaftNode node(g, env, opt);
  node.start();
  env.advance(msec(400));  // election timeout: candidate at some term t
  ASSERT_EQ(node.role(), raft::Role::kCandidate);
  const consensus::Term t = node.current_term();
  node.on_packet(net::Packet{
      1, 0, 0, std::any(raft::Message{raft::VoteReply{t, 1, true}})});
  ASSERT_TRUE(node.is_leader());
  ASSERT_GE(node.submit(kv::Command{kv::Op::kPut, 1, 2, 8, 3, 4}), 0);
  env.clear();
  // Higher-term append deposes the leader while its flush is still armed.
  raft::AppendEntries ae;
  ae.term = t + 1;
  ae.leader = 2;
  ae.prev_index = 0;
  ae.prev_term = 0;
  ae.commit = 0;
  node.on_packet(net::Packet{2, 0, 0, std::any(raft::Message{ae})});
  ASSERT_FALSE(node.is_leader());
  env.clear();
  env.advance(msec(20));  // past the armed batch_delay
  for (const auto& sent : env.outbox) {
    const auto* m = std::any_cast<raft::Message>(&sent.payload);
    ASSERT_TRUE(m == nullptr ||
                !std::holds_alternative<raft::AppendEntries>(*m))
        << "stale flush replicated after deposition";
  }
}

// ---------------------------------------------------------------------------
// End-to-end: a chaos run with PRAFT_WIRE_VERIFY on round-trips every frame
// the simulated network carries and cross-checks it against the original
// struct. Any drift between wire_size(), encode(), and decode() aborts.
// ---------------------------------------------------------------------------

TEST(WireVerify, ChaosSmokeAllProtocols) {
  const bool prev = net::wire_verify_enabled();
  net::set_wire_verify(true);
  for (const char* protocol : {"raft", "raftstar", "multipaxos", "mencius"}) {
    chaos::RunOptions opt;
    opt.protocol = protocol;
    opt.seed = 3;
    const chaos::RunResult res = chaos::run_one(opt);
    EXPECT_TRUE(res.ok) << protocol << ": "
                        << (res.violations.empty() ? "?" : res.violations[0]);
    EXPECT_GT(res.client_ops, 0u);
  }
  net::set_wire_verify(prev);
}

}  // namespace
}  // namespace praft
