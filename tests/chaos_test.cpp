#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/runner.h"
#include "chaos/schedule_gen.h"
#include "consensus/registry.h"

namespace praft::chaos {
namespace {

TEST(ScheduleGenTest, DeterministicPerSeed) {
  const Schedule a = generate_schedule(42);
  const Schedule b = generate_schedule(42);
  EXPECT_EQ(a.describe(), b.describe());
  // Different seeds diverge (with overwhelming probability for this pair).
  const Schedule c = generate_schedule(43);
  EXPECT_NE(a.describe(), c.describe());
}

TEST(ScheduleGenTest, EventsRespectLimits) {
  ScheduleLimits lim;
  lim.faults_from = sec(2);
  lim.faults_until = sec(12);
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const Schedule s = generate_schedule(seed, lim);
    EXPECT_GE(static_cast<int>(s.events.size()), lim.min_events);
    EXPECT_LE(static_cast<int>(s.events.size()), lim.max_events);
    for (const FaultEvent& e : s.events) {
      EXPECT_GE(e.from, lim.faults_from);
      EXPECT_LE(e.to, lim.faults_until);
      EXPECT_LT(e.from, e.to);
    }
    EXPECT_LE(s.drop_rate, lim.max_drop_rate);
    EXPECT_LE(s.duplicate_rate, lim.max_duplicate_rate);
    EXPECT_LE(s.reorder_rate, lim.max_reorder_rate);
  }
}

TEST(ChaosRunnerTest, AllProtocolsSurviveASeedBatch) {
  for (const std::string& protocol : consensus::protocol_names()) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      RunOptions opt;
      opt.protocol = protocol;
      opt.seed = seed;
      const RunResult r = run_one(opt);
      EXPECT_TRUE(r.ok) << protocol << " seed " << seed << ": "
                        << (r.violations.empty() ? "?" : r.violations[0]);
      EXPECT_GT(r.log_length, 0) << protocol << " seed " << seed
                                 << " made no progress";
      EXPECT_GT(r.client_ops, 0u);
    }
  }
}

TEST(ChaosRunnerTest, DeterministicReplay) {
  RunOptions opt;
  opt.protocol = "raft";
  opt.seed = 17;
  const RunResult a = run_one(opt);
  const RunResult b = run_one(opt);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.log_length, b.log_length);
  EXPECT_EQ(a.client_ops, b.client_ops);
  EXPECT_EQ(a.schedule, b.schedule);
}

TEST(ChaosRunnerTest, InjectedQuorumBugIsCaughtWithin50Seeds) {
  // The acceptance bar: a deliberate "commit on n/2 acks" bug must be
  // caught — with a reported seed and trace — within 50 seeds, for every
  // protocol in the registry.
  for (const std::string& protocol : consensus::protocol_names()) {
    bool caught = false;
    for (uint64_t seed = 1; seed <= 50 && !caught; ++seed) {
      RunOptions opt;
      opt.protocol = protocol;
      opt.seed = seed;
      opt.inject_quorum_bug = true;
      const RunResult r = run_one(opt);
      if (!r.ok) {
        caught = true;
        EXPECT_FALSE(r.violations.empty());
        EXPECT_FALSE(r.trace.empty());
        EXPECT_NE(r.repro.find("--inject-quorum-bug"), std::string::npos);
      }
    }
    EXPECT_TRUE(caught) << protocol
                        << ": quorum bug survived 50 fuzzing seeds";
  }
}

TEST(ChaosRunnerTest, ReproCarriesReplicaCount) {
  // A repro line must replay the same world: a 3-replica run replayed on the
  // default 5 replicas would expand the seed into a different schedule.
  RunOptions opt;
  opt.protocol = "raft";
  opt.seed = 3;
  opt.num_replicas = 3;
  EXPECT_NE(run_one(opt).repro.find(" --replicas=3"), std::string::npos);
  opt.num_replicas = 5;  // the default stays implicit
  EXPECT_EQ(run_one(opt).repro.find("--replicas"), std::string::npos);
}

/// Applies every whitespace-separated token of `flags` to a default run.
RunOptions parse_flags(const std::string& flags) {
  RunOptions out;
  std::istringstream in(flags);
  for (std::string token; in >> token;) {
    std::string error;
    EXPECT_TRUE(apply_run_flag(token, &out, &error)) << error;
  }
  return out;
}

void expect_same_flags(const RunOptions& a, const RunOptions& b) {
  EXPECT_EQ(a.num_replicas, b.num_replicas);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.compaction_log_cap, b.compaction_log_cap);
  EXPECT_EQ(a.crash_restarts, b.crash_restarts);
  EXPECT_EQ(a.inject_quorum_bug, b.inject_quorum_bug);
  EXPECT_EQ(a.inject_persistence_bug, b.inject_persistence_bug);
  EXPECT_EQ(a.wan, b.wan);
}

TEST(RunFlagsTest, EveryFlagRoundTrips) {
  EXPECT_EQ(run_flags(RunOptions{}), "");
  RunOptions all;
  all.num_replicas = 7;
  all.groups = 3;
  all.compaction_log_cap = 64;
  all.crash_restarts = true;
  all.inject_quorum_bug = true;
  all.inject_persistence_bug = true;
  all.wan = true;
  // The order saved corpus and failure files use.
  EXPECT_EQ(run_flags(all),
            " --compaction-cap=64 --restarts --inject-quorum-bug "
            "--inject-persistence-bug --wan --groups=3 --replicas=7");
  expect_same_flags(parse_flags(run_flags(all)), all);

  // Each flag alone, including a non-default replica count below the
  // default.
  RunOptions one;
  one.num_replicas = 3;
  EXPECT_EQ(run_flags(one), " --replicas=3");
  expect_same_flags(parse_flags(run_flags(one)), one);
  const std::vector<bool RunOptions::*> bools = {
      &RunOptions::crash_restarts, &RunOptions::inject_quorum_bug,
      &RunOptions::inject_persistence_bug, &RunOptions::wan};
  for (bool RunOptions::*field : bools) {
    RunOptions b;
    b.*field = true;
    expect_same_flags(parse_flags(run_flags(b)), b);
  }
}

TEST(RunFlagsTest, RejectsBadTokensNamingThem) {
  for (const std::string token :
       {"--groups=0", "--replicas=1", "--compaction-cap=abc",
        "--compaction-cap=-1", "--groups", "--wan=1", "--no-such-flag"}) {
    RunOptions opt;
    std::string error;
    EXPECT_FALSE(apply_run_flag(token, &opt, &error)) << token;
    EXPECT_NE(error.find("'" + token + "'"), std::string::npos)
        << token << ": " << error;
    expect_same_flags(opt, RunOptions{});  // a rejected token changes nothing
  }
}

TEST(RunFlagsTest, ReproFlagsReplayTheSameRun) {
  RunOptions opt;
  opt.protocol = "raftstar";
  opt.seed = 4;
  opt.num_replicas = 3;
  opt.crash_restarts = true;
  opt.compaction_log_cap = 32;
  const RunResult r = run_one(opt);
  const std::string prefix = "chaos_runner --protocol=raftstar --seed=4";
  ASSERT_EQ(r.repro.rfind(prefix, 0), 0u) << r.repro;

  RunOptions replay = parse_flags(r.repro.substr(prefix.size()));
  replay.protocol = "raftstar";
  replay.seed = 4;
  expect_same_flags(replay, opt);
  EXPECT_EQ(run_one(replay).trace_fingerprint, r.trace_fingerprint);
}

TEST(ChaosRunnerTest, FingerprintsPinned) {
  // Trace fingerprints of one seed per protocol, flat, flat with
  // crash-restarts + compaction, and sharded over three groups. A refactor
  // that claims to leave chaos trajectories unchanged must leave these
  // values unchanged; a change that moves them on purpose updates them and
  // says why.
  struct Pin {
    const char* protocol;
    int mode;  // 0 flat, 1 flat + restarts + compaction cap 64, 2 groups=3
    uint64_t fingerprint;
  };
  const Pin pins[] = {
      {"mencius", 0, 0x573798b0e97a936cull},
      {"multipaxos", 0, 0x8fe178a29f5eb1ecull},
      {"raft", 0, 0x8c27a1cdb135be6aull},
      {"raftstar", 0, 0x774d06f9e3cedc0cull},
      {"mencius", 1, 0x6a11373a13c78926ull},
      {"multipaxos", 1, 0xe6d07f7fc27890d4ull},
      {"raft", 1, 0x9a72315ebb602079ull},
      {"raftstar", 1, 0xa62e8ee7a9b9aa72ull},
      {"mencius", 2, 0x0eb72a8e3e53ce57ull},
      {"multipaxos", 2, 0xea2c1a07b83d3a6aull},
      {"raft", 2, 0x58411070a42aae7dull},
      {"raftstar", 2, 0x10e1d5e84a4880edull},
  };
  for (const Pin& pin : pins) {
    RunOptions opt;
    opt.protocol = pin.protocol;
    opt.seed = 3;
    if (pin.mode == 1) {
      opt.crash_restarts = true;
      opt.compaction_log_cap = 64;
    }
    if (pin.mode == 2) opt.groups = 3;
    const RunResult r = run_one(opt);
    EXPECT_TRUE(r.ok) << pin.protocol << " mode " << pin.mode;
    EXPECT_EQ(r.trace_fingerprint, pin.fingerprint)
        << pin.protocol << " mode " << pin.mode;
  }
}

TEST(InvariantCheckerTest, FlagsDivergentCommandAtSameIndex) {
  InvariantChecker chk;
  kv::Command put;
  put.op = kv::Op::kPut;
  put.key = 1;
  put.value = 10;
  chk.on_apply(/*replica=*/0, 1, put);
  chk.on_apply(/*replica=*/1, 1, kv::noop_command());
  EXPECT_FALSE(chk.ok());
  ASSERT_FALSE(chk.violations().empty());
  EXPECT_NE(chk.violations()[0].find("agreement"), std::string::npos);
}

TEST(InvariantCheckerTest, FlagsNonContiguousApply) {
  InvariantChecker chk;
  chk.on_apply(0, 1, kv::noop_command());
  chk.on_apply(0, 3, kv::noop_command());  // hole: 2 skipped
  EXPECT_FALSE(chk.ok());
}

TEST(InvariantCheckerTest, FlagsCommitWatermarkRegression) {
  InvariantChecker chk;
  chk.on_watermark(0, /*commit=*/5, /*applied=*/5);
  chk.on_watermark(0, /*commit=*/3, /*applied=*/3);
  EXPECT_FALSE(chk.ok());
}

TEST(InvariantCheckerTest, CleanStreamPasses) {
  InvariantChecker chk;
  for (int r = 0; r < 3; ++r) {
    for (consensus::LogIndex i = 1; i <= 4; ++i) {
      kv::Command put;
      put.op = kv::Op::kPut;
      put.key = static_cast<uint64_t>(i);
      put.value = static_cast<uint64_t>(i) * 10;
      chk.on_apply(r, i, put);
      chk.on_watermark(r, i, i);
    }
  }
  EXPECT_TRUE(chk.ok());
  EXPECT_EQ(chk.max_applied(), 4);
}

}  // namespace
}  // namespace praft::chaos
