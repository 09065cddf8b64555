#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/mutator.h"
#include "chaos/runner.h"
#include "chaos/schedule_gen.h"
#include "common/rng.h"

namespace praft::chaos {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void expect_events_in_bounds(const Schedule& s, const ScheduleLimits& lim,
                             const std::string& context) {
  for (const FaultEvent& e : s.events) {
    EXPECT_GE(e.from, lim.faults_from) << context << ": " << e.describe();
    EXPECT_LT(e.from, e.to) << context << ": " << e.describe();
    EXPECT_LE(e.to, lim.faults_until) << context << ": " << e.describe();
  }
}

// --- schedule generator property tests --------------------------------------

TEST(ScheduleGenPropertyTest, WindowBoundsHoldAcrossRandomizedLimits) {
  Rng meta(0xfeedface);
  for (int iter = 0; iter < 300; ++iter) {
    ScheduleLimits lim;
    lim.num_replicas = 2 + static_cast<int>(meta.below(5));
    lim.faults_from = msec(static_cast<int64_t>(meta.below(3000)));
    lim.faults_until =
        lim.faults_from + msec(1 + static_cast<int64_t>(meta.below(12000)));
    lim.min_events = 1 + static_cast<int>(meta.below(3));
    lim.max_events = lim.min_events + static_cast<int>(meta.below(5));
    lim.min_window = msec(10 + static_cast<int64_t>(meta.below(500)));
    lim.max_window =
        lim.min_window + msec(static_cast<int64_t>(meta.below(4000)));
    lim.add_minority_window = meta.chance(0.5);
    lim.crash_restart = meta.chance(0.5);
    lim.forced_crash_restarts = static_cast<int>(meta.below(4));
    const uint64_t seed = meta.next();

    const Schedule s = generate_schedule(seed, lim);
    expect_events_in_bounds(s, lim, "iter " + std::to_string(iter));
    // Pure function of (seed, limits).
    EXPECT_EQ(s.describe(), generate_schedule(seed, lim).describe());
  }
}

TEST(ScheduleGenPropertyTest, ForcedCrashPairsRespectTinyFaultWindows) {
  // Regression: the forced leader-crash event was pushed unguarded, so the
  // k-th pair (starting 3s deeper into the fault phase) emitted an inverted
  // window (`to < from`) whenever `faults_until` was small — leaking faults
  // into the documented fault-free re-convergence tail.
  ScheduleLimits lim;
  lim.faults_from = sec(2);
  lim.faults_until = sec(3);
  lim.crash_restart = true;
  lim.forced_crash_restarts = 3;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const Schedule s = generate_schedule(seed, lim);
    expect_events_in_bounds(s, lim, "seed " + std::to_string(seed));
  }
}

// --- serialization ----------------------------------------------------------

TEST(ScheduleTextTest, SerializeParseSerializeIsIdentity) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    ScheduleLimits lim;
    lim.crash_restart = (seed % 2) == 0;
    lim.forced_crash_restarts = static_cast<int>(seed % 3);
    const Schedule s = generate_schedule(seed, lim);
    const std::string text = serialize_schedule(s);

    const std::vector<std::string> lines = split_lines(text);
    size_t pos = 0;
    Schedule parsed;
    std::string header;
    std::string error;
    ASSERT_TRUE(parse_schedule(lines, &pos, &parsed, &header, &error))
        << error;
    EXPECT_EQ(pos, lines.size());
    EXPECT_TRUE(header.empty());
    EXPECT_EQ(serialize_schedule(parsed), text);
    EXPECT_EQ(parsed.describe(), s.describe());
  }
}

TEST(ScheduleTextTest, HeaderExtrasRoundTrip) {
  const Schedule s = generate_schedule(7);
  const std::string text = serialize_schedule(s, "mencius --restarts");
  size_t pos = 0;
  Schedule parsed;
  std::string header;
  std::string error;
  ASSERT_TRUE(parse_schedule(split_lines(text), &pos, &parsed, &header,
                             &error))
      << error;
  EXPECT_EQ(header, "mencius --restarts");
  EXPECT_EQ(serialize_schedule(parsed, header), text);
}

TEST(ScheduleTextTest, CommentsAndBlankLinesAreIgnored) {
  const Schedule s = generate_schedule(9);
  std::vector<std::string> lines = split_lines(serialize_schedule(s));
  lines.insert(lines.begin() + 1, "  # a comment");
  lines.insert(lines.begin() + 3, "");
  lines[lines.size() - 1] += "  # cov=42";
  size_t pos = 0;
  Schedule parsed;
  std::string header;
  std::string error;
  ASSERT_TRUE(parse_schedule(lines, &pos, &parsed, &header, &error)) << error;
  EXPECT_EQ(parsed.describe(), s.describe());
}

TEST(ScheduleTextTest, MalformedBlocksAreRejected) {
  Schedule out;
  std::string header;
  std::string error;
  const auto rejects = [&](std::vector<std::string> lines) {
    size_t pos = 0;
    const bool ok = parse_schedule(lines, &pos, &out, &header, &error);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(error.empty());
  };
  rejects({"schedule {", "bogus_key 1",
           "event crash a=0 from=1000 to=2000", "}"});
  rejects({"schedule {", "seed notanumber",
           "event crash a=0 from=1000 to=2000", "}"});
  rejects({"schedule {", "event not_a_kind from=1000 to=2000", "}"});
  rejects({"schedule {", "event crash a=0 from=2000 to=1000", "}"});
  rejects({"schedule {", "event crash a=0 from=-5 to=1000", "}"});
  rejects({"schedule {", "event crash a=-2 from=1000 to=2000", "}"});
  // A near-INT64_MAX window would overflow the runner's deadline math into
  // an instant bogus green; times are capped at parse.
  rejects({"schedule {",
           "event drop_burst p=0.3 from=3000000 to=9223372036854775000",
           "}"});
  rejects({"schedule {", "seed 1"});   // never closed
  rejects({"schedule {", "}"});        // no events
  rejects({"notschedule {", "}"});
}

// --- mutation operators -----------------------------------------------------

TEST(MutatorTest, MutationsAreDeterministicAndStayInBounds) {
  ScheduleLimits lim;
  lim.crash_restart = true;
  const Schedule base = generate_schedule(7, lim);
  Rng a(99);
  Rng b(99);
  Schedule m1 = base;
  Schedule m2 = base;
  for (int i = 0; i < 300; ++i) {
    m1 = mutate_schedule(m1, a, lim);
    m2 = mutate_schedule(m2, b, lim);
    expect_events_in_bounds(m1, lim, "mutation " + std::to_string(i));
    ASSERT_GE(m1.events.size(), 1u);
    ASSERT_LE(m1.events.size(), 12u);
    EXPECT_GE(m1.drop_rate, 0.0);
    EXPECT_LE(m1.drop_rate, lim.max_drop_rate);
    EXPECT_LE(m1.duplicate_rate, lim.max_duplicate_rate);
    EXPECT_LE(m1.reorder_rate, lim.max_reorder_rate);
    EXPECT_GE(m1.workload.read_fraction, 0.0);
    EXPECT_LE(m1.workload.read_fraction, 1.0);
  }
  // Same RNG stream, same inputs => bit-identical mutants.
  EXPECT_EQ(serialize_schedule(m1), serialize_schedule(m2));
  // And the walk actually went somewhere.
  EXPECT_NE(serialize_schedule(m1), serialize_schedule(base));
}

TEST(MutatorTest, EveryOperatorPreservesTheWindowPostcondition) {
  ScheduleLimits lim;
  lim.crash_restart = true;
  const MutationOp ops[] = {
      MutationOp::kShiftWindow,     MutationOp::kStretchWindow,
      MutationOp::kSplitWindow,     MutationOp::kSwapKind,
      MutationOp::kRetargetReplica, MutationOp::kPerturbRates,
      MutationOp::kPerturbWorkload, MutationOp::kAddEvent,
      MutationOp::kDropEvent,       MutationOp::kReseed,
  };
  Rng rng(1234);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Schedule s = generate_schedule(seed, lim);
    for (const MutationOp op : ops) {
      for (int rep = 0; rep < 10; ++rep) {
        s = apply_mutation(s, op, rng, lim);
        expect_events_in_bounds(s, lim, "op " + std::to_string(
                                            static_cast<int>(op)));
        ASSERT_GE(s.events.size(), 1u);
      }
    }
  }
}

TEST(MutatorTest, SpliceMixesParentsWithinBounds) {
  ScheduleLimits lim;
  lim.crash_restart = true;
  const Schedule a = generate_schedule(1, lim);
  const Schedule b = generate_schedule(2, lim);
  Rng r1(5);
  Rng r2(5);
  for (int i = 0; i < 100; ++i) {
    const Schedule c1 = splice_schedules(a, b, r1, lim);
    const Schedule c2 = splice_schedules(a, b, r2, lim);
    EXPECT_EQ(serialize_schedule(c1), serialize_schedule(c2));
    expect_events_in_bounds(c1, lim, "splice " + std::to_string(i));
    ASSERT_GE(c1.events.size(), 1u);
    ASSERT_LE(c1.events.size(), 12u);
  }
}

// --- explicit-schedule runs -------------------------------------------------

TEST(ScheduleRunTest, ExplicitScheduleMatchesSeedExpansion) {
  RunOptions seed_opt;
  seed_opt.protocol = "raft";
  seed_opt.seed = 5;
  const RunResult by_seed = run_one(seed_opt);

  RunOptions sched_opt = seed_opt;
  sched_opt.schedule = schedule_of(seed_opt);
  const RunResult by_schedule = run_one(sched_opt);

  EXPECT_EQ(by_seed.ok, by_schedule.ok);
  EXPECT_EQ(by_seed.schedule, by_schedule.schedule);
  EXPECT_EQ(by_seed.log_length, by_schedule.log_length);
  EXPECT_EQ(by_seed.client_ops, by_schedule.client_ops);
  EXPECT_EQ(by_seed.leader_changes, by_schedule.leader_changes);
  EXPECT_EQ(coverage_score(by_seed), coverage_score(by_schedule));
}

TEST(ScheduleRunTest, TextRoundTrippedScheduleReplaysIdentically) {
  RunOptions opt;
  opt.protocol = "multipaxos";
  opt.seed = 11;
  opt.crash_restarts = true;
  const Schedule original = schedule_of(opt);

  size_t pos = 0;
  Schedule parsed;
  std::string header;
  std::string error;
  ASSERT_TRUE(parse_schedule(split_lines(serialize_schedule(original)), &pos,
                             &parsed, &header, &error))
      << error;

  RunOptions a = opt;
  a.schedule = original;
  RunOptions b = opt;
  b.schedule = parsed;
  const RunResult ra = run_one(a);
  const RunResult rb = run_one(b);
  EXPECT_EQ(ra.ok, rb.ok);
  EXPECT_EQ(ra.log_length, rb.log_length);
  EXPECT_EQ(ra.client_ops, rb.client_ops);
  EXPECT_EQ(coverage_score(ra), coverage_score(rb));
}

// --- evolution --------------------------------------------------------------

TEST(EvolveTest, DeterministicAndBeatsRandomBaselineOnEqualBudget) {
  EvolveOptions eopt;
  eopt.generations = 4;
  eopt.population = 8;
  eopt.elite = 2;
  eopt.rng_seed = 5;
  eopt.protocols = {"raft"};
  eopt.base.protocol = "raft";
  eopt.base.crash_restarts = true;

  const EvolveStats evolved = evolve(eopt, {});
  EXPECT_EQ(evolved.runs, 8u + 4u * 6u);
  EXPECT_TRUE(evolved.failures.empty())
      << evolved.failures.front().violations.front();
  ASSERT_FALSE(evolved.population.empty());

  // Deterministic: the whole loop is a pure function of (options, seeds).
  const EvolveStats again = evolve(eopt, {});
  EXPECT_EQ(evolved.runs, again.runs);
  EXPECT_EQ(evolved.mean_score, again.mean_score);
  ASSERT_EQ(evolved.population.size(), again.population.size());
  for (size_t i = 0; i < evolved.population.size(); ++i) {
    EXPECT_EQ(run_key(evolved.population[i].run),
              run_key(again.population[i].run));
  }

  // Equal-budget baseline: the same number of pure random-seed runs, keeping
  // its top-`population` scores (exactly what --corpus-out would persist).
  std::vector<uint64_t> baseline;
  for (uint64_t seed = 1; seed <= evolved.runs; ++seed) {
    RunOptions opt = eopt.base;
    opt.seed = seed;
    const RunResult r = run_one(opt);
    if (r.ok) baseline.push_back(coverage_score(r));
  }
  std::sort(baseline.begin(), baseline.end(), std::greater<>());
  const size_t top = std::min<size_t>(baseline.size(),
                                      static_cast<size_t>(eopt.population));
  ASSERT_GT(top, 0u);
  const double baseline_mean =
      static_cast<double>(
          std::accumulate(baseline.begin(),
                          baseline.begin() + static_cast<ptrdiff_t>(top),
                          uint64_t{0})) /
      static_cast<double>(top);

  EXPECT_GE(evolved.mean_score, baseline_mean)
      << "evolved elite population should cover at least as much as the "
         "best-of-random baseline on the same run budget";
}

TEST(EvolveTest, SeededCorpusEntersTheInitialPopulation) {
  EvolveOptions eopt;
  eopt.generations = 1;
  eopt.population = 4;
  eopt.elite = 1;
  eopt.rng_seed = 3;
  eopt.protocols = {"raft"};
  eopt.base.protocol = "raft";

  EvolveCandidate seed_cand{eopt.base};
  seed_cand.run.seed = 42;

  const EvolveStats stats = evolve(eopt, {seed_cand});
  EXPECT_EQ(stats.runs, 4u + 3u);
  // The seeded schedule ran and is eligible for the archive; with only a
  // handful of candidates it should appear unless strictly outscored by
  // every other run.
  ASSERT_FALSE(stats.population.empty());
}

TEST(EvolveTest, SeedEntryFlagsRideThroughEvolution) {
  // A replayed corpus entry keeps the flags it was saved with: a 3-replica
  // run with the injected quorum bug must still run as one (and fail, as
  // it does when replayed alone), and the failure must come back with its
  // flags, not under the batch-wide defaults.
  EvolveOptions eopt;
  eopt.generations = 1;
  eopt.population = 3;
  eopt.elite = 2;
  eopt.rng_seed = 1;
  eopt.protocols = {"raft"};

  RunOptions buggy;
  buggy.protocol = "raft";
  buggy.seed = 3;
  buggy.num_replicas = 3;
  buggy.inject_quorum_bug = true;
  ASSERT_FALSE(run_one(buggy).ok);
  const EvolveStats stats = evolve(eopt, {EvolveCandidate{buggy}});
  ASSERT_FALSE(stats.failed_candidates.empty());
  const RunOptions& failed = stats.failed_candidates.front().run;
  ASSERT_TRUE(failed.schedule.has_value());
  EXPECT_EQ(serialize_schedule(*failed.schedule),
            serialize_schedule(schedule_of(buggy)));
  EXPECT_TRUE(failed.inject_quorum_bug);
  EXPECT_EQ(failed.num_replicas, 3);

  // Passing flagged entries (as many as the population, so no fresh
  // candidate joins) enter the archive with their flags, and the offspring
  // of the next generation inherit them.
  std::vector<EvolveCandidate> small_seeds;
  for (uint64_t seed : {3, 4}) {
    RunOptions small;
    small.protocol = "raft";
    small.seed = seed;
    small.num_replicas = 3;
    small_seeds.push_back(EvolveCandidate{small});
  }
  eopt.population = 2;
  eopt.elite = 1;
  eopt.generations = 2;
  const EvolveStats kept = evolve(eopt, small_seeds);
  EXPECT_EQ(kept.runs, 4u);
  EXPECT_TRUE(kept.failures.empty());
  ASSERT_FALSE(kept.population.empty());
  for (const EvolveCandidate& c : kept.population) {
    EXPECT_EQ(c.run.num_replicas, 3);
  }
}

}  // namespace
}  // namespace praft::chaos
