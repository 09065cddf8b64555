// Seeded fault-schedule fuzzer for every registered consensus protocol.
//
//   chaos_runner --protocol=raft --seed=42          # replay one run
//   chaos_runner --protocol=all --seeds=200         # fuzz the 4x matrix
//   chaos_runner --protocol=raft --seeds=50 --inject-quorum-bug
//   chaos_runner --protocol=all --seeds=50 --compaction-cap=64
//   chaos_runner --protocol=all --seeds=200 --restarts   # crash-restart faults
//   chaos_runner --protocol=raft --seeds=50 --inject-persistence-bug
//   chaos_runner --protocol=all --seeds=50 --groups=3    # sharded: 3 groups
//   chaos_runner --protocol=all --seeds=50 --verify-determinism
//       # run every seed twice; coverage counters + trace fingerprints must
//       # match exactly (runtime backstop for praft_lint's D1/D2 rules)
//   chaos_runner --seed-file=chaos_failures.txt     # replay saved runs
//   chaos_runner --seeds=200 --restarts --corpus-out=tools/chaos_corpus.txt
//   chaos_runner --protocol=all --evolve=4 --restarts
//       --seed-file=tools/chaos_corpus.txt --corpus-out=tools/chaos_corpus.txt
//
// Each failure prints the seed, the schedule, the violated invariants, the
// recent event trace, and the exact repro command. Exit status is the number
// of failing runs, capped at 99 (2 = bad usage, including malformed numeric
// flag values).
//
// Run flags (the RunOptions ones) have one grammar, chaos::run_flags /
// chaos::apply_run_flag (src/chaos/runner.h), shared by argv, seed-file
// lines, corpus schedule headers and repro lines.
//
// --seed-file replays an explicit list instead of a contiguous range. Two
// entry forms coexist: one run per line, either "<seed>" (run under
// --protocol) or "<protocol> <seed>", optionally followed by run flags that
// add to the argv ones — and multi-line "schedule <protocol> [flags] { ... }"
// blocks holding an explicit evolved schedule (see src/chaos/mutator.h for
// the block grammar). '#' starts a comment. --failures-out and --corpus-out
// both write this format, so any saved run replays under the exact
// configuration it was found with.
//
// --evolve=N runs the coverage-guided evolution loop instead of a flat
// batch: the population seeds from --seed-file (if given) plus fresh random
// schedules, every run is scored with the harness coverage counters (leader
// changes, revocations, snapshot installs, restarts), and the top scorers
// are kept/mutated for N generations. Fresh candidates run under the argv
// run flags, seed-file entries and their offspring under their own;
// --corpus-out persists the elite population as schedule blocks.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/mutator.h"
#include "chaos/runner.h"
#include "consensus/registry.h"

using namespace praft;

namespace {

struct CliOptions {
  std::string protocol = "all";
  uint64_t seed = 1;
  int seeds = 1;
  /// Run flags from argv: the template every planned run starts from (a
  /// seed-file entry adds its own flags on top).
  chaos::RunOptions run;
  bool verbose = false;
  bool verify_determinism = false;
  bool stop_on_failure = false;
  std::string failures_out;
  std::string seed_file;
  std::string corpus_out;
  size_t corpus_size = 16;
  int evolve = 0;  // generations; 0 = flat batch mode
  int population = 16;
  int elite = 4;
};

bool parse_flag(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

// Numeric flag values parse with end-pointer checks: `--seeds=abc` must be
// a usage error (exit 2), not a silent zero-run batch that exits green.
bool parse_u64_value(const char* v, uint64_t* out) {
  if (v == nullptr || *v == '\0') return false;
  char* end = nullptr;
  *out = std::strtoull(v, &end, 10);
  return end != v && *end == '\0' && *v != '-';
}

bool parse_int_value(const char* v, int* out) {
  if (v == nullptr || *v == '\0') return false;
  char* end = nullptr;
  const long wide = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || wide < INT32_MIN || wide > INT32_MAX) {
    return false;
  }
  *out = static_cast<int>(wide);
  return true;
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--protocol=NAME|all] [--seed=N] [--seeds=K] [--replicas=N]\n"
      "          [--inject-quorum-bug] [--compaction-cap=N] [--restarts]\n"
      "          [--inject-persistence-bug] [--wan] [--groups=N] [--verbose]\n"
      "          [--verify-determinism] [--stop-on-failure]\n"
      "          [--failures-out=PATH] [--seed-file=PATH]\n"
      "          [--corpus-out=PATH] [--corpus-size=N]\n"
      "          [--evolve=GENERATIONS] [--population=N] [--elite=N]\n"
      "protocols: all",
      argv0);
  for (const auto& name : consensus::protocol_names()) {
    std::fprintf(stderr, ", %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

void print_failure(const chaos::RunResult& r) {
  std::printf("FAIL protocol=%s seed=%llu\n", r.protocol.c_str(),
              static_cast<unsigned long long>(r.seed));
  std::printf("  schedule: %s\n", r.schedule.c_str());
  for (const auto& v : r.violations) {
    std::printf("  invariant violated: %s\n", v.c_str());
  }
  std::printf("  trace (last %zu events):\n", r.trace.size());
  for (const auto& t : r.trace) std::printf("    %s\n", t.c_str());
  std::printf("  repro: %s\n", r.repro.c_str());
}

/// Every RunResult field --verify-determinism compares besides `ok`, as
/// (name, value) pairs in the order --verbose prints them.
std::vector<std::pair<std::string, std::string>> compared_fields(
    const chaos::RunResult& r) {
  char fp[20];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(r.trace_fingerprint));
  return {{"log", std::to_string(r.log_length)},
          {"client_ops", std::to_string(r.client_ops)},
          {"snapshots", std::to_string(r.snapshot_installs)},
          {"restarts", std::to_string(r.restarts)},
          {"leader_changes", std::to_string(r.leader_changes)},
          {"revocations", std::to_string(r.revocations)},
          {"rollbacks", std::to_string(r.pipeline_rollbacks)},
          {"fp", fp}};
}

/// Writes one replayable entry — a "<protocol> <seed> [flags]" line or a
/// schedule block — with `comment` on the line (or a line of its own ahead
/// of a block, since blocks span lines).
void write_entry(std::FILE* f, const chaos::RunOptions& run,
                 const std::string& comment) {
  const std::string flags = chaos::run_flags(run);
  if (run.schedule.has_value()) {
    if (!comment.empty()) std::fprintf(f, "# %s\n", comment.c_str());
    std::fprintf(
        f, "%s",
        chaos::serialize_schedule(*run.schedule, run.protocol + flags).c_str());
  } else {
    std::fprintf(f, "%s %llu%s%s%s\n", run.protocol.c_str(),
                 static_cast<unsigned long long>(run.seed), flags.c_str(),
                 comment.empty() ? "" : "  # ", comment.c_str());
  }
}

/// Parses --seed-file: bare seed / "<protocol> <seed>" lines with optional
/// run flags, plus "schedule <protocol> [flags] { ... }" blocks. Each entry
/// starts from the argv run flags and adds its own. Returns false (after
/// printing the offending line) on malformed input.
bool load_seed_file(const CliOptions& cli,
                    const std::vector<std::string>& protocols,
                    std::vector<chaos::RunOptions>* planned) {
  std::ifstream in(cli.seed_file);
  if (!in) {
    std::fprintf(stderr, "cannot read seed file %s\n", cli.seed_file.c_str());
    return false;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  const auto& registry = consensus::ProtocolRegistry::instance();
  for (size_t pos = 0; pos < lines.size();) {
    const int lineno = static_cast<int>(pos) + 1;
    const auto bad = [&cli, lineno](const std::string& what) {
      std::fprintf(stderr, "%s:%d: %s\n", cli.seed_file.c_str(), lineno,
                   what.c_str());
      return false;
    };
    std::string stripped = lines[pos];
    if (const size_t hash = stripped.find('#'); hash != std::string::npos) {
      stripped.resize(hash);
    }
    std::istringstream ls(stripped);
    std::string first;
    if (!(ls >> first)) {  // blank / comment-only line
      ++pos;
      continue;
    }
    // Every entry form leaves `ls` at its run flags.
    chaos::RunOptions run = cli.run;
    std::vector<std::string> names;  // the protocols this entry runs under
    if (first == "schedule") {
      chaos::Schedule sched;
      std::string header;
      std::string error;
      if (!chaos::parse_schedule(lines, &pos, &sched, &header, &error)) {
        return bad(error);
      }
      ls.clear();
      ls.str(header);
      std::string protocol;
      if (!(ls >> protocol) || !registry.contains(protocol)) {
        return bad("schedule block needs a registered protocol after "
                   "'schedule' (got '" + header + "')");
      }
      names.push_back(protocol);
      run.seed = sched.seed;
      run.schedule = std::move(sched);
    } else {
      if (registry.contains(first)) {
        std::string seed_tok;
        if (!(ls >> seed_tok) ||
            !parse_u64_value(seed_tok.c_str(), &run.seed)) {
          return bad("protocol '" + first + "' without a valid seed");
        }
        names.push_back(first);
      } else if (parse_u64_value(first.c_str(), &run.seed)) {
        names = protocols;  // bare seed: run it under the --protocol selection
      } else {
        return bad("'" + first +
                   "' is neither a registered protocol nor a seed");
      }
      ++pos;
    }
    for (std::string token; ls >> token;) {
      std::string error;
      if (!chaos::apply_run_flag(token, &run, &error)) return bad(error);
    }
    if (run.schedule.has_value()) {
      // An event naming a replica the replaying cluster does not have must
      // be a clean usage error, not an out-of-bounds crash mid-batch.
      for (const chaos::FaultEvent& e : run.schedule->events) {
        if (e.a >= run.num_replicas || e.b >= run.num_replicas) {
          return bad("event targets replica " +
                     std::to_string(std::max(e.a, e.b)) +
                     " but the cluster has " +
                     std::to_string(run.num_replicas) +
                     " replicas (replay with a bigger --replicas)");
        }
      }
    }
    for (const std::string& name : names) {
      run.protocol = name;
      planned->push_back(run);
    }
  }
  return true;
}

/// The --evolve mode: population from the seed file + fresh randomness,
/// N generations of keep-the-top/mutate, elite corpus out.
int run_evolution(const CliOptions& cli,
                  const std::vector<std::string>& protocols,
                  const std::vector<chaos::RunOptions>& planned) {
  chaos::EvolveOptions eopt;
  eopt.generations = cli.evolve;
  eopt.population = cli.population;
  eopt.elite = cli.elite;
  eopt.rng_seed = cli.seed;
  eopt.protocols = protocols;
  eopt.base = cli.run;

  // Seed the population from --seed-file entries, each under its own flags
  // (kept by its offspring and written back with them); evolve expands seed
  // lines exactly as run_one would.
  std::vector<chaos::EvolveCandidate> seeds;
  for (const chaos::RunOptions& run : planned) seeds.push_back({run});

  // praft-lint: allow(D2 wall-clock is reporting-only; never in trajectories)
  const auto wall_start = std::chrono::steady_clock::now();
  const chaos::EvolveStats stats = chaos::evolve(eopt, std::move(seeds));
  for (const chaos::RunResult& r : stats.failures) print_failure(r);
  if (!cli.failures_out.empty() && !stats.failures.empty()) {
    // Evolved failures are only replayable as schedule blocks: persist the
    // exact run each failure executed.
    std::FILE* ff = std::fopen(cli.failures_out.c_str(), "w");
    if (ff == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", cli.failures_out.c_str());
      return 2;
    }
    for (size_t i = 0; i < stats.failed_candidates.size(); ++i) {
      const std::string violated = stats.failures[i].violations.empty()
                                       ? "?"
                                       : stats.failures[i].violations.front();
      write_entry(ff, stats.failed_candidates[i].run, "FAIL: " + violated);
    }
    std::fclose(ff);
  }

  for (size_t g = 0; g < stats.generation_mean.size(); ++g) {
    std::printf("evolve: gen %zu archive mean cov %.1f\n", g,
                stats.generation_mean[g]);
  }
  if (!cli.corpus_out.empty() && !stats.population.empty()) {
    std::FILE* cf = std::fopen(cli.corpus_out.c_str(), "w");
    if (cf == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", cli.corpus_out.c_str());
      return 2;
    }
    std::fprintf(cf,
                 "# chaos corpus: elite population of %d-generation "
                 "evolution (%zu schedules)\n",
                 cli.evolve, stats.population.size());
    // Every argv run flag shapes the evolved population, so the regenerate
    // line carries all of them.
    std::fprintf(cf,
                 "# regenerate: chaos_runner --protocol=%s --evolve=%d "
                 "--population=%d --elite=%d --seed=%llu%s "
                 "--corpus-out=<this file>\n",
                 cli.protocol.c_str(), cli.evolve, cli.population, cli.elite,
                 static_cast<unsigned long long>(cli.seed),
                 chaos::run_flags(cli.run).c_str());
    for (const chaos::EvolveCandidate& c : stats.population) {
      char comment[32];
      std::snprintf(comment, sizeof(comment), "cov=%llu",
                    static_cast<unsigned long long>(c.score));
      write_entry(cf, c.run, comment);
    }
    std::fclose(cf);
    std::printf("corpus: wrote %zu evolved schedules to %s\n",
                stats.population.size(), cli.corpus_out.c_str());
  }
  const double elapsed =
      // praft-lint: allow(D2 wall-clock is reporting-only; not in trajectories)
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const int failures = static_cast<int>(stats.failures.size());
  std::printf(
      "evolve: %llu runs over %d generation(s) in %.1fs, elite mean cov "
      "%.1f best %llu, %d failure(s)\n",
      static_cast<unsigned long long>(stats.runs), cli.evolve, elapsed,
      stats.mean_score, static_cast<unsigned long long>(stats.best_score),
      failures);
  return failures > 99 ? 99 : failures;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    std::string run_error;
    if (chaos::apply_run_flag(argv[i], &cli.run, &run_error)) continue;
    const char* v = nullptr;
    bool ok = true;
    if (parse_flag(argv[i], "--protocol", &v) && v != nullptr) {
      cli.protocol = v;
    } else if (parse_flag(argv[i], "--seed", &v) && v != nullptr) {
      ok = parse_u64_value(v, &cli.seed);
    } else if (parse_flag(argv[i], "--seeds", &v) && v != nullptr) {
      ok = parse_int_value(v, &cli.seeds) && cli.seeds >= 1;
    } else if (parse_flag(argv[i], "--corpus-out", &v) && v != nullptr) {
      cli.corpus_out = v;
    } else if (parse_flag(argv[i], "--corpus-size", &v) && v != nullptr) {
      uint64_t size = 0;
      ok = parse_u64_value(v, &size) && size >= 1;
      cli.corpus_size = static_cast<size_t>(size);
    } else if (parse_flag(argv[i], "--seed-file", &v) && v != nullptr) {
      cli.seed_file = v;
    } else if (parse_flag(argv[i], "--evolve", &v) && v != nullptr) {
      ok = parse_int_value(v, &cli.evolve) && cli.evolve >= 1;
    } else if (parse_flag(argv[i], "--population", &v) && v != nullptr) {
      ok = parse_int_value(v, &cli.population) && cli.population >= 2;
    } else if (parse_flag(argv[i], "--elite", &v) && v != nullptr) {
      ok = parse_int_value(v, &cli.elite) && cli.elite >= 1;
    } else if (parse_flag(argv[i], "--verify-determinism", &v)) {
      cli.verify_determinism = true;
    } else if (parse_flag(argv[i], "--verbose", &v)) {
      cli.verbose = true;
    } else if (parse_flag(argv[i], "--stop-on-failure", &v)) {
      cli.stop_on_failure = true;
    } else if (parse_flag(argv[i], "--failures-out", &v) && v != nullptr) {
      cli.failures_out = v;
    } else {
      std::fprintf(stderr, "%s\n", run_error.c_str());
      usage(argv[0]);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "invalid value in '%s'\n", argv[i]);
      usage(argv[0]);
      return 2;
    }
  }
  if (cli.elite >= cli.population) {
    std::fprintf(stderr, "--elite must be smaller than --population\n");
    return 2;
  }
  if (cli.verify_determinism && cli.evolve > 0) {
    std::fprintf(stderr,
                 "--verify-determinism applies to flat / seed-file batches, "
                 "not --evolve\n");
    return 2;
  }

  std::vector<std::string> protocols;
  if (cli.protocol == "all") {
    protocols = consensus::protocol_names();
  } else if (consensus::ProtocolRegistry::instance().contains(cli.protocol)) {
    protocols.push_back(cli.protocol);
  } else {
    std::fprintf(stderr, "unknown protocol '%s'\n", cli.protocol.c_str());
    usage(argv[0]);
    return 2;
  }

  // Resolve the run list: either the contiguous --seed/--seeds range, or an
  // explicit seed file (e.g. a saved --failures-out / --corpus-out file).
  std::vector<chaos::RunOptions> planned;
  if (!cli.seed_file.empty()) {
    if (!load_seed_file(cli, protocols, &planned)) return 2;
  } else if (cli.evolve == 0) {
    chaos::RunOptions run = cli.run;
    for (const auto& protocol : protocols) {
      run.protocol = protocol;
      for (int k = 0; k < cli.seeds; ++k) {
        run.seed = cli.seed + static_cast<uint64_t>(k);
        planned.push_back(run);
      }
    }
  }

  if (cli.evolve > 0) return run_evolution(cli, protocols, planned);

  struct CorpusEntry {
    uint64_t score = 0;
    chaos::RunOptions run;
  };
  std::vector<CorpusEntry> corpus;

  std::FILE* failures_file = nullptr;
  if (!cli.failures_out.empty()) {
    failures_file = std::fopen(cli.failures_out.c_str(), "w");
    if (failures_file == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", cli.failures_out.c_str());
      return 2;
    }
  }

  // praft-lint: allow(D2 wall-clock is reporting-only; never in trajectories)
  const auto wall_start = std::chrono::steady_clock::now();
  int failures = 0;
  uint64_t runs = 0;
  for (const chaos::RunOptions& run : planned) {
    const chaos::RunResult r = chaos::run_one(run);
    ++runs;
    if (cli.verbose) {
      std::printf("%s protocol=%s seed=%llu", r.ok ? "ok  " : "FAIL",
                  r.protocol.c_str(), static_cast<unsigned long long>(r.seed));
      for (const auto& [name, value] : compared_fields(r)) {
        std::printf(" %s=%s", name.c_str(), value.c_str());
      }
      std::printf("\n");
    }
    bool deterministic = true;
    if (cli.verify_determinism) {
      // The cheap runtime backstop for what praft_lint's D1/D2 rules guard
      // statically: the same (protocol, seed, options) must reproduce the
      // exact observation stream. Any divergence — unordered-container
      // iteration leaking into emission, a stray wall-clock read — shows up
      // as a coverage-counter or trace-fingerprint mismatch on the rerun.
      const chaos::RunResult r2 = chaos::run_one(run);
      ++runs;
      const auto fields = compared_fields(r);
      const auto fields2 = compared_fields(r2);
      deterministic = r2.ok == r.ok && fields2 == fields;
      if (!deterministic) {
        std::printf("NONDETERMINISTIC protocol=%s seed=%llu: ok=%d/%d",
                    r.protocol.c_str(), static_cast<unsigned long long>(r.seed),
                    r.ok ? 1 : 0, r2.ok ? 1 : 0);
        for (size_t f = 0; f < fields.size(); ++f) {
          std::printf(" %s=%s/%s", fields[f].first.c_str(),
                      fields[f].second.c_str(), fields2[f].second.c_str());
        }
        std::printf("\n");
      }
    }
    if (!cli.corpus_out.empty() && r.ok && deterministic) {
      corpus.push_back(CorpusEntry{chaos::coverage_score(r), run});
    }
    if (!r.ok || !deterministic) {
      ++failures;
      if (!r.ok) print_failure(r);
      if (failures_file != nullptr) {
        // Flags ride along so --seed-file replays the exact configuration
        // the run failed under.
        write_entry(failures_file, run,
                    !r.ok ? "repro: " + r.repro
                          : "NONDETERMINISTIC: divergent rerun");
        std::fflush(failures_file);
      }
      if (cli.stop_on_failure) break;
    }
  }
  if (failures_file != nullptr) std::fclose(failures_file);
  if (!cli.corpus_out.empty()) {
    // Persist the top-coverage runs in the --seed-file format so a later
    // batch — or the --evolve mutator — replays exactly these runs. Dedupe
    // first: a seed file that repeats an entry must not waste elite slots.
    std::set<std::string> seen;
    std::vector<CorpusEntry> unique;
    for (CorpusEntry& ce : corpus) {
      if (seen.insert(chaos::run_key(ce.run)).second) {
        unique.push_back(std::move(ce));
      }
    }
    corpus = std::move(unique);
    std::stable_sort(corpus.begin(), corpus.end(),
                     [](const CorpusEntry& a, const CorpusEntry& b) {
                       return a.score > b.score;
                     });
    if (corpus.size() > cli.corpus_size) corpus.resize(cli.corpus_size);
    std::FILE* cf = std::fopen(cli.corpus_out.c_str(), "w");
    if (cf == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", cli.corpus_out.c_str());
      return 2;
    }
    std::fprintf(cf, "# chaos corpus: top-%zu coverage runs of this batch\n",
                 corpus.size());
    for (const CorpusEntry& ce : corpus) {
      char comment[32];
      std::snprintf(comment, sizeof(comment), "cov=%llu",
                    static_cast<unsigned long long>(ce.score));
      write_entry(cf, ce.run, comment);
    }
    std::fclose(cf);
    std::printf("corpus: wrote top %zu runs to %s\n", corpus.size(),
                cli.corpus_out.c_str());
  }
  const double elapsed =
      // praft-lint: allow(D2 wall-clock is reporting-only; not in trajectories)
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  // Count the protocols actually run (a seed file may name a different set
  // than the --protocol selection).
  std::vector<std::string> ran;
  for (const chaos::RunOptions& run : planned) {
    if (std::find(ran.begin(), ran.end(), run.protocol) == ran.end()) {
      ran.push_back(run.protocol);
    }
  }
  std::printf("chaos: %llu runs (%zu protocol(s)) in %.1fs, %d failure(s)\n",
              static_cast<unsigned long long>(runs), ran.size(), elapsed,
              failures);
  return failures > 99 ? 99 : failures;
}
