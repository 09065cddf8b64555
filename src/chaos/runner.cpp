#include "chaos/runner.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "chaos/invariants.h"
#include "harness/cluster.h"
#include "harness/log_server.h"
#include "shard/shard_invariants.h"

namespace praft::chaos {

namespace {

using Checkers = std::vector<std::unique_ptr<InvariantChecker>>;

/// Fault-free tail after the last fault window: clients drain, replicas
/// re-converge, then invariants are finalized.
constexpr Duration kQuiesce = sec(10);

/// Fault context into every group's trace: a machine fault concerns all of
/// them.
void note_all(Checkers& chks, const std::string& event) {
  for (auto& chk : chks) chk->note(event);
}

/// Machine currently hosting the most group leaders (flat: the leader
/// replica), or a deterministic fallback when nobody leads at this instant
/// (leaderless protocols, mid-election windows).
int resolve_leader(harness::Cluster& cluster, Time at) {
  std::vector<int> votes(static_cast<size_t>(cluster.num_machines()), 0);
  for (int g = 0; g < cluster.num_groups(); ++g) {
    const int l = cluster.leader_replica(g);
    if (l >= 0) ++votes[static_cast<size_t>(cluster.member_machine(g, l))];
  }
  int best = -1;
  for (int m = 0; m < cluster.num_machines(); ++m) {
    if (votes[static_cast<size_t>(m)] > 0 &&
        (best < 0 ||
         votes[static_cast<size_t>(m)] > votes[static_cast<size_t>(best)])) {
      best = m;
    }
  }
  if (best >= 0) return best;
  return static_cast<int>(static_cast<uint64_t>(at) %
                          static_cast<uint64_t>(cluster.num_machines()));
}

/// Installs one fault event. The schedule's replica indices name MACHINES
/// (flat: machine == replica), and each window applies to every replica
/// the machine hosts — with several groups one fault stresses all of them
/// at once. Node-targeted windows go straight into the FaultPlan;
/// leader-targeted windows arm a simulator callback that resolves the
/// victim when the window opens.
void arm_event(const FaultEvent& e, harness::Cluster& cluster, Checkers& chks) {
  auto& faults = cluster.net().faults();
  // Trace notes name what a schedule index denotes.
  const char* unit = cluster.num_groups() > 1 ? "machine" : "replica";
  // Host-based id lookup: valid even while replicas are crash-destroyed.
  const auto ids = [&cluster](int m) { return cluster.machine_node_ids(m); };
  // Cut every cross-machine pair: co-located replicas of DIFFERENT groups
  // never talk anyway, and same-machine traffic is untouched.
  const auto cut = [ids, &faults](int a, int b, Time from, Time to) {
    for (NodeId x : ids(a)) {
      for (NodeId y : ids(b)) faults.partition_pair(x, y, from, to);
    }
  };
  switch (e.kind) {
    case FaultEvent::Kind::kDropBurst:
      faults.drop_burst(e.p, e.from, e.to);
      return;
    case FaultEvent::Kind::kPartitionPair:
      cut(e.a, e.b, e.from, e.to);
      return;
    case FaultEvent::Kind::kIsolate:
      for (NodeId id : ids(e.a)) faults.isolate(id, e.from, e.to);
      return;
    case FaultEvent::Kind::kCrash:
      for (NodeId id : ids(e.a)) faults.crash(id, e.from, e.to);
      return;
    case FaultEvent::Kind::kCrashRestart: {
      // Real crash-recover: the node objects die at `from` (unsynced durable
      // writes lost with them) and are rebuilt from their durable images at
      // `to`.
      cluster.sim().at(e.from, [&cluster, &chks, e, unit] {
        if (!cluster.machine_up(e.a)) return;  // overlapping window
        char buf[128];
        std::snprintf(buf, sizeof(buf), "crash (destroy) -> %s %d (%s)", unit,
                      e.a, e.describe().c_str());
        note_all(chks, buf);
        cluster.crash_machine(e.a);
      });
      cluster.sim().at(e.to, [&cluster, e] { cluster.restart_machine(e.a); });
      return;
    }
    case FaultEvent::Kind::kLeaderCrash:
    case FaultEvent::Kind::kLeaderIsolate: {
      const bool is_crash = e.kind == FaultEvent::Kind::kLeaderCrash;
      cluster.sim().at(e.from, [&cluster, &chks, ids, e, is_crash, unit] {
        const int victim = resolve_leader(cluster, e.from);
        auto& plan = cluster.net().faults();
        for (NodeId id : ids(victim)) {
          if (is_crash) {
            plan.crash(id, e.from, e.to);
          } else {
            plan.isolate(id, e.from, e.to);
          }
        }
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s -> %s %d (%s)",
                      is_crash ? "leader_crash" : "leader_isolate", unit,
                      victim, e.describe().c_str());
        note_all(chks, buf);
      });
      return;
    }
    case FaultEvent::Kind::kLeaderMinority: {
      cluster.sim().at(e.from, [&cluster, &chks, cut, e, unit] {
        const int victim = resolve_leader(cluster, e.from);
        const int m = cluster.num_machines();
        const int kept = (victim + 1) % m;
        for (int p = 0; p < m; ++p) {
          if (p != victim && p != kept) cut(victim, p, e.from, e.to);
        }
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "leader_minority -> %s %d penned with %d (%s)", unit,
                      victim, kept, e.describe().c_str());
        note_all(chks, buf);
      });
      return;
    }
  }
}

/// Calls `f(text, field, min)` for every run flag, in the order run_flags
/// writes them (saved corpus and failure files use it). `field` points into
/// RunOptions; `min` is the smallest value a numeric flag accepts.
template <typename F>
void for_each_run_flag(F&& f) {
  f("--compaction-cap", &RunOptions::compaction_log_cap, 0);
  f("--restarts", &RunOptions::crash_restarts, 0);
  f("--inject-quorum-bug", &RunOptions::inject_quorum_bug, 0);
  f("--inject-persistence-bug", &RunOptions::inject_persistence_bug, 0);
  f("--wan", &RunOptions::wan, 0);
  f("--groups", &RunOptions::groups, 1);
  f("--replicas", &RunOptions::num_replicas, 2);
}

}  // namespace

std::string run_flags(const RunOptions& opt) {
  static const RunOptions kDefaults;
  std::string out;
  for_each_run_flag([&](const char* text, auto field, long) {
    if (opt.*field == kDefaults.*field) return;
    out += std::string(" ") + text;
    if constexpr (!std::is_same_v<decltype(field), bool RunOptions::*>) {
      out += '=' + std::to_string(opt.*field);
    }
  });
  return out;
}

bool apply_run_flag(const std::string& token, RunOptions* opt,
                    std::string* error) {
  const size_t eq = token.find('=');
  const char* value = eq == std::string::npos ? nullptr : &token[eq + 1];
  bool known = false;
  bool ok = false;
  for_each_run_flag([&](const char* text, auto field, long min) {
    if (token.compare(0, eq, text) != 0) return;
    known = true;
    using T = std::remove_reference_t<decltype(opt->*field)>;
    if constexpr (std::is_same_v<T, bool>) {
      ok = value == nullptr;
      if (ok) opt->*field = true;
    } else {
      char* end = nullptr;
      const long v = value != nullptr ? std::strtol(value, &end, 10) : 0;
      ok = value != nullptr && end != value && *end == '\0' && v >= min &&
           v <= INT32_MAX;
      if (ok) opt->*field = static_cast<T>(v);
    }
  });
  if (!ok) {
    *error = (known ? "bad value in run flag '" : "unknown flag '") + token +
             "'";
  }
  return ok;
}

ScheduleLimits effective_limits(const RunOptions& opt) {
  ScheduleLimits limits;
  limits.num_replicas = opt.num_replicas;
  if (opt.crash_restarts || opt.inject_persistence_bug) {
    limits.crash_restart = true;
  }
  if (opt.inject_persistence_bug) {
    // Guarantee election churn with a crash-restart landing inside it, so
    // the unsynced-vote window is exercised on every seed.
    limits.forced_crash_restarts = 2;
  }
  if (opt.inject_quorum_bug) {
    // Bug-hunting mode: guarantee the minority-pen scenario every seed so
    // the buggy n/2 commit both fires and gets overwritten. Still a pure
    // function of (seed, flags): the repro command carries the flag.
    limits.add_minority_window = true;
  }
  return limits;
}

Schedule schedule_of(const RunOptions& opt) {
  if (opt.schedule.has_value()) return *opt.schedule;
  return generate_schedule(opt.seed, effective_limits(opt));
}

uint64_t coverage_score(const RunResult& r) {
  return 3 * r.leader_changes + 5 * r.revocations +
         2 * r.snapshot_installs + 3 * r.restarts +
         2 * std::min<uint64_t>(r.pipeline_rollbacks, 10) +
         (r.log_length > 0 ? 1 : 0);
}

RunResult run_one(const RunOptions& opt) {
  RunResult res;
  res.protocol = opt.protocol;

  const ScheduleLimits limits = effective_limits(opt);
  const Schedule sched = schedule_of(opt);
  res.seed = sched.seed;
  res.schedule = sched.describe();
  // Run phases key off the end of the fault phase. An evolved (or
  // hand-edited) schedule may carry windows past the generator limits, so
  // the fault-free tail starts after the LAST window either way.
  Time faults_end = limits.faults_until;
  for (const FaultEvent& e : sched.events) {
    faults_end = std::max(faults_end, e.to);
  }
  res.repro = opt.schedule.has_value()
                  ? "chaos_runner --seed-file=<corpus> replaying this run's "
                    "schedule block (evolved schedules are not "
                    "seed-expressible; --failures-out saves the block)"
                  : "chaos_runner --protocol=" + opt.protocol + " --seed=" +
                        std::to_string(opt.seed) + run_flags(opt);
  const bool durability_armed =
      opt.crash_restarts || opt.inject_persistence_bug;
  const bool sharded = opt.groups > 1;

  // `groups` independent groups over `num_replicas` machines: every machine
  // hosts one replica of every group (flat: one group, machine == replica).
  harness::ClusterConfig cfg;
  cfg.num_replicas = opt.num_replicas;
  cfg.num_groups = opt.groups;
  cfg.seed = sched.seed;
  harness::Cluster cluster(cfg);

  // LAN-ish timing so one run fits in milliseconds of wall clock while the
  // schedule still spans many election timeouts and heartbeats.
  consensus::TimingOptions timing;
  timing.election_timeout_min = msec(300);
  timing.election_timeout_max = msec(600);
  timing.heartbeat_interval = msec(60);
  if (opt.wan) {
    // Paper-scale WAN timing over the (default) aws5 geo matrix: RTTs up to
    // 292 ms keep whole windows of batches in flight per peer, so drops,
    // reorders and restarts land mid-pipeline instead of between batches.
    timing.election_timeout_min = msec(1200);
    timing.election_timeout_max = msec(2400);
    timing.heartbeat_interval = msec(150);
  }
  if (opt.inject_quorum_bug) {
    // The classic quorum off-by-one: n/2 acks "commit" (2 of 5). A leader
    // on the minority side of a partition can then commit entries the next
    // leader never saw — exactly what the invariants must catch.
    timing.unsafe_commit_quorum = opt.num_replicas / 2;
  }
  timing.compaction_log_cap = opt.compaction_log_cap;
  if (durability_armed) {
    // Real fsync costs open a genuine staged-but-unsynced window; group
    // commit keeps the run fast the same way production systems do.
    timing.fsync_duration = opt.fsync;
    timing.sync_batch_delay = opt.sync_batch;
  }
  if (opt.inject_persistence_bug) timing.unsafe_skip_vote_fsync = true;
  cluster.build_replicas(opt.protocol, timing);

  // One full InvariantChecker per group — group logs are independent, so
  // agreement/watermark/linearizability state must not mix — plus the
  // cross-group checker watching the seams between groups.
  Checkers chks;
  shard::CrossGroupChecker xchk(cluster.map());
  for (int g = 0; g < cluster.num_groups(); ++g) {
    chks.push_back(std::make_unique<InvariantChecker>());
    InvariantChecker& chk = *chks.back();
    chk.attach(cluster, g);
    // The group's apply probe feeds both checkers (replaces attach's).
    cluster.install_apply_probe(
        [&chk, &xchk, g](NodeId r, consensus::LogIndex i,
                         const kv::Command& c) {
          chk.on_apply(r, i, c);
          xchk.on_apply(g, r, i, c);
        },
        g);
  }
  // Replies are checked against the owning group's agreed log.
  cluster.install_reply_probe([&chks, &cluster](const kv::Command& cmd,
                                                uint64_t value, bool ok, Time,
                                                Time) {
    chks[static_cast<size_t>(cluster.map().owner_of(cmd.key))]->on_reply(
        cmd, value, ok);
  });

  if (opt.compaction_log_cap > 0) {
    // Bounded memory: sample each replica's compactable tail between events
    // throughout the run (the trigger runs synchronously on apply paths, so
    // the cap must hold whenever the simulator is between handlers).
    const Time end = faults_end + sec(1) + kQuiesce;
    for (auto& chk : chks) chk->set_memory_cap(opt.compaction_log_cap);
    for (Time t = msec(500); t < end; t += msec(500)) {
      cluster.sim().at(t, [&cluster, &chks] {
        for (int g = 0; g < cluster.num_groups(); ++g) {
          chks[static_cast<size_t>(g)]->sample_memory(cluster, g);
        }
      });
    }
  }

  // Coverage signal: leadership handoffs summed across groups, sampled
  // between events.
  uint64_t leader_changes = 0;
  if (!cluster.server(0).leaderless()) {
    auto last = std::make_shared<std::vector<int>>(
        static_cast<size_t>(cluster.num_groups()), -1);
    const Time end = faults_end + sec(1) + kQuiesce;
    for (Time t = msec(100); t < end; t += msec(100)) {
      cluster.sim().at(t, [&cluster, &leader_changes, last] {
        for (int g = 0; g < cluster.num_groups(); ++g) {
          const int now_leader = cluster.leader_replica(g);
          auto& prev = (*last)[static_cast<size_t>(g)];
          if (now_leader >= 0 && now_leader != prev) {
            if (prev >= 0) ++leader_changes;
            prev = now_leader;
          }
        }
      });
    }
  }

  auto& faults = cluster.net().faults();
  faults.set_drop_rate(sched.drop_rate);
  faults.set_duplicate_rate(sched.duplicate_rate);
  faults.set_reorder_rate(sched.reorder_rate);
  for (const FaultEvent& e : sched.events) arm_event(e, cluster, chks);

  // Warm-up: a stable leader per group (when the protocol has one) before
  // the fault windows open, mirroring the paper's testbed runs. Flat runs
  // vary the leader with the seed; sharded runs keep each group's
  // preferred leader (member 0), which spread placement puts on distinct
  // machines.
  if (!cluster.server(0).leaderless()) {
    const int preferred =
        sharded ? 0
                : static_cast<int>(sched.seed %
                                   static_cast<uint64_t>(opt.num_replicas));
    cluster.establish_leader(preferred, sec(10));
  } else {
    cluster.run_for(msec(500));
  }
  cluster.add_clients(sched.clients_per_region, sched.workload,
                      cluster.sim().now());

  // Chaos phase, then a fault-free tail: clients stop, replicas repair and
  // re-converge, invariants are finalized on the quiesced cluster.
  cluster.run_until(faults_end + sec(1));
  note_all(chks, "faults over; draining clients");
  cluster.stop_clients();
  cluster.run_for(kQuiesce);

  res.ok = xchk.ok();
  for (int g = 0; g < cluster.num_groups(); ++g) {
    InvariantChecker& chk = *chks[static_cast<size_t>(g)];
    chk.finalize(cluster, g);
    if (!chk.ok()) {
      res.ok = false;
      for (const std::string& v : chk.violations()) {
        res.violations.push_back(
            sharded ? "[group " + std::to_string(g) + "] " + v : v);
      }
      if (res.trace.empty()) res.trace = chk.trace();
    }
    res.log_length = std::max<int64_t>(res.log_length, chk.max_applied());
    res.client_ops += chk.client_ops();
    res.snapshot_installs += chk.snapshot_installs();
    res.restarts += chk.restarts();
    // Group-order fold (the identity for one group): rotate so "group 0
    // saw X" differs from "group 1 saw X" even when per-group fingerprints
    // collide pairwise.
    res.trace_fingerprint =
        (res.trace_fingerprint << 1 | res.trace_fingerprint >> 63) ^
        chk.fingerprint();
  }
  for (const std::string& v : xchk.violations()) {
    res.violations.push_back("[cross-group] " + v);
  }
  res.leader_changes = leader_changes;
  res.revocations = static_cast<uint64_t>(cluster.retired_revocations());
  res.pipeline_rollbacks =
      static_cast<uint64_t>(cluster.retired_pipeline_rollbacks());
  for (int g = 0; g < cluster.num_groups(); ++g) {
    for (int i = 0; i < cluster.num_replicas(); ++i) {
      if (!cluster.replica_up(i, g)) continue;
      const consensus::NodeIface& node = cluster.server(i, g).node_iface();
      res.revocations += static_cast<uint64_t>(node.revocations_started());
      res.pipeline_rollbacks +=
          static_cast<uint64_t>(node.pipeline_rollbacks());
    }
  }
  return res;
}

}  // namespace praft::chaos
