#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "consensus/group.h"
#include "consensus/timing.h"
#include "harness/client.h"
#include "harness/cost_model.h"
#include "harness/host.h"
#include "harness/metrics.h"
#include "harness/log_server.h"
#include "kv/workload.h"
#include "shard/router.h"
#include "shard/shard_map.h"
#include "sim/network.h"
#include "sim/resources.h"
#include "sim/simulator.h"
#include "storage/wal.h"

namespace praft::harness {

/// World configuration for one simulated deployment: `num_groups`
/// independent consensus groups of `num_replicas` members each, over
/// `num_machines` machines. The defaults are the paper's §5 testbed — one
/// group, one replica per region, each on its own machine, clients
/// co-located with their regional replica. More groups make the same world
/// a sharded one: the key space is hash-partitioned over the groups
/// (shard::ShardMap), and replicas co-located on one machine contend for
/// that machine's one serial CPU, so co-locating leaders costs real
/// throughput.
struct ClusterConfig {
  int num_replicas = 5;  // members per group
  int num_groups = 1;
  int num_machines = 0;  // 0: one machine per replica
  /// Placement: member j of group g sits on machine
  /// ((spread ? g : 0) + j * stride) mod M, stride = max(1, M / replicas).
  /// Spread (the default, Mencius-style balancing at the group level) lands
  /// consecutive groups' preferred leaders (member 0) on consecutive
  /// machines; co-located (the ablation baseline) piles them on machine 0.
  bool spread_leaders = true;
  std::vector<SiteId> replica_sites;  // machine m's site; default m mod sites
  sim::LatencyMatrix latency = sim::LatencyMatrix::aws5();
  /// Per-site egress bandwidth for REPLICA nodes, bytes/us (0 = unlimited).
  std::vector<double> replica_egress;
  CostModel costs;
  uint64_t seed = 1;
};

/// Builds and owns a full simulated deployment: simulator, network, machine
/// CPUs, every group's replica hosts + servers, and closed-loop clients.
/// Replicas are addressed by (member, group); the group defaults to 0, so a
/// one-group cluster reads as the flat replica set it is. Machine-level
/// crash/restart and fault targeting hit every replica a machine hosts.
class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);

  using ServerFactory = std::function<std::unique_ptr<LogServer>(
      NodeHost& host, const consensus::Group& group)>;

  /// Creates every group's replica nodes and starts their servers. Call
  /// exactly once, before anything else.
  void build_replicas(const ServerFactory& factory);

  /// Same, selecting the system by name at runtime: a registry protocol
  /// ("raft", "raftstar", "multipaxos", "mencius", or anything registered
  /// later) behind the LogServer adapter, or one of the lease systems over
  /// Raft* ("raftstar-pql", "raftstar-ll"; see pql::make_lease_server).
  /// Name-built replicas get a storage::DurableStore (owned by the cluster,
  /// so it survives node destruction) and support crash/restart.
  void build_replicas(const std::string& protocol,
                      const consensus::TimingOptions& timing = {}) {
    build_replicas(std::vector<std::string>{protocol}, timing);
  }
  /// Per-group protocols: group g runs protocols[g % size].
  void build_replicas(const std::vector<std::string>& protocols,
                      const consensus::TimingOptions& timing = {});

  // -- Topology -------------------------------------------------------------
  [[nodiscard]] int num_replicas() const { return cfg_.num_replicas; }
  [[nodiscard]] int num_groups() const { return cfg_.num_groups; }
  [[nodiscard]] int num_machines() const { return cfg_.num_machines; }
  /// Machine hosting member `j` of group `g` (the placement policy).
  [[nodiscard]] int member_machine(int g, int j) const;
  [[nodiscard]] int preferred_leader_machine(int g) const {
    return member_machine(g, 0);
  }
  /// Every replica endpoint on machine `m` (valid while crashed, too).
  [[nodiscard]] std::vector<NodeId> machine_node_ids(int m) const;
  [[nodiscard]] const shard::ShardMap& map() const { return map_; }
  [[nodiscard]] const std::string& protocol_of(int g) const {
    return group(g).protocol;
  }

  // -- Replicas -------------------------------------------------------------
  LogServer& server(int i, int g = 0) { return *group(g).servers[at(i)]; }
  /// False while a replica is crashed (between crash and restart).
  [[nodiscard]] bool replica_up(int i, int g = 0) const {
    return group(g).servers[at(i)] != nullptr;
  }
  /// Stable node id of a replica (valid even while it is down).
  [[nodiscard]] NodeId replica_id(int i, int g = 0) const {
    return group(g).hosts[at(i)]->id();
  }
  [[nodiscard]] storage::DurableStore& store_of(int i) {
    return *group(0).stores[at(i)];
  }
  /// Group 0's member template (self = kNoNode; members = node ids).
  [[nodiscard]] const consensus::Group& group_template() const {
    return group(0).members;
  }
  /// Member index currently leading group `g` (net-visible replicas only),
  /// or -1.
  [[nodiscard]] int leader_replica(int g = 0) const;
  /// Groups that have a leader now (leaderless protocols count as led).
  [[nodiscard]] int groups_led() const;

  /// Forces member `preferred` of every group to run for leadership and
  /// waits until every group leads (or `deadline` passes). Returns group
  /// 0's leader member index, or -1 on timeout.
  int establish_leader(int preferred, Duration deadline = sec(30));

  // -- Crash-restart (name-built replicas only) ----------------------------
  /// Destroys one replica's server and protocol node NOW: scheduled
  /// callbacks are invalidated, in-flight deliveries drop, and every staged
  /// write that no completed fsync covered is lost — exactly a power cut.
  /// The durable store survives. No-op on a replica already down.
  void crash_replica(int i, int g = 0);
  /// Rebuilds one replica purely from its durable image (hard state +
  /// snapshot + WAL replay) and starts it. Crashes it first if still up.
  void restart_replica(int i, int g = 0);
  /// Power-cuts machine `m`: every replica it hosts, of every group.
  void crash_machine(int m);
  /// True while any replica machine `m` hosts is up.
  [[nodiscard]] bool machine_up(int m) const;
  /// Rebuilds every crashed replica hosted on machine `m`.
  void restart_machine(int m);
  [[nodiscard]] int64_t restarts() const { return restarts_; }
  /// Revocation counters of destroyed node incarnations, accumulated at
  /// crash time so restart-heavy runs keep their full coverage signal
  /// (a rebuilt node's own counter restarts at zero).
  [[nodiscard]] int64_t retired_revocations() const {
    return retired_revocations_;
  }
  /// Same crash-time banking for replication-pipeline window rollbacks
  /// (rejects + loss probes) — the chaos coverage signal for schedules that
  /// force in-flight batches to unwind.
  [[nodiscard]] int64_t retired_pipeline_rollbacks() const {
    return retired_pipeline_rollbacks_;
  }

  // -- Clients --------------------------------------------------------------
  /// Adds `per_region` closed-loop clients next to every machine, starting
  /// at `start_at`. Each machine's clients draw keys from that machine's
  /// partition of the key space. In the flat world (one group, one machine
  /// per replica) a client talks to its regional replica; otherwise every
  /// command is routed key -> owning group -> that group's preferred leader
  /// (member 0), and leader movement is absorbed by the server-side forward.
  void add_clients(int per_region, const kv::WorkloadConfig& wl, Time start_at);

  /// Creates an extra endpoint at `site` (tests drive hand-rolled clients).
  NodeHost& make_host(SiteId site) {
    client_hosts_.push_back(std::make_unique<NodeHost>(sim_, net_, site));
    return *client_hosts_.back();
  }

  /// Stops all clients (used by tests to let the cluster quiesce).
  void stop_clients() {
    for (auto& c : clients_) c->stop();
  }
  [[nodiscard]] uint64_t client_retries() const;

  // -- Trace hooks (chaos/invariant checking), per group -------------------
  /// Observes every (replica, index, command) apply in group `g`. Returns
  /// the number of live replicas hooked. Call after build_replicas.
  using ApplyProbe =
      std::function<void(NodeId, consensus::LogIndex, const kv::Command&)>;
  int install_apply_probe(ApplyProbe probe, int g = 0);

  /// Observes every replica's (commit, applied) watermark advance.
  using WatermarkProbe =
      std::function<void(NodeId, consensus::LogIndex commit,
                         consensus::LogIndex applied)>;
  int install_watermark_probe(WatermarkProbe probe, int g = 0);

  /// Observes every snapshot install: (replica, covered last index, store
  /// fingerprint after the restore).
  using SnapshotProbe =
      std::function<void(NodeId, consensus::LogIndex, uint64_t store_fp)>;
  int install_snapshot_probe(SnapshotProbe probe, int g = 0);

  /// Observes the hard state each protocol message depended on, at the
  /// moment the message leaves its replica (see storage::Persister). The
  /// chaos checker pairs it with the restart probe to assert recovered
  /// nodes never regress externally-visible term/ballot/vote state.
  using HardStateProbe =
      std::function<void(NodeId, const consensus::HardState&)>;
  int install_hard_state_probe(HardStateProbe probe, int g = 0);

  /// Observes every completed restart: the recovered hard state, what the
  /// recovery replayed, and the applied index right after it.
  using RestartProbe = std::function<void(
      NodeId, const consensus::HardState& recovered,
      const storage::RecoveryStats& stats, consensus::LogIndex applied)>;
  void set_restart_probe(RestartProbe probe, int g = 0) {
    group(g).restart_probe = std::move(probe);
  }

  /// Observes every client-visible (invocation, response) pair across all
  /// groups (map().owner_of(cmd.key) names the group): installed on
  /// existing clients and on any client added later.
  void install_reply_probe(ClosedLoopClient::ReplyProbe probe);

  // -- Run control ----------------------------------------------------------
  void run_until(Time t) { sim_.run_until(t); }
  void run_for(Duration d) { sim_.run_for(d); }
  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  Metrics& metrics() { return metrics_; }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

 private:
  struct Group {
    std::vector<std::unique_ptr<NodeHost>> hosts;
    std::vector<std::unique_ptr<LogServer>> servers;
    std::vector<std::unique_ptr<storage::DurableStore>> stores;
    consensus::Group members;  // self = kNoNode; members = node ids
    std::string protocol;      // system name; empty when factory-built
    // Probes, re-applied to every restarted incarnation.
    ApplyProbe apply_probe;
    WatermarkProbe watermark_probe;
    SnapshotProbe snapshot_probe;
    HardStateProbe hard_state_probe;
    RestartProbe restart_probe;
  };

  static size_t at(int i) { return static_cast<size_t>(i); }
  Group& group(int g) { return groups_[at(g)]; }
  [[nodiscard]] const Group& group(int g) const { return groups_[at(g)]; }
  void build_hosts();
  std::unique_ptr<LogServer> make_named_server(int i, int g);
  /// Applies group `g`'s stored probes to one replica (idempotent
  /// overwrites) — the ONE wrapper implementation, shared by
  /// install_*_probe on live replicas and restart_replica on rebuilt ones.
  void install_probes_on(int i, int g);
  int reinstall_probes(int g);

  ClusterConfig cfg_;
  sim::Simulator sim_;
  sim::Network net_;
  Metrics metrics_;
  shard::ShardMap map_;
  std::vector<std::unique_ptr<sim::SerialResource>> machine_cpus_;
  std::vector<Group> groups_;
  /// Client routes: one per machine in the flat world (its regional
  /// replica), else one shared key -> group -> member-0 route.
  std::vector<shard::ShardRouter> routers_;
  std::vector<std::unique_ptr<NodeHost>> client_hosts_;
  std::vector<std::unique_ptr<ClosedLoopClient>> clients_;
  ClosedLoopClient::ReplyProbe reply_probe_;
  consensus::TimingOptions timing_;  // name-built, retained for restarts
  int64_t restarts_ = 0;
  int64_t retired_revocations_ = 0;
  int64_t retired_pipeline_rollbacks_ = 0;
};

}  // namespace praft::harness
