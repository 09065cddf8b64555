#include "harness/cluster.h"

#include <algorithm>

#include "common/check.h"
#include "pql/raftstar_pql.h"

namespace praft::harness {

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(std::move(cfg)), sim_(cfg_.seed), net_(sim_, cfg_.latency),
      map_(cfg_.num_groups) {
  PRAFT_CHECK(cfg_.num_replicas > 0);
  if (cfg_.num_machines == 0) cfg_.num_machines = cfg_.num_replicas;
  PRAFT_CHECK_MSG(cfg_.num_replicas <= cfg_.num_machines,
                  "each group member needs its own machine");
  if (cfg_.replica_sites.empty()) {
    for (int m = 0; m < cfg_.num_machines; ++m) {
      cfg_.replica_sites.push_back(
          static_cast<SiteId>(m % net_.latency().num_sites()));
    }
  }
  PRAFT_CHECK(static_cast<int>(cfg_.replica_sites.size()) ==
              cfg_.num_machines);
  groups_.resize(at(cfg_.num_groups));
}

int Cluster::member_machine(int g, int j) const {
  // Stride placement: consecutive members of one group land on machines a
  // stride apart, so a group's replica set spans the machine pool and
  // consecutive groups' preferred leaders (member 0) land on consecutive
  // machines. With M == R every machine hosts every group and the
  // preferred leader of group g is machine g mod M; one group on M == R
  // machines is the flat world, member j on machine j.
  const int m = cfg_.num_machines;
  const int stride = std::max(1, m / cfg_.num_replicas);
  const int base = cfg_.spread_leaders ? g : 0;
  return (base + j * stride) % m;
}

std::vector<NodeId> Cluster::machine_node_ids(int m) const {
  std::vector<NodeId> ids;
  for (int g = 0; g < num_groups(); ++g) {
    for (int j = 0; j < num_replicas(); ++j) {
      if (member_machine(g, j) == m) ids.push_back(replica_id(j, g));
    }
  }
  return ids;
}

void Cluster::build_hosts() {
  PRAFT_CHECK_MSG(routers_.empty(), "build_replicas called twice");
  for (int m = 0; m < num_machines(); ++m) {
    machine_cpus_.push_back(std::make_unique<sim::SerialResource>());
  }
  // Every group's hosts first, so member ids are known before any server
  // starts. Replicas co-located on one machine share its serial CPU and
  // site but keep distinct network endpoints (one process per group).
  for (int g = 0; g < num_groups(); ++g) {
    Group& grp = group(g);
    for (int j = 0; j < num_replicas(); ++j) {
      const int m = member_machine(g, j);
      const SiteId site = cfg_.replica_sites[at(m)];
      const double egress = at(site) < cfg_.replica_egress.size()
                                ? cfg_.replica_egress[at(site)]
                                : 0.0;
      grp.hosts.push_back(std::make_unique<NodeHost>(
          sim_, net_, site, egress, machine_cpus_[at(m)].get()));
      grp.members.members.push_back(grp.hosts.back()->id());
      grp.stores.push_back(std::make_unique<storage::DurableStore>());
    }
    grp.members.self = kNoNode;
  }
  const bool flat = num_groups() == 1 && num_machines() == num_replicas();
  for (int r = 0; r < (flat ? num_machines() : 1); ++r) {
    routers_.emplace_back(map_);
    for (int g = 0; g < num_groups(); ++g) {
      routers_.back().set_target(g, replica_id(flat ? r : 0, g));
    }
  }
}

void Cluster::build_replicas(const ServerFactory& factory) {
  build_hosts();
  for (int g = 0; g < num_groups(); ++g) {
    Group& grp = group(g);
    for (int j = 0; j < num_replicas(); ++j) {
      consensus::Group members = grp.members;
      members.self = replica_id(j, g);
      grp.servers.push_back(factory(*grp.hosts[at(j)], members));
      grp.servers.back()->start();
    }
  }
}

std::unique_ptr<LogServer> Cluster::make_named_server(int i, int g) {
  Group& grp = group(g);
  consensus::Group members = grp.members;
  members.self = replica_id(i, g);
  NodeHost& host = *grp.hosts[at(i)];
  storage::DurableStore* store = grp.stores[at(i)].get();
  if (auto lease = pql::make_lease_server(grp.protocol, host, members,
                                          cfg_.costs, timing_, store)) {
    return lease;
  }
  return std::make_unique<LogServer>(host, std::move(members), cfg_.costs,
                                     grp.protocol, timing_, store);
}

void Cluster::build_replicas(const std::vector<std::string>& protocols,
                             const consensus::TimingOptions& timing) {
  // An unknown name fails inside ProtocolRegistry::make with a message
  // listing the registered protocols (no duplicate pre-check here).
  PRAFT_CHECK(!protocols.empty());
  timing_ = timing;
  build_hosts();
  for (int g = 0; g < num_groups(); ++g) {
    Group& grp = group(g);
    grp.protocol = protocols[at(g) % protocols.size()];
    for (int j = 0; j < num_replicas(); ++j) {
      grp.servers.push_back(make_named_server(j, g));
      grp.servers.back()->start();
    }
  }
}

void Cluster::crash_replica(int i, int g) {
  PRAFT_CHECK(i >= 0 && i < num_replicas());
  PRAFT_CHECK_MSG(!protocol_of(g).empty(),
                  "crash/restart requires name-built replicas (durable store)");
  auto& server = group(g).servers[at(i)];
  if (server == nullptr) return;  // already down
  // The incarnation's coverage counters die with it; bank them first.
  retired_revocations_ += server->node_iface().revocations_started();
  retired_pipeline_rollbacks_ += server->node_iface().pipeline_rollbacks();
  NodeHost& host = *group(g).hosts[at(i)];
  // Order matters: first make every pending timer/fsync callback a no-op and
  // unbind in-flight deliveries, THEN free the node they capture.
  host.invalidate_scheduled();
  host.detach();
  server.reset();
  // A power cut loses every staged write no completed fsync covered.
  group(g).stores[at(i)]->drop_unsynced();
}

void Cluster::install_probes_on(int i, int g) {
  const Group& grp = group(g);
  LogServer& ls = *grp.servers[at(i)];
  if (grp.apply_probe) ls.set_apply_probe(grp.apply_probe);
  if (grp.snapshot_probe) ls.set_snapshot_probe(grp.snapshot_probe);
  const NodeId id = ls.id();
  if (grp.watermark_probe) {
    ls.node_iface().set_watermark_probe(
        [probe = grp.watermark_probe, id](consensus::LogIndex commit,
                                          consensus::LogIndex applied) {
          probe(id, commit, applied);
        });
  }
  if (grp.hard_state_probe) {
    ls.node_iface().set_hard_state_probe(
        [probe = grp.hard_state_probe, id](const consensus::HardState& hs) {
          probe(id, hs);
        });
  }
}

void Cluster::restart_replica(int i, int g) {
  PRAFT_CHECK(i >= 0 && i < num_replicas());
  if (replica_up(i, g)) crash_replica(i, g);
  Group& grp = group(g);
  grp.servers[at(i)] = make_named_server(i, g);
  install_probes_on(i, g);
  grp.servers[at(i)]->start();
  ++restarts_;
  if (grp.restart_probe) {
    const LogServer& ls = *grp.servers[at(i)];
    grp.restart_probe(ls.id(), ls.node_iface().hard_state(), ls.recovery(),
                      ls.node_iface().applied_index());
  }
}

void Cluster::crash_machine(int m) {
  for (int g = 0; g < num_groups(); ++g) {
    for (int j = 0; j < num_replicas(); ++j) {
      if (member_machine(g, j) == m) crash_replica(j, g);
    }
  }
}

bool Cluster::machine_up(int m) const {
  for (int g = 0; g < num_groups(); ++g) {
    for (int j = 0; j < num_replicas(); ++j) {
      if (member_machine(g, j) == m && replica_up(j, g)) return true;
    }
  }
  return false;
}

void Cluster::restart_machine(int m) {
  for (int g = 0; g < num_groups(); ++g) {
    for (int j = 0; j < num_replicas(); ++j) {
      if (member_machine(g, j) == m && !replica_up(j, g)) {
        restart_replica(j, g);
      }
    }
  }
}

void Cluster::add_clients(int per_region, const kv::WorkloadConfig& wl,
                          Time start_at) {
  PRAFT_CHECK_MSG(!routers_.empty(), "build replicas before clients");
  kv::WorkloadConfig cfg = wl;
  // Keys are pre-partitioned per client machine; with several groups the
  // hash map then spreads each partition's keys over every group, so all
  // groups see traffic from all machines.
  cfg.num_partitions = num_machines();
  for (int m = 0; m < num_machines(); ++m) {
    const SiteId site = cfg_.replica_sites[at(m)];
    const shard::ShardRouter& route =
        routers_.size() == 1 ? routers_.front() : routers_[at(m)];
    for (int c = 0; c < per_region; ++c) {
      client_hosts_.push_back(std::make_unique<NodeHost>(sim_, net_, site));
      kv::WorkloadGenerator gen(cfg, m, sim_.rng().split());
      ClosedLoopClient::Options copt;
      copt.start_at = start_at;
      clients_.push_back(std::make_unique<ClosedLoopClient>(
          *client_hosts_.back(), route, std::move(gen), metrics_, copt));
      if (reply_probe_) clients_.back()->set_reply_probe(reply_probe_);
      clients_.back()->start();
    }
  }
}

int Cluster::reinstall_probes(int g) {
  int hooked = 0;
  for (int j = 0; j < num_replicas(); ++j) {
    if (!replica_up(j, g)) continue;
    install_probes_on(j, g);
    ++hooked;
  }
  return hooked;
}

int Cluster::install_apply_probe(ApplyProbe probe, int g) {
  group(g).apply_probe = std::move(probe);
  return reinstall_probes(g);
}

int Cluster::install_watermark_probe(WatermarkProbe probe, int g) {
  group(g).watermark_probe = std::move(probe);
  return reinstall_probes(g);
}

int Cluster::install_snapshot_probe(SnapshotProbe probe, int g) {
  group(g).snapshot_probe = std::move(probe);
  return reinstall_probes(g);
}

int Cluster::install_hard_state_probe(HardStateProbe probe, int g) {
  group(g).hard_state_probe = std::move(probe);
  return reinstall_probes(g);
}

void Cluster::install_reply_probe(ClosedLoopClient::ReplyProbe probe) {
  reply_probe_ = std::move(probe);
  for (auto& c : clients_) c->set_reply_probe(reply_probe_);
}

int Cluster::establish_leader(int preferred, Duration deadline) {
  PRAFT_CHECK(preferred >= 0 && preferred < num_replicas());
  // Give each group's preferred replica a head start on everyone's election
  // timers, all in parallel: the groups are independent, so N elections
  // cost one election's simulated time.
  for (int g = 0; g < num_groups(); ++g) {
    sim_.after(msec(1), [this, g, preferred] {
      if (replica_up(preferred, g)) server(preferred, g).trigger_election();
    });
  }
  const Time limit = sim_.now() + deadline;
  while (sim_.now() < limit) {
    sim_.run_for(msec(50));
    if (groups_led() == num_groups()) break;
  }
  return leader_replica(0);
}

int Cluster::leader_replica(int g) const {
  const Group& grp = group(g);
  for (size_t j = 0; j < grp.servers.size(); ++j) {
    if (grp.servers[j] == nullptr) continue;  // crashed (awaiting restart)
    const NodeId id = grp.servers[j]->id();
    // A crashed replica may still believe it leads; it does not count.
    if (!net_.node_up(id) || net_.faults().is_down(id, sim_.now())) continue;
    if (grp.servers[j]->is_leader()) return static_cast<int>(j);
  }
  return -1;
}

int Cluster::groups_led() const {
  int led = 0;
  for (int g = 0; g < num_groups(); ++g) {
    const Group& grp = group(g);
    const bool leaderless =
        grp.servers[0] != nullptr && grp.servers[0]->leaderless();
    if (leaderless || leader_replica(g) >= 0) ++led;
  }
  return led;
}

uint64_t Cluster::client_retries() const {
  uint64_t total = 0;
  for (const auto& c : clients_) total += c->retries();
  return total;
}

}  // namespace praft::harness
