#include "harness/experiment.h"

#include "common/check.h"
#include "sim/resources.h"

namespace praft::harness {

LatencySummary summarize(const Histogram& h) {
  LatencySummary s;
  s.count = h.count();
  s.p50 = h.percentile(50);
  s.p90 = h.percentile(90);
  s.p99 = h.percentile(99);
  return s;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  ClusterConfig cc;
  cc.num_replicas = cfg.num_replicas;
  cc.num_groups = cfg.num_groups;
  cc.num_machines = cfg.num_machines;
  cc.spread_leaders = cfg.spread_leaders;
  cc.seed = cfg.seed;
  if (cfg.flat_rtt >= 0) {
    // One latency site per machine: uniform RTT everywhere, and per-site
    // metrics stay per-machine.
    const int machines =
        cfg.num_machines > 0 ? cfg.num_machines : cfg.num_replicas;
    cc.latency = sim::LatencyMatrix(machines, cfg.flat_rtt);
  }
  if (cfg.model_bandwidth) {
    // Per-site NIC egress (DESIGN.md §6): Oregon has the paper's 750 Mbps;
    // Seoul the weakest uplink (drives Raft-Oregon ≈ +30% over Raft-Seoul).
    const double mbps[5] = {750, 700, 650, 700, 560};
    for (double m : mbps) {
      cc.replica_egress.push_back(sim::EgressLink::mbps_to_bytes_per_us(m));
    }
  }
  Cluster cluster(cc);
  cluster.build_replicas(cfg.protocol, cfg.timing);

  if (!cluster.server(0).leaderless()) {
    const int leader = cluster.establish_leader(cfg.leader_replica);
    PRAFT_CHECK_MSG(cluster.groups_led() == cfg.num_groups,
                    "not every group elected a leader");
    PRAFT_CHECK_MSG(leader == cfg.leader_replica,
                    "could not establish the requested leader");
  } else {
    cluster.run_for(msec(500));  // let status beats flow
  }

  const Time t0 = cluster.sim().now();
  cluster.metrics().set_window(t0 + cfg.warmup, t0 + cfg.warmup + cfg.run);
  cluster.add_clients(cfg.clients_per_region, cfg.workload, t0);
  cluster.run_until(t0 + cfg.warmup + cfg.run + cfg.cooldown);

  ExperimentResult res;
  res.leader_replica = cfg.leader_replica;
  res.throughput_ops = cluster.metrics().throughput_ops();
  res.client_retries = cluster.client_retries();
  const SiteId leader_site =
      cluster.config().replica_sites[static_cast<size_t>(
          cluster.member_machine(0, cfg.leader_replica))];
  std::vector<SiteId> all_sites;
  std::vector<SiteId> follower_sites;
  for (SiteId s = 0; s < cluster.config().latency.num_sites(); ++s) {
    all_sites.push_back(s);
    if (s != leader_site) follower_sites.push_back(s);
  }
  res.leader_reads = summarize(cluster.metrics().reads(leader_site));
  res.leader_writes = summarize(cluster.metrics().writes(leader_site));
  res.follower_reads = summarize(cluster.metrics().merged_reads(follower_sites));
  res.follower_writes =
      summarize(cluster.metrics().merged_writes(follower_sites));
  res.reads = summarize(cluster.metrics().merged_reads(all_sites));
  res.writes = summarize(cluster.metrics().merged_writes(all_sites));
  return res;
}

}  // namespace praft::harness
