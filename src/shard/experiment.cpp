#include "shard/experiment.h"

#include "common/check.h"
#include "harness/cluster.h"

namespace praft::shard {

ShardExperimentResult run_shard_experiment(const ShardExperimentConfig& cfg) {
  harness::ClusterConfig cc;
  cc.num_replicas = cfg.replicas_per_group;
  cc.num_groups = cfg.num_groups;
  cc.num_machines = cfg.num_machines;
  cc.spread_leaders = cfg.spread_leaders;
  cc.seed = cfg.seed;
  cc.costs.enabled = cfg.model_cpu;
  if (cfg.flat_rtt >= 0) {
    // One latency site per machine: uniform RTT everywhere, and per-site
    // metrics stay per-machine.
    cc.latency = sim::LatencyMatrix(cfg.num_machines, cfg.flat_rtt);
  }
  harness::Cluster cluster(std::move(cc));
  cluster.build_replicas(cfg.protocol, cfg.timing);

  ShardExperimentResult res;
  cluster.establish_leader(0);
  res.groups_led = cluster.groups_led();
  PRAFT_CHECK_MSG(res.groups_led == cfg.num_groups,
                  "not every group elected a leader");

  const Time t0 = cluster.sim().now();
  cluster.metrics().set_window(t0 + cfg.warmup, t0 + cfg.warmup + cfg.run);
  cluster.add_clients(cfg.clients_per_machine, cfg.workload, t0);
  cluster.run_until(t0 + cfg.warmup + cfg.run + cfg.cooldown);

  res.throughput_ops = cluster.metrics().throughput_ops();
  res.client_retries = cluster.client_retries();
  std::vector<SiteId> all_sites;
  for (SiteId s = 0; s < cluster.net().latency().num_sites(); ++s) {
    all_sites.push_back(s);
  }
  res.reads = harness::summarize(cluster.metrics().merged_reads(all_sites));
  res.writes = harness::summarize(cluster.metrics().merged_writes(all_sites));
  return res;
}

}  // namespace praft::shard
