#pragma once

#include <string>
#include <vector>

#include "harness/cluster.h"

namespace praft::harness {

/// One experiment point: a system, a deployment, a workload, a client
/// count, a duration. The defaults are the paper's §5 testbed (one group of
/// five replicas, one per region); more groups and machines make it the
/// sharded scale-out world of harness::ClusterConfig.
struct ExperimentConfig {
  /// The system under test, by name: a registry protocol ("raft",
  /// "raftstar", "multipaxos", "mencius") or a lease system over Raft*
  /// ("raftstar-pql", "raftstar-ll"); see Cluster::build_replicas.
  std::string protocol = "raft";
  /// Protocol timing knobs (election/heartbeat cadence, batching, pipeline
  /// window).
  consensus::TimingOptions timing;
  /// When >= 0, replaces the aws5 geo matrix with a uniform all-pairs RTT
  /// over one site per machine (sim::LatencyMatrix flat constructor) — the
  /// pipelining bench sweeps this from LAN to intercontinental.
  Duration flat_rtt = -1;
  kv::WorkloadConfig workload;
  int clients_per_region = 50;  // closed-loop clients next to every machine
  int leader_replica = 0;  // member that leads every group (ignored by Mencius)
  Duration run = sec(10);
  Duration warmup = sec(2);
  Duration cooldown = sec(1);
  uint64_t seed = 1;
  bool model_bandwidth = false;  // Fig. 10b/d turn this on
  // Deployment (see harness::ClusterConfig).
  int num_replicas = 5;  // members per group
  int num_groups = 1;
  int num_machines = 0;  // 0: one machine per replica
  bool spread_leaders = true;
};

/// Latency summary for one site class, microseconds.
struct LatencySummary {
  int64_t count = 0;
  int64_t p50 = 0;
  int64_t p90 = 0;
  int64_t p99 = 0;
};

LatencySummary summarize(const Histogram& h);

struct ExperimentResult {
  double throughput_ops = 0;  // aggregate across all groups
  LatencySummary leader_reads, leader_writes;      // leader's site
  LatencySummary follower_reads, follower_writes;  // every other site
  LatencySummary reads, writes;                    // every site
  int leader_replica = -1;
  uint64_t client_retries = 0;
};

/// Builds the deployment, establishes every group's leader (member
/// `leader_replica`), runs the closed-loop workload over a trimmed window,
/// and returns the measured figures.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace praft::harness
