#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "harness/cost_model.h"
#include "harness/experiment.h"
#include "harness/log_server.h"
#include "raft/node.h"
#include "test_util.h"

namespace praft {
namespace {

TEST(MetricsTest, WindowFiltersSamples) {
  harness::Metrics m(msec(100), msec(200));
  m.record(msec(50), 0, true, msec(1));    // before window
  m.record(msec(150), 0, true, msec(2));   // inside
  m.record(msec(250), 0, true, msec(3));   // after
  EXPECT_EQ(m.completed(), 1);
  EXPECT_EQ(m.reads(0).count(), 1);
}

TEST(MetricsTest, ThroughputUsesWindowSpan) {
  harness::Metrics m(0, sec(2));
  for (int i = 0; i < 100; ++i) m.record(msec(500), 0, false, msec(1));
  EXPECT_DOUBLE_EQ(m.throughput_ops(), 50.0);  // 100 ops over 2 s
}

TEST(MetricsTest, MergedHistogramsSpanSites) {
  harness::Metrics m(0, kTimeMax);
  m.record(1, 1, true, msec(10));
  m.record(1, 2, true, msec(20));
  m.record(1, 3, false, msec(30));
  const Histogram reads = m.merged_reads({1, 2, 3});
  EXPECT_EQ(reads.count(), 2);
  const Histogram writes = m.merged_writes({1, 2, 3});
  EXPECT_EQ(writes.count(), 1);
}

TEST(CostModelTest, SizeCostScalesLinearly) {
  harness::CostModel cm;
  EXPECT_EQ(cm.size_cost(0), 0);
  EXPECT_EQ(cm.size_cost(4096), cm.per_4kb);
  EXPECT_EQ(cm.size_cost(8192), 2 * cm.per_4kb);
}

TEST(NodeHostTest, CpuQueueDelaysProcessing) {
  sim::Simulator sim(3);
  sim::Network net(sim, test::lan_matrix());
  harness::NodeHost sender(sim, net, 0);
  harness::NodeHost receiver(sim, net, 0);

  struct CountingHandler : harness::PacketHandler {
    int handled = 0;
    Time last = 0;
    sim::Simulator* sim = nullptr;
    void handle(const net::Packet&) override {
      ++handled;
      last = sim->now();
    }
    [[nodiscard]] Duration cost_of(const net::Packet&) const override {
      return msec(10);  // expensive processing
    }
  } handler;
  handler.sim = &sim;
  receiver.attach(&handler);

  // Two messages arrive ~together; the second waits behind the first.
  test::send_tagged(net, sender.id(), receiver.id(), 1, 10);
  test::send_tagged(net, sender.id(), receiver.id(), 2, 10);
  sim.run_for(msec(100));
  EXPECT_EQ(handler.handled, 2);
  EXPECT_GE(handler.last, msec(20));  // ~arrival + 2 x 10 ms service
  EXPECT_GE(receiver.cpu_busy(), msec(20));
}

TEST(ClusterTest, DefaultSitesAssignRoundRobin) {
  harness::ClusterConfig cfg = test::lan_config(5);
  cfg.num_replicas = 5;
  harness::Cluster cluster(cfg);
  cluster.build_replicas(test::make_factory<raft::RaftNode>(
      test::fast_options<raft::Options>()));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cluster.server(i).site(), i);
  }
  EXPECT_EQ(cluster.group_template().members.size(), 5u);
}

TEST(ClusterTest, EstablishLeaderRespectsPreference) {
  for (int preferred : {0, 2, 4}) {
    harness::Cluster cluster(test::lan_config(6));
    cluster.build_replicas(test::make_factory<raft::RaftNode>(
        test::fast_options<raft::Options>()));
    EXPECT_EQ(cluster.establish_leader(preferred), preferred);
  }
}

TEST(ClientTest, RetriesAfterTimeout) {
  // A cluster with a permanently-dead server: the client must keep retrying.
  harness::Cluster cluster(test::lan_config(7));
  cluster.build_replicas(test::make_factory<raft::RaftNode>(
      test::fast_options<raft::Options>()));
  cluster.net().faults().crash(cluster.server(0).id(), 0, sec(600));
  cluster.metrics().set_window(0, kTimeMax);
  kv::WorkloadConfig wl = test::small_workload();
  // Only site-0 clients, talking to the dead replica.
  kv::WorkloadGenerator gen(wl, 0, Rng(1));
  auto& host = cluster.make_host(0);
  harness::ClosedLoopClient::Options copt;
  copt.retry_timeout = sec(1);
  harness::Metrics metrics;
  shard::ShardRouter route(shard::ShardMap(1));
  route.set_target(0, cluster.server(0).id());
  harness::ClosedLoopClient client(host, route, std::move(gen), metrics,
                                   copt);
  client.start();
  cluster.run_for(sec(5));
  EXPECT_GE(client.retries(), 3u);
  EXPECT_EQ(client.completed(), 0u);
}

TEST(LogServerTest, EarlyAckRepliesOnceBeforeTheWriteExecutes) {
  // Mencius acks its own committed write early when every earlier slot is
  // known and commutes with it (§5.2). Replica 1 proposes slot 1 and dies
  // before it can decide it, so every later slot waits for a revocation;
  // replica 0's write to another key is answered once, at commit, long
  // before replica 0 executes it.
  harness::Cluster cluster(test::lan_config(31));
  consensus::TimingOptions timing;
  timing.batch_delay = msec(1);
  timing.heartbeat_interval = msec(40);
  cluster.build_replicas("mencius", timing);
  Time executed_at = -1;
  cluster.install_apply_probe(
      [&](NodeId r, consensus::LogIndex, const kv::Command& c) {
        if (r == cluster.replica_id(0) && c.key == 2 && executed_at < 0) {
          executed_at = cluster.sim().now();
        }
      });
  cluster.run_for(msec(200));

  test::OneShotClient doomed(cluster.make_host(1));
  doomed.send(cluster.replica_id(1), kv::Command{kv::Op::kPut, 1, 11, 8, 0, 0});
  const Time t = cluster.sim().now();
  cluster.net().faults().crash(cluster.replica_id(1), t + msec(3), t + sec(60));
  cluster.run_for(msec(20));  // replica 1's slot 1 is valued everywhere

  test::OneShotClient client(cluster.make_host(0));
  client.send(cluster.replica_id(0), kv::Command{kv::Op::kPut, 2, 22, 8, 0, 0});
  while (client.waiting() && cluster.sim().now() < t + sec(1)) {
    cluster.run_for(msec(1));
  }
  ASSERT_FALSE(client.waiting()) << "the committed write was not acked";
  EXPECT_LT(executed_at, 0) << "the reply should leave before execution";
  const Time replied_at = cluster.sim().now();

  cluster.run_for(sec(10));  // the dead owner's slot is revoked
  ASSERT_GE(executed_at, 0) << "the write never executed";
  EXPECT_GT(executed_at, replied_at + sec(1));
  EXPECT_EQ(client.replies(), 1);
  EXPECT_TRUE(doomed.waiting());
}

// ---------------------------------------------------------------------------
// Experiment-runner smoke tests: every system of Figs. 9/10 boots, elects,
// commits and reports sane figures end-to-end (parameterized).
// ---------------------------------------------------------------------------

class ExperimentSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ExperimentSmokeTest, RunsAndCommits) {
  harness::ExperimentConfig cfg;
  cfg.protocol = GetParam();
  cfg.clients_per_region = 5;
  cfg.workload.read_fraction = 0.5;
  cfg.workload.conflict_rate = 0.05;
  cfg.run = sec(4);
  cfg.warmup = sec(2);
  cfg.cooldown = msec(500);
  cfg.seed = 777;
  const auto res = harness::run_experiment(cfg);
  EXPECT_GT(res.throughput_ops, 10.0) << cfg.protocol;
  // Latency sanity: nothing below the intra-site RTT floor, nothing above
  // the client retry timeout.
  const auto check = [&](const harness::LatencySummary& s) {
    if (s.count == 0) return;
    EXPECT_GT(s.p50, 0);
    EXPECT_LT(s.p99, sec(5));
  };
  check(res.leader_reads);
  check(res.leader_writes);
  check(res.follower_reads);
  check(res.follower_writes);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, ExperimentSmokeTest,
    ::testing::Values("raft", "raftstar", "multipaxos", "mencius",
                      "raftstar-pql", "raftstar-ll"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string n = info.param;
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// Latency ordering properties across systems (the Fig. 9 story in one test).
TEST(ExperimentPropertyTest, PqlReadsBeatRaftReads) {
  harness::ExperimentConfig cfg;
  cfg.clients_per_region = 10;
  cfg.workload.read_fraction = 1.0;
  cfg.workload.conflict_rate = 0.0;
  cfg.run = sec(5);
  cfg.warmup = sec(3);
  cfg.seed = 778;
  cfg.protocol = "raftstar-pql";
  const auto pql = harness::run_experiment(cfg);
  cfg.protocol = "raft";
  const auto raft = harness::run_experiment(cfg);
  EXPECT_LT(pql.follower_reads.p50, msec(10));
  EXPECT_GT(raft.follower_reads.p50, msec(50));
}

TEST(ExperimentPropertyTest, MenciusAvoidsForwardingLatency) {
  harness::ExperimentConfig cfg;
  cfg.clients_per_region = 10;
  cfg.workload.read_fraction = 0.0;
  cfg.workload.conflict_rate = 0.0;
  cfg.run = sec(5);
  cfg.warmup = sec(3);
  cfg.seed = 779;
  cfg.protocol = "mencius";
  const auto mencius = harness::run_experiment(cfg);
  cfg.protocol = "raft";
  cfg.leader_replica = 4;  // Seoul: worst forwarding case
  const auto raft = harness::run_experiment(cfg);
  // Every Mencius region commits via its own nearest quorum; Raft-Seoul's
  // followers pay forwarding to the farthest leader.
  EXPECT_LT(mencius.follower_writes.p50, raft.follower_writes.p50);
}

}  // namespace
}  // namespace praft
