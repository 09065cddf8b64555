#include "workloads.h"

#include <any>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "chaos/runner.h"
#include "harness/cluster.h"
#include "harness/log_server.h"
#include "kv/store.h"
#include "mencius/server.h"
#include "net/wire.h"
#include "pql/raftstar_pql.h"

namespace perfbench {

using namespace praft;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions. README.md records why each one exists.
// ---------------------------------------------------------------------------

enum class Kind { kPql, kMencius, kRaftCrash, kChaos };

struct Spec {
  Kind kind;
  int clients_per_region = 0;    // closed loop
  double rate_per_region = 0.0;  // open loop, requests per modeled second
  kv::WorkloadConfig wl;
  Duration warmup = 0;
  Duration window = 0;
  Duration cooldown = 0;
  Duration chunk = 0;  // run_until granularity; gauges are sampled between
  // Fault schedule, as offsets from the window start (multiples of
  // `chunk`): power-cut the leader; at `failover_at` a failure detector
  // promotes the replica nearest the crashed one among those a majority
  // would vote for (left to the randomized timers, a far site such as
  // Seoul may win and the run's cost would swing with the seed); later
  // restart the crashed replica.
  Duration crash_at = -1;
  Duration failover_at = -1;
  Duration restart_at = -1;
};

/// Longest the drain after the load may take before replicas must agree.
constexpr Duration kMaxQuiesce = sec(30);

Spec spec_of(const std::string& name) {
  Spec s;
  s.wl.num_records = 100'000;
  s.wl.value_size = 8;
  if (name == "pql-read90") {
    s.kind = Kind::kPql;
    s.clients_per_region = 1600;  // past the Fig. 9c knee (~1200)
    s.wl.read_fraction = 0.9;
    s.wl.conflict_rate = 0.05;
    s.warmup = msec(1000);
    s.window = msec(1000);
    s.cooldown = msec(200);
    s.chunk = msec(10);
  } else if (name == "mencius-write") {
    s.kind = Kind::kMencius;
    s.clients_per_region = 400;
    s.wl.read_fraction = 0.0;
    s.wl.conflict_rate = 0.0;
    s.warmup = msec(500);
    s.window = msec(1000);
    s.cooldown = msec(200);
    s.chunk = msec(10);
  } else if (name == "raft-crash-open") {
    s.kind = Kind::kRaftCrash;
    s.rate_per_region = 1000.0;
    s.wl.read_fraction = 0.0;
    s.wl.conflict_rate = 0.0;
    s.warmup = msec(1000);
    s.window = msec(8000);
    s.cooldown = msec(500);
    s.chunk = msec(20);
    s.crash_at = msec(1500);
    s.failover_at = msec(2500);
    s.restart_at = msec(4500);
  } else {
    s.kind = Kind::kChaos;
  }
  return s;
}

/// Observers the traced run hangs on every replica.
struct ReplicaProbes {
  harness::Cluster::ApplyProbe apply;
  harness::Cluster::WatermarkProbe watermark;
};

/// Builds the workload's replicas and hangs `probes` (when non-null) on
/// them. The only code in the benchmark that names server classes, so
/// retiring the typed servers touches this function alone.
void build_replicas(const Spec& s, harness::Cluster& c,
                    const ReplicaProbes* probes) {
  const harness::CostModel costs = c.config().costs;
  switch (s.kind) {
    case Kind::kPql:
      // PQL paper leases (2 s, 0.5 s renew; sec. 5.1), Raft* WAN timing.
      c.build_replicas([costs](harness::NodeHost& h, const consensus::Group& g) {
        return std::make_unique<pql::RaftStarPqlServer>(h, g, costs);
      });
      break;
    case Kind::kMencius:
      // Raft*-Mencius with early commutative ack.
      c.build_replicas([costs](harness::NodeHost& h, const consensus::Group& g) {
        return std::make_unique<mencius::MenciusServer>(h, g, costs);
      });
      if (probes != nullptr) {
        for (int i = 0; i < c.num_replicas(); ++i) {
          auto& ms = dynamic_cast<mencius::MenciusServer&>(c.server(i));
          ms.set_apply_probe(probes->apply);
          ms.node().set_watermark_probe(
              [probe = probes->watermark, id = ms.id()](
                  consensus::LogIndex commit, consensus::LogIndex applied) {
                probe(id, commit, applied);
              });
        }
      }
      return;
    case Kind::kRaftCrash: {
      // Registry Raft with the chaos runner's modeled fsync and group
      // commit, so a power cut loses exactly the unsynced tail.
      const chaos::RunOptions chaos_defaults;
      consensus::TimingOptions timing;
      timing.fsync_duration = chaos_defaults.fsync;
      timing.sync_batch_delay = chaos_defaults.sync_batch;
      c.build_replicas("raft", timing);
      break;
    }
    case Kind::kChaos:
      PRAFT_CHECK_MSG(false, "chaos-mix builds its worlds in chaos::run_one");
  }
  if (probes != nullptr) {
    c.install_apply_probe(probes->apply);
    c.install_watermark_probe(probes->watermark);
  }
}

// ---------------------------------------------------------------------------
// Load generators.
// ---------------------------------------------------------------------------

/// One client-visible reply, as the benchmark accounts for it.
struct Reply {
  NodeId client = kNoNode;
  uint64_t seq = 0;
  uint64_t key = 0;
  bool is_read = false;
  uint64_t value = 0;
  bool ok = true;
  bool retried = false;  // the op was retransmitted (a failed attempt)
  Time sent = 0;         // first send, or due time (open loop)
  Time recv = 0;
};
using ReplySink = std::function<void(const Reply&)>;

/// Open-loop load for one region: sends ClientRequests to the regional
/// replica on a seeded Poisson schedule, whatever the replies do, and times
/// each request from when it fell due. A request unanswered after
/// `kResend` (the closed-loop clients' retry timeout) is sent again to the
/// next replica, since requests a crashed node swallowed would otherwise
/// never complete; every resend is a failed attempt, and the latency keeps
/// counting from the due time. Runs on a Cluster::make_host endpoint.
class OpenLoopGenerator final : public harness::PacketHandler {
 public:
  OpenLoopGenerator(harness::NodeHost& host, std::vector<NodeId> replicas,
                    int home, kv::WorkloadGenerator gen, Rng rng,
                    double rate_per_s, Time stop_at, ReplySink sink)
      : host_(host), replicas_(std::move(replicas)), home_(home),
        gen_(std::move(gen)), rng_(rng), mean_gap_us_(1e6 / rate_per_s),
        stop_at_(stop_at), sink_(std::move(sink)) {
    host_.attach(this);
  }

  void start() { host_.schedule(next_gap(), [this] { fire(); }); }

  void handle(const net::Packet& p) override {
    const auto* msg = net::payload_as<harness::Message>(p);
    const auto* r = msg == nullptr ? nullptr : std::get_if<harness::ClientReply>(msg);
    if (r == nullptr || r->seq == 0 || r->seq > ops_.size()) return;
    Op& op = ops_[r->seq - 1];
    if (op.answered) return;  // a resent duplicate's second reply
    op.answered = true;
    sink_(Reply{host_.id(), r->seq, op.cmd.key, false, r->value, r->ok,
                op.sends > 1, op.due, host_.now()});
  }

  [[nodiscard]] uint64_t requests() const { return ops_.size(); }
  [[nodiscard]] uint64_t resends() const { return resends_; }
  [[nodiscard]] uint64_t unanswered() const {
    uint64_t n = 0;
    for (const Op& op : ops_) n += op.answered ? 0 : 1;
    return n;
  }

 private:
  static constexpr Duration kResend = harness::ClientOptions{}.retry_timeout;

  struct Op {
    kv::Command cmd;
    Time due = 0;
    int sends = 0;
    bool answered = false;
  };

  Duration next_gap() {
    const double u =
        (static_cast<double>(rng_.next() >> 11) + 1.0) / 9007199254740993.0;
    return std::max<Duration>(1, std::llround(-std::log(u) * mean_gap_us_));
  }

  void fire() {
    if (host_.now() >= stop_at_) return;
    ops_.push_back(Op{gen_.next(host_.id(), ops_.size() + 1), host_.now(), 0,
                      false});
    send(ops_.size() - 1);
    host_.schedule(next_gap(), [this] { fire(); });
  }

  void send(size_t i) {
    Op& op = ops_[i];
    const size_t to = (static_cast<size_t>(home_) + static_cast<size_t>(op.sends)) %
                      replicas_.size();
    resends_ += op.sends > 0 ? 1 : 0;
    ++op.sends;
    const harness::ClientRequest req{op.cmd};
    host_.send(replicas_[to], harness::Message{req}, harness::wire_size(req));
    host_.schedule(kResend, [this, i] {
      if (!ops_[i].answered) send(i);
    });
  }

  harness::NodeHost& host_;
  std::vector<NodeId> replicas_;
  int home_;
  kv::WorkloadGenerator gen_;
  Rng rng_;
  double mean_gap_us_;
  Time stop_at_;
  ReplySink sink_;
  std::vector<Op> ops_;
  uint64_t resends_ = 0;
};

// ---------------------------------------------------------------------------
// Traced-run instruments.
// ---------------------------------------------------------------------------

/// Every k-th frame a replica receives, kept for the codec replay.
class FrameSampler {
 public:
  struct Sample {
    std::vector<uint8_t> bytes;
    std::any payload;
  };

  void offer(const net::Packet& p) {
    if (!p.wire.valid() || n_++ % kEvery != 0 || samples_.size() >= kCap) {
      return;
    }
    samples_.push_back(Sample{
        std::vector<uint8_t>(p.wire.data(), p.wire.data() + p.wire.size()),
        p.payload});
  }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }

 private:
  static constexpr uint64_t kEvery = 7;
  static constexpr size_t kCap = 40000;
  uint64_t n_ = 0;
  std::vector<Sample> samples_;
};

struct HandleStats {
  int64_t ns[2] = {0, 0};  // [0] leader, [1] followers
  uint64_t pkts[2] = {0, 0};
};

/// Forwarding handler attached in front of a replica server: times
/// PacketHandler::handle and passes cost_of through unchanged, so the
/// modeled run is identical with or without it.
class TimedHandler final : public harness::PacketHandler {
 public:
  TimedHandler(harness::ReplicaServer& inner, bool leader_when_leaderless,
               HandleStats& stats, FrameSampler& sampler,
               const bool& measuring, Tracer& tracer)
      : inner_(inner), leader_when_leaderless_(leader_when_leaderless),
        stats_(stats), sampler_(sampler), measuring_(measuring),
        tracer_(tracer) {
    inner_.host().attach(this);
  }

  void handle(const net::Packet& p) override {
    const int role = (inner_.leaderless() ? leader_when_leaderless_
                                          : inner_.is_leader())
                         ? 0
                         : 1;
    if (measuring_) sampler_.offer(p);
    const int64_t t0 = host_ns();
    inner_.handle(p);
    const int64_t t1 = host_ns();
    if (!measuring_) return;
    stats_.ns[role] += t1 - t0;
    ++stats_.pkts[role];
    Span s{"harness.handle", "", "wall_ns", kNoNode, 0, t0, t1};
    if (const auto* hm = net::payload_as<harness::Message>(p)) {
      if (const auto* req = std::get_if<harness::ClientRequest>(hm)) {
        s.parent = "client.op";
        s.client = req->cmd.client;
        s.seq = req->cmd.seq;
      }
    }
    tracer_.span(s);
  }

  [[nodiscard]] Duration cost_of(const net::Packet& p) const override {
    return inner_.cost_of(p);
  }

 private:
  harness::ReplicaServer& inner_;
  bool leader_when_leaderless_;
  HandleStats& stats_;
  FrameSampler& sampler_;
  const bool& measuring_;
  Tracer& tracer_;
};

/// Where the replays leave a value, so the compiler keeps their work.
volatile uint64_t g_replay_sink = 0;

uint64_t op_key(NodeId client, uint64_t seq) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(client)) << 40) ^ seq;
}

/// Median ns per item of `pass` over three passes of `n` items.
template <typename F>
double ns_per_item(size_t n, F pass) {
  if (n == 0) return 0.0;
  std::vector<double> v;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = cpu_ns();
    pass();
    v.push_back(static_cast<double>(cpu_ns() - t0) / static_cast<double>(n));
  }
  return median(v);
}

void set(Metrics& m, const std::string& name, double value,
         const char* unit) {
  m[name] = Metric{value, unit};
}

// chaos-mix cells: protocols x slices, kSeedsPerCell schedules each.
const char* const kProtocols[] = {"raft", "raftstar", "multipaxos", "mencius"};
constexpr int kSeedsPerCell = 40;

struct Slice {
  const char* name;
  bool restarts;
  size_t compaction_cap;
  int groups;
};
const Slice kSlices[] = {
    {"flat", false, 0, 1},
    {"restarts", true, 64, 1},
    {"sharded", false, 0, 3},
};

/// Every per-layer metric name with its unit, each valued 0 ("not exercised
/// by this workload" until an episode fills it in).
Metrics empty_layer_metrics() {
  Metrics m;
  const char* const counts[] = {
      "sim.events_per_op", "sim.pending_events_p50", "net.msgs_per_op",
      "net.pool_slab_grows", "harness.client_retries",
      "consensus.ops_per_commit_advance", "consensus.leader_changes",
      "kv.keys", "storage.fsyncs_per_write", "storage.replayed_entries",
      "chaos.client_ops_per_run"};
  for (const char* name : counts) set(m, name, 0.0, "count");
  const char* const ns[] = {
      "sim.host_ns_per_event", "net.decode_ns_per_msg", "net.encode_ns_per_msg",
      "harness.handle_ns_per_pkt.leader", "harness.handle_ns_per_pkt.follower",
      "kv.apply_ns_per_op", "kv.read_local_ns"};
  for (const char* name : ns) set(m, name, 0.0, "ns");
  const char* const ratios[] = {
      "harness.cpu_util_max", "harness.cpu_util_min", "harness.handle_share",
      "pql.local_read_frac", "mencius.noop_frac", "trace.overhead"};
  for (const char* name : ratios) set(m, name, 0.0, "ratio");
  set(m, "net.bytes_per_op", 0.0, "B");
  for (const char* stage : {"submit_to_commit", "commit_to_apply", "apply_to_reply"}) {
    set(m, std::string("stage.") + stage + "_p50_ms", 0.0, "ms");
    set(m, std::string("stage.") + stage + "_p99_ms", 0.0, "ms");
  }
  set(m, "storage.catchup_ms", 0.0, "ms");
  for (const Slice& slice : kSlices) {
    for (const char* proto : kProtocols) {
      set(m, std::string("chaos.run_ms.") + proto + "." + slice.name, 0.0, "ms");
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Cluster workloads: pql-read90, mencius-write, raft-crash-open.
// ---------------------------------------------------------------------------

Episode run_cluster(const Spec& s, uint64_t seed, Tracer* tracer,
                    bool setup_only) {
  Episode ep;
  const bool traced = tracer != nullptr;
  const bool open_loop = s.rate_per_region > 0;
  const bool leaderless = s.kind == Kind::kMencius;

  // -- Client-visible history, accounted as replies arrive ------------------
  Time w0 = 0, w1 = 0;  // measurement window
  std::vector<Duration> read_lat, write_lat;
  uint64_t replies_seen = 0, not_ok = 0, window_ops = 0;
  Time last_write_ok = -1;
  Duration unavail = 0;
  std::vector<Reply> replies;  // kept by traced runs, for the stage join
  std::unordered_map<NodeId, Time> last_recv;  // closed-loop retry detection
  Time clients_start = 0;
  harness::Cluster* world = nullptr;
  const ReplySink sink = [&](const Reply& r) {
    ep.digest = fold(fold(fold(fold(ep.digest, static_cast<uint64_t>(r.client)),
                               r.seq),
                          r.value),
                     static_cast<uint64_t>(r.recv));
    ++replies_seen;
    not_ok += r.ok ? 0 : 1;
    if (traced) replies.push_back(r);
    if (r.ok && !r.is_read && r.recv >= w0 && r.recv < w1) {
      unavail = std::max(unavail, r.recv - (last_write_ok < 0 ? w0 : last_write_ok));
      last_write_ok = r.recv;
    }
    // Closed loop: ops completing in the window; a retried op is left out
    // (its client restarted the timer on resend). Open loop: requests due
    // in the window, timed from the due time, resent ones included.
    const Time at = open_loop ? r.sent : r.recv;
    if (!r.ok || (r.retried && !open_loop) || at < w0 || at >= w1) return;
    ++window_ops;
    (r.is_read ? read_lat : write_lat).push_back(r.recv - r.sent);
  };

  // -- Traced-run observation state ----------------------------------------
  struct Stamp {
    Time commit = -1;
    Time apply = -1;
  };
  std::unordered_map<uint64_t, Stamp> stamps;      // serving-replica stamps
  std::vector<std::vector<std::pair<Time, consensus::LogIndex>>> commits;
  std::vector<consensus::LogIndex> last_commit;
  std::vector<kv::Command> applied_cmds;           // for the kv replay
  uint64_t applied_in_window = 0, noops_in_window = 0, reads_in_log = 0;
  uint64_t commit_advances = 0, committed_entries = 0;
  bool measuring = false;
  int restarted = -1;
  Time restart_time = -1;
  consensus::LogIndex catchup_target = -1;
  Time catchup_done = -1;
  size_t replayed = 0;
  HandleStats hstats;
  FrameSampler sampler;
  std::vector<std::unique_ptr<TimedHandler>> timed;

  // The replica whose view a write's stages are read from: the leader, or
  // for leaderless Mencius the client's regional replica (replica 0 for
  // commit batching).
  const auto serving = [&](int r, NodeId client) {
    if (!leaderless) return world->server(r).is_leader();
    if (client == kNoNode) return r == 0;
    return world->net().site_of(client) ==
           world->config().replica_sites[static_cast<size_t>(r)];
  };
  ReplicaProbes probes;
  probes.apply = [&](NodeId r, consensus::LogIndex idx, const kv::Command& c) {
    const Time now = world->sim().now();
    const bool in_window = now >= w0 && now < w1;
    if (r == 0 && in_window) {
      ++applied_in_window;
      noops_in_window += c.is_noop() ? 1 : 0;
    }
    if (c.is_noop() || !serving(r, c.client)) return;
    if (measuring && applied_cmds.size() < 400000) applied_cmds.push_back(c);
    if (c.is_read()) {
      reads_in_log += in_window ? 1 : 0;
      return;
    }
    // Commit time of idx on r: the earliest advance of r's current
    // monotone commit run that covers idx.
    const auto& log = commits[static_cast<size_t>(r)];
    Time commit_at = now;
    for (size_t k = log.size(); k-- > 0 && log[k].second >= idx;) {
      commit_at = log[k].first;
      if (k > 0 && log[k - 1].second > log[k].second) break;
    }
    stamps.emplace(op_key(c.client, c.seq), Stamp{commit_at, now});  // first apply
  };
  probes.watermark = [&](NodeId r, consensus::LogIndex commit,
                         consensus::LogIndex applied) {
    const auto ri = static_cast<size_t>(r);
    const Time now = world->sim().now();
    if (commit != last_commit[ri]) {
      if (commit > last_commit[ri] && now >= w0 && now < w1 &&
          world->replica_up(r) && serving(r, kNoNode)) {
        ++commit_advances;
        committed_entries += static_cast<uint64_t>(commit - last_commit[ri]);
      }
      last_commit[ri] = commit;
      commits[ri].emplace_back(now, commit);
    }
    if (r == restarted && catchup_done < 0 && applied >= catchup_target) {
      catchup_done = now;
    }
  };

  // -- Setup: the world through leader establishment -----------------------
  const int64_t setup0 = cpu_ns();
  harness::ClusterConfig cc;
  cc.seed = seed;
  harness::Cluster cluster(cc);
  world = &cluster;
  const int n = cc.num_replicas;
  commits.resize(static_cast<size_t>(n));
  last_commit.assign(static_cast<size_t>(n), 0);
  build_replicas(s, cluster, traced ? &probes : nullptr);
  // Probes identify replicas by NodeId; replicas are the first endpoints.
  for (int i = 0; i < n; ++i) PRAFT_CHECK(cluster.replica_id(i) == i);
  if (traced) {
    cluster.set_restart_probe([&](NodeId, const consensus::HardState&,
                                  const storage::RecoveryStats& st,
                                  consensus::LogIndex) {
      replayed += st.replayed;
    });
  }
  if (leaderless) {
    cluster.run_for(msec(500));  // let status beats flow
  } else if (cluster.establish_leader(0) != 0) {
    ep.correct = false;
    ep.error = "could not establish replica 0 as leader";
    return ep;
  }
  const Time t0 = cluster.sim().now();
  clients_start = t0;
  w0 = t0 + s.warmup;
  w1 = w0 + s.window;
  const Time c1 = w1 + s.cooldown;

  std::vector<std::unique_ptr<OpenLoopGenerator>> gens;
  if (open_loop) {
    for (int r = 0; r < n; ++r) {
      const SiteId site = cluster.config().replica_sites[static_cast<size_t>(r)];
      kv::WorkloadConfig wl = s.wl;
      wl.num_partitions = n;
      Rng rng(fold(seed, static_cast<uint64_t>(r) + 1));
      std::vector<NodeId> replicas;
      for (int i = 0; i < n; ++i) replicas.push_back(cluster.replica_id(i));
      gens.push_back(std::make_unique<OpenLoopGenerator>(
          cluster.make_host(site), std::move(replicas), r,
          kv::WorkloadGenerator(wl, r, rng.split()), rng, s.rate_per_region,
          c1, sink));
      gens.back()->start();
    }
  } else {
    cluster.install_reply_probe([&](const kv::Command& cmd, uint64_t value,
                                    bool ok, Time sent_at, Time recv_at) {
      // A closed-loop client sends op k+1 the instant op k's reply lands
      // and its first op within 1 ms of start; any later send time means
      // the op was retransmitted after a retry timeout.
      auto it = last_recv.find(cmd.client);
      const bool retried = it == last_recv.end()
                               ? sent_at >= clients_start + msec(1)
                               : sent_at != it->second;
      last_recv[cmd.client] = recv_at;
      sink(Reply{cmd.client, cmd.seq, cmd.key, cmd.is_read(), value, ok,
                 retried, sent_at, recv_at});
    });
    cluster.add_clients(s.clients_per_region, s.wl, t0);
  }
  const auto attach_timed = [&](int i) {
    timed[static_cast<size_t>(i)] = std::make_unique<TimedHandler>(
        cluster.server(i), i == 0, hstats, sampler, measuring, *tracer);
  };
  if (traced) {
    timed.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) attach_timed(i);
  }
  const int64_t setup1 = cpu_ns();
  ep.setup_s = static_cast<double>(setup1 - setup0) / 1e9;
  if (traced) tracer->cpu_span("episode.setup", setup0, setup1);
  if (setup_only) return ep;

  // -- Measured phases --------------------------------------------------------
  struct Gauges {
    uint64_t events = 0, msgs = 0, bytes = 0, syncs = 0;
    std::vector<Duration> busy;
  };
  const auto gauges = [&] {
    Gauges g;
    g.events = cluster.sim().queue().events_fired();
    g.msgs = cluster.net().messages_sent();
    g.bytes = cluster.net().bytes_sent();
    for (int i = 0; i < n; ++i) {
      g.busy.push_back(cluster.replica_up(i) ? cluster.server(i).host().cpu_busy()
                                             : 0);
      if (s.kind == Kind::kRaftCrash) g.syncs += cluster.store_of(i).syncs();
    }
    return g;
  };
  std::vector<size_t> pending_samples;
  int last_leader = -1;
  uint64_t leader_changes = 0;
  int crashed = -1;
  // Host cost of each phase, and of each of its chunks (ep.chunk_ns, each
  // followed by an untimed calibration pass), as thread CPU time; wall time
  // too, the base of harness.handle_share (handle() is timed on the wall
  // clock, which is cheap enough to read per packet).
  double wall_s = 0.0;
  const auto run_phase = [&](Time from, Time to, const char* name) {
    const int64_t h0 = cpu_ns();
    const int64_t wall0 = host_ns();
    int64_t busy_ns = 0;
    for (Time t = from + s.chunk;; t += s.chunk) {
      const int64_t c0 = cpu_ns();
      const Time until = std::min(t, to);
      cluster.run_until(until);
      if (s.crash_at >= 0 && until == w0 + s.crash_at) {
        crashed = cluster.leader_replica();
        if (crashed >= 0) cluster.crash_replica(crashed);
      }
      if (s.failover_at >= 0 && until == w0 + s.failover_at && crashed >= 0) {
        // After a second without a leader every staged entry is synced, and
        // all entries share term 1: a voter grants a candidate whose durable
        // log is at least as long as its own.
        const auto tail = [&](int i) { return cluster.store_of(i).wal_tail(); };
        const auto site = [&](int i) {
          return cluster.config().replica_sites[static_cast<size_t>(i)];
        };
        int successor = -1;
        for (int c = 0; c < n; ++c) {
          if (!cluster.replica_up(c)) continue;
          int votes = 0;
          for (int v = 0; v < n; ++v) {
            votes += cluster.replica_up(v) && tail(v) <= tail(c) ? 1 : 0;
          }
          if (votes <= n / 2) continue;
          const sim::LatencyMatrix& lat = cluster.net().latency();
          if (successor < 0 || lat.rtt(site(crashed), site(c)) <
                                   lat.rtt(site(crashed), site(successor))) {
            successor = c;
          }
        }
        if (successor >= 0) cluster.server(successor).trigger_election();
      }
      if (s.restart_at >= 0 && until == w0 + s.restart_at && crashed >= 0) {
        const int leader = cluster.leader_replica();
        catchup_target = leader >= 0 ? cluster.server(leader).commit_index() : 0;
        restarted = crashed;
        restart_time = until;
        cluster.restart_replica(crashed);
        if (traced) attach_timed(crashed);
      }
      if (traced) {
        if (until > w0 && until <= w1) {
          pending_samples.push_back(cluster.sim().queue().pending());
        }
        const int leader = cluster.leader_replica();
        if (leader >= 0 && leader != last_leader) {
          if (last_leader >= 0) ++leader_changes;
          last_leader = leader;
        }
      }
      const int64_t c1 = cpu_ns();
      ep.chunk_ns.push_back(c1 - c0);
      busy_ns += c1 - c0;
      ep.calib_ns.push_back(calibration_ns());
      if (until == to) break;
    }
    wall_s += static_cast<double>(host_ns() - wall0) / 1e9;
    if (traced) tracer->cpu_span(name, h0, cpu_ns(), "episode.simulate");
    return static_cast<double>(busy_ns) / 1e9;
  };

  const uint64_t events0 = cluster.sim().queue().events_fired();
  measuring = traced;
  double host_s = run_phase(t0, w0, "episode.warmup");
  const Gauges g0 = gauges();
  const double window_host_s = run_phase(w0, w1, "episode.window");
  const Gauges g1 = gauges();
  host_s += window_host_s;
  host_s += run_phase(w1, c1, "episode.cooldown");
  measuring = false;
  ep.events = cluster.sim().queue().events_fired() - events0;
  ep.sim_host_s = host_s;

  // -- Drain, then check the replicas agree --------------------------------
  // The drain ends once every request is answered and every replica holds
  // the same state, or fails the episode after kMaxQuiesce.
  cluster.stop_clients();  // open-loop generators stop on their own at c1
  const auto disagreement = [&]() -> std::string {
    for (const auto& g : gens) {
      if (g->unanswered() > 0) return "open-loop requests still unanswered";
    }
    for (int i = 0; i < n; ++i) {
      if (!cluster.replica_up(i)) return "replica " + std::to_string(i) + " down";
      if (cluster.server(i).store().fingerprint() !=
          cluster.server(0).store().fingerprint()) {
        return "replica " + std::to_string(i) +
               " store fingerprint differs from replica 0";
      }
    }
    return "";
  };
  const Time drain_end = cluster.sim().now() + kMaxQuiesce;
  std::string why = "x";
  while (!why.empty() && cluster.sim().now() < drain_end) {
    cluster.run_for(msec(500));
    why = disagreement();
  }
  if (!why.empty()) {
    ep.correct = false;
    ep.error = why + " after a " + std::to_string(kMaxQuiesce / 1000000) +
               " s drain";
  }
  if (cluster.replica_up(0)) {
    ep.digest = fold(ep.digest, cluster.server(0).store().fingerprint());
  }

  // -- Modeled end-to-end metrics --------------------------------------------
  unavail = std::max(unavail, w1 - (last_write_ok < 0 ? w0 : last_write_ok));

  // Operations vs attempts: an operation fails when it never gets an ok
  // reply; every retransmission is a failed attempt (op_fail_ratio).
  uint64_t failed_attempts = not_ok;
  uint64_t attempts = replies_seen;
  if (open_loop) {
    for (const auto& g : gens) {
      ep.attempted += g->requests();
      ep.failed += g->unanswered();
      failed_attempts += g->resends() + g->unanswered();
      attempts += g->resends() + g->unanswered();
    }
    ep.failed += not_ok;
  } else {
    const uint64_t retries = cluster.client_retries();
    ep.attempted = replies_seen;
    ep.failed = not_ok;
    failed_attempts += retries;
    attempts += retries;
  }
  const double window_s = to_ms(s.window) / 1000.0;
  ep.measured_ops = static_cast<double>(window_ops);
  Metrics& m = ep.modeled;
  set(m, "tput_ops", static_cast<double>(window_ops) / window_s, "ops/s");
  if (!read_lat.empty()) {
    set(m, "read_p50_ms", to_ms(static_cast<Duration>(percentile(read_lat, 50))), "ms");
    set(m, "read_p99_ms", to_ms(static_cast<Duration>(percentile(read_lat, 99))), "ms");
    set(m, "read_samples", static_cast<double>(read_lat.size()), "count");
  }
  set(m, "write_p50_ms", to_ms(static_cast<Duration>(percentile(write_lat, 50))), "ms");
  set(m, "write_p99_ms", to_ms(static_cast<Duration>(percentile(write_lat, 99))), "ms");
  set(m, "write_samples", static_cast<double>(write_lat.size()), "count");
  if (s.kind == Kind::kRaftCrash) set(m, "unavail_ms", to_ms(unavail), "ms");
  set(m, "op_fail_ratio",
      static_cast<double>(failed_attempts) /
          static_cast<double>(std::max<uint64_t>(1, attempts)),
      "ratio");
  if (!traced) return ep;

  // -- Per-layer metrics (traced episode) --------------------------------------
  Metrics& l = ep.layer;
  l = empty_layer_metrics();
  const double ops = std::max<double>(1.0, static_cast<double>(window_ops));
  const auto window_events = static_cast<double>(g1.events - g0.events);
  set(l, "sim.events_per_op", window_events / ops, "count");
  set(l, "sim.host_ns_per_event",
      window_events > 0 ? window_host_s * 1e9 / window_events : 0.0, "ns");
  set(l, "sim.pending_events_p50", percentile(pending_samples, 50), "count");
  set(l, "net.msgs_per_op", static_cast<double>(g1.msgs - g0.msgs) / ops, "count");
  set(l, "net.bytes_per_op", static_cast<double>(g1.bytes - g0.bytes) / ops, "B");
  set(l, "net.pool_slab_grows",
      static_cast<double>(cluster.net().pool_stats().slab_grows), "count");
  double util_max = 0.0, util_min = 1e9;
  for (int i = 0; i < n; ++i) {
    const double u = static_cast<double>(g1.busy[static_cast<size_t>(i)] -
                                         g0.busy[static_cast<size_t>(i)]) /
                     static_cast<double>(s.window);
    util_max = std::max(util_max, u);
    util_min = std::min(util_min, u);
  }
  set(l, "harness.cpu_util_max", util_max, "ratio");
  set(l, "harness.cpu_util_min", util_min, "ratio");
  for (int role = 0; role < 2; ++role) {
    set(l, role == 0 ? "harness.handle_ns_per_pkt.leader"
                     : "harness.handle_ns_per_pkt.follower",
        hstats.pkts[role] == 0
            ? 0.0
            : static_cast<double>(hstats.ns[role]) /
                  static_cast<double>(hstats.pkts[role]),
        "ns");
  }
  set(l, "harness.handle_share",
      static_cast<double>(hstats.ns[0] + hstats.ns[1]) / (wall_s * 1e9), "ratio");
  set(l, "harness.client_retries", static_cast<double>(cluster.client_retries()),
      "count");

  // Stage spans of each window write the serving replica committed.
  std::vector<Duration> to_commit, to_apply, to_reply;
  uint64_t reads_done = 0;
  for (const Reply& r : replies) {
    const Time at = open_loop ? r.sent : r.recv;
    if (!r.ok || (r.retried && !open_loop)) continue;
    tracer->span(Span{"client.op", "", "sim_us", r.client, r.seq, r.sent, r.recv});
    if (at < w0 || at >= w1) continue;
    if (r.is_read) {
      ++reads_done;
      continue;
    }
    const auto it = stamps.find(op_key(r.client, r.seq));
    if (it == stamps.end()) continue;
    const Stamp& st = it->second;
    to_commit.push_back(st.commit - r.sent);
    to_apply.push_back(st.apply - st.commit);
    to_reply.push_back(r.recv - st.apply);
    tracer->span(Span{"stage.submit_to_commit", "client.op", "sim_us", r.client,
                      r.seq, r.sent, st.commit});
    tracer->span(Span{"stage.commit_to_apply", "client.op", "sim_us", r.client,
                      r.seq, st.commit, st.apply});
    tracer->span(Span{"stage.apply_to_reply", "client.op", "sim_us", r.client,
                      r.seq, std::min(st.apply, r.recv), std::max(st.apply, r.recv)});
  }
  const auto stage = [&](const char* name, const std::vector<Duration>& v) {
    set(l, std::string("stage.") + name + "_p50_ms",
        to_ms(static_cast<Duration>(percentile(v, 50))), "ms");
    set(l, std::string("stage.") + name + "_p99_ms",
        to_ms(static_cast<Duration>(percentile(v, 99))), "ms");
  };
  stage("submit_to_commit", to_commit);
  stage("commit_to_apply", to_apply);
  stage("apply_to_reply", to_reply);
  set(l, "consensus.ops_per_commit_advance",
      commit_advances == 0 ? 0.0
                           : static_cast<double>(committed_entries) /
                                 static_cast<double>(commit_advances),
      "count");
  set(l, "consensus.leader_changes", static_cast<double>(leader_changes), "count");
  if (s.kind == Kind::kPql && reads_done > 0) {
    set(l, "pql.local_read_frac",
        1.0 - static_cast<double>(reads_in_log) / static_cast<double>(reads_done),
        "ratio");
  }
  if (s.kind == Kind::kMencius && applied_in_window > 0) {
    set(l, "mencius.noop_frac",
        static_cast<double>(noops_in_window) /
            static_cast<double>(applied_in_window),
        "ratio");
  }
  if (s.kind == Kind::kRaftCrash) {
    const uint64_t writes = std::max<uint64_t>(1, write_lat.size());
    set(l, "storage.fsyncs_per_write",
        static_cast<double>(g1.syncs - g0.syncs) / static_cast<double>(writes),
        "count");
    set(l, "storage.replayed_entries", static_cast<double>(replayed), "count");
    set(l, "storage.catchup_ms",
        catchup_done < 0 ? 0.0 : to_ms(catchup_done - restart_time), "ms");
  }

  // Replays, off the modeled clock: the serving replica's applied commands
  // into a fresh store, the read keys into read_local, and the sampled
  // frames through the codec registry.
  const int64_t r0 = cpu_ns();
  std::vector<uint64_t> read_keys;
  for (const Reply& r : replies) {
    if (r.is_read) read_keys.push_back(r.key);
  }
  kv::KvStore replay;
  set(l, "kv.apply_ns_per_op", ns_per_item(applied_cmds.size(), [&] {
        replay = kv::KvStore();
        for (const kv::Command& c : applied_cmds) replay.apply(c);
      }), "ns");
  uint64_t sink_value = 0;
  set(l, "kv.read_local_ns", ns_per_item(read_keys.size(), [&] {
        for (uint64_t k : read_keys) sink_value += replay.read_local(k);
      }), "ns");
  set(l, "kv.keys", static_cast<double>(cluster.server(0).store().size()),
      "count");
  const int64_t r1 = cpu_ns();
  tracer->cpu_span("replay.kv", r0, r1);

  const net::CodecRegistry& reg = net::codec_registry();
  const auto& samples = sampler.samples();
  set(l, "net.decode_ns_per_msg", ns_per_item(samples.size(), [&] {
        for (const auto& smp : samples) {
          const net::FrameView v{smp.bytes.data(), smp.bytes.size()};
          const std::any decoded = reg.find(net::frame_family(v))->decode(v);
          sink_value += decoded.has_value() ? 1 : 0;
        }
      }), "ns");
  net::BufferPool pool;
  set(l, "net.encode_ns_per_msg", ns_per_item(samples.size(), [&] {
        for (const auto& smp : samples) {
          const net::Frame f = reg.find(smp.payload)->encode(smp.payload, pool);
          sink_value += f.size();
        }
      }), "ns");
  tracer->cpu_span("replay.codec", r1, cpu_ns());
  g_replay_sink = sink_value;
  return ep;
}

// ---------------------------------------------------------------------------
// chaos-mix: seeded fault-schedule runs through chaos::run_one.
// ---------------------------------------------------------------------------

/// Host time to build one chaos-shaped world per protocol through leader
/// establishment, as chaos::run_one's warm-up does (its LAN timing knobs).
double chaos_setup_s(uint64_t seed) {
  const int64_t t0 = cpu_ns();
  for (const char* proto : kProtocols) {
    harness::ClusterConfig cc;
    cc.seed = seed;
    harness::Cluster cluster(cc);
    consensus::TimingOptions timing;
    timing.election_timeout_min = msec(300);
    timing.election_timeout_max = msec(600);
    timing.heartbeat_interval = msec(60);
    cluster.build_replicas(proto, timing);
    if (cluster.server(0).leaderless()) {
      cluster.run_for(msec(500));
    } else {
      cluster.establish_leader(0, sec(10));
    }
  }
  return static_cast<double>(cpu_ns() - t0) / 1e9;
}

Episode run_chaos(uint64_t seed, Tracer* tracer) {
  Episode ep;
  ep.setup_s = chaos_setup_s(seed);
  double host_s = 0.0, modeled_s = 0.0, client_ops = 0.0;
  uint64_t leader_changes = 0;
  Metrics layer = empty_layer_metrics();
  // Each cell takes the next distinct schedule seeds, half of them with one
  // client per region and half with two: the client count moves a run's
  // client ops most, so a fixed mix keeps tput_ops from swinging with --seed.
  uint64_t next_seed = seed * 1000;
  for (const Slice& slice : kSlices) {
    for (const char* proto : kProtocols) {
      std::vector<double> run_ms;
      int wanted[2] = {kSeedsPerCell / 2, kSeedsPerCell / 2};
      while (wanted[0] + wanted[1] > 0) {
        chaos::RunOptions opt;
        opt.protocol = proto;
        opt.seed = next_seed++;
        opt.crash_restarts = slice.restarts;
        opt.compaction_log_cap = slice.compaction_cap;
        opt.groups = slice.groups;
        const chaos::Schedule sched = chaos::schedule_of(opt);
        int& slot = wanted[sched.clients_per_region == 1 ? 0 : 1];
        if (slot == 0) continue;
        --slot;
        // Clients run until one second past the last fault window.
        Time faults_end = chaos::effective_limits(opt).faults_until;
        for (const auto& e : sched.events) faults_end = std::max(faults_end, e.to);
        const int64_t t0 = cpu_ns();
        const chaos::RunResult r = chaos::run_one(opt);
        const int64_t t1 = cpu_ns();
        if (tracer != nullptr) {
          tracer->span(Span{"chaos.run_one", "", "cpu_ns", kNoNode, opt.seed, t0, t1});
        }
        run_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        ep.chunk_ns.push_back(t1 - t0);
        ep.calib_ns.push_back(calibration_ns());
        host_s += static_cast<double>(t1 - t0) / 1e9;
        modeled_s += to_ms(faults_end + sec(1)) / 1000.0;
        client_ops += static_cast<double>(r.client_ops);
        leader_changes += r.leader_changes;
        ++ep.attempted;
        ep.digest = fold(ep.digest, r.trace_fingerprint);
        if (!r.ok) {
          ++ep.failed;
          ep.correct = false;
          ep.error = r.repro + ": " +
                     (r.violations.empty() ? "failed" : r.violations.front());
        }
      }
      set(layer, std::string("chaos.run_ms.") + proto + "." + slice.name,
          median(run_ms), "ms");
    }
  }
  ep.sim_host_s = host_s;
  ep.measured_ops = client_ops;
  set(ep.modeled, "tput_ops", client_ops / modeled_s, "ops/s");
  set(ep.modeled, "op_fail_ratio",
      static_cast<double>(ep.failed) / static_cast<double>(ep.attempted),
      "ratio");
  if (tracer != nullptr) {
    set(layer, "chaos.client_ops_per_run",
        client_ops / static_cast<double>(ep.attempted), "count");
    set(layer, "consensus.leader_changes", static_cast<double>(leader_changes),
        "count");
    ep.layer = layer;
  }
  return ep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pql-read90", "mencius-write", "raft-crash-open", "chaos-mix"};
  return names;
}

Episode run_episode(const std::string& workload, uint64_t seed,
                    Tracer* tracer, bool setup_only) {
  const Spec s = spec_of(workload);
  if (s.kind != Kind::kChaos) return run_cluster(s, seed, tracer, setup_only);
  if (!setup_only) return run_chaos(seed, tracer);
  Episode ep;
  ep.setup_s = chaos_setup_s(seed);
  return ep;
}

}  // namespace perfbench
