#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "consensus/applier.h"
#include "consensus/batcher.h"
#include "consensus/durable_log.h"
#include "consensus/env.h"
#include "consensus/group.h"
#include "consensus/log.h"
#include "consensus/node_iface.h"
#include "consensus/pipeline.h"
#include "consensus/timer.h"
#include "consensus/timing.h"
#include "consensus/types.h"
#include "net/packet.h"
#include "storage/persister.h"

namespace praft::consensus {

enum class RaftRole { kFollower, kCandidate, kLeader };

/// Everything Raft and Raft* share. The paper's §3 (Fig. 2) says Raft* differs
/// from Raft in exactly three places — vote replies carry extra entries,
/// followers reject short appends, appends re-ballot the covered log — so the
/// rest lives here once: timer/batcher/persister wiring, elections up to the
/// vote tally, the leader's pipelined replication pump with loss probes,
/// cumulative acks, commit/apply, compaction, snapshot catch-up and crash
/// recovery. Each protocol's node.cpp keeps only its delta.
///
/// Static dispatch (CRTP): `Derived` supplies the delta below and the pump
/// calls it without virtual calls — NodeIface stays the only virtual seam,
/// because the pump runs on every ack. Required of `Derived`:
///   on_request_vote, on_vote_reply, become_leader, on_append_entries,
///   on_append_reject (the reject branch of on_append_reply),
///   advance_commit (the commit rule), hard_state.
/// Optional hooks (defaults below; a protocol hides one to extend it):
///   store_entry, begin_campaign, observe_append_ok.
///
/// `Msgs` names the protocol's types: Entry, Message and its six
/// alternatives (RequestVote, VoteReply, AppendEntries, AppendReply,
/// InstallSnapshot, InstallSnapshotReply), plus `kName` for log lines.
/// wire_size() is found by argument-dependent lookup in the protocol's
/// namespace.
template <typename Derived, typename Msgs>
class RaftFamilyNode : public NodeIface {
 public:
  using Entry = typename Msgs::Entry;
  using Message = typename Msgs::Message;
  using RequestVote = typename Msgs::RequestVote;
  using VoteReply = typename Msgs::VoteReply;
  using AppendEntries = typename Msgs::AppendEntries;
  using AppendReply = typename Msgs::AppendReply;
  using InstallSnapshot = typename Msgs::InstallSnapshot;
  using InstallSnapshotReply = typename Msgs::InstallSnapshotReply;

  /// `store` (nullable) is this node's stable storage: the hard state and
  /// the log persist through it, and every message that depends on them
  /// waits for its fsync barrier (storage::Persister).
  RaftFamilyNode(Group group, Env& env, const TimingOptions& opt,
                 storage::DurableStore* store)
      : group_(std::move(group)),
        env_(env),
        opt_(opt),
        persister_(env, store, opt_.fsync_duration, opt_.sync_batch_delay,
                   [this] { return self().hard_state(); }),
        mirror_(persister_, log_),
        election_(env, opt_.election_timeout_min, opt_.election_timeout_max),
        heartbeat_(env),
        batcher_(env, opt_,
                 [this] {
                   if (role_ == RaftRole::kLeader) broadcast_append();
                 }),
        votes_(group_.majority()),
        pipe_(opt_) {
    group_.validate();
    election_.set_gate([this] { return role_ != RaftRole::kLeader; });
    election_.set_handler([this](bool expired) {
      if (expired) start_election();
    });
    heartbeat_.set_gate([this] { return role_ == RaftRole::kLeader; });
    heartbeat_.set_handler([this] {
      probe_retransmits();
      broadcast_append();
      // Size-leg compaction must also fire on an idle leader after recovery
      // (followers re-evaluate on the commit_to every heartbeat triggers).
      maybe_compact(/*force=*/false);
    });
  }

  /// Arms the election timer. Call once after construction.
  void start() override { election_.start(); }

  /// Feeds a network packet whose payload holds this protocol's Message.
  void on_packet(const net::Packet& p) override {
    const auto* msg = net::payload_as<Message>(p);
    PRAFT_CHECK_MSG(msg != nullptr, "raft-family node got foreign payload");
    std::visit(
        [this](const auto& m) {
          using M = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<M, RequestVote>) {
            self().on_request_vote(m);
          } else if constexpr (std::is_same_v<M, VoteReply>) {
            self().on_vote_reply(m);
          } else if constexpr (std::is_same_v<M, AppendEntries>) {
            self().on_append_entries(m);
          } else if constexpr (std::is_same_v<M, AppendReply>) {
            on_append_reply(m);
          } else if constexpr (std::is_same_v<M, InstallSnapshot>) {
            on_install_snapshot(m);
          } else {
            on_install_reply(m);
          }
        },
        *msg);
  }

  [[nodiscard]] std::optional<size_t> entry_count(
      const net::Packet& p) const override {
    const auto* msg = net::payload_as<Message>(p);
    if (msg == nullptr) return std::nullopt;
    const auto* ae = std::get_if<AppendEntries>(msg);
    return ae == nullptr ? 0 : ae->entries.size();
  }

  /// Leader-only: appends `cmd` to the log and schedules replication.
  /// Returns the assigned index, or -1 when this node is not the leader.
  LogIndex submit(const kv::Command& cmd) override {
    if (role_ != RaftRole::kLeader) return -1;
    // Backpressure: a full replication pipe (batch_backpressure_bytes of
    // pending + un-acked flushed data) refuses new submissions — the same
    // temporary -1 a non-leader gives, which the harness retries later.
    if (!batcher_.can_accept()) return -1;
    self().store_entry(Entry{term_, cmd});
    note_appended();
    batcher_.add_pending(wire::entry_bytes(cmd));
    return last_index();
  }

  /// Registers the in-order apply callback (exactly once per index).
  void set_apply(ApplyFn fn) override { applier_.set_apply(std::move(fn)); }
  void set_watermark_probe(WatermarkProbe probe) override {
    applier_.set_probe(std::move(probe));
  }
  void set_state_hooks(StateCapture capture, StateRestore restore) override {
    applier_.set_state_hooks(std::move(capture), std::move(restore));
  }

  /// Forces a checkpoint + log compaction at the applied watermark now.
  void compact() override { maybe_compact(/*force=*/true); }
  [[nodiscard]] LogIndex compaction_floor() const override {
    return log_.base_index();
  }
  [[nodiscard]] size_t compactable_entries() const override {
    return static_cast<size_t>(applier_.applied() - log_.base_index());
  }
  [[nodiscard]] size_t resident_log_entries() const override {
    return log_.resident_entries();
  }
  [[nodiscard]] int64_t snapshots_installed() const override {
    return snapshots_installed_;
  }
  [[nodiscard]] LogIndex applied_index() const override {
    return applier_.applied();
  }
  [[nodiscard]] int64_t pipeline_rollbacks() const override {
    return pipe_.rollbacks();
  }

  void persist_hard_state() override { persister_.hard_state(); }
  void set_hard_state_probe(HardStateProbe probe) override {
    persister_.set_probe(std::move(probe));
  }

  /// Crash recovery: term and vote from the hard state, the snapshot
  /// installed through the Applier, the log replayed from the WAL suffix.
  storage::RecoveryStats recover(const storage::DurableImage& img) override {
    PRAFT_CHECK_MSG(
        role_ == RaftRole::kFollower && last_index() == 0 && term_ == 0,
        "recover() must run once, on a fresh node, before start()");
    recovering_ = true;
    term_ = img.hard.term;
    voted_for_ = img.hard.vote;
    if (img.snap.valid()) {
      // State transfer from our own disk: the snapshot stands in for the WAL
      // prefix it covers, exactly like a peer-shipped InstallSnapshot.
      applier_.install_snapshot(img.snap);
      snap_ = img.snap;
    }
    const storage::RecoveryStats stats = mirror_.replay(img);
    recovering_ = false;
    PRAFT_LOG(kInfo) << Msgs::kName << " " << group_.self
                     << " recovered: term " << term_ << ", log to "
                     << last_index() << " (" << stats.replayed
                     << " replayed above floor " << stats.snapshot_floor
                     << ")";
    return stats;
  }

  [[nodiscard]] RaftRole role() const { return role_; }
  [[nodiscard]] bool is_leader() const override {
    return role_ == RaftRole::kLeader;
  }
  [[nodiscard]] Term current_term() const { return term_; }
  [[nodiscard]] NodeId leader_hint() const override { return leader_; }
  [[nodiscard]] LogIndex commit_index() const override {
    return applier_.commit_index();
  }
  [[nodiscard]] LogIndex last_index() const { return log_.last_index(); }
  /// Bounds-checked access (PRAFT_CHECK on out-of-range indexes).
  [[nodiscard]] const Entry& entry_at(LogIndex i) const { return log_.at(i); }
  [[nodiscard]] NodeId id() const override { return group_.self; }
  [[nodiscard]] const Group& group() const { return group_; }

  /// Test hook: forces an immediate election attempt.
  void force_election() override { start_election(); }

  /// The commit-quorum'th largest replicated index, self included — the
  /// highest index a quorum holds. The leader counts itself only for its
  /// durable prefix (the mirror's note_appended barrier advances it): a
  /// leader whose disk lags may not treat its volatile log as a replica.
  [[nodiscard]] LogIndex quorum_match_index() const {
    std::vector<LogIndex> matches;
    matches.push_back(mirror_.durable_index());
    for (const auto& [peer, match] : match_index_) matches.push_back(match);
    std::sort(matches.begin(), matches.end(), std::greater<>());
    const auto k =
        static_cast<size_t>(opt_.commit_quorum(group_.majority()) - 1);
    // A durability barrier can clear before the leader maps are (re)built —
    // with fewer known replicas than the quorum, nothing is committable.
    if (k >= matches.size()) return 0;
    return matches[k];
  }

 protected:
  Derived& self() { return static_cast<Derived&>(*this); }

  [[nodiscard]] Term term_at(LogIndex i) const { return log_.at(i).term; }

  // -- Default hooks: a protocol hides one to add its delta. ----------------

  /// Stores `e` at the end of the local log.
  void store_entry(Entry e) { log_.append(std::move(e)); }
  /// Resets candidate-only state at the start of an election.
  void begin_campaign() {}
  /// Sees every current-term ok-AppendReply, after the match index moved
  /// and before the commit rule re-runs.
  void observe_append_ok(const AppendReply&) {}

  // -- Shared machinery. ----------------------------------------------------

  /// Sends `m` once everything it depends on is durable (the Persister's
  /// fsync barrier); returns its wire size.
  template <typename M>
  size_t send_msg(NodeId to, M m) {
    const size_t bytes = wire_size(m);
    persister_.send(to, Message{std::move(m)}, bytes);
    return bytes;
  }

  /// Arms a durability barrier for everything appended so far: when it
  /// clears, the leader re-runs its commit rule (a leader may count ITSELF
  /// only for durably-logged entries — see DurableLogMirror).
  void note_appended() {
    mirror_.note_appended([this] {
      if (role_ == RaftRole::kLeader) self().advance_commit();
    });
  }

  void start_election() {
    ++term_;
    role_ = RaftRole::kCandidate;
    leader_ = kNoNode;
    voted_for_ = group_.self;
    votes_ = QuorumTracker(group_.majority());
    votes_.add(group_.self);
    self().begin_campaign();
    persister_.hard_state();  // the self-vote must survive a crash
    election_.touch();  // restart the clock for this attempt
    PRAFT_LOG(kDebug) << Msgs::kName << " " << group_.self
                      << " starts election term " << term_;
    const RequestVote rv{term_, group_.self, last_index(),
                         term_at(last_index())};
    for (NodeId peer : group_.members) {
      if (peer == group_.self) continue;
      send_msg(peer, rv);
    }
    if (votes_.reached()) self().become_leader();  // single-node group
  }

  void step_down(Term t) {
    if (t > term_) {
      term_ = t;
      voted_for_ = kNoNode;
      persister_.hard_state();
    }
    if (role_ == RaftRole::kLeader) {
      next_index_.clear();
      match_index_.clear();
      heartbeat_.stop();
      // A flush armed while we led must not fire now that we are deposed,
      // and in-flight windows from this reign must not gate (or be retired
      // by stale acks during) a future one.
      batcher_.cancel();
      pipe_.reset_all();
    }
    role_ = RaftRole::kFollower;
  }

  /// The voter side both protocols share: adopt a higher term, then grant at
  /// most one vote per term, to a candidate whose log is at least as
  /// up-to-date as ours (§5.4.1). A granted vote is staged to disk and
  /// defers our own election. Returns whether the vote was granted.
  bool grant_vote(const RequestVote& m) {
    if (m.term > term_) step_down(m.term);
    if (m.term != term_ ||
        (voted_for_ != kNoNode && voted_for_ != m.candidate)) {
      return false;
    }
    const Term my_last_term = term_at(last_index());
    const bool up_to_date =
        m.last_term > my_last_term ||
        (m.last_term == my_last_term && m.last_index >= last_index());
    if (!up_to_date) return false;
    voted_for_ = m.candidate;
    persister_.hard_state();
    election_.touch();
    return true;
  }

  void send_vote_reply(NodeId candidate, VoteReply reply) {
    if (reply.granted && opt_.unsafe_skip_vote_fsync) {
      // TEST-ONLY injected bug: the reply leaves before the vote hits disk.
      const size_t bytes = wire_size(reply);
      persister_.send_unsynced(candidate, Message{std::move(reply)}, bytes);
    } else {
      send_msg(candidate, std::move(reply));
    }
  }

  /// BecomeLeader's shared frame: every peer's nextIndex starts at `next`
  /// and its matchIndex at 0, with no window in flight.
  void assume_leadership(LogIndex next) {
    role_ = RaftRole::kLeader;
    leader_ = group_.self;
    next_index_.clear();
    match_index_.clear();
    pipe_.reset_all();
    for (NodeId peer : group_.members) {
      if (peer == group_.self) continue;
      next_index_[peer] = next;
      match_index_[peer] = 0;
    }
    PRAFT_LOG(kInfo) << Msgs::kName << " " << group_.self
                     << " leader at term " << term_;
  }

  /// Starts leading once the new reign's log is in place: its entries must
  /// reach disk to count, every follower hears from us, heartbeats begin.
  void start_leading() {
    note_appended();
    broadcast_append();
    heartbeat_.start(opt_.heartbeat_interval);
  }

  /// Follower side of any leader message: a stale term is refused (returns
  /// false); otherwise its sender is our leader and our election waits.
  bool follow(Term t, NodeId leader) {
    if (t < term_) return false;
    step_down(t);
    leader_ = leader;
    election_.touch();
    return true;
  }

  /// Compaction clamp for an incoming append. Entries at or below our
  /// snapshot base are committed and applied here, and the leader's copies
  /// are identical (Leader Completeness), so they are skipped and the append
  /// resumes at the base sentinel, whose term check the snapshot already
  /// settled. Returns how many leading entries to skip, or nullopt when the
  /// whole append predates our snapshot (ack it as matched).
  [[nodiscard]] std::optional<size_t> compacted_prefix(
      const AppendEntries& m) const {
    const LogIndex base = log_.base_index();
    if (m.prev_index >= base) return 0;
    const LogIndex covered =
        std::min(static_cast<LogIndex>(m.entries.size()), base - m.prev_index);
    if (m.prev_index + covered < base) return std::nullopt;
    return static_cast<size_t>(covered);
  }

  void broadcast_append() {
    for (NodeId peer : group_.members) {
      if (peer == group_.self) continue;
      replicate_to(peer);
    }
    self().advance_commit();  // single-node groups commit immediately
  }

  /// Pump: send batches until the peer is caught up or its in-flight window
  /// closes (PeerPipeline). nextIndex advances optimistically per batch, so
  /// successive iterations carry disjoint suffixes — multiple AppendEntries
  /// in flight per peer; a reject (or the retransmit probe after a loss)
  /// rolls the window back. An `uncapped` send carries the whole suffix in
  /// one batch (Raft*'s full-replacement resend after a reject, which just
  /// emptied the window, so it is always admitted).
  void replicate_to(NodeId peer, bool uncapped = false) {
    bool sent_any = false;
    for (;;) {
      const LogIndex next = next_index_[peer];
      PRAFT_CHECK(next >= 1);
      if (next <= log_.base_index()) {
        // The entries this follower needs were compacted away: catch it up
        // with the checkpoint instead of log replay (the ported Checkpoint
        // action's state-transfer half).
        if (!pipe_.can_send(peer)) return;
        send_snapshot(peer);
        sent_any = true;
        continue;  // appends pipeline right behind the snapshot
      }
      const bool has_new = last_index() >= next;
      if (!has_new && sent_any) return;  // caught up; no trailing keep-alive
      if (has_new && !pipe_.can_send(peer)) return;  // window full
      const LogIndex prev = next - 1;
      AppendEntries ae;
      ae.term = term_;
      ae.leader = group_.self;
      ae.prev_index = prev;
      ae.prev_term = term_at(std::min(prev, last_index()));
      ae.commit = commit_index();
      const LogIndex hi =
          uncapped ? last_index()
                   : std::min(last_index(),
                              prev + static_cast<LogIndex>(
                                         opt_.max_entries_per_batch));
      for (LogIndex i = prev + 1; i <= hi; ++i) {
        ae.entries.push_back(log_.at(i));
      }
      const size_t bytes = send_msg(peer, std::move(ae));
      // Empty keep-alives stay untracked and ungated: heartbeats must always
      // flow, and their cumulative ok-replies (match == prev) retire every
      // outstanding batch they cover.
      if (!has_new) return;
      pipe_.on_send(peer, next, hi, bytes, env_.now());
      next_index_[peer] = hi + 1;
      sent_any = true;
    }
  }

  /// Loss detection: a peer whose oldest in-flight batch outlived the
  /// retransmit timeout gets its window unwound and its nextIndex rolled
  /// back to the lowest un-acked position; the heartbeat's broadcast_append
  /// then re-sends from there (windowed retransmit probe).
  void probe_retransmits() {
    for (NodeId peer : group_.members) {
      if (peer == group_.self || !pipe_.retransmit_due(peer, env_.now())) {
        continue;
      }
      const LogIndex lo = pipe_.on_loss(peer);
      if (lo >= 1) {
        next_index_[peer] =
            std::max<LogIndex>(1, std::min(next_index_[peer], lo));
      }
    }
  }

  void on_append_reply(const AppendReply& m) {
    if (m.term > term_) {
      step_down(m.term);
      return;
    }
    if (role_ != RaftRole::kLeader || m.term != term_) return;
    if (!m.ok) {
      self().on_append_reject(m);
      return;
    }
    acked(m.follower, m.match_index, &m);
  }

  void on_install_reply(const InstallSnapshotReply& m) {
    if (m.term > term_) {
      step_down(m.term);
      return;
    }
    if (role_ != RaftRole::kLeader || m.term != term_) return;
    acked(m.follower, m.last_index, nullptr);
  }

  /// Cumulative ack: `follower` holds our log through `match`. Retires every
  /// in-flight batch the match covers (feeding the peer's RTT estimate for
  /// adaptive retransmit timeouts), re-runs the commit rule, and refills the
  /// reopened window. `reply` is the ok-AppendReply behind the ack, if any.
  void acked(NodeId follower, LogIndex match, const AppendReply* reply) {
    pipe_.on_ack(follower, match, env_.now());
    match_index_[follower] = std::max(match_index_[follower], match);
    next_index_[follower] = std::max(next_index_[follower], match + 1);
    if (reply != nullptr) self().observe_append_ok(*reply);
    self().advance_commit();
    if (next_index_[follower] <= last_index()) replicate_to(follower);
  }

  void commit_to(LogIndex target) {
    // Committed entries are no longer in flight for the Batcher's backpressure
    // (leader only — a follower never flushed them).
    if (role_ == RaftRole::kLeader) {
      size_t acked_bytes = 0;
      for (LogIndex i = commit_index() + 1; i <= target; ++i) {
        acked_bytes += wire::entry_bytes(log_.at(i).cmd);
      }
      if (acked_bytes > 0) batcher_.note_acked(acked_bytes);
    }
    applier_.commit_to(target,
                       [this](LogIndex i) { return &log_.at(i).cmd; });
    maybe_compact(/*force=*/false);
  }

  void maybe_compact(bool force) {
    if (recovering_ || !applier_.can_snapshot()) return;
    const LogIndex target = applier_.applied();
    const auto compactable = static_cast<size_t>(target - log_.base_index());
    if (!compaction_due(opt_, compactable, force)) return;
    snap_.last_index = target;
    snap_.last_term = term_at(target);
    snap_.state = applier_.capture_state();
    log_.compact_to(target);
    // Durably: the snapshot substitutes for the WAL prefix it covers.
    persister_.snapshot(snap_);
    PRAFT_LOG(kDebug) << Msgs::kName << " " << group_.self
                      << " compacted log to " << target;
  }

  void send_snapshot(NodeId peer) {
    PRAFT_CHECK_MSG(snap_.valid() && snap_.last_index == log_.base_index(),
                    "snapshot does not cover the compacted prefix");
    const size_t bytes =
        send_msg(peer, InstallSnapshot{term_, group_.self, snap_});
    // The snapshot occupies the peer's window like any batch (its reply acks
    // snap_.last_index); a loss rolls nextIndex back below the base, which
    // re-enters the snapshot path.
    pipe_.on_send(peer, next_index_[peer], snap_.last_index, bytes,
                  env_.now());
    // Optimistic pipelining, like replicate_to: resume appends right after
    // the snapshot; the reply (or a reject) corrects the window.
    next_index_[peer] = snap_.last_index + 1;
  }

  void on_install_snapshot(const InstallSnapshot& m) {
    if (follow(m.term, m.leader) && applier_.install_snapshot(m.snap)) {
      ++snapshots_installed_;
      // Persist the snapshot FIRST so the WAL truncation a reset stages is
      // committed against it (staging order = durable apply order).
      persister_.snapshot(m.snap);
      if (m.snap.last_index <= last_index() &&
          m.snap.last_index > log_.base_index() &&
          term_at(m.snap.last_index) == m.snap.last_term) {
        // Our log already holds the matching entry: keep the suffix and
        // just move the base (Raft §7's retain-following-entries case).
        log_.compact_to(m.snap.last_index);
      } else {
        // Short or conflicting log: anything we held beyond the snapshot
        // conflicts with the committed prefix and is uncommitted — drop it.
        log_.reset_to(m.snap.last_index, Entry{m.snap.last_term, {}});
      }
      snap_ = m.snap;
      PRAFT_LOG(kInfo) << Msgs::kName << " " << group_.self
                       << " installed snapshot @" << m.snap.last_index;
    }
    send_msg(m.leader,
             InstallSnapshotReply{term_, group_.self, applier_.applied()});
  }

  Group group_;
  Env& env_;
  TimingOptions opt_;

  // Persistent state: staged into the durable store on every change and
  // replayed from it by recover() after a crash (src/storage). A diskless
  // node (no store) keeps it in memory only.
  Term term_ = 0;
  NodeId voted_for_ = kNoNode;
  ContiguousLog<Entry> log_;

  // Durability plumbing: the persister gates dependent messages on fsyncs;
  // the mirror stages every log mutation into the WAL and tracks the
  // fsync-covered prefix.
  storage::Persister persister_;
  DurableLogMirror<Entry> mirror_;
  bool recovering_ = false;  // gates compaction during recovery

  // Latest checkpoint: always covers exactly the log's compacted prefix
  // (snap_.last_index == log_.base_index() after the first compaction), so
  // any follower behind the base can be served a snapshot.
  Snapshot snap_;
  int64_t snapshots_installed_ = 0;

  // Volatile state.
  RaftRole role_ = RaftRole::kFollower;
  NodeId leader_ = kNoNode;

  // Shared runtime machinery.
  ElectionTimer election_;
  PeriodicTimer heartbeat_;
  Batcher batcher_;
  Applier applier_;

  // Candidate state.
  QuorumTracker votes_;

  // Leader state. Ordered maps: quorum_match_index iterates match_index_,
  // and the visit order must be seed-stable (lint rule D1).
  std::map<NodeId, LogIndex> next_index_;
  std::map<NodeId, LogIndex> match_index_;
  // Per-peer in-flight window: replicate_to pumps batches until it closes;
  // ack/reject/loss events reopen or roll it back.
  PeerPipeline pipe_;
};

}  // namespace praft::consensus
