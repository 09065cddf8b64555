#pragma once

#include <functional>
#include <vector>

#include "consensus/env.h"
#include "consensus/group.h"
#include "consensus/raft_family.h"
#include "consensus/timing.h"
#include "consensus/types.h"
#include "raftstar/messages.h"
#include "storage/persister.h"

namespace praft::raftstar {

/// Raft* shares every timing knob with the rest of the repo (see
/// consensus::TimingOptions); the struct exists for protocol-scoped naming.
struct Options : consensus::TimingOptions {};

using Role = consensus::RaftRole;

/// Raft*'s types, as the shared Raft-family core names them.
struct Msgs {
  using Entry = raftstar::Entry;
  using Message = raftstar::Message;
  using RequestVote = raftstar::RequestVote;
  using VoteReply = raftstar::VoteReply;
  using AppendEntries = raftstar::AppendEntries;
  using AppendReply = raftstar::AppendReply;
  using InstallSnapshot = raftstar::InstallSnapshot;
  using InstallSnapshotReply = raftstar::InstallSnapshotReply;
  static constexpr const char* kName = "raft*";
};

/// Raft* — the paper's Raft variant that refines MultiPaxos (§3, Fig. 2):
///  1. Vote replies return the voter's extra log entries; the new leader
///     extends its log with safe values (highest log ballot per index)
///     instead of followers erasing their longer logs.
///  2. A follower REJECTS an append whose coverage (prev + |entries|) is
///     shorter than its own log — Raft* never erases accepted entries, it
///     only overwrites them with a full replacement suffix.
///  3. Every accepted append overwrites the ballot of all covered entries
///     with the append's term (tracked as the uniform `log_bal_` watermark),
///     which is why Raft* needs no §5.4.2 commit restriction.
///
/// Replication, catch-up, compaction, recovery and the runtime wiring are
/// the Raft-family core (consensus::RaftFamilyNode, shared with Raft). This
/// class holds only the deltas above:
///  * on_request_vote / on_vote_reply / begin_campaign: difference #1's
///    extra entries (and checkpoint) collected per election;
///  * become_leader: the election snapshot plus safe-value adoption;
///  * on_append_entries: differences #2 and #3;
///  * on_append_reject: extend with no-ops, resend the full suffix;
///  * advance_commit: count replicas at any term, through the PQL gate;
///  * log_bal_ and the non-mutating optimization hooks (§4.2).
class RaftStarNode final
    : public consensus::RaftFamilyNode<RaftStarNode, Msgs> {
  using Base = consensus::RaftFamilyNode<RaftStarNode, Msgs>;
  friend Base;

 public:
  using Options = raftstar::Options;

  /// `store` (nullable) is this node's stable storage: term/votedFor, the
  /// log and its uniform ballot persist through it; dependent messages wait
  /// on the fsync barrier (storage::Persister).
  RaftStarNode(consensus::Group group, consensus::Env& env, Options opt = {},
               storage::DurableStore* store = nullptr)
      : Base(std::move(group), env, opt, store) {}

  /// Raft*'s hard state: currentTerm + votedFor, plus the uniform log
  /// ballot (aux) — a recovered log must remember the ballot its entries
  /// were last re-accepted at or safe-value selection breaks.
  [[nodiscard]] consensus::HardState hard_state() const override {
    return consensus::HardState{term_, voted_for_, -1, log_bal_, -1};
  }
  storage::RecoveryStats recover(const storage::DurableImage& img) override {
    log_bal_ = img.hard.aux;
    return Base::recover(img);
  }

  /// Hook invoked when the leader learns a new commit index (used by the
  /// ported optimizations: Raft*-PQL gates commit on lease holders here).
  using CommitGate = std::function<bool(LogIndex)>;
  void set_commit_gate(CommitGate gate) { commit_gate_ = std::move(gate); }

  /// Re-evaluates the commit gate (PQL calls this when holder acks arrive).
  void retry_commit() { advance_commit(); }

  [[nodiscard]] Term log_bal() const { return log_bal_; }

  /// Observer invoked for every successful AppendReply the leader receives
  /// (non-mutating hook per §4.2 — it may read but never mutates Raft* state;
  /// Raft*-PQL uses it to collect lease-holder acknowledgements).
  using AppendReplyObserver = std::function<void(
      NodeId follower, LogIndex match, const std::vector<NodeId>& piggyback)>;
  void set_append_reply_observer(AppendReplyObserver obs) {
    append_reply_observer_ = std::move(obs);
  }

  /// Piggyback hook: ids attached to our AppendReply messages (Raft*-PQL
  /// attaches the holders of leases granted by this replica; Fig. 13).
  using ReplyDecorator = std::function<std::vector<NodeId>()>;
  void set_reply_decorator(ReplyDecorator dec) {
    reply_decorator_ = std::move(dec);
  }

  /// Observer invoked whenever an entry is stored into the LOCAL log
  /// (leader submit, safe-value adoption, follower suffix replacement).
  /// Raft*-PQL tracks per-key last-write indexes with it; like all
  /// optimization hooks it must not mutate Raft* state (§4.2).
  using EntryObserver = std::function<void(LogIndex, const Entry&)>;
  void set_entry_observer(EntryObserver obs) {
    entry_observer_ = std::move(obs);
  }

 private:
  void on_request_vote(const RequestVote& m);
  void on_vote_reply(const VoteReply& m);
  void begin_campaign();
  void become_leader();
  void on_append_entries(const AppendEntries& m);
  void send_append_ok(NodeId leader, LogIndex coverage);
  void on_append_reject(const AppendReply& m);
  void advance_commit();
  void store_entry(Entry e);  // append + observer
  void observe_append_ok(const AppendReply& m);

  Term log_bal_ = 0;  // uniform per-entry ballot (see Entry doc)

  // Candidate state: collected extra entries per voter.
  struct ExtraLog {
    Term log_bal;
    LogIndex from;
    std::vector<Entry> entries;
  };
  std::vector<ExtraLog> extras_;
  LogIndex election_last_index_ = 0;  // our last_index when we solicited votes
  // Newest checkpoint shipped by a voter (see VoteReply::has_snap):
  // installed in BecomeLeader before safe-value selection.
  consensus::Snapshot election_snap_;

  CommitGate commit_gate_;
  AppendReplyObserver append_reply_observer_;
  ReplyDecorator reply_decorator_;
  EntryObserver entry_observer_;
};

}  // namespace praft::raftstar
