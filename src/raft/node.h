#pragma once

#include "consensus/env.h"
#include "consensus/group.h"
#include "consensus/raft_family.h"
#include "consensus/timing.h"
#include "consensus/types.h"
#include "raft/messages.h"
#include "storage/persister.h"

namespace praft::raft {

/// Tunables. All of Raft's timing knobs are the shared consensus ones; the
/// struct exists so call sites keep a protocol-scoped name.
struct Options : consensus::TimingOptions {};

using Role = consensus::RaftRole;

/// Raft's types, as the shared Raft-family core names them.
struct Msgs {
  using Entry = raft::Entry;
  using Message = raft::Message;
  using RequestVote = raft::RequestVote;
  using VoteReply = raft::VoteReply;
  using AppendEntries = raft::AppendEntries;
  using AppendReply = raft::AppendReply;
  using InstallSnapshot = raft::InstallSnapshot;
  using InstallSnapshotReply = raft::InstallSnapshotReply;
  static constexpr const char* kName = "raft";
};

/// Standard Raft (Ongaro & Ousterhout 2014) as the paper's baseline:
/// randomized elections, AppendEntries with conflict-suffix erasure, in-order
/// commit, and the §5.4.2 restriction (only current-term entries commit by
/// counting). This is the protocol Raft* deviates from (see src/raftstar).
///
/// Replication, catch-up, compaction, recovery and the runtime wiring are
/// the Raft-family core (consensus::RaftFamilyNode). This class holds only
/// Raft's side of the paper's Fig. 1/2 delta:
///  * on_request_vote / on_vote_reply: plain votes, no extra entries;
///  * become_leader: the term-start no-op (§5.4.2 workaround);
///  * on_append_entries: erase the conflicting suffix;
///  * on_append_reject: back nextIndex off to the follower's hint;
///  * advance_commit: count replicas only for a current-term entry.
class RaftNode final : public consensus::RaftFamilyNode<RaftNode, Msgs> {
  using Base = consensus::RaftFamilyNode<RaftNode, Msgs>;
  friend Base;

 public:
  using Options = raft::Options;

  /// `store` (nullable) is this node's stable storage: currentTerm/votedFor
  /// and the log persist through it, and every message that depends on them
  /// waits for its fsync barrier (storage::Persister).
  RaftNode(consensus::Group group, consensus::Env& env, Options opt = {},
           storage::DurableStore* store = nullptr)
      : Base(std::move(group), env, opt, store) {}

  /// Raft's hard state: currentTerm + votedFor (§5 "Persistent state").
  [[nodiscard]] consensus::HardState hard_state() const override {
    return consensus::HardState{term_, voted_for_, -1, 0, -1};
  }

 private:
  void on_request_vote(const RequestVote& m);
  void on_vote_reply(const VoteReply& m);
  void become_leader();
  void on_append_entries(const AppendEntries& m);
  void on_append_reject(const AppendReply& m);
  void advance_commit();
};

}  // namespace praft::raft
