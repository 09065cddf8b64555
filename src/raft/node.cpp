#include "raft/node.h"

#include <algorithm>

#include "common/logging.h"

namespace praft::raft {

void RaftNode::on_request_vote(const RequestVote& m) {
  const bool granted = grant_vote(m);
  send_vote_reply(m.candidate, VoteReply{term_, group_.self, granted});
}

void RaftNode::on_vote_reply(const VoteReply& m) {
  if (m.term > term_) {
    step_down(m.term);
    return;
  }
  if (role_ != Role::kCandidate || m.term != term_ || !m.granted) return;
  votes_.add(m.voter);
  if (votes_.reached()) become_leader();
}

void RaftNode::become_leader() {
  assume_leadership(last_index() + 1);
  // Commit a no-op to pull prior-term entries to commit (§5.4.2 workaround —
  // Raft cannot count replicas of old-term entries directly).
  log_.append(Entry{term_, kv::noop_command()});
  start_leading();
}

void RaftNode::on_append_entries(const AppendEntries& m) {
  if (!follow(m.term, m.leader)) {
    send_msg(m.leader, AppendReply{term_, group_.self, false, 0, 0});
    return;
  }
  const LogIndex match = m.prev_index + static_cast<LogIndex>(m.entries.size());
  const std::optional<size_t> skip = compacted_prefix(m);
  if (!skip) {
    send_msg(m.leader, AppendReply{term_, group_.self, true, match, 0});
    return;
  }
  if (*skip == 0 &&
      (m.prev_index > last_index() || term_at(m.prev_index) != m.prev_term)) {
    // Consistency check failed; hint the leader where to back off.
    const LogIndex hint = std::min(last_index() + 1, m.prev_index);
    send_msg(m.leader, AppendReply{term_, group_.self, false, 0,
                                   std::max<LogIndex>(1, hint)});
    return;
  }

  // Append, erasing any conflicting suffix (the behaviour that prevents a
  // direct refinement mapping to Paxos — see paper §3).
  LogIndex idx = m.prev_index + static_cast<LogIndex>(*skip);
  for (size_t k = *skip; k < m.entries.size(); ++k) {
    const Entry& e = m.entries[k];
    ++idx;
    if (idx <= last_index()) {
      if (log_.at(idx).term != e.term) {
        log_.truncate_after(idx - 1);  // erase extraneous entries
        log_.append(e);
      }
    } else {
      log_.append(e);
    }
  }
  note_appended();
  commit_to(std::min(m.commit, match));
  // The ok-reply is what lets the leader count this replica toward a commit
  // quorum, so it must not leave before the appended entries (and any term
  // bump above) are durable — send_msg gates it on the fsync barrier.
  send_msg(m.leader, AppendReply{term_, group_.self, true, match, 0});
}

void RaftNode::on_append_reject(const AppendReply& m) {
  // The peer's log diverged below our window: everything pipelined after
  // the rejected batch is garbage too, so unwind it all before backing
  // nextIndex off.
  pipe_.on_reject(m.follower);
  next_index_[m.follower] = std::max<LogIndex>(
      1, std::min(next_index_[m.follower] - 1, m.conflict_hint));
  replicate_to(m.follower);
}

void RaftNode::advance_commit() {
  // §5.4.2: only a current-term entry commits by counting replicas; the
  // prior-term entries below it commit with it. Terms never decrease along
  // the log and the leader's term is its log's highest, so the highest
  // quorum-held index either carries the current term or no index does.
  // Clamp to our own log: an ack may claim a match beyond it (a same-term
  // reply under the injected vote-fsync bug).
  const LogIndex n = std::min(quorum_match_index(), last_index());
  if (n > commit_index() && term_at(n) == term_) commit_to(n);
}

}  // namespace praft::raft
