#include "raftstar/node.h"

#include <algorithm>

#include "common/logging.h"

namespace praft::raftstar {

void RaftStarNode::store_entry(Entry e) {
  log_.append(std::move(e));
  if (entry_observer_) entry_observer_(last_index(), log_.at(last_index()));
}

void RaftStarNode::observe_append_ok(const AppendReply& m) {
  if (append_reply_observer_) {
    append_reply_observer_(m.follower, m.match_index, m.piggyback_ids);
  }
}

void RaftStarNode::begin_campaign() {
  extras_.clear();
  election_snap_ = consensus::Snapshot{};  // a failed election's snapshot is
                                           // no voter's word in this one
  election_last_index_ = last_index();
}

void RaftStarNode::on_request_vote(const RequestVote& m) {
  // Appendix B.2 Phase1b: empty log, or lastTerm <, or == and not longer
  // index-wise than the candidate... with one Raft* twist: a voter whose
  // log is LONGER but on an older last term still votes and ships its
  // extra entries (Fig. 2a lines 14-16) for safe-value selection.
  VoteReply reply;
  reply.granted = grant_vote(m);
  reply.term = term_;
  reply.voter = group_.self;
  if (reply.granted) {
    reply.log_bal = log_bal_;
    // A candidate whose log ends below our snapshot base cannot receive
    // those entries as extras (they were compacted away): ship the
    // checkpoint, and extras resume above it.
    if (m.last_index < log_.base_index() && snap_.valid()) {
      reply.has_snap = true;
      reply.snap = snap_;
    }
    const LogIndex from = std::max(m.last_index, log_.base_index()) + 1;
    reply.extra_from = from;
    for (LogIndex i = from; i <= last_index(); ++i) {
      reply.extras.push_back(log_.at(i));
    }
  }
  send_vote_reply(m.candidate, std::move(reply));
}

void RaftStarNode::on_vote_reply(const VoteReply& m) {
  if (m.term > term_) {
    step_down(m.term);
    return;
  }
  if (role_ != Role::kCandidate || m.term != term_ || !m.granted) return;
  if (votes_.add(m.voter)) {
    if (!m.extras.empty()) {
      extras_.push_back(ExtraLog{m.log_bal, m.extra_from, m.extras});
    }
    if (m.has_snap && m.snap.last_index > election_snap_.last_index) {
      election_snap_ = m.snap;
    }
  }
  if (votes_.reached()) become_leader();
}

void RaftStarNode::become_leader() {
  // Compaction: a voter whose snapshot base is above our log shipped its
  // checkpoint instead of the compacted entries. Install the newest one
  // BEFORE safe-value selection, so the committed prefix it covers is never
  // refilled with no-ops.
  if (election_snap_.valid() && applier_.install_snapshot(election_snap_)) {
    ++snapshots_installed_;
    persister_.snapshot(election_snap_);
    if (election_snap_.last_index <= last_index() &&
        election_snap_.last_index > log_.base_index()) {
      // Keep our accepted suffix (Raft* never erases accepted entries); the
      // values it holds at committed indexes match the chosen ones by the
      // ballot discipline (log_bal >= the choosing ballot).
      log_.compact_to(election_snap_.last_index);
    } else if (election_snap_.last_index > last_index()) {
      // Everything we held is inside the committed checkpoint: superseded.
      log_.reset_to(election_snap_.last_index,
                    Entry{election_snap_.last_term, {}});
    }
    snap_ = election_snap_;
    PRAFT_LOG(kInfo) << "raft* " << group_.self
                     << " installed election snapshot @"
                     << election_snap_.last_index;
  }
  election_snap_ = consensus::Snapshot{};

  // BecomeLeader (Fig. 2a lines 18-29): extend our log with the safe value
  // for every index past our last_index — the value from the reply with the
  // highest log ballot — re-stamped at the current term. Indexes at or
  // below the (possibly just-installed) snapshot base are settled.
  const LogIndex adopt_from =
      std::max(election_last_index_, log_.base_index());
  LogIndex max_extra = adopt_from;
  for (const auto& ex : extras_) {
    max_extra = std::max(
        max_extra, ex.from + static_cast<LogIndex>(ex.entries.size()) - 1);
  }
  for (LogIndex i = adopt_from + 1; i <= max_extra; ++i) {
    Term best_bal = -1;
    const Entry* best = nullptr;
    for (const auto& ex : extras_) {
      const LogIndex off = i - ex.from;
      if (off < 0 || off >= static_cast<LogIndex>(ex.entries.size())) continue;
      if (ex.log_bal > best_bal) {
        best_bal = ex.log_bal;
        best = &ex.entries[static_cast<size_t>(off)];
      }
    }
    // Gaps cannot occur (extras are contiguous suffixes), but guard anyway.
    Entry e;
    e.term = term_;
    e.cmd = best != nullptr ? best->cmd : kv::noop_command();
    store_entry(e);
  }
  extras_.clear();

  log_bal_ = term_;  // the leader's implicit accept covers its whole log
  persister_.hard_state();
  // Full-suffix replacement semantics: every peer starts from the first
  // retained entry (index 1 until the first compaction). Peers behind the
  // base get a snapshot from replicate_to.
  assume_leadership(log_.base_index() + 1);
  // No term-start no-op needed: Raft* re-ballots every covered entry, so
  // prior-term entries commit by counting (the §5.4.2 rule is unnecessary).
  // The safe-value adoptions above must reach disk to count.
  start_leading();
}

void RaftStarNode::send_append_ok(NodeId leader, LogIndex coverage) {
  AppendReply reply;
  reply.term = term_;
  reply.follower = group_.self;
  reply.ok = true;
  reply.match_index = coverage;
  reply.follower_last = last_index();
  if (reply_decorator_) reply.piggyback_ids = reply_decorator_();
  send_msg(leader, std::move(reply));
}

void RaftStarNode::on_append_entries(const AppendEntries& m) {
  if (!follow(m.term, m.leader)) {
    send_msg(m.leader,
             AppendReply{term_, group_.self, false, 0, last_index(), 0, {}});
    return;
  }
  const LogIndex coverage =
      m.prev_index + static_cast<LogIndex>(m.entries.size());
  const std::optional<size_t> skip = compacted_prefix(m);
  if (!skip) {
    send_append_ok(m.leader, coverage);
    return;
  }

  const bool prev_ok =
      *skip > 0 ||
      (m.prev_index <= last_index() && term_at(m.prev_index) == m.prev_term);
  // Raft* difference #2: reject appends whose coverage is shorter than our
  // log instead of erasing our suffix (Appendix B.2 AcceptEntries requires
  // lIndex >= lastIndex).
  if (!prev_ok || coverage < last_index()) {
    AppendReply reply;
    reply.term = term_;
    reply.follower = group_.self;
    reply.ok = false;
    reply.follower_last = last_index();
    // conflict_hint == 0 means "prev matched but coverage was too short:
    // resend from the same prev with the full suffix"; otherwise it is the
    // index the leader should back off to.
    reply.conflict_hint =
        prev_ok ? 0
                : std::max<LogIndex>(1, std::min(last_index() + 1, m.prev_index));
    send_msg(m.leader, std::move(reply));
    return;
  }

  // Replace the whole suffix after prev with the leader's entries, and stamp
  // the covered log at the append's ballot (difference #3).
  log_.truncate_after(m.prev_index + static_cast<LogIndex>(*skip));
  for (size_t k = *skip; k < m.entries.size(); ++k) store_entry(m.entries[k]);
  log_bal_ = m.term;
  persister_.hard_state();
  note_appended();

  commit_to(std::min(m.commit, last_index()));
  send_append_ok(m.leader, coverage);
}

void RaftStarNode::on_append_reject(const AppendReply& m) {
  // Unwind everything pipelined behind the rejected batch before backing
  // off — the full-replacement resend below supersedes it all.
  pipe_.on_reject(m.follower);
  if (m.follower_last > last_index()) {
    // The follower's log is longer than ours. Extend our log with no-ops so
    // our coverage can overwrite its (necessarily uncommitted) suffix; the
    // safe-value selection at election time already recovered anything
    // that could have been committed.
    while (last_index() < m.follower_last) {
      store_entry(Entry{term_, kv::noop_command()});
    }
    note_appended();
  }
  if (m.conflict_hint == 0) {
    // Coverage was too short; resend the whole retained suffix
    // (full-replacement semantics make prev = base always valid).
    next_index_[m.follower] = log_.base_index() + 1;
  } else {
    next_index_[m.follower] = std::max<LogIndex>(
        1, std::min(next_index_[m.follower] - 1, m.conflict_hint));
  }
  replicate_to(m.follower, /*uncapped=*/true);
}

void RaftStarNode::advance_commit() {
  if (role_ != Role::kLeader) return;
  const LogIndex target = quorum_match_index();
  // No current-term check: every successful reply re-accepted the covered
  // prefix at this term's ballot (LeaderLearn in Fig. 2b).
  LogIndex allowed = commit_index();
  while (allowed < target) {
    const LogIndex next = allowed + 1;
    if (commit_gate_ && !commit_gate_(next)) break;  // PQL holder gating
    allowed = next;
  }
  // Every evaluation reaches commit_to, even without progress: its
  // maybe_compact re-checks the interval compaction leg.
  commit_to(allowed);
}

}  // namespace praft::raftstar
