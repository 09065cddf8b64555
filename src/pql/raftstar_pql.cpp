#include "pql/raftstar_pql.h"

#include "pql/leader_lease.h"

namespace praft::pql {

RaftStarPqlServer::RaftStarPqlServer(harness::NodeHost& host,
                                     consensus::Group group,
                                     harness::CostModel costs,
                                     raftstar::Options opt, PqlOptions popt,
                                     storage::DurableStore* store)
    : TypedLogServer(host, group, costs, opt, store), popt_(popt),
      leases_(group, host, popt.lease) {
  // Non-mutating hooks (§4.2): all PQL state lives in this adapter.
  node().set_entry_observer(
      [this](consensus::LogIndex i, const raftstar::Entry& e) {
        if (e.cmd.is_write()) last_write_[e.cmd.key] = i;
      });
  node().set_reply_decorator(
      [this] { return leases_.granted_holders(host_.now()); });
  node().set_append_reply_observer(
      [this](NodeId follower, consensus::LogIndex match,
             const std::vector<NodeId>& holders) {
        auto& ack = follower_acks_[follower];
        ack.match = std::max(ack.match, match);
        ack.holders = holders;
      });
  node().set_commit_gate(
      [this](consensus::LogIndex i) { return commit_allowed(i); });
}

void RaftStarPqlServer::start() {
  TypedLogServer::start();
  leases_.start();
  arm_gate_retry();
}

void RaftStarPqlServer::arm_gate_retry() {
  // Leases expire on the clock, not on message arrival: re-run LeaderLearn
  // periodically so commits blocked on a dead holder unblock at expiry.
  const uint64_t epoch = ++gate_epoch_;
  host_.schedule(popt_.gate_retry, [this, epoch] {
    if (epoch != gate_epoch_) return;
    if (node().is_leader()) node().retry_commit();
    arm_gate_retry();
  });
}

bool RaftStarPqlServer::handle_other(const net::Packet& p) {
  if (const auto* lm = net::payload_as<lease::Message>(p)) {
    leases_.on_message(*lm);
    return true;
  }
  return false;
}

bool RaftStarPqlServer::commit_allowed(consensus::LogIndex i) const {
  // LeaderLearn (Fig. 13): holderSet = holders piggybacked by the followers
  // that acknowledged index i ∪ holders granted by the leader itself.
  const Time now = host_.now();
  std::set<NodeId> holder_set;
  if (popt_.include_leader_grants) {
    for (NodeId h : leases_.granted_holders(now)) holder_set.insert(h);
  }
  for (const auto& [follower, ack] : follower_acks_) {
    if (ack.match < i) continue;
    for (NodeId h : ack.holders) holder_set.insert(h);
  }
  for (NodeId h : holder_set) {
    if (h == id()) continue;  // the leader's own appendOK is implicit
    auto it = follower_acks_.find(h);
    if (it == follower_acks_.end() || it->second.match < i) return false;
  }
  return true;
}

bool RaftStarPqlServer::try_serve_read(const kv::Command& cmd, NodeId,
                                       bool, NodeId origin) {
  // LocalRead (Fig. 13): quorum lease + every write to the key committed.
  if (!leases_.quorum_lease_active(host_.now())) return false;
  const consensus::LogIndex need = last_write_index(cmd.key);
  if (need <= node().commit_index()) {
    serve_read_now(cmd, origin);
  } else {
    pending_reads_.push_back(PendingRead{cmd, origin, need});
  }
  return true;
}

void RaftStarPqlServer::serve_read_now(const kv::Command& cmd, NodeId origin) {
  ++local_reads_;
  const uint64_t value = store_.read_local(cmd.key);
  if (origin != kNoNode && origin != id()) {
    harness::ForwardReply fr{cmd, value, true};
    host_.send(origin, harness::Message{fr}, harness::wire_size(fr));
  } else {
    reply_to_client(cmd.client, cmd.seq, value, true);
  }
}

void RaftStarPqlServer::on_applied_hook(consensus::LogIndex,
                                        const kv::Command&) {
  drain_pending_reads();
}

void RaftStarPqlServer::drain_pending_reads() {
  const Time now = host_.now();
  for (auto it = pending_reads_.begin(); it != pending_reads_.end();) {
    if (it->need > node().commit_index()) {
      ++it;
      continue;
    }
    if (leases_.quorum_lease_active(now)) {
      serve_read_now(it->cmd, it->origin);
    } else {
      // The lease lapsed while we waited: fall back to the log path.
      submit_or_forward(it->cmd, it->origin);
    }
    it = pending_reads_.erase(it);
  }
}

std::unique_ptr<harness::LogServer> make_lease_server(
    const std::string& name, harness::NodeHost& host, consensus::Group group,
    harness::CostModel costs, const consensus::TimingOptions& timing,
    storage::DurableStore* store) {
  raftstar::Options opt;
  static_cast<consensus::TimingOptions&>(opt) = timing;
  if (name == "raftstar-pql") {
    return std::make_unique<RaftStarPqlServer>(host, std::move(group), costs,
                                               opt, PqlOptions{}, store);
  }
  if (name == "raftstar-ll") {
    return std::make_unique<LeaderLeaseServer>(host, std::move(group), costs,
                                               opt, lease::Options{}, store);
  }
  return nullptr;
}

}  // namespace praft::pql
