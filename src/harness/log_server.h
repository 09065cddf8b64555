#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "consensus/node_iface.h"
#include "consensus/registry.h"
#include "harness/cost_model.h"
#include "harness/host.h"
#include "harness/messages.h"
#include "kv/store.h"

namespace praft::harness {

/// Pending client-op bookkeeping: maps a log index to where the reply must
/// go once the entry executes.
struct PendingOp {
  NodeId client = kNoNode;   // reply directly to this client...
  NodeId origin = kNoNode;   // ...or relay via this forwarding server
  uint64_t seq = 0;
  kv::Command cmd;           // for identity verification after leader changes
};

// Ordered: snapshot installation walks this map to drop covered replies, and
// the walk order must be seed-stable (lint rule D1). Keys are log indexes,
// so ordered erasure of the covered prefix is also the natural shape.
using PendingMap = std::map<int64_t, PendingOp>;

/// The one replica adapter: it owns the KV state machine and the
/// client-facing plumbing, and drives a runtime-polymorphic protocol node
/// (consensus::NodeIface). Client requests (reads AND writes — the paper's
/// baselines persist reads in the log, §4.4 "Paxos Quorum Lease") are
/// submitted where they arrive when that replica may propose; otherwise they
/// are forwarded to the leader etcd-style and the reply is relayed.
///
/// The reply leaves after apply, or earlier when the node acknowledges its
/// own proposals itself (NodeIface::set_early_ack: Mencius's commutative
/// ack). Such a node answers every command it proposed, so the adapter
/// keeps no pending entry for it.
class LogServer : public PacketHandler {
 public:
  /// Selects the protocol by registry name ("raft", "raftstar",
  /// "multipaxos", "mencius", or anything registered later). `store`
  /// (nullable) is the replica's stable storage; when it already holds
  /// durable state the node is rebuilt from it (crash-restart recovery)
  /// before start().
  LogServer(NodeHost& host, consensus::Group group, CostModel costs,
            const std::string& protocol,
            const consensus::TimingOptions& timing = {},
            storage::DurableStore* store = nullptr)
      : LogServer(host, costs,
                  consensus::make_node(protocol, std::move(group), host,
                                       timing, store),
                  store) {}

  /// Wraps an already-constructed node (typed adapters, tests).
  LogServer(NodeHost& host, CostModel costs,
            std::unique_ptr<consensus::NodeIface> node,
            storage::DurableStore* store = nullptr)
      : host_(host), costs_(costs), node_(std::move(node)) {
    PRAFT_CHECK_MSG(node_ != nullptr, "LogServer needs a protocol node");
    host_.attach(this);
    node_->set_apply([this](consensus::LogIndex i, const kv::Command& c) {
      on_apply(i, c);
    });
    early_ack_ = node_->set_early_ack(
        [this](const kv::Command& c) { on_early_ack(c); });
    // Snapshot plumbing: the adapter owns the state machine, so it supplies
    // the capture/restore halves of the ported Checkpoint action. Without
    // these hooks the node can neither compact nor install snapshots.
    node_->set_state_hooks(
        [this] { return store_.image(); },
        [this](const kv::StoreImage& img, consensus::LogIndex last_index) {
          store_.restore(img);
          // Replies pending at snapshot-covered indexes can never be served
          // from an apply anymore; drop them (clients retry end-to-end).
          for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->first <= last_index) {
              it = pending_.erase(it);
            } else {
              ++it;
            }
          }
          if (snapshot_probe_) {
            snapshot_probe_(id(), last_index, store_.fingerprint());
          }
        });
    // Crash-restart recovery: a store that already holds durable state means
    // this server replaces a crashed incarnation — rebuild the node from it
    // (state hooks above are live, so the snapshot restores and the WAL
    // suffix re-applies into the fresh kv store).
    if (store != nullptr && store->has_state()) {
      recovery_ = node_->recover(store->image());
    }
  }

  virtual void start() { node_->start(); }
  [[nodiscard]] bool is_leader() const { return node_->is_leader(); }
  /// True when the protocol has no single elected leader (see
  /// consensus::NodeIface::leaderless).
  [[nodiscard]] bool leaderless() const { return node_->leaderless(); }
  /// Kicks off an immediate election attempt (used to pin the leader site).
  void trigger_election() { node_->force_election(); }
  /// Highest position this replica knows committed (exposed for
  /// chaos/invariant tracing).
  [[nodiscard]] consensus::LogIndex commit_index() const {
    return node_->commit_index();
  }

  [[nodiscard]] NodeId id() const { return host_.id(); }
  [[nodiscard]] SiteId site() const { return host_.site(); }
  [[nodiscard]] const kv::KvStore& store() const { return store_; }
  [[nodiscard]] NodeHost& host() { return host_; }

  consensus::NodeIface& node_iface() { return *node_; }
  [[nodiscard]] const consensus::NodeIface& node_iface() const {
    return *node_;
  }

  /// What recovery did when this server was rebuilt from a durable store
  /// (recovered == false for a fresh start).
  [[nodiscard]] const storage::RecoveryStats& recovery() const {
    return recovery_;
  }

  /// Test probe: observes every (index, command) this replica applies.
  using ApplyProbe =
      std::function<void(NodeId, consensus::LogIndex, const kv::Command&)>;
  void set_apply_probe(ApplyProbe probe) { apply_probe_ = std::move(probe); }

  /// Test probe: observes every snapshot install on this replica — the
  /// covered last index plus the store fingerprint right after the restore
  /// (chaos invariants verify it equals replaying the agreed prefix).
  using SnapshotProbe =
      std::function<void(NodeId, consensus::LogIndex, uint64_t store_fp)>;
  void set_snapshot_probe(SnapshotProbe probe) {
    snapshot_probe_ = std::move(probe);
  }

  void handle(const net::Packet& p) override {
    if (const auto* hm = net::payload_as<Message>(p)) {
      on_harness_message(*hm);
      return;
    }
    if (handle_other(p)) return;
    // Silently drop foreign packet families (a lease message reaching a
    // plain replica, etc.) instead of letting the node CHECK-fail on them.
    if (!node_->entry_count(p)) return;
    node_->on_packet(p);
  }

  [[nodiscard]] Duration cost_of(const net::Packet& p) const override {
    if (!costs_.enabled) return 0;
    // Every branch charges from p.bytes — the exact encoded frame size —
    // so a 4 KB-value request costs more to receive than an 8 B one, and
    // replies (which echo commands on the forward path) are billed for what
    // they actually carry.
    if (const auto* hm = net::payload_as<Message>(p)) {
      if (std::holds_alternative<ClientRequest>(*hm)) {
        return (is_leader() ? costs_.client_request : costs_.forward_handle) +
               costs_.size_cost(p.bytes);
      }
      if (std::holds_alternative<Forward>(*hm)) {
        return costs_.client_request + costs_.size_cost(p.bytes);
      }
      return costs_.receive_cost(p.bytes);
    }
    if (const auto entries = node_->entry_count(p)) {
      return costs_.message_base +
             static_cast<Duration>(*entries) * costs_.entry_follower +
             costs_.size_cost(p.bytes);
    }
    return costs_.receive_cost(p.bytes);
  }

 protected:
  /// Subclasses (PQL, LL) intercept extra message families here. Return true
  /// when the packet was consumed; anything else goes to the protocol node.
  virtual bool handle_other(const net::Packet& p) {
    (void)p;
    return false;
  }

  /// Subclasses may divert reads (lease-based local reads). Return true when
  /// the request was fully handled.
  virtual bool try_serve_read(const kv::Command& cmd, NodeId reply_to,
                              bool via_forward, NodeId origin) {
    (void)cmd;
    (void)reply_to;
    (void)via_forward;
    (void)origin;
    return false;
  }

  void reply_to_client(NodeId client, uint64_t seq, uint64_t value, bool ok) {
    ClientReply r{seq, value, ok, id()};
    host_.send(client, Message{r}, wire_size(r));
  }

  void on_harness_message(const Message& hm) {
    if (const auto* req = std::get_if<ClientRequest>(&hm)) {
      submit_or_forward(req->cmd, /*origin=*/kNoNode);
    } else if (const auto* fwd = std::get_if<Forward>(&hm)) {
      submit_or_forward(fwd->cmd, fwd->origin);
    } else if (const auto* fr = std::get_if<ForwardReply>(&hm)) {
      reply_to_client(fr->cmd.client, fr->cmd.seq, fr->value, fr->ok);
    }
    // ClientReply is never addressed to a server.
  }

  void submit_or_forward(const kv::Command& cmd, NodeId origin) {
    if (cmd.is_read() &&
        try_serve_read(cmd, cmd.client, origin != kNoNode, origin)) {
      return;
    }
    if (node_->is_leader()) {
      const consensus::LogIndex idx = node_->submit(cmd);
      if (idx >= 0) {
        if (!early_ack_) {
          pending_[idx] = PendingOp{cmd.client, origin, cmd.seq, cmd};
        }
        return;
      }
    }
    const NodeId leader = node_->leader_hint();
    if (origin == kNoNode) {
      if (leader != kNoNode && leader != id()) {
        Forward f{cmd, id()};
        host_.send(leader, Message{f}, wire_size(f));
      } else {
        // No known leader yet (startup or failover window): re-attempt
        // shortly instead of forcing the client into its long retry.
        host_.schedule(msec(100),
                       [this, cmd] { submit_or_forward(cmd, kNoNode); });
      }
    }
    // Forwarded requests that miss the leader are dropped; the origin
    // server's client retries end-to-end.
  }

  /// An early-acking node answers only its own proposals, and every replica
  /// of such a protocol proposes what its clients send it, so the reply goes
  /// straight to the command's client. An early-acked read is safe because
  /// no conflicting write is pending (the node's commute check), so the
  /// local copy is current.
  void on_early_ack(const kv::Command& cmd) {
    if (cmd.client == kNoNode) return;
    const uint64_t value = cmd.is_read() ? store_.read_local(cmd.key) : 0;
    reply_to_client(cmd.client, cmd.seq, value, true);
  }

  void on_apply(consensus::LogIndex idx, const kv::Command& cmd) {
    const kv::ApplyResult res = store_.apply(cmd);
    if (apply_probe_) apply_probe_(id(), idx, cmd);
    on_applied_hook(idx, cmd);
    auto it = pending_.find(idx);
    if (it == pending_.end()) return;
    const PendingOp op = it->second;
    pending_.erase(it);
    // A leader change may have replaced the entry at this index: reply only
    // when the committed command is the one we proposed.
    if (!(op.cmd == cmd)) return;
    if (op.origin != kNoNode && op.origin != id()) {
      ForwardReply fr{cmd, res.value, true};
      host_.send(op.origin, Message{fr}, wire_size(fr));
    } else {
      reply_to_client(op.client, op.seq, res.value, true);
    }
  }

  /// Subclass hook invoked after each apply (PQL wakes pending local reads).
  virtual void on_applied_hook(consensus::LogIndex idx,
                               const kv::Command& cmd) {
    (void)idx;
    (void)cmd;
  }

  NodeHost& host_;
  CostModel costs_;
  kv::KvStore store_;
  std::unique_ptr<consensus::NodeIface> node_;
  bool early_ack_ = false;
  PendingMap pending_;
  ApplyProbe apply_probe_;
  SnapshotProbe snapshot_probe_;
  storage::RecoveryStats recovery_;
};

/// Older name of the adapter, kept for callers that still use it.
using ReplicaServer = LogServer;

/// Typed wrapper for adapters (and tests) that need the concrete node type —
/// PQL installs Raft*-specific observers, Mencius tests read skip counters.
/// Everything else about the server is the runtime LogServer.
template <typename Node>
class TypedLogServer : public LogServer {
 public:
  TypedLogServer(NodeHost& host, consensus::Group group, CostModel costs,
                 typename Node::Options opt = {},
                 storage::DurableStore* store = nullptr)
      : LogServer(host, costs,
                  std::make_unique<Node>(std::move(group), host, opt, store),
                  store) {}

  Node& node() { return static_cast<Node&>(*node_); }
  [[nodiscard]] const Node& node() const {
    return static_cast<const Node&>(*node_);
  }
};

}  // namespace praft::harness
