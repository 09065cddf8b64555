#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "shard/shard_map.h"

namespace praft::shard {

/// Client-side routing table: key -> owning group (via the ShardMap) ->
/// contact replica for that group. The contact is static — in a flat
/// cluster the client's regional replica (a one-group route), otherwise the
/// group's preferred-leader replica under the cluster's placement policy —
/// so a router lookup is two array reads on the client hot path. Leader
/// movement (elections, chaos faults) does not invalidate it: the contacted
/// replica submits when it leads and forwards to the real leader otherwise
/// (etcd-style).
class ShardRouter {
 public:
  explicit ShardRouter(ShardMap map)
      : map_(map), targets_(static_cast<size_t>(map.num_groups()), kNoNode) {}

  void set_target(int group, NodeId server) {
    targets_[static_cast<size_t>(group)] = server;
  }

  [[nodiscard]] const ShardMap& map() const { return map_; }
  [[nodiscard]] int group_of(uint64_t key) const { return map_.owner_of(key); }

  /// The replica endpoint a client should send an operation on `key` to.
  [[nodiscard]] NodeId target_of(uint64_t key) const {
    const NodeId t = targets_[static_cast<size_t>(map_.owner_of(key))];
    PRAFT_CHECK_MSG(t != kNoNode, "router target not set for owning group");
    return t;
  }

 private:
  ShardMap map_;
  std::vector<NodeId> targets_;  // group -> contact replica endpoint
};

}  // namespace praft::shard
