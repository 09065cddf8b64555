#pragma once

#include <any>
#include <cstddef>
#include <functional>
#include <utility>

#include "common/types.h"
#include "net/buffer_pool.h"

namespace praft::net {

/// A delivered message. `wire` is the pooled flat frame that crossed the
/// network (see net/wire.h), and `payload` is its decode: the type-erased
/// message set of one protocol family, so one network stack carries every
/// protocol. `bytes` is the exact encoded size used for bandwidth/CPU
/// accounting. Hand-built packets (unit tests that call a node directly)
/// carry a null `wire`. The frame's slab returns to the pool when the packet
/// dies, which makes Packet move-only.
struct Packet {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  size_t bytes = 0;
  std::any payload;
  Frame wire;
};

/// Delivery callback a node registers with the network.
using DeliverFn = std::function<void(Packet&&)>;

/// Convenience: extract a concrete message type from a packet payload.
/// Returns nullptr when the payload holds a different type.
template <typename M>
const M* payload_as(const Packet& p) {
  return std::any_cast<M>(&p.payload);
}

}  // namespace praft::net
