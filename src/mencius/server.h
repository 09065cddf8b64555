#pragma once

#include "harness/log_server.h"
#include "mencius/node.h"

namespace praft::mencius {

/// Raft*-Mencius behind the one replica adapter: every replica serves its
/// own region's clients (it owns a residue class of slots, so nothing is
/// forwarded, §A.3) and answers through the node's early commutative ack.
using MenciusServer = harness::TypedLogServer<MenciusNode>;

}  // namespace praft::mencius
