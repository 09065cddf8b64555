#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "consensus/env.h"
#include "consensus/timing.h"

namespace praft::consensus {

/// The `batch_delay` submission coalescer shared by every leader in the
/// repo: submissions within one delay window ride a single replication
/// message (etcd-style batching, cf. the paper's §5 testbed). poke() arms at
/// most one pending flush; the flush callback runs once after the delay with
/// everything that accumulated in the meantime.
///
/// The protocol keeps its own typed pending queue (Raft appends straight to
/// its log; Paxos queues commands; Mencius queues OwnItems + skip ranges) —
/// what is shared is the scheduling discipline, plus two byte-aware policies
/// fed by the exact wire sizes the flat codec gives us:
///
///  * Byte-budget flush (batch_flush_bytes): add_pending(bytes) accounts the
///    encoded size of queued submissions; when the pending batch crosses the
///    budget the flush is expedited to the next event-loop turn instead of
///    waiting out the delay.
///  * Backpressure (batch_backpressure_bytes): flushed bytes count as
///    in-flight until the protocol reports progress via note_acked(), and
///    can_accept() refuses submissions while pending + in-flight bytes are
///    at the cap.
///
/// Armed flushes are epoch-guarded: cancel() invalidates every scheduled
/// flush, so a leader deposed (or a node crashed and restarted) between
/// arming and firing cannot flush against stale state — Env timers cannot be
/// revoked, so the guard is the only thing standing between a stale closure
/// and a deposed leader's pending queue.
class Batcher {
 public:
  using FlushFn = std::function<void()>;

  Batcher(Env& env, Duration delay, FlushFn flush)
      : env_(env), flush_(std::move(flush)) {
    opt_.batch_delay = delay;
  }
  Batcher(Env& env, const TimingOptions& opt, FlushFn flush)
      : env_(env), opt_(opt), flush_(std::move(flush)) {}

  /// Schedules a flush after the batch delay unless one is already pending.
  void poke() {
    if (scheduled_) return;
    scheduled_ = true;
    arm(opt_.batch_delay);
  }

  /// Accounts `bytes` of encoded wire size for a queued submission and
  /// arms/expedites the flush: past the byte budget the delay timer is
  /// abandoned (epoch bump) and the flush re-armed for the next event-loop
  /// turn.
  void add_pending(size_t bytes) {
    pending_bytes_ += bytes;
    const bool over = opt_.batch_flush_bytes > 0 &&
                      pending_bytes_ >= opt_.batch_flush_bytes;
    if (scheduled_) {
      if (over && !expedited_) {
        ++epoch_;  // orphan the armed delay timer
        expedited_ = true;
        ++expedited_count_;
        arm(0);
      }
      return;
    }
    scheduled_ = true;
    if (over) {
      expedited_ = true;
      ++expedited_count_;
      arm(0);
    } else {
      arm(opt_.batch_delay);
    }
  }

  /// True when the leader may accept another submission: below the
  /// batch_backpressure_bytes cap on pending + in-flight bytes (or the cap
  /// is disabled). Protocols consult this before queueing a client command —
  /// a full pipe turns submit() into a temporary -1 (the same "not now"
  /// answer a non-leader gives), which the harness already retries, so a
  /// slow follower stalls clients instead of bloating leader memory.
  [[nodiscard]] bool can_accept() const {
    return opt_.batch_backpressure_bytes == 0 ||
           pending_bytes_ + inflight_bytes_ < opt_.batch_backpressure_bytes;
  }

  /// Invalidates every armed flush (deposed leader / crashed node): already
  /// scheduled closures become no-ops when they fire. In-flight accounting
  /// resets too — the reign whose flushes we were tracking is over, and a
  /// stale in-flight count must not wedge can_accept() for a later reign.
  void cancel() {
    ++epoch_;
    scheduled_ = false;
    expedited_ = false;
    pending_bytes_ = 0;
    inflight_bytes_ = 0;
  }

  /// Progress report from the protocol's commit/chosen/decide path: `bytes`
  /// of previously flushed data are no longer in flight. Clamped — losing
  /// count to a snapshot-covered range must not wedge can_accept().
  void note_acked(size_t bytes) {
    inflight_bytes_ -= std::min(bytes, inflight_bytes_);
  }

  [[nodiscard]] bool pending() const { return scheduled_; }
  [[nodiscard]] size_t pending_bytes() const { return pending_bytes_; }
  [[nodiscard]] size_t inflight_bytes() const { return inflight_bytes_; }
  [[nodiscard]] uint64_t flushes() const { return flush_count_; }
  [[nodiscard]] uint64_t expedited_flushes() const { return expedited_count_; }

 private:
  void arm(Duration delay) {
    const uint64_t epoch = epoch_;
    env_.schedule(delay, [this, epoch] {
      if (epoch != epoch_) return;  // cancelled or superseded by an expedite
      scheduled_ = false;
      expedited_ = false;
      const size_t batch = pending_bytes_;
      pending_bytes_ = 0;
      inflight_bytes_ += batch;
      ++flush_count_;
      flush_();
    });
  }

  Env& env_;
  TimingOptions opt_;
  FlushFn flush_;
  uint64_t epoch_ = 0;
  bool scheduled_ = false;
  bool expedited_ = false;
  size_t pending_bytes_ = 0;
  size_t inflight_bytes_ = 0;
  uint64_t flush_count_ = 0;
  uint64_t expedited_count_ = 0;
};

}  // namespace praft::consensus
