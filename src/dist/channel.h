#ifndef DISTSKETCH_DIST_CHANNEL_H_
#define DISTSKETCH_DIST_CHANNEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/status.h"
#include "dist/comm_log.h"
#include "dist/fault_injection.h"
#include "wire/message.h"

namespace distsketch {

/// The wire state one transport instance meters into: a CommLog and an
/// optional fault plan. Heap-pinned by its owner (Cluster, the service
/// runner) so the transport's wire closure can hold a raw pointer that
/// stays valid across moves of the owner.
struct WireEndpoint {
  explicit WireEndpoint(uint64_t bits_per_word) : log(bits_per_word) {}

  /// Routes one message through the fault simulation when a plan is
  /// installed, over the ideal wire otherwise. Not thread-safe; the
  /// transport serializes calls.
  SendOutcome Transfer(int from, int to, const wire::Message& msg) {
    return faults ? faults->Send(log, from, to, msg)
                  : SendOverIdealWire(log, from, to, msg);
  }

  CommLog log;
  std::optional<FaultInjector> faults;
};

/// Executes the actual wire transfer for one message. Called with the
/// transport's execution lock held — implementations may mutate shared
/// wire state (CommLog, FaultInjector) without their own locking.
using WireFn = std::function<SendOutcome(int from, int to,
                                         const wire::Message& msg)>;

struct ChannelOptions {
  /// Maximum transfers queued per peer before TrySubmit sheds with
  /// kOverloaded. A peer is the server endpoint of the channel
  /// (`from == kCoordinator ? to : from`); the service keys peers by
  /// client id.
  size_t peer_queue_capacity = 64;
};

/// In-process async message channel: a bounded multi-producer queue of
/// transfers drained strictly in submission order through a single
/// serialized wire function.
///
/// Two drain modes share the same queue:
///   - *Pump mode* (no loop thread): `SendAndWait` submits and then pumps
///     the queue on the calling thread until its own transfer completes;
///     `DrainAll` empties the queue. The protocol adapter (Cluster) uses
///     this — submission order equals execution order equals the
///     historical synchronous call order, which is what keeps seeded
///     transcripts bit-identical (execution is serialized
///     and FIFO, and the fault RNG streams are per-server, so the
///     schedule each server sees is unchanged).
///   - *Loop mode*: `StartLoop` runs a background thread that drains
///     continuously. The service uses this as its event loop; producers
///     enqueue with `TrySubmit` and are shed (typed kOverloaded, never a
///     silent drop) when a peer's queue is full.
///
/// Every executed transfer is instrumented with the `cluster/send`
/// telemetry span and the comm.* counters — the one metering point the
/// run-report acceptance test pins (comm-span byte attrs sum to the
/// CommLog's wire-byte totals), now shared by every transport user.
class ChannelTransport {
 public:
  explicit ChannelTransport(WireFn wire, ChannelOptions options = {});
  ~ChannelTransport();

  ChannelTransport(const ChannelTransport&) = delete;
  ChannelTransport& operator=(const ChannelTransport&) = delete;

  /// Blocking send: enqueues the transfer (waiting for queue space if the
  /// peer is at capacity — the backpressure path, never a shed) and pumps
  /// the queue until this transfer has executed. Returns its outcome.
  /// `msg` is borrowed, not copied: the caller blocks until the transfer
  /// completes, and the wire fn — possibly on the loop thread — reads the
  /// caller's message in place. The outcome's payload views msg.payload.
  SendOutcome SendAndWait(int from, int to, const wire::Message& msg);

  /// Non-blocking send: enqueues the transfer (which owns `msg`) and
  /// returns OK, or sheds with kOverloaded when the peer's queue is at
  /// capacity (the transfer is NOT enqueued and `done` is NOT called).
  /// `done` runs on the draining thread after the wire transfer executes
  /// and takes ownership of the outcome (no one else reads it), which
  /// holds the message's payload in payload_owner: the delivered view
  /// points into it, and no byte was copied.
  Status TrySubmit(int from, int to, wire::Message msg,
                   std::function<void(SendOutcome&&)> done);

  /// Pumps until the queue is empty (pump mode). Returns the number of
  /// transfers executed. Safe to call concurrently with a running loop
  /// thread (both compete for transfers; order stays global-FIFO).
  size_t DrainAll();

  /// Starts / stops the background drain thread. StopLoop drains the
  /// remaining queue before joining, so no submitted transfer is lost.
  void StartLoop();
  void StopLoop();
  bool loop_running() const { return loop_.joinable(); }

  /// Transfers queued but not yet executed.
  size_t pending() const;
  /// Transfers queued for one peer.
  size_t pending_for(int peer) const;

  /// Lifetime counters (monotone; survive queue drains).
  uint64_t submitted() const { return submitted_.load(); }
  uint64_t executed() const { return executed_.load(); }
  uint64_t shed() const { return shed_.load(); }

  const ChannelOptions& options() const { return options_; }

  /// The peer key a transfer is queued under.
  static int PeerOf(int from, int to) {
    return from == kCoordinator ? to : from;
  }

 private:
  struct Transfer {
    int from = kCoordinator;
    int to = kCoordinator;
    /// The message on the wire: the blocked SendAndWait caller's, or
    /// `owned` for a TrySubmit transfer.
    const wire::Message* msg = nullptr;
    wire::Message owned;
    std::function<void(SendOutcome&&)> done;
    bool completed = false;
    /// Set for waiters only; a `done` callback receives the outcome.
    SendOutcome outcome;
  };

  /// Pops the front transfer (nullptr if empty). Caller must hold lock_.
  std::shared_ptr<Transfer> PopLocked();
  /// Runs the wire transfer + telemetry for one popped transfer, then
  /// marks it complete and notifies waiters. Takes exec_lock_ itself.
  void Execute(const std::shared_ptr<Transfer>& t);
  void LoopBody();

  WireFn wire_;
  ChannelOptions options_;

  mutable std::mutex lock_;
  std::condition_variable cv_;           // queue state changed
  std::deque<std::shared_ptr<Transfer>> queue_;
  std::map<int, size_t> peer_pending_;
  bool stop_ = false;

  /// Serializes wire execution: the wire fn mutates the CommLog and
  /// fault RNG streams, and FIFO pop order + serialized execution is the
  /// determinism contract.
  std::mutex exec_lock_;

  std::thread loop_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> shed_{0};
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_CHANNEL_H_
