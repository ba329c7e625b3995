#ifndef DISTSKETCH_DIST_CHANNEL_H_
#define DISTSKETCH_DIST_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "common/status.h"
#include "dist/comm_log.h"
#include "dist/fault_injection.h"
#include "wire/message.h"

namespace distsketch {

/// The wire state one sender meters into: a CommLog and an optional
/// fault plan. Cluster::Send calls Transfer directly; the service runner
/// reaches it through its ChannelTransport's wire function.
struct WireEndpoint {
  explicit WireEndpoint(uint64_t bits_per_word) : log(bits_per_word) {}

  /// Routes one message through the fault simulation when a plan is
  /// installed, over the ideal wire otherwise. This is the one metering
  /// point every payload transfer funnels through: it emits the
  /// `cluster/send` telemetry span and the comm.* counters, whose byte
  /// totals equal the CommLog's wire-byte totals (payload + control).
  /// Not thread-safe; callers run one transfer at a time.
  SendOutcome Transfer(int from, int to, const wire::Message& msg);

  CommLog log;
  std::optional<FaultInjector> faults;
};

/// Executes the actual wire transfer for one message. Called on the
/// draining thread, one transfer at a time, so implementations may mutate
/// shared wire state (CommLog, FaultInjector) without their own locking.
using WireFn = std::function<SendOutcome(int from, int to,
                                         const wire::Message& msg)>;

struct ChannelOptions {
  /// Maximum transfers queued per peer before TrySubmit sheds with
  /// kOverloaded. A peer is the server endpoint of the channel
  /// (`from == kCoordinator ? to : from`); the service keys peers by
  /// client id.
  size_t peer_queue_capacity = 64;
};

/// The service's in-process request channel: a bounded multi-producer
/// FIFO of transfers, executed in submission order through one wire
/// function by whichever thread calls DrainAll.
///
/// Any number of producer threads may TrySubmit concurrently (one mutex
/// guards the queue); a producer whose peer queue is full is shed with a
/// typed kOverloaded, never silently dropped. DrainAll runs on one thread
/// at a time (ServiceRunner::Drain), so the wire function never runs
/// concurrently with itself and the FIFO pop order is the execution
/// order. Transfers still queued when the channel is destroyed are
/// dropped unexecuted, and their `done` callbacks never run.
class ChannelTransport {
 public:
  explicit ChannelTransport(WireFn wire, ChannelOptions options = {});

  ChannelTransport(const ChannelTransport&) = delete;
  ChannelTransport& operator=(const ChannelTransport&) = delete;

  /// Enqueues the transfer (which owns `msg`) and returns OK, or sheds
  /// with kOverloaded when the peer's queue is at capacity (the transfer
  /// is NOT enqueued and `done` is NOT called). `done` runs on the
  /// draining thread after the wire transfer executes and takes ownership
  /// of the outcome, which holds the message's payload in payload_owner:
  /// the delivered view points into it, and no byte was copied.
  Status TrySubmit(int from, int to, wire::Message msg,
                   std::function<void(SendOutcome&&)> done);

  /// Executes queued transfers in FIFO order until the queue is empty.
  /// Returns the number executed. One drainer at a time.
  size_t DrainAll();

  /// Transfers queued but not yet executed.
  size_t pending() const;

  /// Lifetime counters (monotone; survive queue drains). `submitted`
  /// counts accepted submissions only.
  uint64_t submitted() const { return submitted_.load(); }
  uint64_t executed() const { return executed_.load(); }
  uint64_t shed() const { return shed_.load(); }

  /// The peer key a transfer is queued under.
  static int PeerOf(int from, int to) {
    return from == kCoordinator ? to : from;
  }

 private:
  struct Transfer {
    int from = kCoordinator;
    int to = kCoordinator;
    wire::Message msg;
    std::function<void(SendOutcome&&)> done;
  };

  WireFn wire_;
  ChannelOptions options_;

  mutable std::mutex lock_;
  std::deque<Transfer> queue_;
  std::map<int, size_t> peer_pending_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> shed_{0};
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_CHANNEL_H_
