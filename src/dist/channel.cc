#include "dist/channel.h"

#include <string>

#include "telemetry/span.h"

namespace distsketch {

SendOutcome WireEndpoint::Transfer(int from, int to,
                                   const wire::Message& msg) {
  telemetry::Span span("cluster/send", telemetry::Phase::kComm);
  if (span.active()) {
    span.SetAttr("from", static_cast<int64_t>(from));
    span.SetAttr("to", static_cast<int64_t>(to));
    span.SetAttr("server",
                 static_cast<int64_t>(ChannelTransport::PeerOf(from, to)));
    span.SetAttr("tag", msg.tag);
  }
  SendOutcome out = faults ? faults->Send(log, from, to, msg)
                           : SendOverIdealWire(log, from, to, msg);
  if (span.active()) {
    span.SetAttr("bytes", out.wire_bytes);
    span.SetAttr("words", out.wire_words);
    span.SetAttr("attempts", static_cast<int64_t>(out.attempts));
    if (out.control_bytes > 0) {
      span.SetAttr("control_bytes", out.control_bytes);
    }
    if (!out.delivered) span.SetAttr("delivered", "false");
    telemetry::Count("comm.messages");
    telemetry::Count("comm.wire_bytes", out.wire_bytes);
    telemetry::Count("comm.control_wire_bytes", out.control_bytes);
    if (out.attempts > 1) telemetry::Count("comm.retries", out.attempts - 1);
  }
  return out;
}

ChannelTransport::ChannelTransport(WireFn wire, ChannelOptions options)
    : wire_(std::move(wire)), options_(options) {
  if (options_.peer_queue_capacity == 0) options_.peer_queue_capacity = 1;
}

Status ChannelTransport::TrySubmit(
    int from, int to, wire::Message msg,
    std::function<void(SendOutcome&&)> done) {
  const int peer = PeerOf(from, to);
  std::lock_guard<std::mutex> g(lock_);
  size_t& count = peer_pending_[peer];
  if (count >= options_.peer_queue_capacity) {
    shed_.fetch_add(1);
    return Status::Overloaded("channel: peer " + std::to_string(peer) +
                              " queue at capacity (" +
                              std::to_string(options_.peer_queue_capacity) +
                              ")");
  }
  ++count;
  queue_.push_back(Transfer{from, to, std::move(msg), std::move(done)});
  submitted_.fetch_add(1);
  return Status::OK();
}

size_t ChannelTransport::DrainAll() {
  size_t n = 0;
  for (;;) {
    Transfer t;
    {
      std::lock_guard<std::mutex> g(lock_);
      if (queue_.empty()) return n;
      t = std::move(queue_.front());
      queue_.pop_front();
      auto it = peer_pending_.find(PeerOf(t.from, t.to));
      if (--it->second == 0) peer_pending_.erase(it);
    }
    SendOutcome out = wire_(t.from, t.to, t.msg);
    // The transfer dies here, so its outcome takes the owned payload
    // along: the delivered view points into that buffer, which the move
    // keeps.
    out.payload_owner = std::move(t.msg.payload);
    executed_.fetch_add(1);
    ++n;
    if (t.done) t.done(std::move(out));
  }
}

size_t ChannelTransport::pending() const {
  std::lock_guard<std::mutex> g(lock_);
  return queue_.size();
}

}  // namespace distsketch
