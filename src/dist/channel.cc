#include "dist/channel.h"

#include "telemetry/span.h"

namespace distsketch {

ChannelTransport::ChannelTransport(WireFn wire, ChannelOptions options)
    : wire_(std::move(wire)), options_(options) {
  if (options_.peer_queue_capacity == 0) options_.peer_queue_capacity = 1;
}

ChannelTransport::~ChannelTransport() {
  StopLoop();
  DrainAll();
}

std::shared_ptr<ChannelTransport::Transfer> ChannelTransport::PopLocked() {
  if (queue_.empty()) return nullptr;
  std::shared_ptr<Transfer> t = std::move(queue_.front());
  queue_.pop_front();
  auto it = peer_pending_.find(PeerOf(t->from, t->to));
  if (it != peer_pending_.end() && --it->second == 0) peer_pending_.erase(it);
  return t;
}

void ChannelTransport::Execute(const std::shared_ptr<Transfer>& t) {
  SendOutcome out;
  {
    // One transfer on the wire at a time, in pop (= submission) order:
    // the wire fn mutates the CommLog and the fault RNG streams.
    std::lock_guard<std::mutex> exec(exec_lock_);
    // The one instrumentation point every payload transfer funnels
    // through: the bytes attrs of these comm spans sum to exactly the
    // CommLog's wire-byte totals (payload + control, respectively).
    telemetry::Span span("cluster/send", telemetry::Phase::kComm);
    if (span.active()) {
      span.SetAttr("from", static_cast<int64_t>(t->from));
      span.SetAttr("to", static_cast<int64_t>(t->to));
      span.SetAttr("server", static_cast<int64_t>(PeerOf(t->from, t->to)));
      span.SetAttr("tag", t->msg->tag);
    }
    out = wire_(t->from, t->to, *t->msg);
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
  }
  // A TrySubmit transfer dies here, so its outcome takes the owned
  // payload along: the delivered view points into that buffer, which the
  // move keeps.
  if (t->msg == &t->owned) out.payload_owner = std::move(t->owned.payload);
  executed_.fetch_add(1);
  std::function<void(SendOutcome&&)> done;
  {
    std::lock_guard<std::mutex> g(lock_);
    done = std::move(t->done);
    if (!done) t->outcome = std::move(out);
    t->completed = true;
  }
  cv_.notify_all();
  if (done) done(std::move(out));
}

SendOutcome ChannelTransport::SendAndWait(int from, int to,
                                          const wire::Message& msg) {
  auto t = std::make_shared<Transfer>();
  t->from = from;
  t->to = to;
  t->msg = &msg;
  const int peer = PeerOf(from, to);
  // Enqueue, pumping (or waiting on the loop thread) while the peer's
  // queue is at capacity — blocking sends see backpressure, not sheds.
  for (;;) {
    std::shared_ptr<Transfer> head;
    {
      std::unique_lock<std::mutex> g(lock_);
      size_t& count = peer_pending_[peer];
      if (count < options_.peer_queue_capacity) {
        ++count;
        queue_.push_back(t);
        submitted_.fetch_add(1);
        break;
      }
      head = PopLocked();
      if (!head) {
        cv_.wait(g);
        continue;
      }
    }
    Execute(head);
  }
  cv_.notify_all();
  // Pump until our own transfer has executed. Another thread (the loop,
  // or a concurrent pump) may execute it for us; then we just wait.
  for (;;) {
    std::shared_ptr<Transfer> head;
    {
      std::unique_lock<std::mutex> g(lock_);
      if (t->completed) return std::move(t->outcome);
      head = PopLocked();
      if (!head) {
        cv_.wait(g, [&] { return t->completed || !queue_.empty(); });
        continue;
      }
    }
    Execute(head);
  }
}

Status ChannelTransport::TrySubmit(
    int from, int to, wire::Message msg,
    std::function<void(SendOutcome&&)> done) {
  auto t = std::make_shared<Transfer>();
  t->from = from;
  t->to = to;
  t->owned = std::move(msg);
  t->msg = &t->owned;
  t->done = std::move(done);
  const int peer = PeerOf(from, to);
  {
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
    queue_.push_back(std::move(t));
    submitted_.fetch_add(1);
  }
  cv_.notify_all();
  return Status::OK();
}

size_t ChannelTransport::DrainAll() {
  size_t n = 0;
  for (;;) {
    std::shared_ptr<Transfer> head;
    {
      std::lock_guard<std::mutex> g(lock_);
      head = PopLocked();
    }
    if (!head) return n;
    Execute(head);
    ++n;
  }
}

void ChannelTransport::LoopBody() {
  for (;;) {
    std::shared_ptr<Transfer> head;
    {
      std::unique_lock<std::mutex> g(lock_);
      cv_.wait(g, [&] { return stop_ || !queue_.empty(); });
      head = PopLocked();
      if (!head) {
        if (stop_) return;  // stopped and drained
        continue;
      }
    }
    Execute(head);
  }
}

void ChannelTransport::StartLoop() {
  if (loop_.joinable()) return;
  {
    std::lock_guard<std::mutex> g(lock_);
    stop_ = false;
  }
  loop_ = std::thread([this] { LoopBody(); });
}

void ChannelTransport::StopLoop() {
  if (!loop_.joinable()) return;
  {
    std::lock_guard<std::mutex> g(lock_);
    stop_ = true;
  }
  cv_.notify_all();
  loop_.join();
}

size_t ChannelTransport::pending() const {
  std::lock_guard<std::mutex> g(lock_);
  return queue_.size();
}

size_t ChannelTransport::pending_for(int peer) const {
  std::lock_guard<std::mutex> g(lock_);
  auto it = peer_pending_.find(peer);
  return it == peer_pending_.end() ? 0 : it->second;
}

}  // namespace distsketch
