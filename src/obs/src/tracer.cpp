#include "g2g/obs/tracer.hpp"

namespace g2g::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::ContactUp: return "contact_up";
    case EventKind::ContactDown: return "contact_down";
    case EventKind::SessionOpen: return "session_open";
    case EventKind::SessionRefused: return "session_refused";
    case EventKind::HsRelayRqst: return "hs_relay_rqst";
    case EventKind::HsRelayOk: return "hs_relay_ok";
    case EventKind::HsRelayData: return "hs_relay_data";
    case EventKind::HsPorSigned: return "hs_por_signed";
    case EventKind::HsKeyReveal: return "hs_key_reveal";
    case EventKind::FqRqst: return "fq_rqst";
    case EventKind::FqResp: return "fq_resp";
    case EventKind::PorIssued: return "por_issued";
    case EventKind::PorVerified: return "por_verified";
    case EventKind::StorageChallenge: return "storage_challenge";
    case EventKind::TestBySender: return "test_by_sender";
    case EventKind::TestByDestination: return "test_by_destination";
    case EventKind::ChainCheck: return "chain_check";
    case EventKind::PomIssued: return "pom_issued";
    case EventKind::PomGossip: return "pom_gossip";
    case EventKind::PomLearned: return "pom_learned";
    case EventKind::Eviction: return "eviction";
    case EventKind::BufferAdd: return "buffer_add";
    case EventKind::BufferEvict: return "buffer_evict";
    case EventKind::MessageGenerated: return "message_generated";
    case EventKind::MessageRelayed: return "message_relayed";
    case EventKind::MessageDelivered: return "message_delivered";
    case EventKind::Detection: return "detection";
  }
  return "unknown";
}

void Tracer::add_sink(EventSink* sink) {
  if (sink == nullptr) return;
  sinks_.push_back(sink);
  enabled_ = true;
}

void Tracer::enable_ring(std::size_t capacity) {
  ring_capacity_ = capacity;
  ring_.clear();
  ring_.reserve(capacity);
  ring_next_ = 0;
  if (capacity > 0) enabled_ = true;
}

void Tracer::record(const Event& e) {
  ++emitted_;
  if (ring_capacity_ > 0) {
    if (ring_.size() < ring_capacity_) {
      ring_.push_back(e);
    } else {
      ring_[ring_next_] = e;
      ring_next_ = (ring_next_ + 1) % ring_capacity_;
    }
  }
  for (EventSink* sink : sinks_) sink->on_event(e);
}

void Tracer::record_span(const SpanRecord& s) {
  for (EventSink* sink : sinks_) sink->on_span(s);
}

std::uint64_t Tracer::open_span(TimePoint at, SpanKind kind, std::uint64_t parent,
                                NodeId a, NodeId b, std::uint64_t ref) {
  if (!enabled_) return 0;
  SpanRecord s;
  s.at = at;
  s.id = next_span_id_++;
  s.parent = parent;
  s.name = to_string(kind);
  s.a = a;
  s.b = b;
  s.ref = ref;
  if (wall_profiling_) open_wall_[s.id] = std::chrono::steady_clock::now();
  record_span(s);
  return s.id;
}

void Tracer::close_span(TimePoint at, std::uint64_t id, std::int64_t value) {
  if (!enabled_ || id == 0) return;
  SpanRecord s;
  s.at = at;
  s.id = id;
  s.close = true;
  s.value = value;
  if (wall_profiling_) {
    auto it = open_wall_.find(id);
    if (it != open_wall_.end()) {
      s.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - it->second)
                      .count();
      open_wall_.erase(it);
    }
  }
  record_span(s);
}

void Tracer::open_message_span(TimePoint at, std::uint64_t ref, NodeId src,
                               NodeId dst) {
  if (!enabled_) return;
  MsgSpan& m = msg_spans_[ref];
  if (m.id != 0) return;  // regenerated ref: keep the original span
  m.id = open_span(at, SpanKind::Msg, /*parent=*/0, src, dst, ref);
}

std::uint64_t Tracer::message_span(std::uint64_t ref) const {
  auto it = msg_spans_.find(ref);
  return it == msg_spans_.end() ? 0 : it->second.id;
}

void Tracer::mark_message_delivered(std::uint64_t ref) {
  if (!enabled_) return;
  auto it = msg_spans_.find(ref);
  if (it != msg_spans_.end()) it->second.delivered = true;
}

void Tracer::close_message_spans(TimePoint at) {
  // std::map iterates in ref order — deterministic close sequence.
  for (const auto& [ref, m] : msg_spans_) {
    (void)ref;
    close_span(at, m.id, m.delivered ? 1 : 0);
  }
  msg_spans_.clear();
}

std::vector<Event> Tracer::ring() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  // Oldest part first: the slots from the wrap point to the end...
  for (std::size_t i = ring_next_; i < ring_.size(); ++i) out.push_back(ring_[i]);
  // ...then the most recently overwritten prefix.
  for (std::size_t i = 0; i < ring_next_; ++i) out.push_back(ring_[i]);
  return out;
}

JsonlSink::~JsonlSink() {
  if (out_ != nullptr) {
    std::fflush(out_);
    if (owned_) std::fclose(out_);
  }
}

std::unique_ptr<JsonlSink> JsonlSink::open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return nullptr;
  return std::unique_ptr<JsonlSink>(new JsonlSink(f, /*owned=*/true));
}

void JsonlSink::on_event(const Event& e) {
  if (out_ == nullptr) return;
  const long long b =
      e.b.valid() ? static_cast<long long>(e.b.value()) : -1LL;
  std::fprintf(out_,
               "{\"t_us\":%lld,\"ev\":\"%s\",\"a\":%lld,\"b\":%lld,"
               "\"ref\":%llu,\"v\":%lld}\n",
               static_cast<long long>(e.at.micros()), to_string(e.kind),
               e.a.valid() ? static_cast<long long>(e.a.value()) : -1LL, b,
               static_cast<unsigned long long>(e.ref),
               static_cast<long long>(e.value));
  ++lines_;
}

void JsonlSink::on_span(const SpanRecord& s) {
  if (out_ == nullptr) return;
  if (s.close) {
    if (s.wall_ns >= 0) {
      std::fprintf(out_,
                   "{\"t_us\":%lld,\"span\":\"close\",\"id\":%llu,\"v\":%lld,"
                   "\"wall_ns\":%lld}\n",
                   static_cast<long long>(s.at.micros()),
                   static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.value),
                   static_cast<long long>(s.wall_ns));
    } else {
      std::fprintf(out_,
                   "{\"t_us\":%lld,\"span\":\"close\",\"id\":%llu,\"v\":%lld}\n",
                   static_cast<long long>(s.at.micros()),
                   static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.value));
    }
  } else {
    std::fprintf(out_,
                 "{\"t_us\":%lld,\"span\":\"open\",\"name\":\"%s\","
                 "\"id\":%llu,\"parent\":%llu,\"a\":%lld,\"b\":%lld,"
                 "\"ref\":%llu}\n",
                 static_cast<long long>(s.at.micros()),
                 s.name != nullptr ? s.name : "unknown",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 s.a.valid() ? static_cast<long long>(s.a.value()) : -1LL,
                 s.b.valid() ? static_cast<long long>(s.b.value()) : -1LL,
                 static_cast<unsigned long long>(s.ref));
  }
  ++lines_;
}

void CountingSink::on_event(const Event& e) {
  ++per_kind_[static_cast<std::size_t>(e.kind)];
  ++total_;
}

std::uint64_t CountingSink::count(EventKind kind) const {
  return per_kind_[static_cast<std::size_t>(kind)];
}

}  // namespace g2g::obs
