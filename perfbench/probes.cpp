#include "probes.hpp"

#include <chrono>
#include <cstring>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::optional<Layer> layer_of(const char* span_name) {
  if (std::strcmp(span_name, "relay_session") == 0) return Layer::Handshake;
  if (std::strcmp(span_name, "audit_round") == 0) return Layer::Audit;
  if (std::strcmp(span_name, "pom_gossip") == 0) return Layer::Pom;
  return std::nullopt;
}

}  // namespace

void SpanClock::on_span(const g2g::obs::SpanRecord& s) {
  const std::int64_t t = now_ns();
  if (s.id >= open_.size()) open_.resize(s.id + 1024);
  Open& o = open_[s.id];
  if (!s.close) {
    o = Open{t, layer_of(s.name)};
    if (o.layer) ++depth_[static_cast<std::size_t>(*o.layer)];
    return;
  }
  if (!o.layer) return;
  const auto i = static_cast<std::size_t>(*o.layer);
  --depth_[i];
  spans_[i].push_back(Interval{o.begin_ns, t});
}

std::optional<Layer> SpanClock::active() const {
  // PoM gossip and audits never run inside a relay session, so the order only
  // matters if the protocol ever nests them; innermost-first keeps suite time
  // with the work that asked for it.
  for (const Layer l : {Layer::Pom, Layer::Audit, Layer::Handshake}) {
    if (depth_[static_cast<std::size_t>(l)] > 0) return l;
  }
  return std::nullopt;
}

void TimedSuite::charge(std::int64_t begin_ns) const {
  const std::int64_t spent = now_ns() - begin_ns;
  stats_.busy_ns += spent;
  if (const auto layer = clock_->active()) {
    stats_.in_layer_ns[static_cast<std::size_t>(*layer)] += spent;
  }
}

g2g::crypto::KeyPair TimedSuite::keygen(g2g::Rng& rng) const {
  const std::int64_t t = now_ns();
  g2g::crypto::KeyPair kp = inner_->keygen(rng);
  charge(t);
  return kp;
}

g2g::Bytes TimedSuite::sign(g2g::BytesView secret_key, g2g::BytesView message) const {
  ++stats_.sign_calls;
  const std::int64_t t = now_ns();
  g2g::Bytes sig = inner_->sign(secret_key, message);
  charge(t);
  return sig;
}

bool TimedSuite::verify(g2g::BytesView public_key, g2g::BytesView message,
                        g2g::BytesView signature) const {
  ++stats_.verify_calls;
  const std::int64_t t = now_ns();
  const bool ok = inner_->verify(public_key, message, signature);
  charge(t);
  return ok;
}

void TimedSuite::verify_batch(std::span<const g2g::crypto::VerifyRequest> requests,
                              bool* verdicts) const {
  ++stats_.batch_calls;
  stats_.batch_items += requests.size();
  const std::int64_t t = now_ns();
  inner_->verify_batch(requests, verdicts);
  charge(t);
}

g2g::Bytes TimedSuite::shared_secret(g2g::BytesView my_secret_key,
                                     g2g::BytesView peer_public_key) const {
  const std::int64_t t = now_ns();
  g2g::Bytes secret = inner_->shared_secret(my_secret_key, peer_public_key);
  charge(t);
  return secret;
}

}  // namespace perfbench
