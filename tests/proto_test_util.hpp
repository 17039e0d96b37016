// Shared fixtures for the protocol tests: a hand-built contact trace driving
// a typed Network, with helpers for injecting messages at specific times and
// interrogating nodes afterwards.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "g2g/metrics/collector.hpp"
#include "g2g/proto/network.hpp"
#include "g2g/trace/contact.hpp"

namespace g2g::proto::testutil {

struct Contact {
  std::uint32_t a;
  std::uint32_t b;
  double start_s;
  double end_s;
};

inline trace::ContactTrace make_trace(std::size_t node_count,
                                      std::initializer_list<Contact> contacts) {
  trace::ContactTrace t;
  for (const auto& c : contacts) {
    t.add(NodeId(c.a), NodeId(c.b), TimePoint::from_seconds(c.start_s),
          TimePoint::from_seconds(c.end_s));
  }
  // Pad the node universe: a contact of the last node far past any horizon.
  if (node_count >= 2) {
    t.add(NodeId(static_cast<std::uint32_t>(node_count - 2)),
          NodeId(static_cast<std::uint32_t>(node_count - 1)),
          TimePoint::from_seconds(9.0e8), TimePoint::from_seconds(9.0e8 + 1.0));
  }
  t.finalize();
  return t;
}

/// A suite decorator that forwards every call to `inner` and counts the
/// one-shot sign and verify calls over FQ_RESP signed payloads. It overrides
/// neither prepare_* virtual, so the forwarding keys they return route every
/// prepared sign and verify through the counted calls. Single-threaded use.
class FqRespCountingSuite final : public crypto::Suite {
 public:
  explicit FqRespCountingSuite(crypto::SuitePtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] crypto::KeyPair keygen(Rng& rng) const override { return inner_->keygen(rng); }
  [[nodiscard]] Bytes sign(BytesView secret_key, BytesView message) const override {
    if (is_fq_resp(message)) ++signs_;
    return inner_->sign(secret_key, message);
  }
  [[nodiscard]] bool verify(BytesView public_key, BytesView message,
                            BytesView signature) const override {
    if (is_fq_resp(message)) ++verifies_;
    return inner_->verify(public_key, message, signature);
  }
  [[nodiscard]] Bytes shared_secret(BytesView my_secret_key,
                                    BytesView peer_public_key) const override {
    return inner_->shared_secret(my_secret_key, peer_public_key);
  }
  [[nodiscard]] std::size_t signature_size() const override { return inner_->signature_size(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] std::size_t signs() const { return signs_; }
  [[nodiscard]] std::size_t verifies() const { return verifies_; }

 private:
  /// A declaration's signed payload opens with its length-prefixed domain.
  static bool is_fq_resp(BytesView message) {
    constexpr std::string_view kDomain = "g2g-fqresp-v1";
    return message.size() > 4 + kDomain.size() &&
           std::equal(kDomain.begin(), kDomain.end(), message.begin() + 4);
  }

  crypto::SuitePtr inner_;
  mutable std::size_t signs_ = 0;
  mutable std::size_t verifies_ = 0;
};

/// A small typed world: trace + network + collector, with message injection.
template <typename NodeT>
class World {
 public:
  World(trace::ContactTrace trace, NetworkConfig config,
        std::vector<BehaviorConfig> behaviors = {})
      : trace_(std::move(trace)),
        network_(std::make_unique<Network<NodeT>>(trace_, std::move(config),
                                                  std::move(behaviors), collector_)) {}

  explicit World(trace::ContactTrace trace, std::vector<BehaviorConfig> behaviors = {})
      : World(std::move(trace), default_config(), std::move(behaviors)) {}

  [[nodiscard]] static NetworkConfig default_config() {
    NetworkConfig cfg;
    cfg.node.delta1 = Duration::minutes(30);
    cfg.node.delta2 = Duration::minutes(60);
    cfg.node.heavy_hmac_iterations = 8;  // keep tests fast
    cfg.horizon = TimePoint::from_seconds(4.0 * 3600.0);
    return cfg;
  }

  /// Schedule one message src -> dst at time t.
  MessageId send(std::uint32_t src, std::uint32_t dst, double at_s, std::size_t body = 16) {
    const MessageId id(next_id_++);
    network_->schedule_traffic({sim::TrafficDemand{
        id, NodeId(src), NodeId(dst), TimePoint::from_seconds(at_s), body}});
    return id;
  }

  void run() { network_->run(); }

  [[nodiscard]] NodeT& node(std::uint32_t n) { return network_->node(NodeId(n)); }
  [[nodiscard]] Network<NodeT>& network() { return *network_; }
  [[nodiscard]] metrics::Collector& collector() { return collector_; }

  /// The collector's record of `id`; throws if it was never generated.
  [[nodiscard]] const metrics::Collector::MessageRecord& record(MessageId id) const {
    const metrics::Collector::MessageRecord* rec = collector_.message(id);
    if (rec == nullptr) throw std::out_of_range("message never generated");
    return *rec;
  }
  [[nodiscard]] bool delivered(MessageId id) const { return record(id).delivered.has_value(); }
  [[nodiscard]] std::uint32_t replicas(MessageId id) const { return record(id).replicas; }

 private:
  trace::ContactTrace trace_;
  metrics::Collector collector_;
  std::unique_ptr<Network<NodeT>> network_;
  std::uint64_t next_id_ = 1;
};

}  // namespace g2g::proto::testutil
