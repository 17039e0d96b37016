// The benchmark's measuring probes. Both plug into public seams of
// core::run_experiment, so nothing under src/ knows it is being measured:
//
//   SpanClock   an obs::EventSink (ExperimentConfig::trace_sink) that stamps
//               steady_clock on every relay_session, audit_round and
//               pom_gossip span open and close and keeps the intervals in
//               memory until the run ends.
//   TimedSuite  a crypto::Suite decorator (ExperimentConfig::suite) that counts
//               and times every call into the wrapped suite, and charges each
//               call to the layer span that is open around it.
//
// Both belong to one single-threaded run and are built fresh per experiment.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "g2g/crypto/suite.hpp"
#include "g2g/obs/tracer.hpp"
#include "span_union.hpp"

namespace perfbench {

/// The relay-core layers that open spans, one per span name.
enum class Layer : std::uint8_t { Handshake, Audit, Pom };
inline constexpr std::size_t kLayerCount = 3;

[[nodiscard]] std::int64_t now_ns();

class SpanClock final : public g2g::obs::EventSink {
 public:
  void on_event(const g2g::obs::Event& e) override { (void)e; }
  void on_span(const g2g::obs::SpanRecord& s) override;

  /// Innermost layer span open at this instant; nullopt outside all of them.
  [[nodiscard]] std::optional<Layer> active() const;
  /// Closed spans of `layer`, in close order.
  [[nodiscard]] const std::vector<Interval>& spans(Layer layer) const {
    return spans_[static_cast<std::size_t>(layer)];
  }

 private:
  struct Open {
    std::int64_t begin_ns = 0;
    std::optional<Layer> layer;  ///< nullopt for spans outside the layers (msg)
  };
  std::vector<Open> open_;  // indexed by span id: ids are dense and 1-based
  std::array<int, kLayerCount> depth_{};
  std::array<std::vector<Interval>, kLayerCount> spans_;
};

struct SuiteStats {
  std::uint64_t sign_calls = 0;
  std::uint64_t verify_calls = 0;
  std::uint64_t batch_calls = 0;
  std::uint64_t batch_items = 0;
  /// Time inside every call, keygen and key agreement included.
  std::int64_t busy_ns = 0;
  /// The share of busy_ns spent while a span of each layer was open.
  std::array<std::int64_t, kLayerCount> in_layer_ns{};
};

class TimedSuite final : public g2g::crypto::Suite {
 public:
  TimedSuite(g2g::crypto::SuitePtr inner, const SpanClock& clock)
      : inner_(std::move(inner)), clock_(&clock) {}

  [[nodiscard]] g2g::crypto::KeyPair keygen(g2g::Rng& rng) const override;
  [[nodiscard]] g2g::Bytes sign(g2g::BytesView secret_key,
                                g2g::BytesView message) const override;
  [[nodiscard]] bool verify(g2g::BytesView public_key, g2g::BytesView message,
                            g2g::BytesView signature) const override;
  void verify_batch(std::span<const g2g::crypto::VerifyRequest> requests,
                    bool* verdicts) const override;
  [[nodiscard]] g2g::Bytes shared_secret(g2g::BytesView my_secret_key,
                                         g2g::BytesView peer_public_key) const override;
  [[nodiscard]] std::size_t signature_size() const override {
    return inner_->signature_size();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] const SuiteStats& stats() const { return stats_; }

 private:
  void charge(std::int64_t begin_ns) const;

  g2g::crypto::SuitePtr inner_;
  const SpanClock* clock_;
  // The Suite interface is const; the tallies are this run's bookkeeping,
  // never read by the protocol.
  mutable SuiteStats stats_;
};

}  // namespace perfbench
