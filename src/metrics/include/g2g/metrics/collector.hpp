// Simulation metrics: the quantities every table and figure in the paper is
// built from — delivery, delay, replica cost, control overhead, memory and
// energy accounting, and misbehaviour-detection events.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ranges>
#include <string>
#include <vector>

#include "g2g/obs/context.hpp"
#include "g2g/util/ids.hpp"
#include "g2g/util/stats.hpp"
#include "g2g/util/time.hpp"

namespace g2g::metrics {

/// Per-node resource accounting. Drives the payoff function used by the
/// Nash-equilibrium property tests.
struct NodeCosts {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t signatures = 0;
  std::uint64_t verifications = 0;
  std::uint64_t heavy_hmacs = 0;        // storage-proof challenges computed
  std::uint64_t sessions = 0;           // authenticated contacts
  double memory_byte_seconds = 0.0;     // integral of buffer occupancy

  /// Scalar energy in abstract joule-like units; the knobs encode the paper's
  /// requirement that a heavy HMAC outweighs what storing-without-relaying saves.
  [[nodiscard]] double energy(double per_byte = 0.001, double per_signature = 1.0,
                              double per_heavy_hmac = 2000.0) const {
    return static_cast<double>(bytes_sent + bytes_received) * per_byte +
           static_cast<double>(signatures + verifications) * per_signature +
           static_cast<double>(heavy_hmacs) * per_heavy_hmac;
  }
};

/// How a misbehaving node was caught.
enum class DetectionMethod {
  TestBySender,       // failed POR_RQST challenge (dropper)
  TestByDestination,  // inconsistent forwarding-quality declaration (liar)
  ChainCheck,         // broken f_AD = f1_m < f_BD = f2_m < f_CD chain (cheater)
};

struct DetectionEvent {
  NodeId culprit;
  NodeId detector;
  TimePoint at;
  DetectionMethod method;
  /// Detection latency measured from the moment the culprit became testable
  /// (Delta1 expiry of the relay under test), as in the paper's figures.
  Duration after_delta1;
};

class Collector {
 public:
  // -- observability ---------------------------------------------------------
  /// Mirror every lifecycle/detection record into `obs` (events + counters).
  /// The context must outlive the run; pass nullptr to detach (required
  /// before the owning run's ObsContext goes away, since Collectors are
  /// copied into results).
  void attach_obs(obs::ObsContext* obs) { obs_ = obs; }

  // -- message lifecycle -----------------------------------------------------
  void message_generated(MessageId id, NodeId src, NodeId dst, TimePoint at);
  void message_relayed(MessageId id, NodeId from, NodeId to, TimePoint at);
  void message_delivered(MessageId id, TimePoint at);

  // -- node accounting -------------------------------------------------------
  /// Node ids are dense, so the costs are a vector by id that grows on first
  /// use of an id.
  [[nodiscard]] NodeCosts& costs(NodeId n) {
    if (n.value() >= costs_.size()) costs_.resize(std::size_t{n.value()} + 1);
    return costs_[n.value()];
  }
  /// An id never charged reads as zero costs.
  [[nodiscard]] const NodeCosts& costs(NodeId n) const;

  // -- misbehaviour ----------------------------------------------------------
  void detection(const DetectionEvent& e);
  void node_evicted(NodeId n, TimePoint at);

  // -- results ---------------------------------------------------------------
  [[nodiscard]] std::size_t generated_count() const { return generated_; }
  [[nodiscard]] std::size_t delivered_count() const;
  [[nodiscard]] double success_rate() const;
  /// Delays of delivered messages, seconds.
  [[nodiscard]] Samples delays() const;
  /// Replicas created per generated message (relay transfers, source copy excluded).
  [[nodiscard]] double avg_replicas() const;
  [[nodiscard]] const std::vector<DetectionEvent>& detections() const { return detections_; }
  [[nodiscard]] std::vector<NodeId> detected_nodes() const;
  [[nodiscard]] const std::map<NodeId, TimePoint>& evictions() const { return evictions_; }
  /// First detection event against `n`, if any.
  [[nodiscard]] std::optional<DetectionEvent> first_detection(NodeId n) const;

  [[nodiscard]] std::uint64_t total_relays() const { return total_relays_; }

  struct MessageRecord {
    /// MessageId::invalid() marks an id that was never generated.
    MessageId id;
    NodeId src;
    NodeId dst;
    TimePoint created;
    std::optional<TimePoint> delivered;
    std::uint32_t replicas = 0;
    /// Time of the most recent relay hop (== created until the first hop);
    /// drives the per-hop delay histogram.
    TimePoint last_hop;
  };
  /// The generated messages' records, in id order.
  [[nodiscard]] auto messages() const {
    return std::views::filter(records_, [](const MessageRecord& r) { return r.id.valid(); });
  }
  /// The record of `id`, or nullptr if it was never generated.
  [[nodiscard]] const MessageRecord* message(MessageId id) const;

 private:
  /// The index of `id`'s record, or records_.size() if it was never generated.
  [[nodiscard]] std::size_t slot(MessageId id) const;

  /// Records by id: ids are 1..N in generation order, so records_[id - 1]
  /// is a relay's or delivery's record, found without a search.
  std::vector<MessageRecord> records_;
  std::size_t generated_ = 0;
  std::vector<NodeCosts> costs_;  ///< by node id
  std::vector<DetectionEvent> detections_;
  std::map<NodeId, TimePoint> evictions_;
  std::uint64_t total_relays_ = 0;
  obs::ObsContext* obs_ = nullptr;
};

}  // namespace g2g::metrics
