// The Network: owns the nodes, drives them from a contact trace, injects
// traffic, relays PoM gossip, and implements the Env services.
//
// Network<NodeT> is typed on the protocol (EpidemicNode, DelegationNode,
// G2GEpidemicNode, G2GDelegationNode); everything protocol-agnostic lives in
// NetworkBase.
#pragma once

#include <memory>
#include <vector>

#include "g2g/community/kclique.hpp"
#include "g2g/metrics/collector.hpp"
#include "g2g/proto/node.hpp"
#include "g2g/sim/simulator.hpp"
#include "g2g/sim/traffic.hpp"
#include "g2g/trace/contact.hpp"

namespace g2g::proto {

struct NetworkConfig {
  NodeConfig node;
  /// Signature suite; the fast symmetric emulation by default (simulation
  /// sweeps), make_schnorr_suite() for the real public-key path.
  crypto::SuitePtr suite;
  /// Communities for the "selfish with outsiders" behaviours (typically the
  /// k-clique communities detected on the trace).
  community::CommunityMap communities;
  /// Simulation horizon; events past it are dropped. Zero means "end of trace".
  TimePoint horizon = TimePoint::zero();
  std::uint64_t seed = 7;
  std::size_t message_body_size = 64;
  /// Ablation: deliver every PoM to all nodes instantly instead of relying on
  /// epidemic gossip at session start.
  bool instant_pom_broadcast = false;
  /// Radio bandwidth in bytes/second; a contact can carry at most
  /// duration * bandwidth bytes. 0 = unlimited (the paper's assumption).
  double bandwidth_bytes_per_s = 0.0;
  /// Observability bundle to record into (tracer + counters). The context
  /// must outlive the network; nullptr = the network owns a private one
  /// (counters always collected, tracing disabled).
  obs::ObsContext* obs = nullptr;
};

class NetworkBase : public sim::ContactListener, public Env {
 public:
  NetworkBase(const trace::ContactTrace& trace, NetworkConfig config,
              metrics::Collector& collector);
  // The collector records into this network's ObsContext; detach so a
  // collector that outlives the network (results keep copies) never touches
  // a dead context.
  ~NetworkBase() override { collector_->attach_obs(nullptr); }

  // Env ----------------------------------------------------------------------
  [[nodiscard]] TimePoint now() const final { return sim_.now(); }
  [[nodiscard]] Rng& rng() final { return rng_; }
  [[nodiscard]] const Roster& roster() const final { return roster_; }
  [[nodiscard]] metrics::Collector& collector() final { return *collector_; }
  [[nodiscard]] bool outsiders(NodeId a, NodeId b) const final {
    return !config_.communities.same_community(a, b);
  }
  [[nodiscard]] std::size_t node_count() const final { return node_count_; }
  [[nodiscard]] obs::ObsContext& obs() final { return *obs_; }
  [[nodiscard]] Arena& wire_arena() final { return wire_arena_; }
  [[nodiscard]] MessageTable& messages() final { return messages_; }
  [[nodiscard]] std::uint64_t msg_ref(const MessageHash& h) const final;
  void notify_delivered(MessageRef m, NodeId dst) final;
  void notify_relayed(MessageRef m, NodeId from, NodeId to) final;
  void notify_detection(NodeId culprit, NodeId detector, metrics::DetectionMethod method,
                        Duration after_delta1) final;
  void broadcast_pom(const ProofOfMisbehavior& pom) final;

  // ContactListener ------------------------------------------------------------
  void on_contact_down(TimePoint, NodeId, NodeId) final {}

  /// Feed pre-window contact history into the nodes' encounter tables, with
  /// timestamps rebased so the window start is t=0 (history is negative).
  /// The Delegation protocols' forwarding qualities are built from the whole
  /// trace history, not just the 3-hour experiment window.
  void warm_up(const std::vector<trace::ContactEvent>& history, TimePoint window_start);

  /// Schedule the traffic demands (sources seal and inject at the given times).
  void schedule_traffic(const std::vector<sim::TrafficDemand>& demands);
  /// Run the simulation to completion and finalize node accounting.
  void run();

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  /// Wall-clock seconds spent in batched PoM gossip re-verification
  /// (relay::PomGossipBatch::verify); feeds the stage profile.
  [[nodiscard]] double pom_batch_seconds() const { return pom_batch_seconds_; }
  [[nodiscard]] ProtocolNode& base_node(NodeId n) { return *generic_nodes_.at(n.value()); }

 protected:
  /// Subclass hooks.
  virtual void inject(NodeId src, MessageRef m) = 0;
  virtual void contact(TimePoint t, NodeId a, NodeId b, Duration contact_duration) = 0;

  /// Contact byte budget from the configured bandwidth (SIZE_MAX = unlimited).
  [[nodiscard]] std::size_t contact_budget(Duration contact_duration) const;

  /// Shared session plumbing: blacklist check, auth, encounters, PoM gossip.
  /// Returns false if the session must be aborted.
  bool open_session(Session& s, ProtocolNode& a, ProtocolNode& b);

  void register_node(ProtocolNode* node);
  [[nodiscard]] crypto::NodeIdentity make_identity(NodeId n);

  /// Observability hooks for the typed contact() implementations.
  void record_contact_up(NodeId a, NodeId b, Duration contact_duration);
  void record_session(NodeId a, NodeId b, bool opened);
  void record_contact_down(NodeId a, NodeId b, std::size_t bytes_used);

  NetworkConfig config_;
  std::size_t node_count_;
  Rng rng_;
  sim::Simulator sim_;
  Roster roster_;
  /// Per-run wire-path scratch: one arena per network keeps parallel sweep
  /// runs isolated while every contact of a run reuses the same warm chunks.
  Arena wire_arena_;
  /// Per-run message table: entries are immutable and shared by every node
  /// of this run, never by another run.
  MessageTable messages_;
  metrics::Collector* collector_;
  std::vector<BehaviorConfig> behaviors_;

 private:
  // Contacts are scheduled internally with their durations; the
  // ContactListener entry points remain for API compatibility.
  void on_contact_up(TimePoint t, NodeId a, NodeId b) final {
    contact(t, a, b, Duration::max());
  }
  /// Sequential fallback of the batched PoM gossip (also the reference
  /// semantics: the batch must transfer exactly what this would).
  void gossip_poms(Session& s, ProtocolNode& from, ProtocolNode& to);

  std::unique_ptr<crypto::Authority> authority_;
  std::vector<ProtocolNode*> generic_nodes_;
  const trace::ContactTrace* trace_;
  double pom_batch_seconds_ = 0.0;
  /// Private fallback when config.obs is null (counters still collected).
  std::unique_ptr<obs::ObsContext> owned_obs_;
  obs::ObsContext* obs_ = nullptr;
};

template <typename NodeT>
class Network final : public NetworkBase {
 public:
  Network(const trace::ContactTrace& trace, NetworkConfig config,
          std::vector<BehaviorConfig> behaviors, metrics::Collector& collector)
      : NetworkBase(trace, std::move(config), collector) {
    behaviors_.resize(node_count_, BehaviorConfig{});
    for (std::size_t i = 0; i < behaviors.size() && i < node_count_; ++i) {
      behaviors_[i] = behaviors[i];
    }
    nodes_.reserve(node_count_);
    for (std::size_t i = 0; i < node_count_; ++i) {
      const NodeId n(static_cast<std::uint32_t>(i));
      nodes_.push_back(std::make_unique<NodeT>(*this, make_identity(n), config_.node,
                                               behaviors_[i]));
      register_node(nodes_.back().get());
    }
  }

  [[nodiscard]] NodeT& node(NodeId n) { return *nodes_.at(n.value()); }

 private:
  void inject(NodeId src, MessageRef m) override { node(src).generate(m); }

  void contact(TimePoint t, NodeId a, NodeId b, Duration contact_duration) override {
    record_contact_up(a, b, contact_duration);
    NodeT& x = node(a);
    NodeT& y = node(b);
    // A blacklisted node gets no session at all — that is the eviction.
    if (!x.accepts_session_with(b) || !y.accepts_session_with(a)) {
      record_session(a, b, false);
      return;
    }
    Session s(*this, x, y, contact_budget(contact_duration));
    if (!open_session(s, x, y)) {
      record_session(a, b, false);
      record_contact_down(a, b, s.bytes_used());
      return;
    }
    record_session(a, b, true);
    (void)t;
    NodeT::run_contact(s, x, y);
    record_contact_down(a, b, s.bytes_used());
  }

  std::vector<std::unique_ptr<NodeT>> nodes_;
};

}  // namespace g2g::proto
