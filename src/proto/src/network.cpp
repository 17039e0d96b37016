#include "g2g/proto/network.hpp"

#include <stdexcept>
#include <utility>

#include "g2g/util/log.hpp"

namespace g2g::proto {

namespace {
/// Adapts the discrete-event clock to the logger so lines emitted during a
/// run carry the sim-time.
class SimLogClock final : public LogClock {
 public:
  explicit SimLogClock(const sim::Simulator& sim) : sim_(sim) {}
  [[nodiscard]] std::int64_t now_micros() const override {
    return sim_.now().micros();
  }

 private:
  const sim::Simulator& sim_;
};

NetworkConfig with_default_suite(NetworkConfig config) {
  if (!config.suite) config.suite = crypto::make_fast_suite();
  return config;
}
}  // namespace

NetworkBase::NetworkBase(const trace::ContactTrace& trace, NetworkConfig config,
                         metrics::Collector& collector)
    : config_(with_default_suite(std::move(config))),
      node_count_(trace.node_count()),
      rng_(config_.seed),
      sim_(config_.horizon == TimePoint::zero() ? trace.end_time() : config_.horizon),
      roster_(config_.suite),
      collector_(&collector),
      trace_(&trace) {
  if (!trace.finalized()) throw std::invalid_argument("trace must be finalized");
  if (node_count_ < 2) throw std::invalid_argument("need at least 2 nodes");
  if (config_.obs != nullptr) {
    obs_ = config_.obs;
  } else {
    owned_obs_ = std::make_unique<obs::ObsContext>();
    obs_ = owned_obs_.get();
  }
  collector_->attach_obs(obs_);

  Rng auth_rng = rng_.fork(0xA117);
  authority_ = std::make_unique<crypto::Authority>(config_.suite, auth_rng);
  // One callback per contact, carrying its duration so the session can
  // budget bandwidth.
  for (const auto& e : trace.events()) {
    sim_.at(e.start, [this, e] { contact(e.start, e.a, e.b, e.duration()); });
  }
}

std::size_t NetworkBase::contact_budget(Duration contact_duration) const {
  if (config_.bandwidth_bytes_per_s <= 0.0 || contact_duration == Duration::max()) {
    return static_cast<std::size_t>(-1);
  }
  const double budget = config_.bandwidth_bytes_per_s * contact_duration.to_seconds();
  return budget >= 1e18 ? static_cast<std::size_t>(-1)
                        : static_cast<std::size_t>(budget);
}

crypto::NodeIdentity NetworkBase::make_identity(NodeId n) {
  Rng key_rng = rng_.fork(0x1D000000ULL + n.value());
  crypto::NodeIdentity identity(config_.suite, n, *authority_, key_rng);
  roster_.add(identity.certificate());
  return identity;
}

void NetworkBase::register_node(ProtocolNode* node) { generic_nodes_.push_back(node); }

std::uint64_t NetworkBase::msg_ref(const MessageHash& h) const {
  const MessageRef m = messages_.find(h);
  return m != kNoMessage && messages_.id(m).valid() ? messages_.id(m).value()
                                                    : Env::msg_ref(h);
}

void NetworkBase::record_contact_up(NodeId a, NodeId b, Duration contact_duration) {
  obs_->counters.contacts->add();
  const bool bounded = contact_duration != Duration::max();
  if (bounded) obs_->counters.contact_duration_s->observe(contact_duration.to_seconds());
  if (obs_->tracer.enabled()) {
    obs_->tracer.emit({now(), obs::EventKind::ContactUp, a, b, 0,
                       bounded ? contact_duration.count() : -1});
  }
}

void NetworkBase::record_session(NodeId a, NodeId b, bool opened) {
  (opened ? obs_->counters.sessions_opened : obs_->counters.sessions_refused)->add();
  if (obs_->tracer.enabled()) {
    obs_->tracer.emit({now(),
                       opened ? obs::EventKind::SessionOpen : obs::EventKind::SessionRefused,
                       a, b, 0, 0});
  }
}

void NetworkBase::record_contact_down(NodeId a, NodeId b, std::size_t bytes_used) {
  if (obs_->tracer.enabled()) {
    obs_->tracer.emit({now(), obs::EventKind::ContactDown, a, b, 0,
                       static_cast<std::int64_t>(bytes_used)});
  }
}

void NetworkBase::notify_delivered(MessageRef m, NodeId /*dst*/) {
  const MessageId id = messages_.id(m);
  if (id.valid()) collector_->message_delivered(id, now());
}

void NetworkBase::notify_relayed(MessageRef m, NodeId from, NodeId to) {
  const MessageId id = messages_.id(m);
  if (id.valid()) collector_->message_relayed(id, from, to, now());
}

void NetworkBase::notify_detection(NodeId culprit, NodeId detector,
                                   metrics::DetectionMethod method, Duration after_delta1) {
  collector_->detection(
      metrics::DetectionEvent{culprit, detector, now(), method, after_delta1});
}

void NetworkBase::broadcast_pom(const ProofOfMisbehavior& pom) {
  if (!config_.instant_pom_broadcast) return;  // gossip handles dissemination
  for (ProtocolNode* node : generic_nodes_) {
    if (node->id() == pom.culprit || node->id() == pom.accuser) continue;
    (void)node->learn_pom(pom);
  }
}

void NetworkBase::warm_up(const std::vector<trace::ContactEvent>& history,
                          TimePoint window_start) {
  for (const auto& e : history) {
    if (e.start >= window_start) continue;
    const TimePoint t = TimePoint::zero() + (e.start - window_start);
    generic_nodes_.at(e.a.value())->note_encounter(e.b, t);
    generic_nodes_.at(e.b.value())->note_encounter(e.a, t);
  }
}

void NetworkBase::schedule_traffic(const std::vector<sim::TrafficDemand>& demands) {
  for (const auto& d : demands) {
    sim_.at(d.at, [this, d] {
      ProtocolNode& src = *generic_nodes_.at(d.src.value());
      Bytes body(d.body_size, 0);
      Rng body_rng = rng_.fork(d.id.value());
      for (auto& byte : body) byte = static_cast<std::uint8_t>(body_rng.next());
      const SealedMessage m = make_message(src.identity(), roster_, d.dst, d.id, body, rng_);
      collector_->message_generated(d.id, d.src, d.dst, now());
      inject(d.src, messages_.intern(m, d.id));
    });
  }
}

void NetworkBase::run() {
  const SimLogClock clock(sim_);
  const ScopedLogClock scoped(&clock);
  const std::size_t fired = sim_.run();
  // g2g.* counters are excluded from core::to_json(ExperimentResult), so this
  // telemetry-only counter never perturbs bit-identity checks.
  obs_->registry.counter("g2g.sim.events_fired").add(fired);
  const TimePoint end =
      config_.horizon == TimePoint::zero() ? trace_->end_time() : config_.horizon;
  for (ProtocolNode* n : generic_nodes_) n->finalize(end);
  obs_->tracer.close_message_spans(end);
}

bool NetworkBase::open_session(Session& s, ProtocolNode& a, ProtocolNode& b) {
  a.note_encounter(b.id(), now());
  b.note_encounter(a.id(), now());
  // PoM gossip: accusations spread epidemically at session start, a -> b
  // then b -> a. Each sender's ledger is walked by reference: learn_pom
  // appends only to the receiver's ledger. One pom_gossip span covers the
  // session's gossip, opened at the first PoM that crosses and closed with
  // the number carried.
  std::uint64_t span = 0;
  std::int64_t carried = 0;
  for (const auto& [from, to] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
    for (const ProofOfMisbehavior& pom : from->known_poms()) {
      if (to->blacklisted(pom.culprit)) continue;  // peer already knows
      if (carried++ == 0) {
        span = obs_->tracer.open_span(now(), obs::SpanKind::PomGossip, /*parent=*/0, a.id(),
                                        b.id());
      }
      s.transfer(*from, pom.wire_size(), obs::WireKind::Pom);
      obs_->counters.poms_gossiped->add();
      if (obs_->tracer.enabled()) {
        obs_->tracer.emit({now(), obs::EventKind::PomGossip, from->id(), to->id(),
                           pom.culprit.value(), 0});
      }
      (void)to->learn_pom(pom);
    }
  }
  if (carried > 0) obs_->tracer.close_span(now(), span, carried);
  // If gossip revealed the peer is a known misbehaver, cut the session.
  return a.accepts_session_with(b.id()) && b.accepts_session_with(a.id());
}

}  // namespace g2g::proto
