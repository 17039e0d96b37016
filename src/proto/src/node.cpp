#include "g2g/proto/node.hpp"

namespace g2g::proto {

const char* to_string(Behavior b) {
  switch (b) {
    case Behavior::Faithful: return "faithful";
    case Behavior::Dropper: return "dropper";
    case Behavior::Liar: return "liar";
    case Behavior::Cheater: return "cheater";
    case Behavior::Hoarder: return "hoarder";
  }
  return "?";
}

obs::ObsContext& Env::obs() {
  // Shared fallback for lightweight test Envs; tracing stays disabled and the
  // counters are only ever driven from single-threaded unit tests.
  static obs::ObsContext fallback;
  return fallback;
}

Arena& Env::wire_arena() {
  // Per-thread fallback for lightweight test Envs; NetworkBase overrides with
  // a per-run arena so parallel sweeps never share scratch across runs.
  static thread_local Arena fallback;
  return fallback;
}

std::uint64_t Env::msg_ref(const MessageHash& h) const {
  std::uint64_t ref = 0;
  for (std::size_t i = 0; i < 8 && i < h.size(); ++i) {
    ref |= static_cast<std::uint64_t>(h[i]) << (8 * i);
  }
  return ref;
}

Session::Session(Env& env, ProtocolNode& a, ProtocolNode& b, std::size_t byte_budget)
    : env_(env), a_(a), b_(b), budget_(byte_budget) {
  // Mutual authentication: exchange certificates, verify them, agree a
  // session key. Both endpoints pay symmetric costs.
  const std::size_t sig = a.identity().suite().signature_size();
  const std::size_t cert_bytes = wire::certificate(sig);
  for (ProtocolNode* n : {&a_, &b_}) {
    n->count_sent(cert_bytes);
    n->count_received(cert_bytes);
    n->count_verification();  // peer certificate check
    n->count_session();
    used_ += cert_bytes;
    env_.obs().counters.count_wire(obs::WireKind::Certificate, cert_bytes);
  }
}

TimePoint Session::now() const { return env_.now(); }

void Session::transfer(ProtocolNode& from, std::size_t bytes, obs::WireKind kind) {
  ProtocolNode& to = peer_of(from);
  from.count_sent(bytes);
  to.count_received(bytes);
  used_ += bytes;
  env_.obs().counters.count_wire(kind, bytes);
}

void Session::signed_control(ProtocolNode& from, std::size_t bytes, obs::WireKind kind) {
  ProtocolNode& to = peer_of(from);
  from.count_signature();
  to.count_verification();
  transfer(from, bytes, kind);
}

ProtocolNode& Session::peer_of(const ProtocolNode& n) { return &n == &a_ ? b_ : a_; }

ProtocolNode::ProtocolNode(Env& env, crypto::NodeIdentity identity, NodeConfig config,
                           BehaviorConfig behavior)
    : env_(env),
      identity_(std::move(identity)),
      config_(config),
      behavior_(behavior) {}

bool ProtocolNode::accepts_session_with(NodeId peer) const {
  return !ledger_.blacklisted(peer);
}

bool ProtocolNode::learn_pom(const ProofOfMisbehavior& pom) {
  if (pom.culprit == id()) return false;  // nodes do not blacklist themselves
  if (ledger_.blacklisted(pom.culprit)) return false;
  count_verification();
  const bool ok = verify_pom(env_.roster(), pom);
  trace_event(obs::EventKind::PomLearned, pom.culprit, 0, ok ? 1 : 0);
  if (!ok) return false;
  counters().poms_learned->add();
  ledger_.blacklist(pom.culprit);
  ledger_.record(pom);
  return true;
}

void ProtocolNode::note_encounter(NodeId /*peer*/, TimePoint /*t*/) {}

void ProtocolNode::finalize(TimePoint end) {
  if (finalized_) return;
  finalized_ = true;
  auto& c = costs();
  c.memory_byte_seconds +=
      static_cast<double>(buffer_bytes_) * (end - last_buffer_change_).to_seconds();
}

void ProtocolNode::count_sent(std::size_t bytes) { costs().bytes_sent += bytes; }
void ProtocolNode::count_received(std::size_t bytes) { costs().bytes_received += bytes; }
void ProtocolNode::count_signature() { ++costs().signatures; }
void ProtocolNode::count_verification() { ++costs().verifications; }
void ProtocolNode::count_heavy_hmac() { ++costs().heavy_hmacs; }
void ProtocolNode::count_session() { ++costs().sessions; }

void ProtocolNode::buffer_changed(std::int64_t delta) {
  const TimePoint now = env_.now();
  auto& c = costs();
  c.memory_byte_seconds +=
      static_cast<double>(buffer_bytes_) * (now - last_buffer_change_).to_seconds();
  buffer_bytes_ += delta;
  last_buffer_change_ = now;
  if (delta > 0) {
    counters().buffer_adds->add();
    trace_event(obs::EventKind::BufferAdd, NodeId::invalid(), 0, delta);
  } else if (delta < 0) {
    counters().buffer_drops->add();
    trace_event(obs::EventKind::BufferEvict, NodeId::invalid(), 0, delta);
  }
}

bool ProtocolNode::deviates_with(NodeId peer) const {
  if (behavior_.kind == Behavior::Faithful) return false;
  if (behavior_.with_outsiders_only) return env_.outsiders(id(), peer);
  return true;
}

metrics::NodeCosts& ProtocolNode::costs() { return env_.collector().costs(id()); }

void ProtocolNode::issue_pom(ProofOfMisbehavior pom, metrics::DetectionMethod method,
                             Duration after_delta1) {
  pom.accuser = id();
  pom.at = env_.now();
  ledger_.blacklist(pom.culprit);
  counters().poms_issued->add();
  counters().evictions->add();
  trace_event(obs::EventKind::PomIssued, pom.culprit, 0,
              static_cast<std::int64_t>(pom.kind));
  trace_event(obs::EventKind::Eviction, pom.culprit);
  env_.collector().node_evicted(pom.culprit, env_.now());
  env_.notify_detection(pom.culprit, id(), method, after_delta1);
  env_.broadcast_pom(ledger_.record(std::move(pom)));
}

}  // namespace g2g::proto
