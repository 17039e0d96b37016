// Protocol node base: identity, behaviour, blacklist, and cost accounting.
//
// Every concrete protocol (Epidemic, Delegation, and their G2G versions)
// derives from ProtocolNode. A node interacts with the world only through
// its Env (simulation services) and through direct peer calls inside a
// Session, which models the authenticated, session-encrypted exchange two
// nodes run while in radio range.
#pragma once

#include <set>
#include <vector>

#include "g2g/crypto/identity.hpp"
#include "g2g/metrics/collector.hpp"
#include "g2g/obs/context.hpp"
#include "g2g/proto/message.hpp"
#include "g2g/proto/message_table.hpp"
#include "g2g/proto/relay/pom.hpp"
#include "g2g/proto/wire.hpp"
#include "g2g/util/arena.hpp"
#include "g2g/util/rng.hpp"
#include "g2g/util/time.hpp"

namespace g2g::proto {

/// Rational deviations studied in the paper (Sections V and VII).
enum class Behavior : std::uint8_t {
  Faithful = 0,
  Dropper = 1,  ///< drops every message right after the relay phase
  Liar = 2,     ///< declares forwarding quality 0 (Delegation only)
  Cheater = 3,  ///< lowers the quality inside relayed messages (Delegation only)
  /// Keeps every message it accepts but never relays it onward. Undetectable
  /// by construction (it always passes the storage test) — the mechanism that
  /// defeats it is the *heavy HMAC*: answering tests costs more energy than
  /// relaying would have (Section IV-C).
  Hoarder = 4,
};

[[nodiscard]] const char* to_string(Behavior b);

struct BehaviorConfig {
  Behavior kind = Behavior::Faithful;
  /// "Selfish with outsiders": deviate only in sessions with nodes from
  /// other communities (k-clique communities of the trace).
  bool with_outsiders_only = false;
};

/// Protocol timing/size knobs. Paper defaults are per-scenario; see
/// core/presets.hpp.
struct NodeConfig {
  /// TTL-equivalent: how long a holder keeps looking for relays (G2G), and
  /// the message TTL of the vanilla protocols.
  Duration delta1 = Duration::minutes(30);
  /// How long protocol state (message or PoRs) is kept for possible tests.
  Duration delta2 = Duration::minutes(60);
  /// Number of relays each *relay* hands the message to (2 in the paper).
  std::size_t relay_fanout = 2;
  /// Cap for the *source* ("the sender S tries to relay it to the first two
  /// (at least) nodes it meets"): a rational sender spreads its own message
  /// as widely as it can, so the default is unbounded.
  std::size_t source_fanout = static_cast<std::size_t>(-1);
  /// Delegation quality flavour and snapshot timeframe.
  QualityKind quality_kind = QualityKind::DestinationFrequency;
  Duration quality_frame = Duration::minutes(34);
  /// Iterations of the storage-proof heavy HMAC.
  std::uint32_t heavy_hmac_iterations = 1024;
  /// TTL semantics for the G2G protocols. true (default): Delta1 counts from
  /// message creation and the expiry travels with the message, exactly like
  /// the vanilla protocols' TTL ("Delta1 plays the role of the message TTL").
  /// false: each holder counts Delta1 from its own receipt (ablation).
  bool global_ttl = true;
  /// Buffer cap for the *vanilla* protocols (messages; 0 = unlimited, the
  /// paper's assumption). When full, the entry closest to expiry is evicted.
  /// The G2G protocols ignore this: their storage obligation until Delta2 is
  /// part of the mechanism.
  std::size_t max_buffer_messages = 0;
};

/// Simulation services the Network provides to its nodes.
class Env {
 public:
  virtual ~Env() = default;

  [[nodiscard]] virtual TimePoint now() const = 0;
  [[nodiscard]] virtual Rng& rng() = 0;
  [[nodiscard]] virtual const Roster& roster() const = 0;
  [[nodiscard]] virtual metrics::Collector& collector() = 0;
  /// True iff a and b share no community (drives "selfish with outsiders").
  [[nodiscard]] virtual bool outsiders(NodeId a, NodeId b) const = 0;
  [[nodiscard]] virtual std::size_t node_count() const = 0;

  /// The run's observability bundle (tracer + counter registry). The default
  /// is a shared process-wide context with tracing disabled, so lightweight
  /// test Envs need not provide one; NetworkBase overrides with a per-run
  /// context (a requirement for parallel sweeps).
  [[nodiscard]] virtual obs::ObsContext& obs();
  /// Scratch arena for the zero-copy wire path: encoded frames and signed
  /// payloads of the current handshake/audit step live here. The engines
  /// reset() it at the start of every handshake attempt and audit challenge,
  /// so arena-backed views never outlive the step that produced them (see
  /// DESIGN.md "Buffer ownership"). The default is a per-thread arena for
  /// lightweight test Envs; NetworkBase overrides with a per-run arena.
  [[nodiscard]] virtual Arena& wire_arena();
  /// The run's message table: every message, encoded and hashed once.
  [[nodiscard]] virtual MessageTable& messages() = 0;
  /// Trace reference for a message hash: the MessageId where the Env knows
  /// the mapping, otherwise the hash's first 8 bytes.
  [[nodiscard]] virtual std::uint64_t msg_ref(const MessageHash& h) const;

  virtual void notify_delivered(MessageRef m, NodeId dst) = 0;
  virtual void notify_relayed(MessageRef m, NodeId from, NodeId to) = 0;
  virtual void notify_detection(NodeId culprit, NodeId detector,
                                metrics::DetectionMethod method, Duration after_delta1) = 0;
  /// Called whenever a node issues a PoM. The default Network uses epidemic
  /// gossip; with instant_pom_broadcast it pushes the PoM to everyone at once
  /// (an upper bound on dissemination, used by the ablation bench).
  virtual void broadcast_pom(const ProofOfMisbehavior& pom) = 0;
};

class ProtocolNode;

/// Accounting wrapper for one authenticated contact. Construction charges
/// both endpoints the mutual-authentication cost (certificate exchange,
/// verification, session-key agreement).
class Session {
 public:
  /// `byte_budget` caps the total bytes the contact can carry (bandwidth x
  /// contact duration); SIZE_MAX = unlimited (the paper's assumption). The
  /// transfer that crosses the budget still completes — a handshake either
  /// finishes or is never started — but exhausted() turns true.
  Session(Env& env, ProtocolNode& a, ProtocolNode& b,
          std::size_t byte_budget = static_cast<std::size_t>(-1));

  [[nodiscard]] TimePoint now() const;
  [[nodiscard]] Env& env() { return env_; }
  /// The Env's wire-path scratch arena (see Env::wire_arena).
  [[nodiscard]] Arena& arena() { return env_.wire_arena(); }

  /// Account an unsigned transfer of `bytes` from `from` to the other side.
  /// `kind` feeds the per-wire-message-kind byte counters.
  void transfer(ProtocolNode& from, std::size_t bytes,
                obs::WireKind kind = obs::WireKind::Other);
  /// Account a signed control message: bytes + one signature by `from`,
  /// one verification by the receiver.
  void signed_control(ProtocolNode& from, std::size_t bytes,
                      obs::WireKind kind = obs::WireKind::Other);

  /// True once the contact's byte budget is spent; protocol loops stop
  /// starting new exchanges.
  [[nodiscard]] bool exhausted() const { return used_ >= budget_; }
  [[nodiscard]] std::size_t bytes_used() const { return used_; }

  [[nodiscard]] ProtocolNode& peer_of(const ProtocolNode& n);

 private:
  Env& env_;
  ProtocolNode& a_;
  ProtocolNode& b_;
  std::size_t budget_;
  std::size_t used_ = 0;
};

class ProtocolNode {
 public:
  ProtocolNode(Env& env, crypto::NodeIdentity identity, NodeConfig config,
               BehaviorConfig behavior);
  virtual ~ProtocolNode() = default;

  ProtocolNode(const ProtocolNode&) = delete;
  ProtocolNode& operator=(const ProtocolNode&) = delete;

  [[nodiscard]] NodeId id() const { return identity_.node(); }
  [[nodiscard]] const crypto::NodeIdentity& identity() const { return identity_; }
  [[nodiscard]] const NodeConfig& config() const { return config_; }
  [[nodiscard]] const BehaviorConfig& behavior() const { return behavior_; }

  // -- blacklist / PoM handling ---------------------------------------------
  /// Would this node open a session with `peer`?
  [[nodiscard]] bool accepts_session_with(NodeId peer) const;
  /// Receive a gossiped PoM: verify evidence, then blacklist the culprit.
  /// Returns true if the PoM was new and verified.
  bool learn_pom(const ProofOfMisbehavior& pom);
  [[nodiscard]] const std::vector<ProofOfMisbehavior>& known_poms() const {
    return ledger_.known();
  }
  [[nodiscard]] bool blacklisted(NodeId n) const { return ledger_.blacklisted(n); }
  [[nodiscard]] relay::PomLedger& pom_ledger() { return ledger_; }
  [[nodiscard]] const relay::PomLedger& pom_ledger() const { return ledger_; }

  /// Called by the Network at the start of every authenticated session; the
  /// Delegation protocols override to update their encounter tables.
  virtual void note_encounter(NodeId peer, TimePoint t);

  /// Flush time-integrated accounting at the end of the run.
  void finalize(TimePoint end);

  // -- cost accounting (public: Session and peers drive these) ---------------
  void count_sent(std::size_t bytes);
  void count_received(std::size_t bytes);
  void count_signature();
  void count_verification();
  void count_heavy_hmac();
  void count_session();
  /// Buffer occupancy changed by `delta` bytes at the current time.
  void buffer_changed(std::int64_t delta);
  [[nodiscard]] std::int64_t buffered_bytes() const { return buffer_bytes_; }

 protected:
  /// Whether the node's behaviour says to deviate in a session with `peer`.
  [[nodiscard]] bool deviates_with(NodeId peer) const;
  [[nodiscard]] metrics::NodeCosts& costs();

  /// Observability helpers: one branch when tracing is off, plain counter
  /// increments otherwise. `this` node is the event's primary actor.
  void trace_event(obs::EventKind kind, NodeId peer, std::uint64_t ref = 0,
                   std::int64_t value = 0) {
    obs::Tracer& t = env_.obs().tracer;
    if (t.enabled()) t.emit({env_.now(), kind, id(), peer, ref, value});
  }
  /// Trace reference of `h` for trace events and spans (Env::msg_ref), or 0
  /// when tracing is off: a disabled tracer drops both, so the lookup is
  /// skipped.
  [[nodiscard]] std::uint64_t trace_ref(const MessageHash& h) const {
    return env_.obs().tracer.enabled() ? env_.msg_ref(h) : 0;
  }
  [[nodiscard]] obs::ProtocolCounters& counters() { return env_.obs().counters; }
  /// Issue a PoM: record it locally (accuser blacklists immediately), notify
  /// metrics, and leave it for gossip.
  void issue_pom(ProofOfMisbehavior pom, metrics::DetectionMethod method,
                 Duration after_delta1);

  Env& env_;

 private:
  crypto::NodeIdentity identity_;
  NodeConfig config_;
  BehaviorConfig behavior_;
  relay::PomLedger ledger_;

  std::int64_t buffer_bytes_ = 0;
  TimePoint last_buffer_change_ = TimePoint::zero();
  bool finalized_ = false;
};

}  // namespace g2g::proto
