// The observability bundle one simulation run carries: a Tracer, a Registry,
// and pre-resolved handles for the well-known protocol counters so the hot
// path never does a name lookup.
//
// proto::NetworkBase owns (or is handed) exactly one ObsContext per run;
// nodes reach it through Env::obs(). core::run_experiment snapshots the
// registry into the ExperimentResult after the run.
#pragma once

#include <array>
#include <cstdint>

#include "g2g/obs/registry.hpp"
#include "g2g/obs/tracer.hpp"

namespace g2g::obs {

/// Wire-message taxonomy for per-kind byte/message counters. Mirrors the
/// control messages of proto/wire.hpp plus the bulk transfers.
enum class WireKind : std::uint8_t {
  Certificate = 0,  ///< session-start certificate exchange
  SummaryVector,    ///< epidemic per-contact hash summary
  Payload,          ///< vanilla-protocol message body transfer
  RelayRqst,        ///< G2G step 1
  RelayOk,          ///< G2G step 2 (accept or decline)
  RelayData,        ///< G2G step 3, E_k(m) (+ embedded declarations)
  KeyReveal,        ///< G2G step 5
  PorRqst,          ///< test-phase challenge
  StoredResp,       ///< storage-proof response header
  FqRqst,           ///< Delegation quality request
  QualityDecl,      ///< signed quality declaration (FQ_RESP)
  Por,              ///< proof-of-relay transfer
  Pom,              ///< proof-of-misbehaviour gossip
  Other,
};

inline constexpr std::size_t kWireKindCount =
    static_cast<std::size_t>(WireKind::Other) + 1;

/// Handles into a Registry for every counter the protocol layers drive.
/// Counter names are "area.metric" (see docs/OBSERVABILITY.md for the list).
struct ProtocolCounters {
  explicit ProtocolCounters(Registry& registry);

  // Radio / session layer.
  Counter* contacts;
  Counter* sessions_opened;
  Counter* sessions_refused;

  // Relay handshakes.
  Counter* handshakes_started;
  Counter* handshakes_declined;
  Counter* handshakes_completed;
  Counter* handshakes_aborted;  ///< giver walked away mid-handshake (bad PoR/decl)
  Counter* pors_issued;
  Counter* pors_verified;

  // Test phases.
  Counter* tests_by_sender;
  Counter* tests_passed;
  Counter* tests_failed;
  Counter* storage_challenges;  ///< heavy HMACs computed (prover + verifier)
  Counter* chain_cheats;
  Counter* quality_lies;

  // Accusations.
  Counter* poms_issued;
  Counter* poms_gossiped;
  Counter* poms_learned;
  Counter* evictions;

  // Relay-core mechanism counters ("g2g.*"). They describe how the run was
  // computed (frame codec traffic, frames the relay core refused), not what
  // it computed, so core::to_json(ExperimentResult) excludes them.
  Counter* frames_encoded;      ///< handshake/audit frames encoded
  Counter* frames_decoded;      ///< handshake/audit frames decoded
  Counter* relay_replays;       ///< RELAY_DATA for an H(m) already handled, dropped
  Counter* relay_misclaims;     ///< RELAY_DATA whose claimed H(m) is not its bytes' hash
  Counter* fq_sign_reused;      ///< FQ_RESP signatures reused from an identical declaration
  Counter* fq_verify_reused;    ///< FQ_RESP checks answered by an identical verified one

  // Message lifecycle.
  Counter* generated;
  Counter* relays;
  Counter* deliveries;
  Counter* detections;

  // Buffers.
  Counter* buffer_adds;
  Counter* buffer_drops;

  // Per-kind wire traffic ("wire.<kind>.bytes" / "wire.<kind>.msgs").
  std::array<Counter*, kWireKindCount> wire_bytes{};
  std::array<Counter*, kWireKindCount> wire_msgs{};

  // Distributions.
  Histogram* hop_delay_s;       ///< delay of each relay hop
  Histogram* delivery_delay_s;  ///< end-to-end delay of delivered messages
  Histogram* contact_duration_s;

  void count_wire(WireKind kind, std::uint64_t bytes) {
    const auto i = static_cast<std::size_t>(kind);
    wire_msgs[i]->add();
    wire_bytes[i]->add(bytes);
  }
};

/// One run's worth of observability state. Not copyable (the counter handles
/// point into the registry); snapshot by copying `registry`.
struct ObsContext {
  ObsContext() = default;
  ObsContext(const ObsContext&) = delete;
  ObsContext& operator=(const ObsContext&) = delete;

  Tracer tracer;
  Registry registry;
  ProtocolCounters counters{registry};
};

}  // namespace g2g::obs
