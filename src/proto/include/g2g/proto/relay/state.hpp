// Shared per-message state of the relay core.
//
// Both G2G protocols track the same things about a held message: the payload
// (until the forwarding duty is met), the PoRs collected from takers, and —
// for Delegation — the quality label f_m plus the declarations carried toward
// the destination. The engines (handshake.hpp, audit.hpp) own containers of
// these; the policy nodes reach them through their host accessors.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "g2g/proto/message.hpp"
#include "g2g/proto/message_table.hpp"
#include "g2g/proto/wire.hpp"

namespace g2g::proto::relay {

/// Everything a node keeps about one message between receipt and Delta2.
/// The Delegation-only fields (fm, attachments, failed_candidates) stay at
/// their defaults for Epidemic holds.
struct Hold {
  /// The message's entry in the run's table (Env::messages()), shared with
  /// every other holder of the same bytes.
  MessageRef msg = kNoMessage;
  bool has_msg = false;  ///< payload still stored (PoRs may outlive it)
  std::size_t msg_bytes = 0;
  double fm = 0.0;  ///< quality label; changed only when forwarded (Delegation)
  TimePoint received;
  TimePoint expires;  ///< stop seeking relays past this point (Delta1 / TTL)
  NodeId giver;
  bool is_source = false;
  bool is_destination = false;
  std::vector<ProofOfRelay> pors;
  std::vector<QualityDeclaration> attachments;        ///< carried toward D
  std::vector<QualityDeclaration> failed_candidates;  ///< source only, last 2
};

/// A relay the source must challenge when re-met in (Delta1, Delta2].
struct PendingTest {
  MessageHash h{};
  NodeId relay;
  TimePoint relayed_at;
  ProofOfRelay por;  ///< the PoR the relay signed for us
  bool done = false;
};

/// A relay's storage proof: exactly the bytes heavy_hmac reads on its side.
/// The source judges it against its own copy with crypto::heavy_hmac_equal.
struct StorageProof {
  /// The relay's stored encoding: its hold's wire bytes in the run's message
  /// table, which outlives every challenge of the run.
  // g2g-lint: allow(view-escape) -- views an immutable message-table entry, which lives as long as the network
  BytesView message;
  std::array<std::uint8_t, 32> seed{};  ///< the seed the relay answered
  std::uint32_t iterations = 0;
};

/// Response to a POR_RQST challenge.
struct TestResponse {
  std::vector<ProofOfRelay> pors;
  std::optional<StorageProof> storage;  ///< absent: no storage proof sent
};

/// What a policy-specific relay attempt hands back to the shared handshake
/// tail (PoR bookkeeping, key reveal, completion, test arming).
struct HandshakeOutcome {
  ProofOfRelay por;  ///< verified PoR the taker signed
  /// The encoded RelayDataFrame, already accounted. A view into the session
  /// arena: valid for the current handshake attempt only (the engine resets
  /// the arena before the next attempt begins).
  // g2g-lint: allow(view-escape) -- documented engine seam: consumed within the same handshake attempt, before the reset
  BytesView data_frame;
  /// Delegation relabels f_m with the taker's declared quality on a true
  /// delegation step; Epidemic never does.
  bool update_fm = false;
  double new_fm = 0.0;
};

}  // namespace g2g::proto::relay
