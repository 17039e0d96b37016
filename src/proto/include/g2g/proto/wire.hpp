// Signed protocol artefacts and the certificate exchange's size.
//
// Three artefacts outlive the session that produced them and therefore need
// real signatures and canonical encodings:
//   * ProofOfRelay  — PoR, signed by the taker. Epidemic form (Fig. 1 step 4):
//     ⟨POR, H(m), A, B⟩_B. Delegation form (Fig. 6 step 11) additionally
//     carries the declared destination D', the message quality f_m at
//     handover and the taker's declared quality f_BD'.
//   * QualityDeclaration — ⟨FQ_RESP, B, D', f_BD'⟩_B, with the timeframe the
//     value was computed in. Stored by sources when a candidate fails, later
//     embedded toward the destination (test by the destination).
//   * ProofOfMisbehavior — PoM, gossiped network-wide; whoever verifies it
//     blacklists the culprit.
//
// Transient handshake steps (RELAY_RQST, RELAY_OK, KEY, ...) are the frames
// of relay/frames.hpp; a session charges each frame's wire_size().
#pragma once

#include <optional>

#include "g2g/proto/message.hpp"
#include "g2g/util/time.hpp"

namespace g2g::proto {

/// Which flavour of forwarding quality a Delegation network runs on.
enum class QualityKind : std::uint8_t {
  DestinationFrequency = 0,   ///< encounters with the destination
  DestinationLastContact = 1, ///< time of last encounter with the destination
};

[[nodiscard]] const char* to_string(QualityKind kind);

/// Sentinel for "never met the destination". For DestinationLastContact the
/// quality is the encounter time (possibly negative: history predating the
/// simulation window), so "never" must rank below every real timestamp.
inline constexpr double kNeverMet = -1e18;

/// The worst possible declarable quality of a kind — what a *liar* reports
/// (the paper's "forwarding quality equal to 0" generalized to both kinds).
[[nodiscard]] double min_quality(QualityKind kind);

/// ⟨FQ_RESP, B, D', f, frame⟩_B with timestamp.
struct QualityDeclaration {
  NodeId declarer;
  NodeId dst;
  double value = 0.0;
  std::int64_t frame = -1;  ///< completed timeframe the value was computed in
  TimePoint at;             ///< when the declaration was made
  crypto::Signature signature;

  [[nodiscard]] Bytes signed_payload() const;
  [[nodiscard]] std::size_t signed_payload_size() const;
  void signed_payload_into(SpanWriter& w) const;
  void encode_into(SpanWriter& w) const;
  /// Strict decode of exactly one declaration: rejects trailing bytes.
  [[nodiscard]] static QualityDeclaration decode(BytesView b);
  /// Streaming decode for frames that embed declarations mid-stream.
  [[nodiscard]] static QualityDeclaration decode(Reader& r);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Proof of relay, signed by the taker.
struct ProofOfRelay {
  MessageHash h{};
  NodeId giver;
  NodeId taker;
  TimePoint at;

  /// Delegation extension (ignored for epidemic PoRs).
  bool delegation = false;
  NodeId declared_dst;         ///< D' (the real destination or a decoy)
  double msg_quality = 0.0;    ///< f_m the giver attached at handover
  double taker_quality = 0.0;  ///< f_BD' the taker declared
  std::int64_t quality_frame = -1;

  crypto::Signature taker_signature;

  [[nodiscard]] Bytes signed_payload() const;
  [[nodiscard]] std::size_t signed_payload_size() const;
  void signed_payload_into(SpanWriter& w) const;
  void encode_into(SpanWriter& w) const;
  /// Strict decode of exactly one PoR: rejects trailing bytes.
  [[nodiscard]] static ProofOfRelay decode(BytesView b);
  /// Streaming decode for encodings embedded mid-stream.
  [[nodiscard]] static ProofOfRelay decode(Reader& r);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Non-owning decode of a ProofOfRelay: identical fields, but the signature
/// is a view into the buffer the PoR was decoded from. The handshake wire
/// path decodes and verifies through this view without touching the heap;
/// to_owned() materializes a ProofOfRelay when it must be stored (Holds,
/// PoM evidence) past the buffer's lifetime.
struct ProofOfRelayView {
  MessageHash h{};
  NodeId giver;
  NodeId taker;
  TimePoint at;

  bool delegation = false;
  NodeId declared_dst;
  double msg_quality = 0.0;
  double taker_quality = 0.0;
  std::int64_t quality_frame = -1;

  BytesView taker_signature;

  [[nodiscard]] std::size_t signed_payload_size() const;
  void signed_payload_into(SpanWriter& w) const;
  [[nodiscard]] ProofOfRelay to_owned() const;
  [[nodiscard]] std::size_t wire_size() const;
  /// Strict decode of exactly one PoR: rejects trailing bytes.
  [[nodiscard]] static ProofOfRelayView decode(BytesView b);
};

/// Network-wide accusation with verifiable evidence.
struct ProofOfMisbehavior {
  enum class Kind : std::uint8_t {
    RelayFailure = 0,  ///< culprit signed a PoR but failed the storage test
    QualityLie = 1,    ///< culprit's signed declaration contradicts the destination
    ChainCheat = 2,    ///< culprit's outgoing PoR contradicts its incoming PoR
  };

  Kind kind = Kind::RelayFailure;
  NodeId culprit;
  NodeId accuser;
  TimePoint at;

  /// RelayFailure: the PoR the culprit signed when accepting the message.
  /// ChainCheat: the PoR the *culprit* signed for the accuser (shows f_AD)...
  std::optional<ProofOfRelay> evidence_accepted;
  /// ChainCheat: ...and the PoR the culprit presented (signed by the next
  /// relay, shows the f1_m the culprit attached).
  std::optional<ProofOfRelay> evidence_forwarded;
  /// QualityLie: the culprit's signed declaration.
  std::optional<QualityDeclaration> evidence_declaration;

  void encode_into(SpanWriter& w) const;
  /// Strict inverse of encode_into(): rejects unknown kinds, non-boolean presence
  /// flags, trailing bytes, and evidence that does not match the claimed kind
  /// (e.g. a RelayFailure without the accepted PoR). Throws DecodeError.
  [[nodiscard]] static ProofOfMisbehavior decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Verify a PoM's internal evidence against the roster (signature checks plus
/// the ChainCheat arithmetic). QualityLie accusations additionally rely on
/// the accuser's own records, which third parties accept (the destination has
/// no interest in lying — Section VI-A).
[[nodiscard]] bool verify_pom(const Roster& roster, const ProofOfMisbehavior& pom);

/// Wire size of the session-start certificate exchange, for cost accounting.
/// `sig` is the suite's signature size.
namespace wire {
[[nodiscard]] constexpr std::size_t certificate(std::size_t sig) { return 4 + 32 + sig; }
}  // namespace wire

}  // namespace g2g::proto
