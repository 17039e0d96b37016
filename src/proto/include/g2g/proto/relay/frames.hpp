// Wire frames for the transient G2G handshake and audit steps.
//
// The relay core drives every handshake step through an explicit encoded
// frame: the sender encodes, the receiver decodes, and the canonical bytes
// are what the session accounts (frame size + the control signature). The
// persistent artefacts (ProofOfRelay, QualityDeclaration, ProofOfMisbehavior)
// keep their canonical encodings in wire.hpp; these frames cover the steps
// that were previously only *sized* by the wire:: helpers. Each frame's
// encoded size matches its wire:: size helper minus the trailing signature,
// so switching the protocol loops from size arithmetic to real frames is
// byte-identical in the cost model.
//
// Framing rules (shared with the artefacts): canonical little-endian, a
// leading one-byte tag, fixed-size fields, and strict decoding — unknown
// tags, truncation, and trailing bytes all throw DecodeError. Every frame
// carries the full codec triple — encode() / decode() / wire_size(), with
// wire_size() computed arithmetically and pinned to encode().size() in
// tests/relay_frames_test.cpp (g2g-lint rule wire-encode-triple).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "g2g/proto/message.hpp"
#include "g2g/proto/wire.hpp"
#include "g2g/util/arena.hpp"

namespace g2g::proto::relay {

/// One byte of frame discrimination on the wire. RELAY_OK and its decline
/// are distinct tags (the accept bit is the tag), everything else carries
/// its payload after the tag.
enum class FrameTag : std::uint8_t {
  RelayRqst = 1,    ///< step 1: ⟨RELAY_RQST, H(m)⟩
  RelayOk = 2,      ///< step 2: ⟨RELAY_OK, H(m)⟩
  RelayDecline = 3, ///< step 2: the taker already handled H(m)
  RelayData = 4,    ///< step 3: ⟨E_k(m) [, declarations]⟩
  KeyReveal = 5,    ///< step 5: ⟨KEY, H(m), k⟩
  PorRqst = 6,      ///< audit: ⟨POR_RQST, H(m), seed⟩
  StoredResp = 7,   ///< audit: ⟨STORED, H(m), seed, HMAC digest⟩
  FqRqst = 8,       ///< delegation step 8: ⟨FQ_RQST, H(m), D'⟩
};

/// Step 1: the giver offers H(m).
struct RelayRqstFrame {
  MessageHash h{};

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static RelayRqstFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Step 2: accept (tag RelayOk) or decline (tag RelayDecline).
struct RelayOkFrame {
  MessageHash h{};
  bool accept = true;

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static RelayOkFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Step 3: the encrypted message plus any embedded quality declarations
/// (Delegation's test-by-destination attachments; empty for Epidemic).
/// Payload layout: u64 byte length, then the message's canonical encoding
/// followed by the attachments' canonical encodings back to back.
struct RelayDataFrame {
  MessageHash h{};
  SealedMessage msg;
  std::vector<QualityDeclaration> attachments;

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static RelayDataFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Non-owning decode of a RelayData frame: the sealed message is a
/// SealedMessageView into the frame bytes and the attachments stay encoded
/// (back-to-back declarations in `attachments_wire`) until explicitly
/// materialized. The epidemic handshake never carries attachments, so its
/// receive path decodes through this view without touching the heap.
struct RelayDataFrameView {
  MessageHash h{};
  SealedMessageView msg;
  BytesView attachments_wire;

  /// Decode the embedded declarations (empty for Epidemic frames).
  [[nodiscard]] std::vector<QualityDeclaration> decode_attachments() const;
  [[nodiscard]] static RelayDataFrameView decode(BytesView b);
};

/// Step 5: the key reveal. The simulation emulates the encryption (the box
/// seal already protects the content), so the key bytes are a placeholder of
/// the real 32-byte key the frame would carry.
struct KeyRevealFrame {
  MessageHash h{};
  std::array<std::uint8_t, 32> key{};

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static KeyRevealFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Audit challenge: prove you relayed H(m) (PoRs) or still store it (heavy
/// HMAC over the fresh seed).
struct PorRqstFrame {
  MessageHash h{};
  std::array<std::uint8_t, 32> seed{};

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static PorRqstFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Audit storage proof: the heavy HMAC digest over (m, seed).
struct StoredRespFrame {
  /// Encoded size: tag + hash + seed + digest (matches wire::stored_resp
  /// minus the control signature).
  static constexpr std::size_t kWireBytes = 1 + 32 + 32 + 32;

  MessageHash h{};
  std::array<std::uint8_t, 32> seed{};
  crypto::Digest digest{};

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static StoredRespFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// The one RELAY_DATA writer, from borrowed parts: the message's canonical
/// wire bytes (a message-table entry on the handshake path) copied as they
/// are, then the declaration span — no frame struct, no message re-encode.
/// RelayDataFrame::encode() goes through it too.
[[nodiscard]] std::size_t relay_data_wire_size(std::size_t msg_bytes,
                                               std::span<const QualityDeclaration> attachments);
void relay_data_encode_into(SpanWriter& w, const MessageHash& h, BytesView msg_wire,
                            std::span<const QualityDeclaration> attachments);
/// relay_data_encode_into through an exactly-reserved arena span.
[[nodiscard]] BytesView arena_relay_data(Arena& arena, const MessageHash& h, BytesView msg_wire,
                                         std::span<const QualityDeclaration> attachments);

/// Delegation step 8: request a signed quality declaration toward D'.
struct FqRqstFrame {
  MessageHash h{};
  NodeId dst;

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static FqRqstFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

}  // namespace g2g::proto::relay
