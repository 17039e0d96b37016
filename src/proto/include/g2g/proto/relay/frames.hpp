// Wire frames for the transient G2G handshake and audit steps.
//
// The relay core drives every handshake step through an explicit encoded
// frame: the sender encodes, the receiver decodes, and the canonical bytes
// are what the session accounts (frame size + the control signature). The
// persistent artefacts (ProofOfRelay, QualityDeclaration, ProofOfMisbehavior)
// keep their canonical encodings in wire.hpp.
//
// Framing rules (shared with the artefacts): canonical little-endian, a
// leading one-byte tag, fixed-size fields, and strict decoding — unknown
// tags, truncation, and trailing bytes all throw DecodeError. Every frame is
// a WireCodec (g2g/util/bytes.hpp): encode_into() / decode() / wire_size(),
// with wire_size() computed arithmetically. WireTypes at the bottom lists
// every wire type once; the codec suite (tests/wire_codec_test.cpp) runs over
// it, and the list must own every FrameTag, so a new frame is fuzzed by
// construction.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
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
  End,              ///< one past the last tag, never sent; new tags go above
};

/// Step 1: the giver offers H(m).
struct RelayRqstFrame {
  static constexpr std::array kTags{FrameTag::RelayRqst};

  MessageHash h{};

  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static RelayRqstFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Step 2: accept (tag RelayOk) or decline (tag RelayDecline).
struct RelayOkFrame {
  static constexpr std::array kTags{FrameTag::RelayOk, FrameTag::RelayDecline};

  MessageHash h{};
  bool accept = true;

  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static RelayOkFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Step 3: the encrypted message plus any embedded quality declarations
/// (Delegation's test-by-destination attachments; empty for Epidemic).
/// Payload layout: u64 byte length, then the message's canonical encoding
/// followed by the attachments' canonical encodings back to back.
struct RelayDataFrame {
  static constexpr std::array kTags{FrameTag::RelayData};

  MessageHash h{};
  SealedMessage msg;
  std::vector<QualityDeclaration> attachments;

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
  static constexpr std::array kTags{FrameTag::KeyReveal};

  MessageHash h{};
  std::array<std::uint8_t, 32> key{};

  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static KeyRevealFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Audit challenge: prove you relayed H(m) (PoRs) or still store it (heavy
/// HMAC over the fresh seed).
struct PorRqstFrame {
  static constexpr std::array kTags{FrameTag::PorRqst};

  MessageHash h{};
  std::array<std::uint8_t, 32> seed{};

  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static PorRqstFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Audit storage proof: the heavy HMAC digest over (m, seed).
struct StoredRespFrame {
  static constexpr std::array kTags{FrameTag::StoredResp};

  /// Encoded size: tag + hash + seed + digest.
  static constexpr std::size_t kWireBytes = 1 + 32 + 32 + 32;

  MessageHash h{};
  std::array<std::uint8_t, 32> seed{};
  crypto::Digest digest{};

  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static StoredRespFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// The one RELAY_DATA writer, from borrowed parts: the message's canonical
/// wire bytes (a message-table entry on the handshake path) copied as they
/// are, then the declaration span — no frame struct, no message re-encode.
/// RelayDataFrame::encode_into() goes through it too.
[[nodiscard]] std::size_t relay_data_wire_size(std::size_t msg_bytes,
                                               std::span<const QualityDeclaration> attachments);
void relay_data_encode_into(SpanWriter& w, const MessageHash& h, BytesView msg_wire,
                            std::span<const QualityDeclaration> attachments);
/// relay_data_encode_into through an exactly-reserved arena span.
[[nodiscard]] BytesView arena_relay_data(Arena& arena, const MessageHash& h, BytesView msg_wire,
                                         std::span<const QualityDeclaration> attachments);

/// Delegation step 8: request a signed quality declaration toward D'.
struct FqRqstFrame {
  static constexpr std::array kTags{FrameTag::FqRqst};

  MessageHash h{};
  NodeId dst;

  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static FqRqstFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// How many of T's tags are `tag`: 0 or 1 for a frame, 0 for an artefact.
template <typename T>
consteval std::size_t tag_count(FrameTag tag) {
  if constexpr (requires { T::kTags; }) {
    return static_cast<std::size_t>(std::ranges::count(T::kTags, tag));
  } else {
    return 0;
  }
}

}  // namespace g2g::proto::relay

namespace g2g::proto {

/// A list of wire types; naming one with a member that is not a WireCodec
/// does not compile.
template <WireCodec... Ts>
struct WireTypeList {};

/// True when each FrameTag belongs to exactly one frame of the list.
template <typename... Ts>
consteval bool owns_every_frame_tag(WireTypeList<Ts...>) {
  for (auto t = static_cast<std::uint8_t>(relay::FrameTag::RelayRqst);
       t < static_cast<std::uint8_t>(relay::FrameTag::End); ++t) {
    if ((relay::tag_count<Ts>(relay::FrameTag{t}) + ... + 0) != 1) return false;
  }
  return true;
}

/// Every type that crosses the wire, listed once: the relay-visible message,
/// the three signed artefacts and the seven handshake frames.
using WireTypes =
    WireTypeList<SealedMessage, QualityDeclaration, ProofOfRelay, ProofOfMisbehavior,
                 relay::RelayRqstFrame, relay::RelayOkFrame, relay::RelayDataFrame,
                 relay::KeyRevealFrame, relay::PorRqstFrame, relay::StoredRespFrame,
                 relay::FqRqstFrame>;
static_assert(owns_every_frame_tag(WireTypes{}), "every FrameTag needs its frame in WireTypes");

}  // namespace g2g::proto
