// Application messages and their wire form.
//
// Message generation (Section IV): m = ⟨D, E_PKD(S, msg_id, body)⟩_S.
// The destination D is cleartext (Delegation needs it to evaluate forwarding
// quality); the sender S and the message id are sealed to D, which is what
// prevents a relay from knowing whether its giver is the source that will
// later test it. The inner signature by S authenticates the content to D.
#pragma once

#include <optional>
#include <vector>

#include "g2g/crypto/identity.hpp"
#include "g2g/crypto/sealed_box.hpp"
#include "g2g/crypto/sha256.hpp"
#include "g2g/util/ids.hpp"
#include "g2g/util/time.hpp"

namespace g2g::proto {

using MessageHash = crypto::Digest;

/// Directory of authority-issued certificates, indexed by node id. In the
/// paper every node can learn any other node's certified public key; the
/// roster is distributed at network setup (the authority stays offline).
///
/// Every signature a node checks is checked here, against the signer's
/// certified key prepared by the run's suite. A key is prepared on its
/// first use and kept for the rest of the run, so a verification costs the
/// suite's arithmetic only. A roster belongs to one run (one thread), and
/// it keeps the suite its keys were prepared by.
class Roster {
 public:
  explicit Roster(crypto::SuitePtr suite);

  void add(crypto::Certificate cert);
  /// n's certified key, prepared on first use: what a message to n is
  /// sealed to. Throws std::out_of_range for an unknown node.
  [[nodiscard]] const crypto::PublicKey& key(NodeId n) const;
  /// Whether `signature` over `message` verifies under n's certified key;
  /// false for an unknown node.
  [[nodiscard]] bool verify(NodeId n, BytesView message, BytesView signature) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    crypto::Certificate cert;
    mutable crypto::PublicKeyPtr key;  ///< prepared on first use
  };
  /// n's prepared key, or nullptr for an unknown node.
  [[nodiscard]] const crypto::PublicKey* prepared(NodeId n) const;

  crypto::SuitePtr suite_;
  std::vector<std::optional<Entry>> entries_;  // indexed by id
};

/// The relay-visible message: destination + sealed body.
struct SealedMessage {
  NodeId dst;
  crypto::SealedBox box;

  /// H(m): the identifier relays, PoRs and PoMs use.
  [[nodiscard]] MessageHash hash() const;
  /// Canonical wire bytes (what gets shipped in the RELAY step).
  void encode_into(SpanWriter& w) const;
  /// Strict decode of exactly one message: rejects trailing bytes.
  [[nodiscard]] static SealedMessage decode(BytesView b);
  /// Streaming decode for frames that embed a message mid-stream.
  [[nodiscard]] static SealedMessage decode(Reader& r);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Non-owning decode of a SealedMessage: field views into the buffer the
/// message was decoded from, zero copies. Valid only while that buffer
/// lives; a message kept past it is admitted into the run's MessageTable by
/// its wire bytes.
struct SealedMessageView {
  NodeId dst;
  BytesView ephemeral_public;
  BytesView ciphertext;
  /// The exact canonical encoding the view was decoded from.
  BytesView wire;

  /// H(m) over the original wire bytes — no re-encode, no allocation.
  [[nodiscard]] MessageHash hash() const;
  [[nodiscard]] std::size_t wire_size() const { return wire.size(); }
  /// Strict: the whole of `b` must be exactly one message.
  [[nodiscard]] static SealedMessageView decode(BytesView b);
};

/// Decrypted content, available to the destination only.
struct OpenedMessage {
  NodeId src;
  MessageId id;
  Bytes body;
  /// Whether the inner sender signature verified against src's certificate.
  bool authentic = false;
};

/// Seal a message from `sender` to `dst`, through dst's roster key. Throws
/// std::out_of_range when dst is not in the roster.
[[nodiscard]] SealedMessage make_message(const crypto::NodeIdentity& sender, const Roster& roster,
                                         NodeId dst, MessageId id, BytesView body, Rng& rng);

/// Attempt to open as `me`; nullopt if the inner plaintext does not decode
/// (i.e. `me` is not the destination). The inner signature is checked
/// against the claimed sender's roster key.
[[nodiscard]] std::optional<OpenedMessage> open_message(const crypto::NodeIdentity& me,
                                                        const SealedMessage& m,
                                                        const Roster& roster);

}  // namespace g2g::proto
