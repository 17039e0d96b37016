// Node identities and authority-signed certificates.
//
// The paper's trust model: every node holds a key pair whose public key is
// signed by an authority trusted by all nodes; the authority is never used
// online. Certificates are exchanged at contact start to authenticate both
// endpoints before the session key is derived.
#pragma once

#include <optional>

#include "g2g/crypto/suite.hpp"
#include "g2g/util/bytes.hpp"
#include "g2g/util/ids.hpp"

namespace g2g::crypto {

struct SealedBox;  // sealed_box.hpp

/// Binding (node id, public key) signed by the authority.
struct Certificate {
  NodeId node;
  Bytes public_key;
  Signature authority_signature;

  /// Canonical bytes covered by the authority signature.
  [[nodiscard]] Bytes signed_payload() const;
  [[nodiscard]] Bytes encode() const;
  /// Strict decode of exactly one certificate: rejects trailing bytes and a
  /// signature blob longer than Signature::kCapacity (DecodeError).
  [[nodiscard]] static Certificate decode(BytesView b);
};

/// Offline certification authority. Only used at network setup.
class Authority {
 public:
  /// Draws the key pair and prepares its signing key.
  Authority(SuitePtr suite, Rng& rng);

  [[nodiscard]] Certificate issue(NodeId node, BytesView public_key) const;
  [[nodiscard]] const Bytes& public_key() const { return keys_.public_key; }

 private:
  SuitePtr suite_;
  KeyPair keys_;
  SigningKeyPtr signer_;
};

/// Verify a certificate against the authority public key.
[[nodiscard]] bool check_certificate(const Suite& suite, BytesView authority_public_key,
                                     const Certificate& cert);

/// A node's long-term cryptographic identity: key pair + certificate, and
/// the signing key prepared once when the identity is made.
class NodeIdentity {
 public:
  NodeIdentity(SuitePtr suite, NodeId node, const Authority& authority, Rng& rng);

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] const Certificate& certificate() const { return cert_; }
  [[nodiscard]] const Bytes& public_key() const { return keys_.public_key; }
  [[nodiscard]] const Suite& suite() const { return *suite_; }

  [[nodiscard]] Signature sign(BytesView message) const { return signer_->sign(message); }
  [[nodiscard]] Bytes shared_secret_with(BytesView peer_public_key) const;
  /// Decrypt a sealed box addressed to this identity (see sealed_box.hpp).
  [[nodiscard]] Bytes open_box(const SealedBox& box) const;

 private:
  SuitePtr suite_;
  NodeId node_;
  KeyPair keys_;
  SigningKeyPtr signer_;
  Certificate cert_;
};

}  // namespace g2g::crypto
