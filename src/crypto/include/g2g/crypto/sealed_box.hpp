// Public-key encryption to a recipient ("sealed box", ECIES-style):
// an ephemeral key pair is generated, a shared secret is agreed against the
// recipient's public key, and the payload is ChaCha20-encrypted under a key
// derived from it. Implements the paper's E_PKD(...) — the body of every
// message is sealed to the destination so relays cannot learn the sender.
#pragma once

#include "g2g/crypto/suite.hpp"

namespace g2g::crypto {

struct SealedBox {
  Bytes ephemeral_public;
  Bytes ciphertext;
};

/// Encrypt `plaintext` so only the holder of the secret key matching
/// `recipient` can open it: the ephemeral DH runs through the recipient's
/// prepared key.
[[nodiscard]] SealedBox seal(const Suite& suite, Rng& rng, const PublicKey& recipient,
                             BytesView plaintext);

/// Decrypt; returns the plaintext. (ChaCha20 is unauthenticated here — the
/// protocol authenticates content with the inner sender signature instead.)
[[nodiscard]] Bytes seal_open(const Suite& suite, BytesView my_secret, const SealedBox& box);

}  // namespace g2g::crypto
