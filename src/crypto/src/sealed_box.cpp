#include "g2g/crypto/sealed_box.hpp"

#include "g2g/crypto/chacha20.hpp"

namespace g2g::crypto {

SealedBox seal(const Suite& suite, Rng& rng, const PublicKey& recipient, BytesView plaintext) {
  const KeyPair eph = suite.keygen(rng);
  const Bytes shared = recipient.shared_secret(eph.secret_key);
  const ChaChaKey key = derive_chacha_key(shared);
  const ChaChaNonce nonce = derive_chacha_nonce(shared);
  return SealedBox{eph.public_key, chacha20_xor(key, nonce, plaintext)};
}

Bytes seal_open(const Suite& suite, BytesView my_secret, const SealedBox& box) {
  const Bytes shared = suite.shared_secret(my_secret, box.ephemeral_public);
  const ChaChaKey key = derive_chacha_key(shared);
  const ChaChaNonce nonce = derive_chacha_nonce(shared);
  return chacha20_xor(key, nonce, box.ciphertext);
}

}  // namespace g2g::crypto
