#include "g2g/crypto/identity.hpp"

#include "g2g/crypto/sealed_box.hpp"

namespace g2g::crypto {

Bytes Certificate::signed_payload() const {
  Writer w(8 + public_key.size());
  w.str("g2g-cert-v1");
  w.u32(node.value());
  w.blob(public_key);
  return std::move(w).take();
}

Bytes Certificate::encode() const {
  Writer w(16 + public_key.size() + authority_signature.size());
  w.u32(node.value());
  w.blob(public_key);
  w.blob(authority_signature.view());
  return std::move(w).take();
}

Certificate Certificate::decode(BytesView b) {
  Reader r(b);
  Certificate cert;
  cert.node = NodeId(r.u32());
  cert.public_key = r.blob();
  cert.authority_signature = read_signature(r);
  if (!r.done()) throw DecodeError("trailing bytes after Certificate");
  return cert;
}

Authority::Authority(SuitePtr suite, Rng& rng)
    : suite_(std::move(suite)),
      keys_(suite_->keygen(rng)),
      signer_(suite_->prepare_signing_key(keys_.secret_key)) {}

Certificate Authority::issue(NodeId node, BytesView public_key) const {
  Certificate cert;
  cert.node = node;
  cert.public_key.assign(public_key.begin(), public_key.end());
  cert.authority_signature = signer_->sign(cert.signed_payload());
  return cert;
}

bool check_certificate(const Suite& suite, BytesView authority_public_key,
                       const Certificate& cert) {
  return suite.verify(authority_public_key, cert.signed_payload(),
                      cert.authority_signature.view());
}

NodeIdentity::NodeIdentity(SuitePtr suite, NodeId node, const Authority& authority, Rng& rng)
    : suite_(std::move(suite)),
      node_(node),
      keys_(suite_->keygen(rng)),
      signer_(suite_->prepare_signing_key(keys_.secret_key)),
      cert_(authority.issue(node, keys_.public_key)) {}

Bytes NodeIdentity::shared_secret_with(BytesView peer_public_key) const {
  return suite_->shared_secret(keys_.secret_key, peer_public_key);
}

Bytes NodeIdentity::open_box(const SealedBox& box) const {
  return seal_open(*suite_, keys_.secret_key, box);
}

}  // namespace g2g::crypto
