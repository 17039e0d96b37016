#include "g2g/proto/message.hpp"

#include <stdexcept>

namespace g2g::proto {

namespace {
constexpr std::uint32_t kInnerMagic = 0x67326d31;  // "g2m1"
}

void Roster::add(crypto::Certificate cert) {
  const std::size_t idx = cert.node.value();
  if (idx >= certs_.size()) certs_.resize(idx + 1);
  certs_[idx] = std::move(cert);
}

const crypto::Certificate* Roster::find(NodeId n) const {
  if (n.value() >= certs_.size() || !certs_[n.value()].has_value()) return nullptr;
  return &*certs_[n.value()];
}

const crypto::Certificate& Roster::get(NodeId n) const {
  const auto* cert = find(n);
  if (cert == nullptr) throw std::out_of_range("unknown node in roster");
  return *cert;
}

MessageHash SealedMessage::hash() const { return crypto::sha256(encode()); }

void SealedMessage::encode_into(SpanWriter& w) const {
  w.u32(dst.value());
  w.blob(box.ephemeral_public);
  w.blob(box.ciphertext);
}

Bytes SealedMessage::encode() const { return encode_exact(*this); }

SealedMessage SealedMessage::decode(BytesView b) {
  Reader r(b);
  SealedMessage m = decode(r);
  if (!r.done()) throw DecodeError("trailing bytes after SealedMessage");
  return m;
}

SealedMessage SealedMessage::decode(Reader& r) {
  SealedMessage m;
  m.dst = NodeId(r.u32());
  m.box.ephemeral_public = r.blob();
  m.box.ciphertext = r.blob();
  return m;
}

std::size_t SealedMessage::wire_size() const {
  return 4 + 8 + box.ephemeral_public.size() + box.ciphertext.size();
}

MessageHash SealedMessageView::hash() const { return crypto::sha256(wire); }

SealedMessageView SealedMessageView::decode(BytesView b) {
  Reader r(b);
  SealedMessageView v;
  v.dst = NodeId(r.u32());
  v.ephemeral_public = r.blob_view();
  v.ciphertext = r.blob_view();
  if (!r.done()) throw DecodeError("trailing bytes after SealedMessage");
  v.wire = b;
  return v;
}

SealedMessage make_message(const crypto::NodeIdentity& sender,
                           const crypto::Certificate& recipient_cert, MessageId id,
                           BytesView body, Rng& rng) {
  // Inner plaintext: magic | src | id | body | sig_S(src | id | body | dst).
  Writer signed_part(32 + body.size());
  signed_part.u32(sender.node().value());
  signed_part.u64(id.value());
  signed_part.blob(body);
  signed_part.u32(recipient_cert.node.value());
  const Bytes sig = sender.sign(signed_part.bytes());

  Writer inner(48 + body.size() + sig.size());
  inner.u32(kInnerMagic);
  inner.u32(sender.node().value());
  inner.u64(id.value());
  inner.blob(body);
  inner.blob(sig);

  SealedMessage m;
  m.dst = recipient_cert.node;
  m.box = crypto::seal(sender.suite(), rng, recipient_cert.public_key, inner.bytes());
  return m;
}

std::optional<OpenedMessage> open_message(const crypto::NodeIdentity& me,
                                          const SealedMessage& m, const Roster& roster) {
  if (m.dst != me.node()) return std::nullopt;  // sealed to someone else
  const Bytes plain = me.open_box(m.box);
  try {
    Reader r(plain);
    if (r.u32() != kInnerMagic) return std::nullopt;
    OpenedMessage out;
    out.src = NodeId(r.u32());
    out.id = MessageId(r.u64());
    out.body = r.blob();
    const Bytes sig = r.blob();

    Writer signed_part(32 + out.body.size());
    signed_part.u32(out.src.value());
    signed_part.u64(out.id.value());
    signed_part.blob(out.body);
    signed_part.u32(me.node().value());
    const auto* sender_cert = roster.find(out.src);
    out.authentic =
        sender_cert != nullptr && me.verify_from(*sender_cert, signed_part.bytes(), sig);
    return out;
  } catch (const DecodeError&) {
    return std::nullopt;  // garbled plaintext: not for us
  }
}

}  // namespace g2g::proto
