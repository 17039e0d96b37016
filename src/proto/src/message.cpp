#include "g2g/proto/message.hpp"

#include <stdexcept>

namespace g2g::proto {

namespace {
constexpr std::uint32_t kInnerMagic = 0x67326d31;  // "g2m1"
}

Roster::Roster(crypto::SuitePtr suite) : suite_(std::move(suite)) {}

void Roster::add(crypto::Certificate cert) {
  const std::size_t idx = cert.node.value();
  if (idx >= entries_.size()) entries_.resize(idx + 1);
  entries_[idx].emplace(Entry{std::move(cert), nullptr});
}

const crypto::PublicKey* Roster::prepared(NodeId n) const {
  if (n.value() >= entries_.size() || !entries_[n.value()].has_value()) return nullptr;
  const Entry& e = *entries_[n.value()];
  if (!e.key) e.key = suite_->prepare_public_key(e.cert.public_key);
  return e.key.get();
}

const crypto::PublicKey& Roster::key(NodeId n) const {
  const crypto::PublicKey* key = prepared(n);
  if (key == nullptr) throw std::out_of_range("unknown node in roster");
  return *key;
}

bool Roster::verify(NodeId n, BytesView message, BytesView signature) const {
  const crypto::PublicKey* key = prepared(n);
  return key != nullptr && key->verify(message, signature);
}

MessageHash SealedMessage::hash() const { return crypto::sha256(encode_exact(*this)); }

void SealedMessage::encode_into(SpanWriter& w) const {
  w.u32(dst.value());
  w.blob(box.ephemeral_public);
  w.blob(box.ciphertext);
}

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

SealedMessage make_message(const crypto::NodeIdentity& sender, const Roster& roster,
                           NodeId dst, MessageId id, BytesView body, Rng& rng) {
  const crypto::PublicKey& recipient = roster.key(dst);
  // Inner plaintext: magic | src | id | body | sig_S(src | id | body | dst).
  Writer signed_part(32 + body.size());
  signed_part.u32(sender.node().value());
  signed_part.u64(id.value());
  signed_part.blob(body);
  signed_part.u32(dst.value());
  const crypto::Signature sig = sender.sign(signed_part.bytes());

  Writer inner(48 + body.size() + sig.size());
  inner.u32(kInnerMagic);
  inner.u32(sender.node().value());
  inner.u64(id.value());
  inner.blob(body);
  inner.blob(sig.view());

  SealedMessage m;
  m.dst = dst;
  m.box = crypto::seal(sender.suite(), rng, recipient, inner.bytes());
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
    const BytesView sig = r.blob_view();

    Writer signed_part(32 + out.body.size());
    signed_part.u32(out.src.value());
    signed_part.u64(out.id.value());
    signed_part.blob(out.body);
    signed_part.u32(me.node().value());
    out.authentic = roster.verify(out.src, signed_part.bytes(), sig);
    return out;
  } catch (const DecodeError&) {
    return std::nullopt;  // garbled plaintext: not for us
  }
}

}  // namespace g2g::proto
