#include "g2g/proto/relay/frames.hpp"

namespace g2g::proto::relay {

namespace {

void put_tag(SpanWriter& w, FrameTag tag) { w.u8(static_cast<std::uint8_t>(tag)); }

FrameTag take_tag(Reader& r, FrameTag expected) {
  const std::uint8_t tag = r.u8();
  if (tag != static_cast<std::uint8_t>(expected)) throw DecodeError("bad frame tag");
  return expected;
}

void put_hash(SpanWriter& w, const MessageHash& h) { w.raw(BytesView(h.data(), h.size())); }

void take_hash(Reader& r, MessageHash& h) {
  const BytesView hv = r.raw(h.size());
  std::copy(hv.begin(), hv.end(), h.begin());
}

template <std::size_t N>
void take_array(Reader& r, std::array<std::uint8_t, N>& out) {
  const BytesView v = r.raw(N);
  std::copy(v.begin(), v.end(), out.begin());
}

void expect_done(const Reader& r) {
  if (!r.done()) throw DecodeError("trailing bytes after frame");
}

}  // namespace

std::size_t RelayRqstFrame::wire_size() const { return 1 + 32; }

void RelayRqstFrame::encode_into(SpanWriter& w) const {
  put_tag(w, FrameTag::RelayRqst);
  put_hash(w, h);
}

Bytes RelayRqstFrame::encode() const { return encode_exact(*this); }

RelayRqstFrame RelayRqstFrame::decode(BytesView b) {
  Reader r(b);
  take_tag(r, FrameTag::RelayRqst);
  RelayRqstFrame f;
  take_hash(r, f.h);
  expect_done(r);
  return f;
}

std::size_t RelayOkFrame::wire_size() const { return 1 + 32; }

void RelayOkFrame::encode_into(SpanWriter& w) const {
  put_tag(w, accept ? FrameTag::RelayOk : FrameTag::RelayDecline);
  put_hash(w, h);
}

Bytes RelayOkFrame::encode() const { return encode_exact(*this); }

RelayOkFrame RelayOkFrame::decode(BytesView b) {
  Reader r(b);
  const std::uint8_t tag = r.u8();
  RelayOkFrame f;
  if (tag == static_cast<std::uint8_t>(FrameTag::RelayOk)) {
    f.accept = true;
  } else if (tag == static_cast<std::uint8_t>(FrameTag::RelayDecline)) {
    f.accept = false;
  } else {
    throw DecodeError("bad frame tag");
  }
  take_hash(r, f.h);
  expect_done(r);
  return f;
}

std::size_t RelayDataFrame::wire_size() const {
  return relay_data_wire_size(msg.wire_size(), attachments);
}

void RelayDataFrame::encode_into(SpanWriter& w) const {
  // The owning frame (codec tests, fuzzing) encodes its message first.
  relay_data_encode_into(w, h, msg.encode(), attachments);
}

Bytes RelayDataFrame::encode() const { return encode_exact(*this); }

RelayDataFrame RelayDataFrame::decode(BytesView b) {
  Reader r(b);
  take_tag(r, FrameTag::RelayData);
  RelayDataFrame f;
  take_hash(r, f.h);
  const std::uint64_t len = r.u64();
  if (len > r.remaining()) throw DecodeError("truncated relay-data payload");
  Reader inner(r.raw(static_cast<std::size_t>(len)));
  f.msg = SealedMessage::decode(inner);
  while (!inner.done()) f.attachments.push_back(QualityDeclaration::decode(inner));
  expect_done(r);
  return f;
}

std::size_t relay_data_wire_size(std::size_t msg_bytes,
                                 std::span<const QualityDeclaration> attachments) {
  std::size_t inner = msg_bytes;
  for (const auto& a : attachments) inner += a.wire_size();
  return 1 + 32 + 8 + inner;
}

void relay_data_encode_into(SpanWriter& w, const MessageHash& h, BytesView msg_wire,
                            std::span<const QualityDeclaration> attachments) {
  // Payload: the message's canonical bytes, then the attachments' canonical
  // bytes back to back (each QualityDeclaration encoding is self-delimiting).
  // Everything is written straight into the destination span — no
  // intermediate payload buffer.
  std::size_t inner = msg_wire.size();
  for (const auto& a : attachments) inner += a.wire_size();

  put_tag(w, FrameTag::RelayData);
  put_hash(w, h);
  w.u64(inner);
  w.raw(msg_wire);
  for (const auto& a : attachments) a.encode_into(w);
}

BytesView arena_relay_data(Arena& arena, const MessageHash& h, BytesView msg_wire,
                           std::span<const QualityDeclaration> attachments) {
  const std::span<std::uint8_t> out =
      arena.alloc(relay_data_wire_size(msg_wire.size(), attachments));
  SpanWriter w(out);
  relay_data_encode_into(w, h, msg_wire, attachments);
  w.expect_full();
  return {out.data(), out.size()};
}

std::vector<QualityDeclaration> RelayDataFrameView::decode_attachments() const {
  std::vector<QualityDeclaration> out;
  Reader r(attachments_wire);
  while (!r.done()) out.push_back(QualityDeclaration::decode(r));
  return out;
}

RelayDataFrameView RelayDataFrameView::decode(BytesView b) {
  Reader r(b);
  take_tag(r, FrameTag::RelayData);
  RelayDataFrameView f;
  take_hash(r, f.h);
  const std::uint64_t len = r.u64();
  if (len > r.remaining()) throw DecodeError("truncated relay-data payload");
  const BytesView payload = r.raw(static_cast<std::size_t>(len));
  // The message view must span exactly the message's bytes; walk its fields
  // once to find the boundary, then bind the view to that sub-span.
  Reader probe(payload);
  (void)probe.u32();        // dst
  (void)probe.blob_view();  // ephemeral_public
  (void)probe.blob_view();  // ciphertext
  const std::size_t msg_len = payload.size() - probe.remaining();
  f.msg = SealedMessageView::decode(payload.subspan(0, msg_len));
  f.attachments_wire = payload.subspan(msg_len);
  expect_done(r);
  return f;
}

std::size_t KeyRevealFrame::wire_size() const { return 1 + 32 + 32; }

void KeyRevealFrame::encode_into(SpanWriter& w) const {
  put_tag(w, FrameTag::KeyReveal);
  put_hash(w, h);
  w.raw(BytesView(key.data(), key.size()));
}

Bytes KeyRevealFrame::encode() const { return encode_exact(*this); }

KeyRevealFrame KeyRevealFrame::decode(BytesView b) {
  Reader r(b);
  take_tag(r, FrameTag::KeyReveal);
  KeyRevealFrame f;
  take_hash(r, f.h);
  take_array(r, f.key);
  expect_done(r);
  return f;
}

std::size_t PorRqstFrame::wire_size() const { return 1 + 32 + 32; }

void PorRqstFrame::encode_into(SpanWriter& w) const {
  put_tag(w, FrameTag::PorRqst);
  put_hash(w, h);
  w.raw(BytesView(seed.data(), seed.size()));
}

Bytes PorRqstFrame::encode() const { return encode_exact(*this); }

PorRqstFrame PorRqstFrame::decode(BytesView b) {
  Reader r(b);
  take_tag(r, FrameTag::PorRqst);
  PorRqstFrame f;
  take_hash(r, f.h);
  take_array(r, f.seed);
  expect_done(r);
  return f;
}

std::size_t StoredRespFrame::wire_size() const { return kWireBytes; }

void StoredRespFrame::encode_into(SpanWriter& w) const {
  put_tag(w, FrameTag::StoredResp);
  put_hash(w, h);
  w.raw(BytesView(seed.data(), seed.size()));
  w.raw(BytesView(digest.data(), digest.size()));
}

Bytes StoredRespFrame::encode() const { return encode_exact(*this); }

StoredRespFrame StoredRespFrame::decode(BytesView b) {
  Reader r(b);
  take_tag(r, FrameTag::StoredResp);
  StoredRespFrame f;
  take_hash(r, f.h);
  take_array(r, f.seed);
  const BytesView dv = r.raw(f.digest.size());
  std::copy(dv.begin(), dv.end(), f.digest.begin());
  expect_done(r);
  return f;
}

std::size_t FqRqstFrame::wire_size() const { return 1 + 32 + 4; }

void FqRqstFrame::encode_into(SpanWriter& w) const {
  put_tag(w, FrameTag::FqRqst);
  put_hash(w, h);
  w.u32(dst.value());
}

Bytes FqRqstFrame::encode() const { return encode_exact(*this); }

FqRqstFrame FqRqstFrame::decode(BytesView b) {
  Reader r(b);
  take_tag(r, FrameTag::FqRqst);
  FqRqstFrame f;
  take_hash(r, f.h);
  f.dst = NodeId(r.u32());
  expect_done(r);
  return f;
}

}  // namespace g2g::proto::relay
