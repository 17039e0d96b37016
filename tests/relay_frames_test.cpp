// The relay core's wire frames: field-by-field round trips, each frame's
// encoded size pinned to its literal byte count (the cost model a session
// charges; bit-identical experiment output hinges on it), the RELAY_OK tag
// bit, foreign tags and the RELAY_DATA length bound. Junk, truncation,
// trailing-byte and re-encode checks run for every frame in
// tests/wire_codec_test.cpp.
#include <gtest/gtest.h>

#include "g2g/crypto/identity.hpp"
#include "g2g/proto/message.hpp"
#include "g2g/proto/relay/frames.hpp"
#include "g2g/proto/wire.hpp"
#include "g2g/util/rng.hpp"

namespace g2g::proto::relay {
namespace {

MessageHash hash_of(std::uint8_t fill) {
  MessageHash h;
  h.fill(fill);
  return h;
}

class RelayFrames : public ::testing::Test {
 protected:
  RelayFrames() : suite_(crypto::make_fast_suite(0xF4)), rng_(99), authority_(suite_, rng_) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      ids_.emplace_back(suite_, NodeId(i), authority_, rng_);
      roster_.add(ids_.back().certificate());
    }
  }

  [[nodiscard]] SealedMessage message() {
    return make_message(ids_[0], roster_, NodeId(1), MessageId(7), Bytes{1, 2, 3, 4},
                        rng_);
  }

  [[nodiscard]] QualityDeclaration declaration(std::uint32_t declarer, double value) {
    QualityDeclaration decl;
    decl.declarer = NodeId(declarer);
    decl.dst = NodeId(1);
    decl.value = value;
    decl.frame = 3;
    decl.at = TimePoint::from_seconds(42.0);
    decl.signature = ids_[declarer].sign(decl.signed_payload());
    return decl;
  }

  crypto::SuitePtr suite_;
  Rng rng_;
  crypto::Authority authority_;
  std::vector<crypto::NodeIdentity> ids_;
  Roster roster_{suite_};
};

TEST_F(RelayFrames, RelayRqstRoundTripAndSizeIdentity) {
  const RelayRqstFrame f{hash_of(0x11)};
  const Bytes b = encode_exact(f);
  EXPECT_EQ(b.size(), 33u);  // tag + H(m)
  const RelayRqstFrame d = RelayRqstFrame::decode(b);
  EXPECT_EQ(d.h, f.h);
}

TEST_F(RelayFrames, RelayOkCarriesAcceptBitInTheTag) {
  const RelayOkFrame ok{hash_of(0x22), true};
  const RelayOkFrame no{hash_of(0x22), false};
  const Bytes ok_b = encode_exact(ok);
  const Bytes no_b = encode_exact(no);
  EXPECT_EQ(ok_b.size(), 33u);  // tag + H(m)
  EXPECT_EQ(no_b.size(), 33u);  // accept and decline cost the same
  EXPECT_NE(ok_b[0], no_b[0]);
  EXPECT_TRUE(RelayOkFrame::decode(ok_b).accept);
  EXPECT_FALSE(RelayOkFrame::decode(no_b).accept);
  EXPECT_EQ(RelayOkFrame::decode(no_b).h, no.h);
}

TEST_F(RelayFrames, RelayDataRoundTripWithAttachments) {
  RelayDataFrame f;
  f.msg = message();
  f.h = f.msg.hash();
  f.attachments.push_back(declaration(0, 2.5));
  f.attachments.push_back(declaration(1, 7.0));

  std::size_t attach_bytes = 0;
  for (const auto& a : f.attachments) attach_bytes += a.wire_size();
  const Bytes b = encode_exact(f);
  // tag + H(m) + u64 length, then the message and the declarations.
  EXPECT_EQ(b.size(), 41 + f.msg.wire_size() + attach_bytes);

  const RelayDataFrame d = RelayDataFrame::decode(b);
  EXPECT_EQ(d.h, f.h);
  EXPECT_EQ(d.msg.hash(), f.msg.hash());
  ASSERT_EQ(d.attachments.size(), 2u);
  EXPECT_EQ(encode_exact(d.attachments[0]), encode_exact(f.attachments[0]));
  EXPECT_EQ(encode_exact(d.attachments[1]), encode_exact(f.attachments[1]));
  EXPECT_EQ(encode_exact(d), b);
}

TEST_F(RelayFrames, RelayDataWithoutAttachmentsRoundTrips) {
  RelayDataFrame f;
  f.msg = message();
  f.h = f.msg.hash();
  const Bytes b = encode_exact(f);
  EXPECT_EQ(b.size(), 41 + f.msg.wire_size());
  const RelayDataFrame d = RelayDataFrame::decode(b);
  EXPECT_TRUE(d.attachments.empty());
  EXPECT_EQ(encode_exact(d.msg), encode_exact(f.msg));
}

TEST_F(RelayFrames, KeyRevealRoundTripAndSizeIdentity) {
  KeyRevealFrame f;
  f.h = hash_of(0x33);
  for (std::size_t i = 0; i < f.key.size(); ++i) f.key[i] = static_cast<std::uint8_t>(i);
  const Bytes b = encode_exact(f);
  EXPECT_EQ(b.size(), 65u);  // tag + H(m) + key
  const KeyRevealFrame d = KeyRevealFrame::decode(b);
  EXPECT_EQ(d.h, f.h);
  EXPECT_EQ(d.key, f.key);
}

TEST_F(RelayFrames, PorRqstRoundTripAndSizeIdentity) {
  PorRqstFrame f;
  f.h = hash_of(0x44);
  f.seed.fill(0xAB);
  const Bytes b = encode_exact(f);
  EXPECT_EQ(b.size(), 65u);  // tag + H(m) + seed
  const PorRqstFrame d = PorRqstFrame::decode(b);
  EXPECT_EQ(d.h, f.h);
  EXPECT_EQ(d.seed, f.seed);
}

TEST_F(RelayFrames, StoredRespRoundTripAndSizeIdentity) {
  StoredRespFrame f;
  f.h = hash_of(0x55);
  f.seed.fill(0x01);
  f.digest.fill(0xEE);
  const Bytes b = encode_exact(f);
  EXPECT_EQ(b.size(), 97u);  // tag + H(m) + seed + digest
  EXPECT_EQ(b.size(), StoredRespFrame::kWireBytes);
  const StoredRespFrame d = StoredRespFrame::decode(b);
  EXPECT_EQ(d.h, f.h);
  EXPECT_EQ(d.seed, f.seed);
  EXPECT_EQ(d.digest, f.digest);
}

TEST_F(RelayFrames, FqRqstRoundTripAndSizeIdentity) {
  const FqRqstFrame f{hash_of(0x66), NodeId(321)};
  const Bytes b = encode_exact(f);
  EXPECT_EQ(b.size(), 37u);  // tag + H(m) + D'
  const FqRqstFrame d = FqRqstFrame::decode(b);
  EXPECT_EQ(d.h, f.h);
  EXPECT_EQ(d.dst, f.dst);
}

TEST_F(RelayFrames, ForeignTagsAreRejected) {
  const Bytes rqst = encode_exact(RelayRqstFrame{hash_of(0x77)});
  EXPECT_THROW((void)KeyRevealFrame::decode(rqst), DecodeError);
  EXPECT_THROW((void)RelayOkFrame::decode(rqst), DecodeError);
  const Bytes fq = encode_exact(FqRqstFrame{hash_of(0x77), NodeId(2)});
  EXPECT_THROW((void)RelayRqstFrame::decode(fq), DecodeError);
}

TEST_F(RelayFrames, RelayDataPayloadLengthIsBoundsChecked) {
  RelayDataFrame f;
  f.msg = message();
  f.h = f.msg.hash();
  Bytes b = encode_exact(f);
  // Inflate the inner length field (bytes 33..40) past the buffer.
  b[33] = 0xFF;
  b[34] = 0xFF;
  EXPECT_THROW((void)RelayDataFrame::decode(b), DecodeError);
}

}  // namespace
}  // namespace g2g::proto::relay
