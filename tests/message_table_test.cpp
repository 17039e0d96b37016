// The run-wide message table: each message is encoded and hashed once at
// intern(), and bytes that arrive over a session map to an entry only when
// they equal its bytes (admit), so H(m) is always the hash of what arrived.
#include "g2g/proto/message_table.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "g2g/crypto/sha256.hpp"

namespace g2g::proto {
namespace {

class MessageTableTest : public ::testing::Test {
 protected:
  MessageTableTest() : authority_(suite_, rng_) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      identities_.emplace_back(suite_, NodeId(i), authority_, rng_);
      roster_.add(identities_.back().certificate());
    }
  }

  SealedMessage message(std::uint64_t id) {
    return make_message(identities_[0], roster_, NodeId(1), MessageId(id), Bytes(24, 0x5C),
                        rng_);
  }

  crypto::SuitePtr suite_ = crypto::make_fast_suite(0x7AB1E);
  Rng rng_{19};
  crypto::Authority authority_;
  std::vector<crypto::NodeIdentity> identities_;
  Roster roster_{suite_};
  MessageTable table_;
};

TEST_F(MessageTableTest, InternStoresTheEncodingItsHashAndTheId) {
  const SealedMessage m = message(4);
  const MessageRef r = table_.intern(m, MessageId(4));
  const Bytes wire = encode_exact(m);
  EXPECT_EQ(table_.find(crypto::sha256(wire)), r);
  EXPECT_EQ(table_.hash(r), crypto::sha256(wire));
  EXPECT_EQ(Bytes(table_.wire(r).begin(), table_.wire(r).end()), wire);
  EXPECT_EQ(encode_exact(table_.body(r)), wire);
  EXPECT_EQ(table_.id(r), MessageId(4));
  EXPECT_EQ(table_.size(), 1u);
  // Interning the same bytes again keeps the entry.
  EXPECT_EQ(table_.intern(m, MessageId(4)), r);
  EXPECT_EQ(table_.size(), 1u);
}

TEST_F(MessageTableTest, AdmitMatchesTheClaimOnlyOnEqualBytes) {
  const SealedMessage m = message(1);
  const MessageRef r = table_.intern(m, MessageId(1));
  const Bytes wire = encode_exact(m);
  const MessageHash h = table_.hash(r);

  // Byte-identical bytes under the right claim: the same entry.
  EXPECT_EQ(table_.admit(wire, h), r);
  // The same bytes under a wrong claim: found through the hash of the bytes.
  MessageHash wrong = h;
  wrong[5] ^= 0xFF;
  EXPECT_EQ(table_.admit(wire, wrong), r);
  EXPECT_EQ(table_.size(), 1u);

  // One flipped byte under the original claim: a new entry, filed under the
  // hash of the flipped bytes, with no id.
  Bytes flipped = wire;
  flipped.back() ^= 0x01;
  const MessageRef t = table_.admit(flipped, h);
  EXPECT_NE(t, r);
  EXPECT_EQ(table_.hash(t), crypto::sha256(flipped));
  EXPECT_EQ(table_.find(crypto::sha256(flipped)), t);
  EXPECT_EQ(Bytes(table_.wire(t).begin(), table_.wire(t).end()), flipped);
  EXPECT_EQ(encode_exact(table_.body(t)), flipped);
  EXPECT_FALSE(table_.id(t).valid());
  // The original entry is untouched, and admitting the flipped bytes again
  // finds their entry.
  EXPECT_EQ(table_.hash(r), h);
  EXPECT_EQ(table_.admit(flipped, h), t);
  EXPECT_EQ(table_.size(), 2u);
}

TEST_F(MessageTableTest, AdmitRejectsBytesThatAreNotOneMessage) {
  const Bytes wire = encode_exact(message(2));
  const Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_THROW((void)table_.admit(truncated, crypto::sha256(truncated)), DecodeError);
  EXPECT_EQ(table_.size(), 0u);
  EXPECT_EQ(table_.find(crypto::sha256(truncated)), kNoMessage);
}

TEST_F(MessageTableTest, RefsAndEntryReferencesSurviveThousandsOfInserts) {
  const SealedMessage first = message(1);
  const MessageRef r = table_.intern(first, MessageId(1));
  const MessageHash& hash = table_.hash(r);
  const SealedMessage& body = table_.body(r);
  const BytesView wire = table_.wire(r);
  const MessageHash expected = crypto::sha256(encode_exact(first));

  // 3000 distinct messages: one of the last 16 ciphertext bytes of the first
  // message, flipped by a distinct mask.
  const Bytes base = encode_exact(first);
  for (std::uint32_t i = 0; i < 3000; ++i) {
    Bytes other = base;
    other[other.size() - 1 - (i % 16)] ^= static_cast<std::uint8_t>(1 + i / 16);
    const MessageRef o = table_.admit(other, crypto::sha256(other));
    EXPECT_EQ(o, table_.find(crypto::sha256(other)));
  }
  EXPECT_EQ(&table_.hash(r), &hash);
  EXPECT_EQ(&table_.body(r), &body);
  EXPECT_EQ(table_.wire(r).data(), wire.data());
  EXPECT_EQ(hash, expected);
  EXPECT_EQ(encode_exact(body), base);
  EXPECT_EQ(Bytes(wire.begin(), wire.end()), base);
  EXPECT_EQ(table_.find(expected), r);
  EXPECT_EQ(table_.id(r), MessageId(1));
  EXPECT_EQ(table_.size(), 3001u);
}

}  // namespace
}  // namespace g2g::proto
