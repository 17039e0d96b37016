#include "g2g/proto/message.hpp"

#include <gtest/gtest.h>

namespace g2g::proto {
namespace {

class MessageTest : public ::testing::Test {
 protected:
  MessageTest() : authority_(suite_, rng_) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      identities_.emplace_back(suite_, NodeId(i), authority_, rng_);
      roster_.add(identities_.back().certificate());
    }
  }

  crypto::SuitePtr suite_ = crypto::make_fast_suite(0x715e);
  Rng rng_{31};
  crypto::Authority authority_;
  std::vector<crypto::NodeIdentity> identities_;
  Roster roster_{suite_};
};

TEST_F(MessageTest, RosterLookup) {
  // Each node's key is its certified one: it verifies that node's
  // signatures and no other node's.
  const Bytes msg = to_bytes("roster");
  const crypto::Signature sig = identities_[1].sign(msg);
  EXPECT_TRUE(roster_.key(NodeId(1)).verify(msg, sig.view()));
  EXPECT_FALSE(roster_.key(NodeId(0)).verify(msg, sig.view()));
  EXPECT_THROW((void)roster_.key(NodeId(9)), std::out_of_range);
  EXPECT_EQ(roster_.size(), 3u);
}

TEST_F(MessageTest, SealOpenRoundTrip) {
  const Bytes body = to_bytes("the payload");
  const SealedMessage m =
      make_message(identities_[0], roster_, NodeId(1), MessageId(42), body, rng_);
  EXPECT_EQ(m.dst, NodeId(1));

  const auto opened = open_message(identities_[1], m, roster_);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->src, NodeId(0));
  EXPECT_EQ(opened->id, MessageId(42));
  EXPECT_EQ(opened->body, body);
  EXPECT_TRUE(opened->authentic);
}

TEST_F(MessageTest, NonDestinationCannotOpen) {
  const SealedMessage m = make_message(identities_[0], roster_, NodeId(1), MessageId(1),
                                       to_bytes("secret"), rng_);
  // A relay (node 2) sees only the destination; open must fail.
  EXPECT_FALSE(open_message(identities_[2], m, roster_).has_value());
  // Even the *sender* cannot open the sealed form.
  EXPECT_FALSE(open_message(identities_[0], m, roster_).has_value());
}

TEST_F(MessageTest, SenderIsHiddenFromTheWire) {
  // The sealed encoding must not contain the sender id in any header field;
  // only dst is cleartext. (We can't prove ciphertext secrecy here, but we
  // can check the accessible struct fields.)
  const SealedMessage m = make_message(identities_[0], roster_, NodeId(1), MessageId(7),
                                       to_bytes("x"), rng_);
  const SealedMessage decoded = SealedMessage::decode(encode_exact(m));
  EXPECT_EQ(decoded.dst, NodeId(1));
  EXPECT_EQ(decoded.box.ciphertext, m.box.ciphertext);
}

TEST_F(MessageTest, HashIsStableAndContentSensitive) {
  const SealedMessage m1 = make_message(identities_[0], roster_, NodeId(1), MessageId(1),
                                        to_bytes("a"), rng_);
  EXPECT_EQ(m1.hash(), SealedMessage::decode(encode_exact(m1)).hash());
  const SealedMessage m2 = make_message(identities_[0], roster_, NodeId(1), MessageId(1),
                                        to_bytes("a"), rng_);
  // Fresh ephemeral key => different wire form => different hash.
  EXPECT_NE(m1.hash(), m2.hash());
}

TEST_F(MessageTest, TamperedBodyLosesAuthenticity) {
  SealedMessage m = make_message(identities_[0], roster_, NodeId(1), MessageId(3),
                                 to_bytes("pay 5 euro"), rng_);
  // Flip a ciphertext byte: the inner decode either fails or flunks the
  // signature; it must never yield an authentic message.
  for (std::size_t i = 0; i < m.box.ciphertext.size(); i += 7) {
    SealedMessage tampered = m;
    tampered.box.ciphertext[i] ^= 0x10;
    const auto opened = open_message(identities_[1], tampered, roster_);
    if (opened.has_value()) {
      EXPECT_FALSE(opened->authentic);
    }
  }
}

TEST_F(MessageTest, UnknownSenderIsNotAuthentic) {
  // Sender whose certificate is missing from the roster.
  Rng rng2(99);
  const crypto::NodeIdentity stranger(suite_, NodeId(7), authority_, rng2);
  const SealedMessage m =
      make_message(stranger, roster_, NodeId(1), MessageId(5), to_bytes("hi"), rng2);
  const auto opened = open_message(identities_[1], m, roster_);
  ASSERT_TRUE(opened.has_value());
  EXPECT_FALSE(opened->authentic);
}

}  // namespace
}  // namespace g2g::proto
