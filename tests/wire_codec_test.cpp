// The codec suite: one typed test per wire property, run for every type in
// proto::WireTypes (g2g/proto/relay/frames.hpp) over a few samples each. A
// type added to that list gets every check below by construction; a type in
// the list without samples here does not compile.
//
// Properties: random junk decodes or throws DecodeError; every truncation of
// a valid encoding throws; every single-byte mutation decodes or throws
// DecodeError; one trailing byte throws; decode(encode(x)) re-encodes to the
// same bytes; wire_size() is the encoded size; arena_encode writes exactly
// what encode_exact does.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "g2g/crypto/identity.hpp"
#include "g2g/proto/message.hpp"
#include "g2g/proto/relay/frames.hpp"
#include "g2g/proto/wire.hpp"
#include "g2g/util/arena.hpp"
#include "g2g/util/rng.hpp"

namespace g2g::proto {
namespace {

using relay::FqRqstFrame;
using relay::KeyRevealFrame;
using relay::PorRqstFrame;
using relay::RelayDataFrame;
using relay::RelayOkFrame;
using relay::RelayRqstFrame;
using relay::StoredRespFrame;

MessageHash hash_of(std::uint8_t fill) {
  MessageHash h;
  h.fill(fill);
  return h;
}

/// Three certified nodes: node 0 seals messages to node 1; every node signs.
class Keys {
 public:
  Keys() : suite_(crypto::make_fast_suite(0xC0DE)), rng_(0xC0DE), authority_(suite_, rng_) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      ids_.emplace_back(suite_, NodeId(i), authority_, rng_);
      roster_.add(ids_.back().certificate());
    }
  }

  [[nodiscard]] SealedMessage message() {
    return make_message(ids_[0], roster_, NodeId(1), MessageId(9), Bytes(24, 0x5c), rng_);
  }

  [[nodiscard]] QualityDeclaration declaration(std::uint32_t declarer, double value) {
    QualityDeclaration d;
    d.declarer = NodeId(declarer);
    d.dst = NodeId(1);
    d.value = value;
    d.frame = 3;
    d.at = TimePoint::from_seconds(42.0);
    d.signature = ids_[declarer].sign(d.signed_payload());
    return d;
  }

  [[nodiscard]] ProofOfRelay por(std::uint32_t giver, std::uint32_t taker, bool delegation) {
    ProofOfRelay por;
    por.h = hash_of(0x5a);
    por.giver = NodeId(giver);
    por.taker = NodeId(taker);
    por.at = TimePoint::from_seconds(100.0);
    por.delegation = delegation;
    if (delegation) {
      por.declared_dst = NodeId(1);
      por.msg_quality = 2.0;
      por.taker_quality = 5.0;
      por.quality_frame = 3;
    }
    por.taker_signature = ids_[taker].sign(por.signed_payload());
    return por;
  }

 private:
  crypto::SuitePtr suite_;
  Rng rng_;
  crypto::Authority authority_;
  std::vector<crypto::NodeIdentity> ids_;
  Roster roster_{suite_};
};

/// Per-type samples. The primary template is left undefined on purpose.
template <typename T>
struct Samples;

template <>
struct Samples<SealedMessage> {
  static std::vector<SealedMessage> make(Keys& k) { return {k.message()}; }
};

template <>
struct Samples<QualityDeclaration> {
  static std::vector<QualityDeclaration> make(Keys& k) { return {k.declaration(2, 7.5)}; }
};

template <>
struct Samples<ProofOfRelay> {
  static std::vector<ProofOfRelay> make(Keys& k) {
    return {k.por(0, 1, /*delegation=*/false), k.por(0, 1, /*delegation=*/true)};
  }
};

template <>
struct Samples<ProofOfMisbehavior> {
  static std::vector<ProofOfMisbehavior> make(Keys& k) {
    ProofOfMisbehavior relay_failure;
    relay_failure.kind = ProofOfMisbehavior::Kind::RelayFailure;
    relay_failure.culprit = NodeId(1);
    relay_failure.accuser = NodeId(0);
    relay_failure.at = TimePoint::from_seconds(123.0);
    relay_failure.evidence_accepted = k.por(0, 1, false);

    ProofOfMisbehavior quality_lie;
    quality_lie.kind = ProofOfMisbehavior::Kind::QualityLie;
    quality_lie.culprit = NodeId(2);
    quality_lie.accuser = NodeId(1);
    quality_lie.evidence_declaration = k.declaration(2, 0.0);

    ProofOfMisbehavior chain_cheat;
    chain_cheat.kind = ProofOfMisbehavior::Kind::ChainCheat;
    chain_cheat.culprit = NodeId(1);
    chain_cheat.accuser = NodeId(0);
    chain_cheat.evidence_accepted = k.por(0, 1, true);
    chain_cheat.evidence_forwarded = k.por(1, 2, true);
    return {relay_failure, quality_lie, chain_cheat};
  }
};

template <>
struct Samples<RelayRqstFrame> {
  static std::vector<RelayRqstFrame> make(Keys&) { return {{hash_of(0x11)}}; }
};

template <>
struct Samples<RelayOkFrame> {
  static std::vector<RelayOkFrame> make(Keys&) {
    return {{hash_of(0x22), /*accept=*/true}, {hash_of(0x22), /*accept=*/false}};
  }
};

template <>
struct Samples<RelayDataFrame> {
  static std::vector<RelayDataFrame> make(Keys& k) {
    RelayDataFrame bare;
    bare.msg = k.message();
    bare.h = bare.msg.hash();
    RelayDataFrame attached = bare;
    attached.attachments = {k.declaration(1, 2.5), k.declaration(2, 7.0)};
    return {bare, attached};
  }
};

template <>
struct Samples<KeyRevealFrame> {
  static std::vector<KeyRevealFrame> make(Keys&) {
    KeyRevealFrame f;
    f.h = hash_of(0x33);
    for (std::size_t i = 0; i < f.key.size(); ++i) f.key[i] = static_cast<std::uint8_t>(i);
    return {f};
  }
};

template <>
struct Samples<PorRqstFrame> {
  static std::vector<PorRqstFrame> make(Keys&) {
    PorRqstFrame f;
    f.h = hash_of(0x44);
    f.seed.fill(0xab);
    return {f};
  }
};

template <>
struct Samples<StoredRespFrame> {
  static std::vector<StoredRespFrame> make(Keys&) {
    StoredRespFrame f;
    f.h = hash_of(0x55);
    f.seed.fill(0x01);
    f.digest.fill(0xee);
    return {f};
  }
};

template <>
struct Samples<FqRqstFrame> {
  static std::vector<FqRqstFrame> make(Keys&) { return {{hash_of(0x66), NodeId(321)}}; }
};

template <typename List>
struct AsTestTypes;
template <typename... Ts>
struct AsTestTypes<WireTypeList<Ts...>> {
  using type = ::testing::Types<Ts...>;
};

template <typename T>
class WireCodecTest : public ::testing::Test {
 protected:
  WireCodecTest() : samples_(Samples<T>::make(keys_)) {
    for (const T& v : samples_) encodings_.push_back(encode_exact(v));
  }

  Keys keys_;
  std::vector<T> samples_;
  std::vector<Bytes> encodings_;
};

TYPED_TEST_SUITE(WireCodecTest, AsTestTypes<WireTypes>::type);

TYPED_TEST(WireCodecTest, JunkDecodesOrThrows) {
  Rng rng(0x1A2B);
  for (int round = 0; round < 300; ++round) {
    Bytes junk(rng.below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    try {
      (void)TypeParam::decode(junk);
    } catch (const DecodeError&) {
    }
  }
}

TYPED_TEST(WireCodecTest, EveryTruncationThrows) {
  for (std::size_t s = 0; s < this->encodings_.size(); ++s) {
    const Bytes& valid = this->encodings_[s];
    for (std::size_t cut = 0; cut < valid.size(); ++cut) {
      const Bytes truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_THROW((void)TypeParam::decode(truncated), DecodeError)
          << "sample " << s << " cut " << cut;
    }
  }
}

TYPED_TEST(WireCodecTest, SingleByteMutationsDecodeOrThrow) {
  for (const Bytes& valid : this->encodings_) {
    for (std::size_t i = 0; i < valid.size(); ++i) {
      for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
        Bytes mutated = valid;
        mutated[i] ^= flip;
        try {
          (void)TypeParam::decode(mutated);
        } catch (const DecodeError&) {
        }
      }
    }
  }
}

TYPED_TEST(WireCodecTest, OneTrailingByteThrows) {
  for (std::size_t s = 0; s < this->encodings_.size(); ++s) {
    Bytes padded = this->encodings_[s];
    padded.push_back(0x00);
    EXPECT_THROW((void)TypeParam::decode(padded), DecodeError) << "sample " << s;
  }
}

TYPED_TEST(WireCodecTest, DecodeThenEncodeGivesTheSameBytes) {
  for (std::size_t s = 0; s < this->encodings_.size(); ++s) {
    const Bytes& valid = this->encodings_[s];
    EXPECT_EQ(encode_exact(TypeParam::decode(valid)), valid) << "sample " << s;
    // A frame's first byte is one of the tags it owns in WireTypes.
    if constexpr (requires { TypeParam::kTags; }) {
      ASSERT_FALSE(valid.empty());
      EXPECT_EQ(std::ranges::count(TypeParam::kTags, relay::FrameTag{valid[0]}), 1)
          << "sample " << s;
    }
  }
}

TYPED_TEST(WireCodecTest, WireSizeIsTheEncodedSizeOnEveryEncoder) {
  Arena arena;
  for (std::size_t s = 0; s < this->samples_.size(); ++s) {
    const Bytes& owned = this->encodings_[s];
    EXPECT_EQ(this->samples_[s].wire_size(), owned.size()) << "sample " << s;
    const BytesView in_arena = arena_encode(arena, this->samples_[s]);
    EXPECT_EQ(Bytes(in_arena.begin(), in_arena.end()), owned) << "sample " << s;
  }
}

}  // namespace
}  // namespace g2g::proto
