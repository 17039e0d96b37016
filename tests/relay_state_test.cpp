// The relay state's semantics: the probe-only HashIndex under colliding
// hashes, and the HandshakeEngine behaviours its flat layout must keep — offer
// order, permanent non-offerability, receipt-ordered Delta2 expiry with tests
// holding source state back, a handled set that outlives the hold and drops a
// replayed RELAY_DATA frame, and receipt keyed by the hash of the bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "g2g/obs/context.hpp"
#include "g2g/proto/g2g_epidemic.hpp"
#include "g2g/proto/hash_index.hpp"
#include "g2g/proto/relay/frames.hpp"
#include "g2g/util/rng.hpp"
#include "proto_test_util.hpp"

namespace g2g::proto {
namespace {

using testutil::make_trace;
using G2GWorld = testutil::World<G2GEpidemicNode>;

constexpr double kD2 = 60.0 * 60.0;  // matches World::default_config delta2

/// A hash whose first byte picks the home slot in any table (the other tag
/// bytes are zero in the low 16 bits), `hi` the tag's high byte, `tail` a
/// byte past the tag.
MessageHash crafted(std::uint8_t home, std::uint8_t hi, std::uint8_t tail) {
  MessageHash h{};
  h[0] = home;
  h[3] = hi;
  h[31] = tail;
  return h;
}

TEST(HashIndex, CollidingHomeSlotsAndTagsStayDistinct) {
  HashIndex index;
  // One home slot: five distinct tags, plus two keys sharing a tag with the
  // first that differ only past it (the full compare decides).
  std::vector<MessageHash> keys;
  for (std::uint8_t hi = 0; hi < 5; ++hi) keys.push_back(crafted(5, hi, 0));
  keys.push_back(crafted(5, 0, 1));
  keys.push_back(crafted(5, 0, 2));
  std::vector<std::uint32_t> ids;
  for (const MessageHash& k : keys) {
    const auto [id, inserted] = index.insert(k);
    EXPECT_TRUE(inserted);
    ids.push_back(id);
  }
  EXPECT_EQ(index.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(index.find(keys[i]), ids[i]);
    EXPECT_EQ(index.key(ids[i]), keys[i]);
    EXPECT_FALSE(index.insert(keys[i]).second);  // present: same id back
  }
  EXPECT_FALSE(index.contains(crafted(5, 0, 3)));
  EXPECT_FALSE(index.contains(crafted(6, 0, 0)));
}

TEST(HashIndex, EraseInsideAProbeChainKeepsLaterKeysReachable) {
  HashIndex index;
  // A run from home slot 5 that spills over keys homed at 6 and 7, so the
  // backward shift must move some entries and leave others at their home.
  const std::vector<MessageHash> keys = {crafted(5, 1, 0), crafted(6, 1, 0),
                                         crafted(5, 2, 0), crafted(7, 1, 0),
                                         crafted(5, 3, 0)};
  std::vector<std::uint32_t> ids;
  for (const MessageHash& k : keys) ids.push_back(index.insert(k).first);
  for (const std::size_t victim : {2u, 0u, 4u}) {
    index.erase(ids[victim]);
    EXPECT_FALSE(index.contains(keys[victim]));
  }
  EXPECT_EQ(index.find(keys[1]), ids[1]);
  EXPECT_EQ(index.find(keys[3]), ids[3]);
  EXPECT_EQ(index.size(), 2u);
  // Erased ids are recycled by the next inserts.
  const std::uint32_t reused = index.insert(crafted(5, 9, 0)).first;
  EXPECT_TRUE(reused == ids[0] || reused == ids[2] || reused == ids[4]);
}

TEST(HashIndex, MatchesAnOrderedMapUnderHeavyCollisions) {
  // Keys from a small universe whose low tag bits collide in every table size
  // (home bytes near the end of 8..256-slot tables make runs wrap around).
  std::vector<MessageHash> universe;
  for (const std::uint8_t home : {0, 1, 7, 15, 31, 63, 127, 255}) {
    for (std::uint8_t hi = 0; hi < 4; ++hi) {
      for (std::uint8_t tail = 0; tail < 4; ++tail) universe.push_back(crafted(home, hi, tail));
    }
  }
  HashIndex index;
  std::map<MessageHash, std::uint32_t> oracle;
  Rng rng(17);
  for (int step = 0; step < 20000; ++step) {
    const MessageHash& k = universe[rng.below(universe.size())];
    const auto it = oracle.find(k);
    if (it == oracle.end()) {
      const auto [id, inserted] = index.insert(k);
      ASSERT_TRUE(inserted);
      for (const auto& [other, other_id] : oracle) ASSERT_NE(other_id, id);
      oracle.emplace(k, id);
    } else if (rng.below(2) == 0) {
      index.erase(it->second);
      oracle.erase(it);
    } else {
      ASSERT_EQ(index.insert(k), std::make_pair(it->second, false));
    }
    ASSERT_EQ(index.size(), oracle.size());
    for (const MessageHash& q : universe) {
      const auto o = oracle.find(q);
      ASSERT_EQ(index.find(q), o == oracle.end() ? HashIndex::kNone : o->second);
    }
  }
}

TEST(RelayState, GiverPassOffersInAscendingHashOrder) {
  // Eight messages wait at the source; one contact relays all of them. The
  // source arms one test per relay, in the order it offered.
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}}));
  for (int i = 0; i < 8; ++i) w.send(0, 3, 10.0 + i);
  w.run();
  const std::vector<relay::PendingTest>& tests = w.node(0).audit().tests();
  ASSERT_EQ(tests.size(), 8u);
  std::vector<MessageHash> offered;
  for (const relay::PendingTest& t : tests) offered.push_back(t.h);
  EXPECT_TRUE(std::is_sorted(offered.begin(), offered.end()));
  EXPECT_EQ(std::adjacent_find(offered.begin(), offered.end()), offered.end());
}

TEST(RelayState, FanoutMetIsNeverOfferedAgain) {
  // The source stops at two relays but keeps its payload; relay 1 meets its
  // fanout and drops it. Neither offers to the third node it meets.
  obs::ObsContext obs;
  NetworkConfig cfg = G2GWorld::default_config();
  cfg.obs = &obs;
  cfg.node.source_fanout = 2;
  G2GWorld w(make_trace(8, {{0, 1, 100, 110},
                            {0, 2, 200, 210},
                            {0, 3, 300, 310},
                            {1, 4, 400, 410},
                            {1, 5, 500, 510},
                            {1, 6, 600, 610}}),
             cfg);
  w.send(0, 7, 50);
  // Handshakes started just before and just after the contacts at 300 and 600.
  std::vector<std::uint64_t> started;
  for (const double t : {250.0, 350.0, 550.0, 650.0}) {
    w.network().simulator().at(TimePoint::from_seconds(t), [&] {
      started.push_back(obs.counters.handshakes_started->value());
    });
  }
  w.run();
  const MessageHash h = w.node(0).audit().tests().at(0).h;
  EXPECT_EQ(w.node(0).por_count(h), 2u);
  EXPECT_TRUE(w.node(0).stores_message(h));
  EXPECT_EQ(w.node(1).por_count(h), 2u);
  EXPECT_FALSE(w.node(1).stores_message(h));
  EXPECT_FALSE(w.node(3).has_handled(h));
  EXPECT_FALSE(w.node(6).has_handled(h));
  ASSERT_EQ(started.size(), 4u);
  EXPECT_EQ(started[0], started[1]);
  EXPECT_EQ(started[2], started[3]);
}

// In the two retention tests node 0 sends at t=50 and relays to node 1 at
// t=100, arming one test whose window closes at 100 + Delta2; the source hold
// itself expires at 50 + Delta2.
constexpr double kHoldExpiry = 50 + kD2;
constexpr double kTestClose = 100 + kD2;

TEST(RelayState, ExpiredSourceHoldWaitsForItsTestWindow) {
  // Purges at contacts in (hold expiry, window close] keep the hold; the
  // first purge past the window erases it.
  G2GWorld w(make_trace(4, {{0, 1, 100, 110},
                            {0, 2, kHoldExpiry + 10, kHoldExpiry + 12},
                            {0, 2, kTestClose + 10, kTestClose + 12}}));
  w.send(0, 3, 50);
  std::vector<std::size_t> holds;
  auto& sim = w.network().simulator();
  for (const double t : {kHoldExpiry + 15, kTestClose + 15}) {
    sim.at(TimePoint::from_seconds(t),
           [&] { holds.push_back(w.node(0).handshake().hold_count()); });
  }
  w.run();
  EXPECT_EQ(holds, (std::vector<std::size_t>{1, 0}));
}

TEST(RelayState, ExpiredSourceHoldGoesAtThePurgeAfterItsTestIsDone) {
  // Re-meeting the relay inside the window: the contact's purge retains the
  // expired hold, its audit runs the test, and the next purge erases it.
  G2GWorld w(make_trace(4, {{0, 1, 100, 110},
                            {0, 1, kHoldExpiry + 10, kHoldExpiry + 12},
                            {0, 2, kHoldExpiry + 20, kHoldExpiry + 22}}));
  w.send(0, 3, 50);
  std::vector<std::size_t> holds;
  bool done = false;
  auto& sim = w.network().simulator();
  sim.at(TimePoint::from_seconds(kHoldExpiry + 15), [&] {
    holds.push_back(w.node(0).handshake().hold_count());
    done = w.node(0).audit().tests().at(0).done;
  });
  sim.at(TimePoint::from_seconds(kHoldExpiry + 25),
         [&] { holds.push_back(w.node(0).handshake().hold_count()); });
  w.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(holds, (std::vector<std::size_t>{1, 0}));
}

TEST(RelayState, DropperDeclinesAfterItsHoldIsPurged) {
  // Node 1 drops at t=100; a contact past 100 + Delta2 purges its hold. The
  // handled set still answers for H(m), so a fresh offer is declined.
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}, {1, 2, 100 + kD2 + 10, 100 + kD2 + 12}}),
             {{}, {Behavior::Dropper, false}, {}, {}});
  w.send(0, 3, 50);
  w.run();
  const MessageHash h = w.node(0).audit().tests().at(0).h;
  EXPECT_EQ(w.node(1).handshake().hold_count(), 0u);
  EXPECT_TRUE(w.node(1).has_handled(h));

  Session s(w.network(), w.node(0), w.node(1));
  s.arena().reset();
  const BytesView rqst = arena_encode(s.arena(), relay::RelayRqstFrame{h});
  EXPECT_FALSE(w.node(1).handshake().answer_relay_rqst(s, w.node(0), rqst).has_value());
  EXPECT_EQ(w.node(1).handshake().hold_count(), 0u);
}

/// Node 0's RELAY_DATA and KEY frames for its hold of `h`, sent to the other
/// side of `s` under the claimed H(m) `claim` — what a peer that skipped the
/// RELAY_RQST / FQ_RQST step could send.
void send_relay_data(G2GWorld& w, Session& s, std::uint32_t to, const MessageHash& h,
                     const MessageHash& claim) {
  const relay::Hold* held = w.node(0).handshake().find_hold(h);
  ASSERT_NE(held, nullptr);
  s.arena().reset();
  const BytesView data = relay::arena_relay_data(
      s.arena(), claim, w.network().messages().wire(held->msg), {});
  const BytesView key = arena_encode(s.arena(), relay::KeyRevealFrame{claim, {}});
  w.node(to).handshake().complete_relay(s, w.node(0), data, key, 0.0, held->expires);
}

/// The totals a replayed frame must leave alone at node `n`.
struct ReplayProbe {
  std::size_t holds;
  std::int64_t buffered;
  std::uint64_t verifications;
  std::size_t delivered;
  std::size_t detections;

  static ReplayProbe of(G2GWorld& w, std::uint32_t n) {
    return {w.node(n).handshake().hold_count(), w.node(n).buffered_bytes(),
            w.collector().costs(NodeId(n)).verifications, w.collector().delivered_count(),
            w.collector().detections().size()};
  }
  bool operator==(const ReplayProbe&) const = default;
};

TEST(RelayState, ReplayedRelayDataChangesNothing) {
  // Node 0 relays to node 1 and to node 2 at t=100 and t=200; node `to` is a
  // relay (dst 3) or the destination. Replaying the RELAY_DATA frame to it
  // afterwards must not store, charge, deliver or test the message again,
  // and is counted as one dropped replay.
  for (const std::uint32_t to : {1u, 2u}) {
    obs::ObsContext obs;
    NetworkConfig cfg = G2GWorld::default_config();
    cfg.obs = &obs;
    G2GWorld w(make_trace(4, {{0, 1, 100, 110}, {0, 2, 200, 210}}), cfg);
    w.send(0, to == 1 ? 3 : 2, 50);
    w.run();
    EXPECT_EQ(obs.counters.relay_replays->value(), 0u) << "honest run, node " << to;
    const MessageHash h = w.node(0).audit().tests().at(0).h;
    ASSERT_TRUE(w.node(to).has_handled(h));
    Session s(w.network(), w.node(0), w.node(to));
    const ReplayProbe before = ReplayProbe::of(w, to);
    ASSERT_EQ(before.holds, 1u);
    ASSERT_GT(before.buffered, 0);
    send_relay_data(w, s, to, h, h);
    EXPECT_EQ(ReplayProbe::of(w, to), before) << "replay to node " << to;
    EXPECT_EQ(obs.counters.relay_replays->value(), 1u) << "replay to node " << to;
    EXPECT_EQ(obs.counters.relay_misclaims->value(), 0u) << "replay to node " << to;
  }
}

TEST(RelayState, ReceiptFilesAMisclaimedFrameUnderTheHashOfItsBytes) {
  // Node 2 never met anyone. A RELAY_DATA frame whose claimed H(m) is not the
  // hash of its message bytes leaves node 2's handled set and hold keyed by
  // the hash of the bytes, never by the claim, and is counted as a misclaim.
  obs::ObsContext obs;
  NetworkConfig cfg = G2GWorld::default_config();
  cfg.obs = &obs;
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}}), cfg);
  w.send(0, 3, 50);
  w.run();
  EXPECT_EQ(obs.counters.relay_misclaims->value(), 0u);
  const MessageHash h = w.node(0).audit().tests().at(0).h;
  MessageHash claim = h;
  claim[0] ^= 0xFF;
  const MessageRef source_entry = w.node(0).handshake().find_hold(h)->msg;
  const std::size_t entries = w.network().messages().size();

  Session s(w.network(), w.node(0), w.node(2));
  send_relay_data(w, s, 2, h, claim);

  EXPECT_TRUE(w.node(2).has_handled(h));
  EXPECT_FALSE(w.node(2).has_handled(claim));
  const relay::Hold* hold = w.node(2).handshake().find_hold(h);
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->msg, source_entry);  // the same bytes share one entry
  EXPECT_EQ(w.node(2).handshake().find_hold(claim), nullptr);
  EXPECT_EQ(w.network().messages().size(), entries);
  EXPECT_EQ(obs.counters.relay_misclaims->value(), 1u);
  EXPECT_EQ(obs.counters.relay_replays->value(), 0u);
}

}  // namespace
}  // namespace g2g::proto
