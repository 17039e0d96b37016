// The relay core's accusation layer: PomLedger, PoM gossip at session start
// (NetworkBase::open_session, one learn_pom per PoM that crosses), the
// learn_pom gates, and the storage-proof verdict that must never let a
// tampered hold pass, on both G2G protocols.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "g2g/obs/context.hpp"
#include "g2g/proto/g2g_delegation.hpp"
#include "g2g/proto/g2g_epidemic.hpp"
#include "g2g/proto/relay/pom.hpp"
#include "proto_test_util.hpp"

namespace g2g::proto {
namespace {

using testutil::make_trace;
using G2GWorld = testutil::World<G2GEpidemicNode>;

constexpr double kD1 = 30.0 * 60.0;  // matches World::default_config delta1

/// A RelayFailure PoM that passes the structural checks (signature junk).
ProofOfMisbehavior relay_failure_pom(std::uint32_t culprit, std::uint32_t accuser) {
  ProofOfMisbehavior pom;
  pom.kind = ProofOfMisbehavior::Kind::RelayFailure;
  pom.culprit = NodeId(culprit);
  pom.accuser = NodeId(accuser);
  ProofOfRelay por;
  por.h.fill(0x5A);
  por.giver = NodeId(accuser);
  por.taker = NodeId(culprit);
  por.taker_signature = crypto::Signature(Bytes(32, 0x42));  // junk: fails verification
  pom.evidence_accepted = por;
  return pom;
}

/// The same PoM with the culprit's real signature on a PoR for the message
/// whose H(m) is all `fill` bytes.
ProofOfMisbehavior signed_relay_failure_pom(G2GWorld& w, std::uint32_t culprit,
                                            std::uint32_t accuser, std::uint8_t fill = 0x5A) {
  ProofOfMisbehavior pom = relay_failure_pom(culprit, accuser);
  ProofOfRelay& por = *pom.evidence_accepted;
  por.h.fill(fill);
  por.taker_signature = w.node(culprit).identity().sign(por.signed_payload());
  return pom;
}

/// File `pom` in `node`'s ledger as issue_pom and learn_pom do: the culprit
/// is blacklisted and the PoM kept for gossip.
void hold(ProtocolNode& node, const ProofOfMisbehavior& pom) {
  node.pom_ledger().blacklist(pom.culprit);
  node.pom_ledger().record(pom);
}

/// Nodes 0 and 1 meet once, at t=100, with no messages: past the certificate
/// check every session charges, the session's only work is the PoM gossip.
struct GossipRun {
  obs::ObsContext obs;
  std::unique_ptr<G2GWorld> world;

  explicit GossipRun(std::initializer_list<testutil::Contact> contacts = {{0, 1, 100, 110}}) {
    NetworkConfig cfg = G2GWorld::default_config();
    cfg.obs = &obs;
    world = std::make_unique<G2GWorld>(make_trace(5, contacts), std::move(cfg));
  }
  [[nodiscard]] std::uint64_t counter(const char* name) const {
    return obs.registry.value(name);
  }
  /// Verifications charged to node `n` beyond one certificate per session.
  [[nodiscard]] std::uint64_t gossip_verifications(std::uint32_t n) const {
    const metrics::NodeCosts& c = world->collector().costs(NodeId(n));
    return c.verifications - c.sessions;
  }
};

TEST(PomGossip, DropperRunSpreadsThePomByGossip) {
  // Node 1 drops; the source detects it on re-meet and then gossips the PoM
  // to node 2, which verifies it and evicts node 1.
  obs::ObsContext obs;
  NetworkConfig cfg = G2GWorld::default_config();
  cfg.obs = &obs;
  G2GWorld w(make_trace(4, {{0, 1, 100, 110},
                            {0, 1, 100 + kD1 + 60, 100 + kD1 + 70},
                            {0, 2, 100 + kD1 + 200, 100 + kD1 + 210}}),
             cfg, {{}, {Behavior::Dropper, false}, {}, {}});
  w.send(0, 3, 50);
  w.run();

  ASSERT_EQ(w.collector().detections().size(), 1u);
  EXPECT_EQ(obs.counters.poms_gossiped->value(), 1u);
  EXPECT_EQ(obs.counters.poms_learned->value(), 1u);
  EXPECT_TRUE(w.node(2).blacklisted(NodeId(1)));
}

TEST(PomGossip, JunkPomCrossesButOnlyTheValidOneIsLearned) {
  // Node 0's ledger holds a junk-signed PoM about node 2 ahead of a validly
  // signed one about node 3. Both cross; node 1 verifies each, learns only
  // the valid one, and has nothing node 0 lacks to send back.
  GossipRun run;
  G2GWorld& w = *run.world;
  hold(w.node(0), relay_failure_pom(/*culprit=*/2, /*accuser=*/0));
  hold(w.node(0), signed_relay_failure_pom(w, /*culprit=*/3, /*accuser=*/0));
  w.run();

  EXPECT_EQ(run.counter("pom.gossiped"), 2u);
  EXPECT_EQ(run.counter("wire.pom.msgs"), 2u);
  EXPECT_EQ(run.counter("pom.learned"), 1u);
  EXPECT_FALSE(w.node(1).blacklisted(NodeId(2)));
  EXPECT_TRUE(w.node(1).blacklisted(NodeId(3)));
  EXPECT_EQ(run.gossip_verifications(1), 2u);
  EXPECT_EQ(run.gossip_verifications(0), 0u);
}

TEST(PomGossip, PomNamingTheReceiverCrossesUnjudged) {
  // A node holding a PoM about a peer blacklists it and refuses the session,
  // so this ledger is built by hand: the PoM about node 1 is kept without
  // the blacklist entry. It crosses, but node 1 never judges an accusation
  // against itself: no verification is charged and nothing is blacklisted.
  GossipRun run;
  G2GWorld& w = *run.world;
  w.node(0).pom_ledger().record(signed_relay_failure_pom(w, /*culprit=*/1, /*accuser=*/0));
  w.run();

  EXPECT_EQ(run.counter("pom.gossiped"), 1u);
  EXPECT_EQ(run.counter("pom.learned"), 0u);
  EXPECT_EQ(run.gossip_verifications(1), 0u);
  EXPECT_FALSE(w.node(1).blacklisted(NodeId(1)));
}

TEST(PomGossip, SecondPomAboutALearnedCulpritIsNotSent) {
  // Two validly signed PoMs about node 2, for different messages: once node
  // 1 has learned the first, the second does not cross.
  GossipRun run;
  G2GWorld& w = *run.world;
  hold(w.node(0), signed_relay_failure_pom(w, /*culprit=*/2, /*accuser=*/0, 0x11));
  hold(w.node(0), signed_relay_failure_pom(w, /*culprit=*/2, /*accuser=*/0, 0x22));
  w.run();

  EXPECT_EQ(run.counter("pom.gossiped"), 1u);
  EXPECT_EQ(run.counter("wire.pom.msgs"), 1u);
  EXPECT_EQ(run.counter("pom.learned"), 1u);
  EXPECT_TRUE(w.node(1).blacklisted(NodeId(2)));
  EXPECT_EQ(run.gossip_verifications(1), 1u);
}

/// Keeps every span record.
class SpanLog final : public obs::EventSink {
 public:
  void on_event(const obs::Event& /*e*/) override {}
  void on_span(const obs::SpanRecord& s) override { spans.push_back(s); }
  std::vector<obs::SpanRecord> spans;
};

TEST(PomGossip, OneSpanPerSessionThatCarriedPoms) {
  // The first session carries one PoM each way, the second none (each side
  // knows both by then): one pom_gossip span, opened and closed at the
  // first session, with the count as its value.
  GossipRun run({{0, 1, 100, 110}, {0, 1, 200, 210}});
  G2GWorld& w = *run.world;
  SpanLog log;
  run.obs.tracer.add_sink(&log);
  hold(w.node(0), signed_relay_failure_pom(w, /*culprit=*/2, /*accuser=*/0));
  hold(w.node(1), signed_relay_failure_pom(w, /*culprit=*/3, /*accuser=*/1));
  w.run();

  ASSERT_EQ(run.counter("session.opened"), 2u);
  EXPECT_EQ(run.counter("pom.gossiped"), 2u);
  EXPECT_TRUE(w.node(1).blacklisted(NodeId(2)));
  EXPECT_TRUE(w.node(0).blacklisted(NodeId(3)));
  std::vector<obs::SpanRecord> opens;
  for (const obs::SpanRecord& s : log.spans) {
    if (!s.close && std::string(s.name) == "pom_gossip") opens.push_back(s);
  }
  ASSERT_EQ(opens.size(), 1u);
  EXPECT_EQ(opens[0].at, TimePoint::from_seconds(100));
  EXPECT_EQ(opens[0].parent, 0u);
  EXPECT_EQ(opens[0].a, NodeId(0));
  EXPECT_EQ(opens[0].b, NodeId(1));
  std::size_t closes = 0;
  for (const obs::SpanRecord& s : log.spans) {
    if (!s.close || s.id != opens[0].id) continue;
    ++closes;
    EXPECT_EQ(s.at, TimePoint::from_seconds(100));
    EXPECT_EQ(s.value, 2);
  }
  EXPECT_EQ(closes, 1u);
}

TEST(ProtocolNode, LearnPomGatesTheBlacklist) {
  G2GWorld w(make_trace(4, {{0, 1, 100, 110}}));
  const auto verifications = [&] { return w.collector().costs(NodeId(0)).verifications; };
  // Junk evidence is verified (and charged) but never learned.
  EXPECT_FALSE(w.node(0).learn_pom(relay_failure_pom(/*culprit=*/2, /*accuser=*/1)));
  EXPECT_FALSE(w.node(0).blacklisted(NodeId(2)));
  EXPECT_EQ(verifications(), 1u);
  // Valid evidence is learned: the culprit is blacklisted and the PoM kept.
  const ProofOfMisbehavior good = signed_relay_failure_pom(w, /*culprit=*/2, /*accuser=*/1);
  EXPECT_TRUE(w.node(0).learn_pom(good));
  EXPECT_TRUE(w.node(0).blacklisted(NodeId(2)));
  EXPECT_EQ(w.node(0).known_poms().size(), 1u);
  EXPECT_EQ(verifications(), 2u);
  // Already blacklisted: nothing new to learn, nothing verified.
  EXPECT_FALSE(w.node(0).learn_pom(good));
  // A node never learns accusations against itself, whatever the evidence.
  EXPECT_FALSE(w.node(0).learn_pom(signed_relay_failure_pom(w, /*culprit=*/0, /*accuser=*/1)));
  EXPECT_FALSE(w.node(0).blacklisted(NodeId(0)));
  EXPECT_EQ(verifications(), 2u);
  EXPECT_EQ(w.node(0).known_poms().size(), 1u);
}

/// Node 0 relays one message to node 1 and tests it on re-meet after Delta1.
/// Node 1 holds the payload with no PoRs, so it must answer with a storage
/// proof. `tamper` points node 1's hold, between the two contacts at
/// `tamper_s`, at a table entry whose bytes differ from the message's in one
/// byte (entries are shared and immutable, so the copy itself never changes).
template <typename NodeT>
struct StorageProofRun {
  obs::ObsContext obs;
  std::unique_ptr<testutil::World<NodeT>> world;

  StorageProofRun(trace::ContactTrace trace, NetworkConfig cfg, std::uint32_t dst,
                  double send_s, double tamper_s, bool tamper) {
    cfg.obs = &obs;
    world = std::make_unique<testutil::World<NodeT>>(std::move(trace), std::move(cfg));
    world->send(0, dst, send_s);
    if (tamper) {
      world->network().simulator().at(TimePoint::from_seconds(tamper_s), [this] {
        // The source's one pending test names the relayed message.
        const auto& tests = world->node(0).audit().tests();
        ASSERT_EQ(tests.size(), 1u);
        ASSERT_EQ(world->node(1).handshake().hold_count(), 1u);
        relay::Hold* hold = world->node(1).handshake().find_hold(tests[0].h);
        ASSERT_NE(hold, nullptr);
        ASSERT_TRUE(hold->has_msg);
        MessageTable& messages = world->network().messages();
        const BytesView wire = messages.wire(hold->msg);
        Bytes tampered(wire.begin(), wire.end());
        tampered.back() ^= 0x01;  // the last ciphertext byte
        const MessageRef entry = messages.admit(tampered, tests[0].h);
        ASSERT_NE(entry, hold->msg);
        hold->msg = entry;
      });
    }
    world->run();
  }
};

/// Epidemic (PorsOrStorage): relay at t=100, re-meet after Delta1.
StorageProofRun<G2GEpidemicNode> epidemic_storage_run(bool tamper) {
  return {make_trace(4, {{0, 1, 100, 110}, {0, 1, 100 + kD1 + 60, 100 + kD1 + 70}}),
          G2GWorld::default_config(), /*dst=*/3, /*send_s=*/50, /*tamper_s=*/100 + kD1, tamper};
}

/// Delegation (PorsThenStorage): node 1 met the destination twice before the
/// message exists, so it qualifies as a relay at t=2000; it meets nobody else.
StorageProofRun<G2GDelegationNode> delegation_storage_run(bool tamper) {
  NetworkConfig cfg = testutil::World<G2GDelegationNode>::default_config();
  cfg.node.quality_frame = Duration::minutes(5);  // the warm-up lands in a closed frame
  return {make_trace(5, {{1, 4, 10, 12},
                         {1, 4, 30, 32},
                         {0, 1, 2000, 2010},
                         {0, 1, 2000 + kD1 + 60, 2000 + kD1 + 70}}),
          std::move(cfg), /*dst=*/4, /*send_s=*/1900, /*tamper_s=*/2000 + kD1, tamper};
}

/// One storage challenge, one pass, no accusation. The cost model charges the
/// relay's proof and the source's check one heavy HMAC each.
template <typename NodeT>
void expect_storage_proof_passed(const StorageProofRun<NodeT>& run) {
  EXPECT_EQ(run.obs.counters.storage_challenges->value(), 1u);
  EXPECT_EQ(run.obs.counters.tests_passed->value(), 1u);
  EXPECT_EQ(run.obs.counters.tests_failed->value(), 0u);
  EXPECT_TRUE(run.world->collector().detections().empty());
  EXPECT_EQ(run.world->collector().costs(NodeId(0)).heavy_hmacs, 1u);
  EXPECT_EQ(run.world->collector().costs(NodeId(1)).heavy_hmacs, 1u);
}

/// One storage challenge that fails, and exactly one TestBySender detection:
/// node 0 catches node 1.
template <typename NodeT>
void expect_storage_proof_failed(const StorageProofRun<NodeT>& run) {
  EXPECT_EQ(run.obs.counters.storage_challenges->value(), 1u);
  EXPECT_EQ(run.obs.counters.tests_passed->value(), 0u);
  EXPECT_EQ(run.obs.counters.tests_failed->value(), 1u);
  EXPECT_EQ(run.world->collector().costs(NodeId(0)).heavy_hmacs, 1u);
  EXPECT_EQ(run.world->collector().costs(NodeId(1)).heavy_hmacs, 1u);
  ASSERT_EQ(run.world->collector().detections().size(), 1u);
  const metrics::DetectionEvent& d = run.world->collector().detections()[0];
  EXPECT_EQ(d.culprit, NodeId(1));
  EXPECT_EQ(d.detector, NodeId(0));
  EXPECT_EQ(d.method, metrics::DetectionMethod::TestBySender);
  EXPECT_TRUE(run.world->node(0).blacklisted(NodeId(1)));
}

TEST(AuditEngine, HonestStorageProofSharesOneChain) {
  // The relay's inputs equal the source's byte for byte: the proof passes.
  expect_storage_proof_passed(epidemic_storage_run(/*tamper=*/false));
}

TEST(AuditEngine, TamperedHoldNeverSharesTheSourceChain) {
  // One flipped byte sends both chains through heavy_hmac: the proof fails.
  expect_storage_proof_failed(epidemic_storage_run(/*tamper=*/true));
}

TEST(AuditEngine, HonestDelegationStorageProofPasses) {
  expect_storage_proof_passed(delegation_storage_run(/*tamper=*/false));
}

TEST(AuditEngine, TamperedDelegationHoldFailsItsStorageProof) {
  expect_storage_proof_failed(delegation_storage_run(/*tamper=*/true));
}

TEST(PomLedger, RecordAndBlacklistAreIndependent) {
  relay::PomLedger ledger;
  EXPECT_FALSE(ledger.blacklisted(NodeId(3)));
  ledger.blacklist(NodeId(3));
  EXPECT_TRUE(ledger.blacklisted(NodeId(3)));
  EXPECT_TRUE(ledger.known().empty());
  const ProofOfMisbehavior& stored = ledger.record(relay_failure_pom(3, 1));
  EXPECT_EQ(stored.culprit, NodeId(3));
  EXPECT_EQ(ledger.known().size(), 1u);
}

}  // namespace
}  // namespace g2g::proto
