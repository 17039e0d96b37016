// Micro-benchmarks of the protocol layer: sealed-message creation/opening,
// PoR/PoM signing and verification, and the relay core's hot paths — wire
// frame codecs (frames/sec) and one full 5-step handshake. The shared main()
// (micro_main.hpp) emits BENCH_micro_proto.json with `--json-out FILE`.
#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "g2g/util/alloc_probe.hpp"
#include "g2g/util/arena.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/metrics/collector.hpp"
#include "g2g/proto/g2g_epidemic.hpp"
#include "g2g/proto/message.hpp"
#include "g2g/proto/network.hpp"
#include "g2g/proto/relay/frames.hpp"
#include "g2g/proto/wire.hpp"
#include "g2g/trace/contact.hpp"
#include "micro_main.hpp"

namespace {

using namespace g2g;
using namespace g2g::proto;

/// Per-bench heap-allocation telemetry (this binary links g2g_alloc_probe).
/// Construct after setup, report after the loop: the counter lands in the
/// telemetry cell as allocs/op and g2g-bench-compare holds the line on it.
struct AllocMeter {
  std::size_t before = heap_alloc_count();
  void report(benchmark::State& state) {
    state.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(heap_alloc_count() - before) /
        static_cast<double>(state.iterations()));
  }
};

struct Fixture {
  explicit Fixture(crypto::SuitePtr suite_in)
      : suite(std::move(suite_in)), rng(9), authority(suite, rng) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      identities.emplace_back(suite, NodeId(i), authority, rng);
      roster.add(identities.back().certificate());
    }
  }
  crypto::SuitePtr suite;
  Rng rng;
  crypto::Authority authority;
  std::vector<crypto::NodeIdentity> identities;
  Roster roster{suite};
};

Fixture& fast_fixture() {
  static Fixture f(crypto::make_fast_suite());
  return f;
}

Fixture& schnorr_fixture() {
  static Fixture f(crypto::make_schnorr_rs_suite(crypto::SchnorrGroup::small_group()));
  return f;
}

void BM_MakeMessage(benchmark::State& state) {
  Fixture& f = fast_fixture();
  const Bytes body(64, 0x42);
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_message(f.identities[0], f.roster, NodeId(1),
                                          MessageId(++id), body, f.rng));
  }
}
BENCHMARK(BM_MakeMessage);

void BM_OpenMessage(benchmark::State& state) {
  Fixture& f = fast_fixture();
  const SealedMessage m =
      make_message(f.identities[0], f.roster, NodeId(1), MessageId(1), Bytes(64, 1), f.rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(open_message(f.identities[1], m, f.roster));
  }
}
BENCHMARK(BM_OpenMessage);

ProofOfRelay make_por(Fixture& f) {
  ProofOfRelay por;
  por.h.fill(0x31);
  por.giver = NodeId(0);
  por.taker = NodeId(1);
  por.at = TimePoint::from_seconds(10.0);
  por.delegation = true;
  por.declared_dst = NodeId(2);
  por.msg_quality = 1.0;
  por.taker_quality = 2.0;
  por.taker_signature = f.identities[1].sign(por.signed_payload());
  return por;
}

void BM_PorSignFast(benchmark::State& state) {
  Fixture& f = fast_fixture();
  ProofOfRelay por = make_por(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.identities[1].sign(por.signed_payload()));
  }
}
BENCHMARK(BM_PorSignFast);

void BM_PorSignSchnorr(benchmark::State& state) {
  Fixture& f = schnorr_fixture();
  ProofOfRelay por = make_por(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.identities[1].sign(por.signed_payload()));
  }
}
BENCHMARK(BM_PorSignSchnorr);

void BM_PomVerifyChainCheat(benchmark::State& state) {
  Fixture& f = fast_fixture();
  ProofOfMisbehavior pom;
  pom.kind = ProofOfMisbehavior::Kind::ChainCheat;
  pom.culprit = NodeId(1);
  pom.accuser = NodeId(0);
  ProofOfRelay in = make_por(f);
  ProofOfRelay out = make_por(f);
  out.giver = NodeId(1);
  out.taker = NodeId(2);
  out.msg_quality = 0.0;  // the cheat
  out.taker_signature = f.identities[2].sign(out.signed_payload());
  pom.evidence_accepted = in;
  pom.evidence_forwarded = out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_pom(f.roster, pom));
  }
}
BENCHMARK(BM_PomVerifyChainCheat);

void BM_PorEncodeDecode(benchmark::State& state) {
  Fixture& f = fast_fixture();
  const ProofOfRelay por = make_por(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProofOfRelay::decode(encode_exact(por)));
  }
}
BENCHMARK(BM_PorEncodeDecode);

// -- relay core -------------------------------------------------------------

QualityDeclaration make_declaration(Fixture& f, std::uint32_t declarer, double value) {
  QualityDeclaration decl;
  decl.declarer = NodeId(declarer);
  decl.dst = NodeId(3);
  decl.value = value;
  decl.frame = 5;
  decl.at = TimePoint::from_seconds(60.0);
  decl.signature = f.identities[declarer].sign(decl.signed_payload());
  return decl;
}

void BM_FrameSmallRoundTrips(benchmark::State& state) {
  MessageHash h;
  h.fill(0x21);
  relay::KeyRevealFrame key;
  key.h = h;
  key.key.fill(0x07);
  relay::PorRqstFrame rqst;
  rqst.h = h;
  rqst.seed.fill(0x0B);
  relay::StoredRespFrame stored;
  stored.h = h;
  stored.seed.fill(0x0C);
  stored.digest.fill(0x0D);
  AllocMeter allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(relay::RelayRqstFrame::decode(encode_exact(relay::RelayRqstFrame{h})));
    benchmark::DoNotOptimize(relay::KeyRevealFrame::decode(encode_exact(key)));
    benchmark::DoNotOptimize(relay::PorRqstFrame::decode(encode_exact(rqst)));
    benchmark::DoNotOptimize(relay::StoredRespFrame::decode(encode_exact(stored)));
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_FrameSmallRoundTrips);

void BM_FrameRelayDataRoundTrip(benchmark::State& state) {
  Fixture& f = fast_fixture();
  relay::RelayDataFrame frame;
  frame.msg = make_message(f.identities[0], f.roster, NodeId(1), MessageId(77),
                           Bytes(64, 0x42), f.rng);
  frame.h = frame.msg.hash();
  frame.attachments.push_back(make_declaration(f, 1, 2.5));
  frame.attachments.push_back(make_declaration(f, 2, 4.0));
  AllocMeter allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(relay::RelayDataFrame::decode(encode_exact(frame)));
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameRelayDataRoundTrip);

/// The zero-copy wire path of one 5-step handshake: arena encodes, borrowed-
/// parts RELAY_DATA, non-owning view decodes, arena-built PoR payload — the
/// codec work giver_pass does per attempt, minus signatures and the Hold.
/// Pinned allocation-free in steady state (tests/alloc_path_test.cpp and the
/// checked-in BENCH_micro_proto.json baseline).
void BM_FrameCodecArenaPath(benchmark::State& state) {
  Fixture& f = fast_fixture();
  const SealedMessage msg = make_message(f.identities[0], f.roster, NodeId(1),
                                         MessageId(88), Bytes(64, 0x42), f.rng);
  const Bytes msg_wire = encode_exact(msg);
  const MessageHash h = msg.hash();
  ProofOfRelay por;
  por.h = h;
  por.giver = NodeId(0);
  por.taker = NodeId(1);
  por.at = TimePoint::from_seconds(10.0);
  por.taker_signature = f.identities[1].sign(por.signed_payload());
  Arena arena;
  const auto run_once = [&] {
    arena.reset();
    std::size_t sink = 0;
    const BytesView rqst = arena_encode(arena, relay::RelayRqstFrame{h});
    sink += relay::RelayRqstFrame::decode(rqst).h[0];
    const BytesView ok = arena_encode(arena, relay::RelayOkFrame{h, true});
    sink += relay::RelayOkFrame::decode(ok).accept ? 1u : 0u;
    const BytesView data = relay::arena_relay_data(arena, h, msg_wire, {});
    const relay::RelayDataFrameView view = relay::RelayDataFrameView::decode(data);
    sink += view.msg.hash()[0];
    const std::span<std::uint8_t> payload = arena.alloc(por.signed_payload_size());
    SpanWriter pw(payload);
    por.signed_payload_into(pw);
    pw.expect_full();
    const BytesView por_wire = arena_encode(arena, por);
    sink += ProofOfRelayView::decode(por_wire).taker_signature.size();
    const BytesView key = arena_encode(arena, relay::KeyRevealFrame{h, {}});
    sink += relay::KeyRevealFrame::decode(key).key[0];
    return sink;
  };
  benchmark::DoNotOptimize(run_once());  // warm the arena chunks
  AllocMeter allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_once());
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameCodecArenaPath);

/// A tiny Network whose event loop never runs: node 0 holds one message for a
/// far-away destination, and the bench drives sessions by hand. kTakers
/// distinct fresh takers are available before a world must be rebuilt.
struct RelayWorld {
  static constexpr std::uint32_t kTakers = 512;

  metrics::Collector collector;
  trace::ContactTrace trace;
  std::unique_ptr<Network<G2GEpidemicNode>> net;

  RelayWorld() {
    // One far-future contact pads the node universe; the bench never runs
    // the simulator, so it only fixes node_count.
    trace.add(NodeId(kTakers + 1), NodeId(kTakers + 2), TimePoint::from_seconds(9.0e8),
              TimePoint::from_seconds(9.0e8 + 1.0));
    trace.finalize();
    NetworkConfig cfg;
    cfg.node.delta1 = Duration::minutes(30);
    cfg.node.delta2 = Duration::minutes(60);
    cfg.horizon = TimePoint::from_seconds(4.0 * 3600.0);
    net = std::make_unique<Network<G2GEpidemicNode>>(trace, std::move(cfg),
                                                     std::vector<BehaviorConfig>{}, collector);
    Rng rng(17);
    G2GEpidemicNode& src = net->node(NodeId(0));
    const SealedMessage m = make_message(src.identity(), net->roster(), NodeId(kTakers + 1),
                                         MessageId(1), Bytes(64, 0x42), rng);
    // Interned without an id: the collector never hears of this message.
    src.generate(net->messages().intern(m, MessageId::invalid()));
  }
};

/// One full 5-step handshake (RELAY_RQST .. KEY reveal, PoR verified) against
/// a fresh taker each iteration.
void BM_HandshakeRelayPass(benchmark::State& state) {
  auto world = std::make_unique<RelayWorld>();
  std::uint32_t next = 1;
  AllocMeter allocs;  // includes the periodic world rebuilds: durable-state
                      // cost (Holds, PoRs) is the point of this telemetry
  for (auto _ : state) {
    if (next > RelayWorld::kTakers) {
      state.PauseTiming();
      world = std::make_unique<RelayWorld>();
      next = 1;
      state.ResumeTiming();
    }
    G2GEpidemicNode& giver = world->net->node(NodeId(0));
    G2GEpidemicNode& taker = world->net->node(NodeId(next++));
    Session s(*world->net, giver, taker);
    giver.handshake().giver_pass(s, taker);
  }
  allocs.report(state);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HandshakeRelayPass);

}  // namespace

int main(int argc, char** argv) { return g2g::bench::micro_main(argc, argv, "micro_proto"); }
