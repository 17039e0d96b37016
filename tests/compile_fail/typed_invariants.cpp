// Compile-fail cases for the invariants the types hold (docs/STATIC_ANALYSIS.md,
// "Held by the compiler"). As it stands this file compiles clean; built with
// -DG2G_COMPILE_FAIL=N, case N must not compile:
//   1  a span name outside obs::SpanKind
//   2  a stage name outside obs::StageKind
//   3  a counter name outside the registered areas (obs::kCounterAreas)
//   4  encode_exact of a type that encodes but cannot decode
//   5  a wire-type list that leaves a frame out
// tests/CMakeLists.txt runs every case as a ctest with -fsyntax-only.
#include "g2g/obs/registry.hpp"
#include "g2g/obs/stage.hpp"
#include "g2g/obs/tracer.hpp"
#include "g2g/proto/relay/frames.hpp"
#include "g2g/util/bytes.hpp"

namespace g2g {

/// Writes bytes it cannot read back: not a WireCodec.
struct EncodeOnly {
  [[nodiscard]] std::size_t wire_size() const { return 1; }
  void encode_into(SpanWriter& w) const { w.u8(0); }
};

void typed_invariants(obs::Tracer& tracer, obs::StageProfile& stages, obs::Registry& registry) {
  (void)tracer.open_span(TimePoint::zero(), obs::SpanKind::Msg, 0, NodeId(0), NodeId(1));
  obs::StageTimer timer(stages, obs::StageKind::Simulation);
  registry.counter("msg.relayed").add();
  (void)encode_exact(proto::relay::FqRqstFrame{});
  static_assert(proto::owns_every_frame_tag(proto::WireTypes{}));

#if G2G_COMPILE_FAIL == 1
  (void)tracer.open_span(TimePoint::zero(), "rogue_span", 0, NodeId(0), NodeId(1));
#elif G2G_COMPILE_FAIL == 2
  obs::StageTimer rogue(stages, "rogue_stage");
#elif G2G_COMPILE_FAIL == 3
  registry.counter("rogue.tally").add();
#elif G2G_COMPILE_FAIL == 4
  (void)encode_exact(EncodeOnly{});
#elif G2G_COMPILE_FAIL == 5
  using namespace proto::relay;
  static_assert(proto::owns_every_frame_tag(
      proto::WireTypeList<RelayRqstFrame, RelayOkFrame, RelayDataFrame, KeyRevealFrame,
                          PorRqstFrame, StoredRespFrame>{}));
#endif
}

}  // namespace g2g
