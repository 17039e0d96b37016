#include "g2g/proto/epidemic.hpp"

#include <gtest/gtest.h>

#include "proto_test_util.hpp"

namespace g2g::proto {
namespace {

using testutil::Contact;
using testutil::World;
using testutil::make_trace;

using EpidemicWorld = World<EpidemicNode>;

TEST(Epidemic, DirectDelivery) {
  EpidemicWorld w(make_trace(4, {{0, 1, 100, 110}}));
  const MessageId id = w.send(0, 1, 50);
  w.run();
  EXPECT_TRUE(w.delivered(id));
  EXPECT_EQ(w.replicas(id), 1u);
  const auto& rec = w.record(id);
  EXPECT_EQ(rec.delivered->to_seconds(), 100.0);
}

TEST(Epidemic, MultiHopDelivery) {
  // 0 -> 1 at t=100, 1 -> 2 at t=500; message 0 -> 2 created at t=50.
  EpidemicWorld w(make_trace(4, {{0, 1, 100, 110}, {1, 2, 500, 510}}));
  const MessageId id = w.send(0, 2, 50);
  w.run();
  EXPECT_TRUE(w.delivered(id));
  EXPECT_EQ(w.replicas(id), 2u);
  EXPECT_EQ(w.record(id).delivered->to_seconds(), 500.0);
}

TEST(Epidemic, TtlExpiryBlocksDelivery) {
  // Relay at t=100; next contact at t=100 + >Delta1: the relay purged the copy.
  EpidemicWorld w(make_trace(4, {{0, 1, 100, 110}, {1, 2, 2200, 2210}}));
  const MessageId id = w.send(0, 2, 50);  // expires at 50 + 1800 = 1850
  w.run();
  EXPECT_FALSE(w.delivered(id));
  EXPECT_EQ(w.node(1).buffer_size(), 0u);  // purged at TTL
}

TEST(Epidemic, NoReReceptionOnRepeatedContacts) {
  EpidemicWorld w(make_trace(4, {{0, 1, 100, 110}, {0, 1, 200, 210}, {0, 1, 300, 310}}));
  const MessageId id = w.send(0, 3, 50);  // dst never met: stays replicated once
  w.run();
  EXPECT_FALSE(w.delivered(id));
  EXPECT_EQ(w.replicas(id), 1u);
}

TEST(Epidemic, FloodsEveryContact) {
  // A star of contacts around node 0: everyone gets a replica.
  EpidemicWorld w(make_trace(6,
                             {{0, 1, 100, 110}, {0, 2, 120, 130}, {0, 3, 140, 150},
                              {0, 4, 160, 170}}));
  const MessageId id = w.send(0, 5, 50);  // destination never met
  w.run();
  EXPECT_EQ(w.replicas(id), 4u);
}

TEST(Epidemic, DropperBlocksRelayPath) {
  EpidemicWorld w(make_trace(4, {{0, 1, 100, 110}, {1, 2, 500, 510}}),
                  {{}, {Behavior::Dropper, false}, {}, {}});
  const MessageId id = w.send(0, 2, 50);
  w.run();
  EXPECT_FALSE(w.delivered(id));
  EXPECT_EQ(w.node(1).buffer_size(), 0u);
}

TEST(Epidemic, DropperStillReceivesOwnMessages) {
  EpidemicWorld w(make_trace(4, {{0, 1, 100, 110}}), {{}, {Behavior::Dropper, false}, {}, {}});
  const MessageId id = w.send(0, 1, 50);
  w.run();
  EXPECT_TRUE(w.delivered(id));
}

TEST(Epidemic, DropperWithOutsidersSparesOwnCommunity) {
  auto cfg = EpidemicWorld::default_config();
  cfg.communities = community::CommunityMap(
      4, {{NodeId(0), NodeId(1)}, {NodeId(2), NodeId(3)}});
  // Node 1 is a dropper-with-outsiders; node 0 is in its community, node 2 not.
  EpidemicWorld w(make_trace(4, {{0, 1, 100, 110}, {1, 3, 500, 510}, {2, 1, 600, 610},
                                 {1, 0, 620, 625}}),
                  cfg, {{}, {Behavior::Dropper, true}, {}, {}});
  // Message from 0 (insider): node 1 keeps and relays it onward to 3.
  const MessageId from_insider = w.send(0, 3, 50);
  w.run();
  EXPECT_TRUE(w.delivered(from_insider));
}

TEST(Epidemic, DeliveryRecordedOnceDespiteMultiplePaths) {
  EpidemicWorld w(make_trace(4, {{0, 1, 100, 110}, {0, 2, 150, 160}, {1, 2, 200, 210}}));
  const MessageId id = w.send(0, 2, 50);
  w.run();
  EXPECT_TRUE(w.delivered(id));
  // Delivered directly at 150; 1->2 path at 200 is suppressed by `seen_`.
  EXPECT_EQ(w.record(id).delivered->to_seconds(), 150.0);
  EXPECT_EQ(w.replicas(id), 2u);
}

TEST(Epidemic, CostAccountingTracksBytes) {
  EpidemicWorld w(make_trace(4, {{0, 1, 100, 110}}));
  w.send(0, 3, 50);
  w.run();
  const auto& src_costs = w.collector().costs(NodeId(0));
  const auto& relay_costs = w.collector().costs(NodeId(1));
  EXPECT_GT(src_costs.bytes_sent, 0u);
  EXPECT_GT(relay_costs.bytes_received, 0u);
  EXPECT_GT(relay_costs.memory_byte_seconds, 0.0);
  EXPECT_EQ(src_costs.sessions, 1u);
}

}  // namespace
}  // namespace g2g::proto
