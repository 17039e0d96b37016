// Interval-union arithmetic behind every *.busy_s metric.
#include <gtest/gtest.h>

#include "span_union.hpp"

namespace perfbench {
namespace {

TEST(SpanUnion, EmptyIsZero) { EXPECT_EQ(union_ns({}), 0); }

TEST(SpanUnion, DisjointSpansAdd) {
  EXPECT_EQ(union_ns({{0, 10}, {20, 25}, {40, 41}}), 16);
}

TEST(SpanUnion, StorageProofRoundsOverlapUntilTheBatchResolves) {
  // Three audit_round spans of one contact open one after another and all
  // close when the contact's HeavyHmacBatch resolves at t=100; a fourth round
  // on a later contact stands alone. Busy time is the covered time, not the
  // 100 + 90 + 80 + 10 the spans sum to.
  EXPECT_EQ(union_ns({{0, 100}, {10, 100}, {20, 100}, {200, 210}}), 110);
}

TEST(SpanUnion, OrderAndNestingDoNotMatter) {
  EXPECT_EQ(union_ns({{50, 60}, {0, 100}, {90, 130}, {5, 7}}), 130);
}

TEST(SpanUnion, TouchingSpansMergeWithoutDoubleCounting) {
  EXPECT_EQ(union_ns({{0, 10}, {10, 20}}), 20);
}

TEST(SpanUnion, EmptyAndInvertedSpansCountNothing) {
  EXPECT_EQ(union_ns({{5, 5}, {9, 3}, {0, 2}}), 2);
}

}  // namespace
}  // namespace perfbench
