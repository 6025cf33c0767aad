// Tests of the benchmark's own logic: seeded specs, the percentile rule and
// span self-time arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "campaign/shard.h"
#include "spec.h"
#include "stats.h"
#include "trace.h"

namespace campaignbench {
namespace {

/// Mutants the spec's analyses will schedule (no simulation).
std::size_t specMutantTotal(const xlv::campaign::CampaignSpec& spec) {
  std::size_t total = 0;
  for (const auto& item : spec.items) {
    total += xlv::campaign::countFlowMutants(item.caseStudy, item.options);
  }
  return total;
}

TEST(SeededSpec, SameSeedSameSpec) {
  const auto a = paperMatrixSpec(7, 400);
  const auto b = paperMatrixSpec(7, 400);
  EXPECT_EQ(a.items.size(), 16u);
  EXPECT_EQ(xlv::campaign::campaignSpecFnv(a), xlv::campaign::campaignSpecFnv(b));
}

TEST(SeededSpec, OtherSeedOtherSpecSimilarMutantTotal) {
  const auto a = paperMatrixSpec(1, 400);
  const auto b = paperMatrixSpec(2, 400);
  EXPECT_NE(xlv::campaign::campaignSpecFnv(a), xlv::campaign::campaignSpecFnv(b));
  const double ma = static_cast<double>(specMutantTotal(a));
  const double mb = static_cast<double>(specMutantTotal(b));
  ASSERT_GT(ma, 0.0);
  EXPECT_LT(std::abs(ma - mb) / ma, 0.25) << ma << " vs " << mb;
}

TEST(SeededSpec, CyclesChangeTheSpecNotTheCorners) {
  const auto shortBench = paperMatrixSpec(3, 400);
  const auto longBench = paperMatrixSpec(3, 4000);
  EXPECT_NE(xlv::campaign::campaignSpecFnv(shortBench),
            xlv::campaign::campaignSpecFnv(longBench));
  EXPECT_EQ(specMutantTotal(shortBench), specMutantTotal(longBench));
}

TEST(SeededSpec, SingleItemSpecHoldsOneItem) {
  const auto matrix = paperMatrixSpec(5, 400);
  const auto one = singleItemSpec(matrix, 3);
  ASSERT_EQ(one.items.size(), 1u);
  EXPECT_EQ(one.items[0].label, matrix.items[3].label);
  EXPECT_EQ(one.items[0].prefixKey, matrix.items[3].prefixKey);
}

TEST(SeededSpec, ItemsRunOneAfterAnother) {
  const auto matrix = paperMatrixSpec(5, 400, 3);
  EXPECT_EQ(matrix.executor.threads, 1);
  for (const auto& item : matrix.items) EXPECT_EQ(item.options.analysisThreads, 3);
}

TEST(SeededSpec, CaseSubsetKeepsThatCaseInOrder) {
  const auto matrix = paperMatrixSpec(5, 400);
  const auto sub = caseSubsetSpec(matrix, "Handshake");
  ASSERT_EQ(sub.items.size(), 4u);
  std::size_t next = 0;
  for (const auto& item : sub.items) {
    EXPECT_EQ(item.caseStudy.name, "Handshake");
    while (next < matrix.items.size() && matrix.items[next].label != item.label) ++next;
    ASSERT_LT(next, matrix.items.size());
    EXPECT_EQ(matrix.items[next].prefixKey, item.prefixKey);
  }
  EXPECT_TRUE(caseSubsetSpec(matrix, "NoSuchCase").items.empty());
}

TEST(Percentiles, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(samplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(samplesBeyond(10, 0.5), 5u);
  EXPECT_EQ(samplesBeyond(0, 0.9), 0u);
  EXPECT_FALSE(tailReportable(99, 0.9));
  EXPECT_TRUE(tailReportable(100, 0.9));
  EXPECT_TRUE(tailReportable(20, 0.5));
  EXPECT_FALSE(tailReportable(19, 0.5));
}

TEST(Percentiles, SummaryReportsP90OnlyWhenReportable) {
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  LatencySummary s = summarize(v);
  EXPECT_EQ(s.samples, 99u);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_FALSE(s.p90.has_value());
  v.push_back(100);
  s = summarize(v);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  ASSERT_TRUE(s.p90.has_value());
  EXPECT_NEAR(*s.p90, 90.1, 1e-9);
  EXPECT_EQ(summarize({}).samples, 0u);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

Span span(std::uint64_t id, std::uint64_t parent, double start, double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.campaign = 1;
  s.name = "s" + std::to_string(id);
  s.startUs = start;
  s.endUs = end;
  return s;
}

TEST(SpanSelfTime, ChildUnionIsClippedToTheParent) {
  // Parent [0,10]; children [1,3] and [2,5] overlap (parallel threads), and
  // [8,12] runs past the parent's end: covered = [1,5] + [8,10] = 6.
  const std::vector<Span> spans = {span(1, 0, 0, 10), span(2, 1, 1, 3), span(3, 1, 2, 5),
                                   span(4, 1, 8, 12), span(5, 2, 1.5, 2.5)};
  const std::vector<double> self = selfTimesUs(spans);
  EXPECT_DOUBLE_EQ(self[0], 4.0);
  EXPECT_DOUBLE_EQ(self[1], 1.0);  // [1,3] minus its grandchild [1.5,2.5]
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SpanSelfTime, LayerTimesSumByCampaignAndName) {
  std::vector<Span> spans = {span(1, 0, 0, 10), span(2, 1, 0, 4), span(3, 1, 4, 6)};
  spans[1].name = spans[2].name = "layer";
  spans[2].campaign = 2;
  const auto t = layerTimesByCampaign(spans);
  EXPECT_DOUBLE_EQ(t.at(1).totalUs.at("layer"), 4.0);
  EXPECT_DOUBLE_EQ(t.at(2).totalUs.at("layer"), 2.0);
  EXPECT_DOUBLE_EQ(t.at(1).selfUs.at("s1"), 4.0);
}

TEST(Tracer, ScopesNestAndCrossThreadsByExplicitParent) {
  Tracer tracer;
  std::uint64_t rootId = 0;
  {
    Tracer::Scope root(tracer, "campaign", 0, 42);
    rootId = root.id();
    { Tracer::Scope child(tracer, "child"); }
    std::thread([&] { Tracer::Scope item(tracer, "item", rootId, 42); }).join();
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  for (const auto& s : spans) {
    EXPECT_EQ(s.campaign, 42u);
    if (s.name != "campaign") EXPECT_EQ(s.parent, rootId);
    EXPECT_GE(s.endUs, s.startUs);
  }
  EXPECT_NE(tracer.chromeTraceJson().find("\"ph\":\"X\""), std::string::npos);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.setEnabled(false);
  { Tracer::Scope s(tracer, "x"); }
  EXPECT_TRUE(tracer.spans().empty());
}

}  // namespace
}  // namespace campaignbench
