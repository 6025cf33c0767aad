// Process-level sharding: the cross-shard bit-identity conformance suite.
//
// The single-process campaign is the truth; a sharded run — any shard
// count, whole items or mutant-range fragments, each shard executed with
// cold process caches exactly like a separate worker process — must merge
// back into a CampaignResult that CampaignResult::sameResults cannot tell
// apart from that truth.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/golden_cache.h"
#include "analysis/mutant_cache.h"
#include "campaign/serialize.h"
#include "campaign/shard.h"
#include "core/flow.h"

namespace xlv::campaign {
namespace {

void clearProcessCaches() { core::clearProcessCaches(); }

/// Run every shard of the plan as a separate worker process would see it:
/// cold caches per shard, spec/plan/output pushed through the wire codecs.
std::vector<ShardOutput> runAllShards(const CampaignSpec& spec, const ShardPlan& plan) {
  const std::string specWire = encodeCampaignSpec(spec);
  const std::string planWire = encodeShardPlan(plan);
  std::vector<ShardOutput> outputs;
  for (int s = 0; s < plan.shardCount(); ++s) {
    clearProcessCaches();
    const CampaignSpec workerSpec = decodeCampaignSpec(specWire);
    const ShardPlan workerPlan = decodeShardPlan(planWire);
    outputs.push_back(
        decodeShardOutput(encodeShardOutput(runShard(workerSpec, workerPlan, s))));
  }
  clearProcessCaches();
  return outputs;
}

// --- the acceptance workload: PR 2 sweep, N in {2, 3, 5} ---------------------

TEST(Shard, MergedSweepIsBitIdenticalToSingleProcessForAnyShardCount) {
  const CampaignSpec spec = builtinCampaignSpec("smoke");
  ASSERT_EQ(8u, spec.items.size()) << "2 IPs x 2 sensor kinds x 2 corners";

  clearProcessCaches();
  const CampaignResult single = runCampaign(spec);
  EXPECT_TRUE(single.ok());

  std::vector<CampaignResult> merged;
  for (const int shards : {2, 3, 5}) {
    const ShardPlan plan = planShards(spec, ShardPlanOptions{shards, 0, {}});
    ASSERT_EQ(shards, plan.shardCount());
    merged.push_back(mergeShards(spec, runAllShards(spec, plan)));
    EXPECT_TRUE(merged.back().ok()) << shards << " shards";
    EXPECT_TRUE(single.sameResults(merged.back())) << shards << " shards vs single";
    EXPECT_EQ(single.items.size(), merged.back().items.size());
  }
  // Every pairing of shard counts agrees too (sameResults is the single
  // comparator, so this is transitivity made explicit).
  for (std::size_t i = 0; i < merged.size(); ++i) {
    for (std::size_t j = i + 1; j < merged.size(); ++j) {
      EXPECT_TRUE(merged[i].sameResults(merged[j])) << i << " vs " << j;
    }
  }
}

// --- mutant-range fragmentation of one oversized item ------------------------

TEST(Shard, OversizedItemSplitsByMutantRangeAndStitchesBack) {
  const CampaignSpec spec = builtinCampaignSpec("single");
  ASSERT_EQ(1u, spec.items.size());
  const std::size_t mutants =
      countFlowMutants(spec.items[0].caseStudy, spec.items[0].options);
  ASSERT_GE(mutants, 3u) << "Counter sets carry a DeltaDelay triple per sensor";

  clearProcessCaches();
  const CampaignResult single = runCampaign(spec);
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(mutants, single.items[0].report.analysis.results.size());

  ShardPlanOptions opt;
  opt.shards = 3;
  opt.maxFragmentMutants = 2;
  const ShardPlan plan = planShards(spec, opt);
  // The one item must actually fragment: every unit is a range, ranges tile
  // [0, mutants) in order.
  std::size_t units = 0, expectBegin = 0;
  for (const auto& shard : plan.shards) {
    for (const auto& u : shard) {
      ++units;
      EXPECT_FALSE(u.wholeItem());
      EXPECT_EQ(0u, u.taskId);
      EXPECT_EQ(expectBegin, u.mutantBegin);
      EXPECT_LE(u.mutantEnd - u.mutantBegin, opt.maxFragmentMutants);
      expectBegin = u.mutantEnd;
    }
  }
  EXPECT_EQ(mutants, expectBegin);
  EXPECT_EQ((mutants + 1) / 2, units);

  const CampaignResult merged = mergeShards(spec, runAllShards(spec, plan));
  EXPECT_TRUE(merged.ok());
  EXPECT_TRUE(single.sameResults(merged));
  // The stitched analysis is the full set with global ids in order.
  ASSERT_EQ(mutants, merged.items[0].report.analysis.results.size());
  EXPECT_EQ(single.items[0].report.analysis.results,
            merged.items[0].report.analysis.results);
}

// --- planner properties ------------------------------------------------------

TEST(Shard, PlannerIsDeterministicContiguousAndComplete) {
  const CampaignSpec spec = builtinCampaignSpec("smoke");
  const ShardPlan a = planShards(spec, ShardPlanOptions{3, 0, {}});
  const ShardPlan b = planShards(spec, ShardPlanOptions{3, 0, {}});
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(encodeShardPlan(a), encodeShardPlan(b));

  // Whole-item planning covers every task id exactly once, in order, with
  // contiguous slices per shard.
  std::size_t expect = 0;
  for (const auto& shard : a.shards) {
    for (const auto& u : shard) {
      EXPECT_TRUE(u.wholeItem());
      EXPECT_EQ(expect++, u.taskId);
    }
  }
  EXPECT_EQ(spec.items.size(), expect);

  // More shards than units: trailing shards are empty, never invalid.
  const ShardPlan wide = planShards(spec, ShardPlanOptions{64, 0, {}});
  std::size_t covered = 0;
  for (const auto& shard : wide.shards) covered += shard.size();
  EXPECT_EQ(spec.items.size(), covered);

  EXPECT_THROW(planShards(spec, ShardPlanOptions{0, 0, {}}), std::invalid_argument);
  EXPECT_THROW(planShards(spec, ShardPlanOptions{2, 0, {1, 2, 3}}), std::invalid_argument);
}

// --- failure propagation across the shard boundary ---------------------------

TEST(Shard, MergeSurfacesTheLowestTaskIdError) {
  // Items 1 and 3 carry a broken case study (no module): each fails inside
  // its shard, the campaign captures the error per item, and the merged
  // result reports the LOWEST task id first — the same failure the
  // single-process run surfaces.
  CampaignSpec spec;
  spec.name = "broken-items";
  for (int i = 0; i < 5; ++i) {
    CampaignItem item;
    item.caseStudy = ips::buildFilterCase();
    item.options.testbenchCycles = 40;
    item.options.measureRtl = false;
    item.options.measureOptimized = false;
    item.options.runMutationAnalysis = false;
    item.label = "item" + std::to_string(i);
    if (i == 1 || i == 3) item.caseStudy.module = nullptr;
    spec.items.push_back(std::move(item));
  }

  clearProcessCaches();
  const CampaignResult single = runCampaign(spec);
  EXPECT_FALSE(single.ok());
  ASSERT_NE(nullptr, single.firstError());
  EXPECT_EQ(1u, single.firstError()->taskId);

  // Shards run on the in-memory spec (not the wire round trip — the codec
  // rebuilds case studies by name, which would heal the broken module).
  const ShardPlan plan = planShards(spec, ShardPlanOptions{3, 0, {}});
  std::vector<ShardOutput> outputs;
  for (int s = 0; s < plan.shardCount(); ++s) {
    clearProcessCaches();
    outputs.push_back(runShard(spec, plan, s));
  }
  const CampaignResult merged = mergeShards(spec, outputs);
  EXPECT_FALSE(merged.ok());
  ASSERT_NE(nullptr, merged.firstError());
  EXPECT_EQ(1u, merged.firstError()->taskId);
  EXPECT_NE(nullptr, std::strstr(merged.firstError()->error.c_str(), "has no module"));
  EXPECT_TRUE(single.sameResults(merged)) << "errors are part of the compared content";
}

// --- merge validation --------------------------------------------------------

TEST(Shard, MergeRejectsIncompleteMismatchedOrDuplicateOutputs) {
  const CampaignSpec spec = builtinCampaignSpec("single");
  const ShardPlan plan = planShards(spec, ShardPlanOptions{2, 0, {}});
  clearProcessCaches();
  std::vector<ShardOutput> outputs = runAllShards(spec, plan);
  ASSERT_EQ(2u, outputs.size());

  // Complete set merges.
  EXPECT_NO_THROW(mergeShards(spec, outputs));

  // A missing shard is incomplete.
  EXPECT_THROW(mergeShards(spec, {outputs[0]}), std::invalid_argument);

  // The same shard twice still leaves shard 1 uncovered: incomplete. (The
  // duplicate itself is tolerated now — see
  // MergeDeduplicatesDoubleSubmittedShardsByFragmentId.)
  EXPECT_THROW(mergeShards(spec, {outputs[0], outputs[0]}), std::invalid_argument);

  // Outputs from a different spec are rejected by fingerprint.
  CampaignSpec other = spec;
  other.name = "renamed";
  EXPECT_THROW(mergeShards(other, outputs), std::invalid_argument);

  // A stale plan (fingerprint mismatch) cannot even start a shard run.
  const ShardPlan stalePlan = planShards(other, ShardPlanOptions{2, 0, {}});
  EXPECT_THROW(runShard(spec, stalePlan, 0), std::invalid_argument);
  EXPECT_THROW(runShard(spec, plan, 7), std::invalid_argument);
}

TEST(Shard, MergeDeduplicatesDoubleSubmittedShardsByFragmentId) {
  const CampaignSpec spec = builtinCampaignSpec("single");
  // Fragmented plan so both shards carry real mutant ranges.
  const ShardPlan plan = planShards(spec, ShardPlanOptions{2, 2, {}});
  clearProcessCaches();
  std::vector<ShardOutput> outputs = runAllShards(spec, plan);
  ASSERT_EQ(2u, outputs.size());
  ASSERT_FALSE(outputs[0].units.empty());
  ASSERT_FALSE(outputs[1].units.empty());

  const CampaignResult once = mergeShards(spec, outputs);

  // A crashed worker's retry can race its dead predecessor's
  // already-delivered result, so the dispatcher may hand the merge the same
  // shard twice. The merge dedups by fragment id and stays bit-identical...
  const CampaignResult twice = mergeShards(spec, {outputs[0], outputs[1], outputs[0]});
  EXPECT_TRUE(once.sameResults(twice));
  EXPECT_EQ(once.items.size(), twice.items.size());

  // ...independent of delivery order (results stream back in completion
  // order, which work stealing does not fix)...
  const CampaignResult shuffled = mergeShards(spec, {outputs[1], outputs[0], outputs[0]});
  EXPECT_TRUE(once.sameResults(shuffled));

  // ...while the duplicated work still lands in the ledgers: that
  // simulation time was truly spent twice.
  EXPECT_GE(twice.simSeconds, once.simSeconds);

  // A duplicate that DISAGREES is spec skew, not a retry: rejected.
  ShardOutput tampered = outputs[0];
  ASSERT_FALSE(tampered.result.items.empty());
  tampered.result.items[0].label += "-skew";
  EXPECT_THROW(mergeShards(spec, {outputs[0], outputs[1], tampered}),
               std::invalid_argument);
}

TEST(Shard, MergeAppliesEachLedgerFieldsRule) {
  // One item in single-mutant fragments over three shards, with every
  // ledger overwritten by known values: each field's merge rule is visible
  // in the result. Fragment f (= its mutantBegin) and shard s carry value
  // (f + 1) resp. (s + 1) times a per-field factor; the max/all/any fields
  // single out fragment 1 and shard 1, so neither first- nor last-wins
  // passes by accident.
  const CampaignSpec spec = builtinCampaignSpec("single");
  const ShardPlan plan = planShards(spec, ShardPlanOptions{3, 1, {}});
  clearProcessCaches();
  std::vector<ShardOutput> outputs = runAllShards(spec, plan);
  ASSERT_EQ(3u, outputs.size());

  std::size_t fragments = 0;
  for (std::size_t s = 0; s < outputs.size(); ++s) {
    CampaignResult& r = outputs[s].result;
    ASSERT_FALSE(r.items.empty()) << "shard " << s;
    const int k = static_cast<int>(s) + 1;
    r.simSeconds = 1.0 * k;
    r.goldenSeconds = 2.0 * k;
    r.goldenCacheHits = 3 * k;
    r.prefixCacheHits = 4 * k;
    r.mutantCacheHits = 5 * k;
    r.diskHits = 6 * k;
    r.diskStores = 7 * k;
    r.diskEvictions = 8 * k;
    r.cyclesSimulated = 9u * k;
    r.cyclesSkipped = 10u * k;
    r.nativeCompiles = 11 * k;
    r.nativeCacheHits = 12 * k;
    r.batchedMutants = 13 * k;
    r.wallSeconds = s == 1 ? 9.0 : 1.0;
    r.threadsUsed = s == 1 ? 9 : 2;
    for (std::size_t i = 0; i < r.items.size(); ++i) {
      const std::size_t f = outputs[s].units[i].mutantBegin;
      const int v = static_cast<int>(f) + 1;
      ++fragments;
      CampaignItemResult& it = r.items[i];
      it.taskSeconds = f == 1 ? 9.0 : 1.0;
      it.goldenSeconds = 1.0 * v;
      it.goldenFromCache = f != 1;
      it.prefixShared = f == 1;
      analysis::AnalysisReport& a = it.report.analysis;
      a.cyclesPerRun = 100 + f;
      a.cyclesSimulated = 1u * v;
      a.cyclesSkipped = 2u * v;
      a.simSeconds = 3.0 * v;
      a.wallSeconds = f == 1 ? 9.0 : 1.0;
      a.goldenSeconds = 4.0 * v;
      a.goldenFromCache = f != 1;
      a.goldenFromDisk = f != 2;
      a.mutantCacheHits = 5 * v;
      a.threadsUsed = f == 1 ? 9 : 2;
      a.nativeCompiles = 6 * v;
      a.nativeCacheHits = 7 * v;
      a.batchedMutants = 8 * v;
    }
  }
  ASSERT_GE(fragments, 3u);

  const CampaignResult merged = mergeShards(spec, outputs);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(1u, merged.items.size());
  // Campaign ledger: sums over the three shards (1 + 2 + 3 = 6 times the
  // factor), elapsed maxima from shard 1.
  EXPECT_EQ(6.0, merged.simSeconds);
  EXPECT_EQ(12.0, merged.goldenSeconds);
  EXPECT_EQ(18, merged.goldenCacheHits);
  EXPECT_EQ(24, merged.prefixCacheHits);
  EXPECT_EQ(30, merged.mutantCacheHits);
  EXPECT_EQ(36, merged.diskHits);
  EXPECT_EQ(42, merged.diskStores);
  EXPECT_EQ(48, merged.diskEvictions);
  EXPECT_EQ(54u, merged.cyclesSimulated);
  EXPECT_EQ(60u, merged.cyclesSkipped);
  EXPECT_EQ(66, merged.nativeCompiles);
  EXPECT_EQ(72, merged.nativeCacheHits);
  EXPECT_EQ(78, merged.batchedMutants);
  EXPECT_EQ(9.0, merged.wallSeconds);
  EXPECT_EQ(9, merged.threadsUsed);

  // Item and analysis ledgers: sums over the fragments (1 + ... + N times
  // the factor), maxima from fragment 1, all-true broken by one fragment,
  // any-true set by one, cyclesPerRun from fragment 0.
  const int tri = static_cast<int>(fragments * (fragments + 1) / 2);
  const CampaignItemResult& it = merged.items[0];
  EXPECT_EQ(9.0, it.taskSeconds);
  EXPECT_EQ(1.0 * tri, it.goldenSeconds);
  EXPECT_FALSE(it.goldenFromCache);
  EXPECT_TRUE(it.prefixShared);
  const analysis::AnalysisReport& a = it.report.analysis;
  EXPECT_EQ(100u, a.cyclesPerRun);
  EXPECT_EQ(1u * tri, a.cyclesSimulated);
  EXPECT_EQ(2u * tri, a.cyclesSkipped);
  EXPECT_EQ(3.0 * tri, a.simSeconds);
  EXPECT_EQ(9.0, a.wallSeconds);
  EXPECT_EQ(4.0 * tri, a.goldenSeconds);
  EXPECT_FALSE(a.goldenFromCache);
  EXPECT_FALSE(a.goldenFromDisk);
  EXPECT_EQ(5 * tri, a.mutantCacheHits);
  EXPECT_EQ(9, a.threadsUsed);
  EXPECT_EQ(6 * tri, a.nativeCompiles);
  EXPECT_EQ(7 * tri, a.nativeCacheHits);
  EXPECT_EQ(8 * tri, a.batchedMutants);
}

TEST(Shard, RunShardUnitsMatchesRunShardOnThePlannedUnits) {
  const CampaignSpec spec = builtinCampaignSpec("single");
  const ShardPlan plan = planShards(spec, ShardPlanOptions{2, 2, {}});
  clearProcessCaches();
  const ShardOutput viaPlan = runShard(spec, plan, 0);
  clearProcessCaches();
  // The dispatcher path: same units, no plan validation wrapper.
  const ShardOutput direct = runShardUnits(spec, plan.shards[0], 0, 2);
  clearProcessCaches();
  EXPECT_EQ(viaPlan.units, direct.units);
  EXPECT_EQ(viaPlan.shardIndex, direct.shardIndex);
  EXPECT_EQ(viaPlan.shardCount, direct.shardCount);
  EXPECT_TRUE(viaPlan.result.sameResults(direct.result));
}

TEST(Shard, PlanDispatchUnitsUnderpinsPlanShards) {
  const CampaignSpec spec = builtinCampaignSpec("single");
  const DispatchUnitPlan units = planDispatchUnits(spec, 2);
  ASSERT_EQ(units.units.size(), units.weights.size());
  ASSERT_GT(units.units.size(), 1u) << "fragmentation requested but not applied";
  EXPECT_EQ(units.specFnv, campaignSpecFnv(spec));
  for (const std::uint64_t w : units.weights) EXPECT_GE(w, 1u);
  // planShards is exactly a contiguous partition of this unit list.
  const ShardPlan plan = planShards(spec, ShardPlanOptions{3, 2, {}});
  std::vector<ShardUnit> flattened;
  for (const auto& shard : plan.shards) {
    flattened.insert(flattened.end(), shard.begin(), shard.end());
  }
  EXPECT_EQ(flattened, units.units);
  // Explicit per-item counts skip the probe; a size mismatch is rejected.
  const DispatchUnitPlan counted = planDispatchUnits(spec, 2, {4});
  EXPECT_EQ(counted.units.size(), 2u);
  EXPECT_THROW(planDispatchUnits(spec, 2, {4, 4}), std::invalid_argument);
}

}  // namespace
}  // namespace xlv::campaign
