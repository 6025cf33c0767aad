// Process-level campaign sharding (the ROADMAP's multi-host scaling step).
//
// PR 1-2 parallelized a campaign within one process; this layer splits a
// CampaignSpec into N deterministic shards that run in separate processes
// (tools/xlv_campaign) and merges their outputs back into one CampaignResult
// that is bit-identical (CampaignResult::sameResults) to the single-process
// run. Three pieces:
//
//   * planner  — planShards() partitions the spec's task-id space into N
//     contiguous, weight-balanced slices. Units are whole items by default;
//     an item whose mutant count exceeds maxFragmentMutants is split into
//     MUTANT-RANGE FRAGMENTS (FlowOptions::mutantBegin/End): every fragment
//     re-runs the cheap flow prefix but analyzes only its mutant slice, with
//     global MutantResult ids, so one oversized item can span shards.
//   * runner   — runShard() executes one shard's units as an ordinary
//     in-process campaign (thread pool, caches and merge rule unchanged)
//     and tags every result with its GLOBAL task id.
//   * merger   — mergeShards() reassembles the outputs: whole items land in
//     task-id order, fragments of one item are stitched back by
//     concatenating their analysis subranges, ledgers (simSeconds /
//     goldenSeconds / wallSeconds / cache hits) are aggregated per shard,
//     and the first failure surfaced is the lowest-task-id one — exactly
//     the single-process semantics.
//
// Integrity: plans and shard outputs carry the FNV-1a fingerprint of the
// canonical spec encoding (campaign/serialize.h), so a plan or output from a
// different spec — or a different schema version — is rejected instead of
// silently merged.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.h"

namespace xlv::campaign {

/// One schedulable unit of a shard: a whole campaign item, or a mutant-range
/// fragment of one.
struct ShardUnit {
  std::size_t taskId = 0;  ///< index of the item in the full spec
  /// Fragment range [mutantBegin, mutantEnd) of the item's (variant-sliced)
  /// mutant set; 0/0 = the whole item.
  std::size_t mutantBegin = 0;
  std::size_t mutantEnd = 0;

  bool wholeItem() const noexcept { return mutantBegin == 0 && mutantEnd == 0; }
  bool operator==(const ShardUnit&) const = default;
};

struct ShardPlan {
  std::uint64_t specFnv = 0;   ///< fingerprint of encodeCampaignSpec(spec)
  std::size_t specItems = 0;   ///< item count the plan was built for
  std::vector<std::vector<ShardUnit>> shards;  ///< units in global task-id order

  int shardCount() const noexcept { return static_cast<int>(shards.size()); }
};

struct ShardPlanOptions {
  int shards = 1;
  /// When > 0, any item with more mutants than this is split into fragments
  /// of at most this many mutants (counts come from `mutantCounts`, or are
  /// probed via countFlowMutants when that is empty). 0 = never split items.
  std::size_t maxFragmentMutants = 0;
  /// Optional per-item mutant counts (size must equal the spec's item count
  /// when non-empty). Counts also weight the balance: an item or fragment
  /// contributes max(count, 1) units of weight.
  std::vector<std::size_t> mutantCounts;
};

/// Mutants the item's analysis stage will schedule: elaborate + insertion +
/// mutant-set generation/slicing, no simulation. Used by the planner to
/// split and balance; deterministic for a given (cs, opts).
std::size_t countFlowMutants(const ips::CaseStudy& cs, const core::FlowOptions& opts);

/// The flat stealable-unit plan underneath planShards, exposed for the
/// campaign server (campaign/server.h): every unit in global task-id
/// order (fragments of one item in range order) with the planner's weights,
/// so a work-stealing scheduler can order its queue heaviest-first instead
/// of balancing statically.
struct DispatchUnitPlan {
  std::uint64_t specFnv = 0;
  std::vector<ShardUnit> units;
  std::vector<std::uint64_t> weights;  ///< parallel to units; >= 1 each
};

/// Build the unit list: items split into mutant-range fragments of at most
/// maxFragmentMutants (0 = never split), weighted by mutant count. Counts
/// come from `mutantCounts` when non-empty (size must match the spec's item
/// count, else std::invalid_argument), otherwise via countFlowMutants when
/// fragmentation is requested.
DispatchUnitPlan planDispatchUnits(const CampaignSpec& spec,
                                   std::size_t maxFragmentMutants,
                                   const std::vector<std::size_t>& mutantCounts = {});

/// Deterministically partition the spec into opt.shards contiguous,
/// weight-balanced unit slices. Throws std::invalid_argument on a malformed
/// request (shards < 1, mutantCounts size mismatch).
ShardPlan planShards(const CampaignSpec& spec, const ShardPlanOptions& opt);

/// One shard's execution record: an ordinary CampaignResult whose items are
/// the shard's units (taskIds global, shard-local order) plus the plan
/// coordinates needed to validate a merge.
struct ShardOutput {
  std::uint64_t specFnv = 0;
  int shardIndex = -1;
  int shardCount = 0;
  std::vector<ShardUnit> units;  ///< parallel to result.items
  CampaignResult result;
};

/// Execute shard `shardIndex` of the plan in this process. Throws
/// std::invalid_argument when the plan does not match the spec (fingerprint
/// or item count) or the index is out of range.
ShardOutput runShard(const CampaignSpec& spec, const ShardPlan& plan, int shardIndex);

/// Execute an arbitrary unit list as shard `shardIndex` of `shardCount` in
/// this process, tagging every result with its GLOBAL task id. runShard is
/// a plan-validated wrapper; the campaign worker calls this directly with
/// one stealable unit per task (shardIndex = task index, shardCount = task
/// count, so each streamed result is a mergeable one-unit ShardOutput).
ShardOutput runShardUnits(const CampaignSpec& spec, const std::vector<ShardUnit>& units,
                          int shardIndex, int shardCount);

/// Merge shard outputs back into one CampaignResult bit-identical
/// (sameResults) to runCampaign(spec). Every shard index of the plan must
/// be covered; validates fingerprints, coverage (every task id covered,
/// fragment ranges contiguous from 0) and fragment report sizes, throwing
/// std::invalid_argument with a diagnostic otherwise.
///
/// Retry tolerance: a double-submitted shard or fragment (the server
/// re-queues work lost to a crashed worker, and a retry can race its dead
/// predecessor's already-delivered result) is deduplicated by fragment id —
/// (taskId, mutantBegin, mutantEnd) — keeping the copy from the
/// lowest-indexed shard. Duplicates must agree on label, error and
/// per-mutant results (retries are bit-identical by construction; a
/// disagreement means spec skew and fails the merge). Deduplicated copies
/// still contribute to the work ledgers: the simulation time was truly
/// spent twice.
CampaignResult mergeShards(const CampaignSpec& spec, const std::vector<ShardOutput>& outputs);

// --- wire format (util/codec.h; versioned with kCampaignCodecVersion) -------
std::string encodeShardPlan(const ShardPlan& plan);
ShardPlan decodeShardPlan(std::string_view data);
std::string encodeShardOutput(const ShardOutput& output);
ShardOutput decodeShardOutput(std::string_view data);

/// Canonical spec fingerprint: util::fnv1a64 over encodeCampaignSpec(spec).
std::uint64_t campaignSpecFnv(const CampaignSpec& spec);

/// Built-in specs shared by tools/xlv_campaign, bench/campaign_shard and CI:
///   "smoke"  — the PR 2 acceptance sweep: 2 IPs (Filter, DSP) x 2 sensor
///              kinds x 2 STA corners, quick cycle budget (8 items);
///   "single" — one Filter/Counter item with a full mutant set (the
///              mutant-range fragmentation demo).
/// Throws std::invalid_argument on an unknown name.
CampaignSpec builtinCampaignSpec(const std::string& preset);
std::vector<std::string> builtinCampaignSpecNames();

}  // namespace xlv::campaign
