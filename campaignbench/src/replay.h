// In-process replay of one campaign for the traced benchmark run.
//
// replayCampaign executes a spec the way `xlv_campaign run` does — fresh
// process caches, the optional artifact store, the items on the campaign
// executor, the stage prefix through the prefix cache/store, then
// abstraction, injection, timings and mutation analysis — but calls the
// layers' public functions itself, with a span around each call:
//
//   campaign                      one replayed campaign
//     campaign.item               one item, on an executor thread
//       core.elaborate            stageElaborate, or the prefix-store
//                                 decode that re-elaborates on a hit
//       core.insertion            stageInsertion
//       core.abstraction / core.injection / core.timings
//       core.analysis             the whole analysis stage:
//         native.compile          getNativeLibrary for the golden and the
//                                 injected layout (native backend only)
//         analysis.golden         recordGoldenTrace through the golden
//                                 cache and store
//         analysis.mutant_sim     stageAnalysis, which then finds the
//                                 golden trace and the native library warm
//     serialize.result_encode / serialize.result_decode
//
// The result is assembled and its ledgers summed exactly as runCampaign
// does, so it must be sameResults-identical to the tool's.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "campaign/campaign.h"
#include "trace.h"
#include "util/artifact_store.h"

namespace campaignbench {

struct ReplayOutcome {
  xlv::campaign::CampaignResult result;
  /// decodeCampaignResult(encodeCampaignResult(result)).
  xlv::campaign::CampaignResult decoded;
  std::size_t resultBytes = 0;
  /// Native-library ledger of the native.compile spans: in the tool these
  /// acquisitions happen inside the analysis, which in the replay then hits
  /// the in-process cache (its own ledger is not counted again).
  int nativeCompiles = 0;
  int nativeCacheHits = 0;
};

/// A defect of the replay itself (not of the campaign it replays).
struct ReplayDefect : std::logic_error {
  using std::logic_error::logic_error;
};

/// Replay `spec` as one fresh `xlv_campaign run` process would: every
/// in-memory cache cleared first, `store` (when set) installed as the
/// process artifact store for the campaign and removed afterwards. Spans go
/// to `tracer` under campaign id `campaignId`. Throws ReplayDefect when the
/// replay's golden warm-up did not land on the analysis' cache key, which
/// would otherwise distort the layer split.
ReplayOutcome replayCampaign(const xlv::campaign::CampaignSpec& spec,
                             const std::optional<xlv::util::ArtifactStoreConfig>& store,
                             Tracer& tracer, std::uint64_t campaignId);

}  // namespace campaignbench
