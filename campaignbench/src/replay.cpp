#include "replay.h"

#include <mutex>

#include "abstraction/native_backend.h"
#include "analysis/golden_cache.h"
#include "campaign/serialize.h"
#include "core/flow.h"
#include "util/timer.h"

namespace campaignbench {

using namespace xlv;
using Scope = Tracer::Scope;

namespace {

/// The analysis configuration core::stageAnalysis derives from the options.
analysis::AnalysisConfig analysisConfig(const core::FlowOptions& opts,
                                        const core::FlowReport& report) {
  analysis::AnalysisConfig acfg;
  acfg.hfRatio = report.hfRatio;
  acfg.sensorKind = opts.sensorKind;
  acfg.threads = opts.analysisThreads;
  acfg.useGoldenCache = opts.useGoldenCache;
  acfg.useMutantCache = opts.useMutantCache;
  acfg.mutantBegin = opts.mutantBegin;
  acfg.mutantEnd = opts.mutantEnd;
  acfg.backend = opts.backend;
  acfg.batch = opts.batch;
  return acfg;
}

struct NativeLedger {
  std::mutex mutex;
  abstraction::NativeUseStats stats;
  void add(const abstraction::NativeUseStats& s) {
    std::lock_guard<std::mutex> lock(mutex);
    stats.compiles += s.compiles;
    stats.cacheHits += s.cacheHits;
  }
};

/// The analysis stage, split at the layer calls it makes.
void replayAnalysis(const ips::CaseStudy& cs, const core::FlowOptions& opts,
                    core::FlowReport& report, Tracer& tracer, NativeLedger& native,
                    campaign::CampaignItemResult& out) {
  Scope analysisSpan(tracer, "core.analysis");
  const analysis::AnalysisConfig acfg = analysisConfig(opts, report);
  analysis::Testbench tb = cs.testbench;
  tb.cycles = core::flowCycles(cs, opts);
  abstraction::NativeUseStats stats;
  if (analysis::resolveSimBackend(opts.backend) == analysis::SimBackend::Native) {
    Scope s(tracer, "native.compile");
    const abstraction::TlmModelConfig mcfg{acfg.hfRatio, false};
    abstraction::getNativeLibrary(*abstraction::buildTlmModelLayout(report.augmentedDesign, mcfg),
                                  true, &stats);
    abstraction::getNativeLibrary(
        *abstraction::buildTlmModelLayout(report.injected.design, mcfg, report.injected.mutants),
        true, &stats);
  }
  if (opts.useGoldenCache) {
    Scope s(tracer, "analysis.golden");
    util::Timer t;
    bool hit = false;
    const std::string key = analysis::goldenTraceKey(report.augmentedDesign, report.sensors,
                                                     tb, acfg, "4s");
    util::getOrBuildWithStore<analysis::GoldenTrace>(
        analysis::goldenTraceCache(), util::processArtifactStore(), "golden", key,
        [&] {
          // The library was acquired (and counted) under native.compile.
          return analysis::recordGoldenTrace<hdt::FourState>(report.augmentedDesign,
                                                             report.sensors, tb, acfg);
        },
        analysis::encodeGoldenTrace, analysis::decodeGoldenTrace, &hit);
    out.goldenFromCache = hit;
    out.goldenSeconds = hit ? 0.0 : t.seconds();
  }
  native.add(stats);
  {
    Scope s(tracer, "analysis.mutant_sim");
    core::stageAnalysis(cs, opts, report);
  }
  if (opts.useGoldenCache && !report.analysis.goldenFromCache) {
    throw ReplayDefect("replay: the golden warm-up missed the analysis' cache key");
  }
}

void replayItem(const campaign::CampaignItem& item, std::size_t index, Tracer& tracer,
                std::uint64_t parent, std::uint64_t campaignId, NativeLedger& native,
                campaign::CampaignItemResult& out) {
  Scope itemSpan(tracer, "campaign.item", parent, campaignId);
  const ips::CaseStudy& cs = item.caseStudy;
  const core::FlowOptions& opts = item.options;
  out.taskId = index;
  out.label = item.label.empty()
                  ? cs.name + "/" + insertion::sensorKindName(opts.sensorKind)
                  : item.label;
  util::Timer t;
  try {
    core::FlowReport report;
    auto elaborateAndInsert = [&](core::FlowReport& r) {
      {
        Scope s(tracer, "core.elaborate");
        core::stageElaborate(cs, opts, r);
      }
      Scope s(tracer, "core.insertion");
      core::stageInsertion(cs, opts, r);
    };
    if (!item.prefixKey.empty()) {
      bool memHit = false, diskHit = false;
      const core::FlowPrefixPtr prefix = util::getOrBuildWithStore<core::FlowPrefix>(
          core::flowPrefixCache(), util::processArtifactStore(), "prefix", item.prefixKey,
          [&] {
            core::FlowPrefix p;
            elaborateAndInsert(p.report);
            return p;
          },
          campaign::encodeFlowPrefix,
          [&](std::string_view data) {
            Scope s(tracer, "core.elaborate");
            return campaign::decodeFlowPrefix(data, cs, opts);
          },
          &memHit, &diskHit);
      out.prefixShared = memHit || diskHit;
      report = prefix->report;
      report.hfRatio = core::flowHfRatio(cs, opts);
    } else {
      elaborateAndInsert(report);
    }
    {
      Scope s(tracer, "core.abstraction");
      core::stageAbstraction(report);
    }
    {
      Scope s(tracer, "core.injection");
      core::stageInjection(cs, opts, report);
    }
    {
      Scope s(tracer, "core.timings");
      core::stageTimings(cs, opts, report);
    }
    if (opts.runMutationAnalysis) replayAnalysis(cs, opts, report, tracer, native, out);
    out.report = std::move(report);
  } catch (const ReplayDefect&) {
    throw;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.taskSeconds = t.seconds();
}

}  // namespace

ReplayOutcome replayCampaign(const campaign::CampaignSpec& spec,
                             const std::optional<util::ArtifactStoreConfig>& store,
                             Tracer& tracer, std::uint64_t campaignId) {
  core::clearProcessCaches();
  util::configureProcessArtifactStore(store);
  struct StoreReset {
    ~StoreReset() { util::configureProcessArtifactStore(std::nullopt); }
  } storeReset;

  ReplayOutcome out;
  campaign::CampaignResult& result = out.result;
  Scope campaignSpan(tracer, "campaign", 0, campaignId);
  util::Timer wall;
  result.name = spec.name;
  result.items.resize(spec.items.size());
  util::ArtifactStore* st = util::processArtifactStore();
  const util::ArtifactStoreStats before = st != nullptr ? st->stats() : util::ArtifactStoreStats{};

  NativeLedger native;
  const campaign::Executor executor(spec.executor);
  result.threadsUsed = executor.effectiveThreads(spec.items.size());
  executor.run(spec.items.size(), [&](std::size_t i) {
    replayItem(spec.items[i], i, tracer, campaignSpan.id(), campaignId, native,
               result.items[i]);
  });

  // The ledger sums of campaign::runCampaign.
  for (const auto& it : result.items) {
    const auto& a = it.report.analysis;
    result.simSeconds += it.taskSeconds;
    if (a.simSeconds > a.wallSeconds) result.simSeconds += a.simSeconds - a.wallSeconds;
    result.goldenSeconds += it.goldenSeconds;
    result.goldenCacheHits += it.goldenFromCache ? 1 : 0;
    result.prefixCacheHits += it.prefixShared ? 1 : 0;
    result.mutantCacheHits += a.mutantCacheHits;
    result.cyclesSimulated += a.cyclesSimulated;
    result.cyclesSkipped += a.cyclesSkipped;
    result.batchedMutants += a.batchedMutants;
  }
  result.nativeCompiles = out.nativeCompiles = native.stats.compiles;
  result.nativeCacheHits = out.nativeCacheHits = native.stats.cacheHits;
  if (st != nullptr) {
    const util::ArtifactStoreStats after = st->stats();
    result.diskHits = static_cast<int>(after.hits - before.hits);
    result.diskStores = static_cast<int>(after.stores - before.stores);
    result.diskEvictions = static_cast<int>(after.evictions - before.evictions);
  }
  result.wallSeconds = wall.seconds();

  std::string bytes;
  {
    Scope s(tracer, "serialize.result_encode");
    bytes = campaign::encodeCampaignResult(result);
  }
  {
    Scope s(tracer, "serialize.result_decode");
    out.decoded = campaign::decodeCampaignResult(bytes);
  }
  out.resultBytes = bytes.size();
  return out;
}

}  // namespace campaignbench
