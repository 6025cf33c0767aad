#include "campaign/campaign.h"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "campaign/serialize.h"
#include "util/artifact_store.h"
#include "util/log.h"
#include "util/timer.h"

namespace xlv::campaign {

bool CampaignResult::ok() const noexcept {
  for (const auto& it : items) {
    if (!it.error.empty()) return false;
  }
  return true;
}

int campaignExitCode(const CampaignResult& result) noexcept { return result.ok() ? 0 : 3; }

const CampaignItemResult* CampaignResult::firstError() const noexcept {
  const CampaignItemResult* first = nullptr;
  for (const auto& it : items) {
    if (it.error.empty()) continue;
    if (first == nullptr || it.taskId < first->taskId) first = &it;
  }
  return first;
}

const CampaignItemResult* CampaignResult::find(const std::string& label) const noexcept {
  for (const auto& it : items) {
    if (it.label == label) return &it;
  }
  return nullptr;
}

bool CampaignItemResult::sameResults(const CampaignItemResult& other) const noexcept {
  const auto& rx = report;
  const auto& ry = other.report;
  return label == other.label && error == other.error && rx.ipName == ry.ipName &&
         rx.sensorKind == ry.sensorKind && rx.hfRatio == ry.hfRatio &&
         rx.sensors.size() == ry.sensors.size() &&
         rx.skippedEndpoints == ry.skippedEndpoints &&
         rx.sensorAreaGates == ry.sensorAreaGates &&
         rx.sta.criticalCount == ry.sta.criticalCount &&
         rx.sta.thresholdPs == ry.sta.thresholdPs && rx.loc.rtlClean == ry.loc.rtlClean &&
         rx.loc.rtlAugmented == ry.loc.rtlAugmented && rx.loc.tlm == ry.loc.tlm &&
         rx.loc.tlmInjected == ry.loc.tlmInjected && rx.mutantSpecs == ry.mutantSpecs &&
         rx.analysis.sameResults(ry.analysis);
}

bool CampaignResult::sameResults(const CampaignResult& other) const noexcept {
  return std::equal(items.begin(), items.end(), other.items.begin(), other.items.end(),
                    [](const auto& x, const auto& y) { return x.sameResults(y); });
}

namespace {

std::string defaultLabel(const CampaignItem& item) {
  return item.caseStudy.name + "/" + insertion::sensorKindName(item.options.sensorKind);
}

}  // namespace

CampaignResult runCampaign(const CampaignSpec& spec) {
  util::Timer wall;
  CampaignResult result;
  result.name = spec.name;
  result.items.resize(spec.items.size());

  // Artifact-store traffic is attributed by stats delta around this run
  // (one campaign per process in the sharded flow; concurrent campaigns in
  // one process would share the attribution, which only skews the ledger,
  // never the results).
  util::ArtifactStore* store = util::processArtifactStore();
  const util::ArtifactStoreStats storeBefore =
      store != nullptr ? store->stats() : util::ArtifactStoreStats{};

  Executor executor(spec.executor);
  result.threadsUsed = executor.effectiveThreads(spec.items.size());
  XLV_INFO("campaign") << "'" << spec.name << "': " << spec.items.size() << " items on "
                       << result.threadsUsed << " threads";

  // Pass 1: every stage before the analysis (prefix, abstraction,
  // injection, timings).
  executor.run(spec.items.size(), [&](std::size_t i) {
    const CampaignItem& item = spec.items[i];
    CampaignItemResult& out = result.items[i];
    out.taskId = i;
    out.label = item.label.empty() ? defaultLabel(item) : item.label;
    core::FlowOptions opts = item.options;
    opts.runMutationAnalysis = false;
    util::Timer t;
    try {
      if (!item.prefixKey.empty()) {
        // Memory first, then the artifact store (the elaborate+insertion
        // spill: a warm process reloads the STA report and re-derives the
        // designs deterministically), then a full build written through.
        // Both layers count as "shared": the STA work was not repeated.
        bool memHit = false, diskHit = false;
        const core::FlowPrefixPtr prefix = util::getOrBuildWithStore<core::FlowPrefix>(
            core::flowPrefixCache(), util::processArtifactStore(), "prefix",
            item.prefixKey,
            [&] { return core::buildFlowPrefix(item.caseStudy, item.options); },
            encodeFlowPrefix,
            [&](std::string_view data) {
              return decodeFlowPrefix(data, item.caseStudy, item.options);
            },
            &memHit, &diskHit);
        out.prefixShared = memHit || diskHit;
        out.report = core::runFlowWithPrefix(*prefix, item.caseStudy, opts);
      } else {
        out.report = core::runFlow(item.caseStudy, opts);
      }
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown error";
    }
    out.taskSeconds = t.seconds();
  });

  // Compile-ahead: every native library pass 2 will ask for, built side by
  // side (the OnceCache folds items that share an injected design into one
  // build). Counts nothing itself: the analysis that receives a library
  // charges its compile or cache hit. Its elapsed time goes into simSeconds
  // below, since the items' task times no longer contain the compiles.
  // Failures are left to the analysis, which meets them again and reports
  // them per item. No pool starts unless some item runs natively: thread
  // start-up is a measurable share of a small interpreter campaign.
  std::vector<std::size_t> nativeItems;
  for (std::size_t i = 0; i < spec.items.size(); ++i) {
    const core::FlowOptions& opts = spec.items[i].options;
    try {
      if (result.items[i].error.empty() && opts.runMutationAnalysis &&
          analysis::resolveSimBackend(opts.backend) == analysis::SimBackend::Native) {
        nativeItems.push_back(i);
      }
    } catch (const std::invalid_argument&) {
      // A malformed XLV_BACKEND fails each item's analysis with this error.
    }
  }
  double compileAheadSeconds = 0.0;
  if (!nativeItems.empty()) {
    util::Timer t;
    Executor().run(nativeItems.size(), [&](std::size_t k) {
      const std::size_t i = nativeItems[k];
      try {
        core::stageCompileAhead(spec.items[i].options, result.items[i].report);
      } catch (...) {
      }
    });
    compileAheadSeconds = t.seconds();
  }

  // Pass 2: the mutation analysis of every item that got this far.
  executor.run(spec.items.size(), [&](std::size_t i) {
    const CampaignItem& item = spec.items[i];
    CampaignItemResult& out = result.items[i];
    if (!out.error.empty() || !item.options.runMutationAnalysis) return;
    util::Timer t;
    try {
      core::stageAnalysis(item.caseStudy, item.options, out.report);
      out.goldenSeconds = out.report.analysis.goldenSeconds;
      out.goldenFromCache = out.report.analysis.goldenFromCache;
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown error";
    }
    // An errored item carries no report, whichever pass failed.
    if (!out.error.empty()) out.report = core::FlowReport{};
    out.taskSeconds += t.seconds();
  });

  result.simSeconds = compileAheadSeconds;
  for (const auto& it : result.items) {
    // Task time already contains the item's analysis wall time; add the
    // work a parallel inner analysis did beyond its elapsed time so
    // simSeconds stays "total simulation work" (golden recording included
    // exactly once per actual recording).
    result.simSeconds += it.taskSeconds;
    const auto& a = it.report.analysis;
    if (a.simSeconds > a.wallSeconds) result.simSeconds += a.simSeconds - a.wallSeconds;
    result.goldenSeconds += it.goldenSeconds;
    result.goldenCacheHits += it.goldenFromCache ? 1 : 0;
    result.prefixCacheHits += it.prefixShared ? 1 : 0;
    result.mutantCacheHits += a.mutantCacheHits;
    result.cyclesSimulated += a.cyclesSimulated;
    result.cyclesSkipped += a.cyclesSkipped;
    result.nativeCompiles += a.nativeCompiles;
    result.nativeCacheHits += a.nativeCacheHits;
    result.batchedMutants += a.batchedMutants;
  }
  if (store != nullptr) {
    const util::ArtifactStoreStats after = store->stats();
    result.diskHits = static_cast<int>(after.hits - storeBefore.hits);
    result.diskStores = static_cast<int>(after.stores - storeBefore.stores);
    result.diskEvictions = static_cast<int>(after.evictions - storeBefore.evictions);
  }
  result.wallSeconds = wall.seconds();
  return result;
}

CampaignSpec fullMatrixCampaign(const std::vector<ips::CaseStudy>& cases,
                                const core::FlowOptions& base, ExecutorConfig exec) {
  CampaignSpec spec;
  spec.name = "full-matrix";
  spec.executor = exec;
  const bool outerParallel = resolveThreadCount(exec.threads) > 1;
  for (const auto& cs : cases) {
    for (auto kind : {insertion::SensorKind::Razor, insertion::SensorKind::Counter}) {
      CampaignItem item;
      item.caseStudy = cs;
      item.options = base;
      item.options.sensorKind = kind;
      if (outerParallel) item.options.analysisThreads = 1;
      spec.items.push_back(std::move(item));
    }
  }
  return spec;
}

}  // namespace xlv::campaign
