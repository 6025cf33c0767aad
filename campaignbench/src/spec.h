// Seeded campaign specs for the benchmark workloads.
//
// Every workload runs the paper's experiment matrix: the four case studies
// (Plasma, DSP, Filter, Handshake) x both monitor kinds (Razor, Counter) x
// two STA corners drawn from the seed — 16 items. The seed moves the
// corners' derates, which moves the STA binning, the inserted monitors and
// so the mutant set, while keeping its size close to the standard-corner
// matrix. The tools only ever receive the generated spec file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "sta/tech_library.h"

namespace campaignbench {

/// Two corners from the seed: a near-nominal V-f operating point and a
/// slow-side process/voltage/temperature corner.
std::vector<xlv::sta::Corner> seededCorners(std::uint64_t seed);

/// The 16-item paper matrix at the given testbench length. Golden-trace,
/// prefix and per-mutant caches are on (so a --cache-dir run persists what
/// a warm re-run reads back); the RTL/TLM timing probes are off.
///
/// Items run one after another and each item's mutation analysis runs on
/// `analysisThreads` threads. The item-parallel layout is not used: the
/// monitor-module caches of sensors::buildRazor and
/// sensors::buildCounterMonitor are unsynchronised, and concurrent
/// insertion crashes or hangs a few percent of tool processes (README.md,
/// "Known failures").
xlv::campaign::CampaignSpec paperMatrixSpec(std::uint64_t seed, std::uint64_t cycles,
                                            int analysisThreads = 1);

/// The items of `matrix` whose case study is `caseName`, in matrix order.
xlv::campaign::CampaignSpec caseSubsetSpec(const xlv::campaign::CampaignSpec& matrix,
                                           const std::string& caseName);

/// A one-item campaign holding item `index` of `matrix`.
xlv::campaign::CampaignSpec singleItemSpec(const xlv::campaign::CampaignSpec& matrix,
                                           std::size_t index);

/// The verdict counts a campaign result must repeat exactly across runs,
/// processes and backends.
struct ExactCounts {
  std::uint64_t items = 0;
  std::uint64_t mutants = 0;
  std::uint64_t killed = 0;
  std::uint64_t risen = 0;
  std::uint64_t cyclesSimulated = 0;
  std::uint64_t cyclesSkipped = 0;
  bool operator==(const ExactCounts&) const = default;
};
ExactCounts exactCounts(const xlv::campaign::CampaignResult& result);

}  // namespace campaignbench
