#include "spec.h"

#include <cstdio>

#include "campaign/sweep.h"
#include "ips/case_study.h"
#include "util/prng.h"

namespace campaignbench {

using namespace xlv;

std::vector<sta::Corner> seededCorners(std::uint64_t seed) {
  util::Prng rng(seed);
  // Near nominal: supply within +-5% of the library's 1.05 V.
  const double vdd = 1.00 + 0.10 * rng.uniform();
  sta::Corner nominal = sta::Corner::atOperatingPoint(vdd);
  // Slow side: each factor jittered around sta::Corner::slow().
  sta::Corner slow;
  slow.processFactor = 1.08 + 0.08 * rng.uniform();
  slow.voltageFactor = 1.04 + 0.08 * rng.uniform();
  slow.temperatureFactor = 1.03 + 0.06 * rng.uniform();
  char name[64];
  std::snprintf(name, sizeof(name), "ss_p%.3f_v%.3f_t%.3f", slow.processFactor,
                slow.voltageFactor, slow.temperatureFactor);
  slow.name = name;
  return {nominal, slow};
}

campaign::CampaignSpec paperMatrixSpec(std::uint64_t seed, std::uint64_t cycles,
                                       int analysisThreads) {
  campaign::SweepSpec sweep;
  char name[64];
  std::snprintf(name, sizeof(name), "paper-matrix-s%llu-c%llu",
                static_cast<unsigned long long>(seed), static_cast<unsigned long long>(cycles));
  sweep.name = name;
  sweep.cases = {ips::buildPlasmaCase(), ips::buildDspCase(), ips::buildFilterCase(),
                 ips::buildHandshakeCase()};
  sweep.base.testbenchCycles = cycles;
  sweep.base.analysisThreads = analysisThreads;
  sweep.base.measureRtl = false;
  sweep.base.measureTlm = false;
  sweep.base.measureOptimized = false;
  sweep.axes.sensorKinds = {insertion::SensorKind::Razor, insertion::SensorKind::Counter};
  sweep.axes.corners = seededCorners(seed);
  sweep.executor.threads = 1;
  return campaign::expandSweep(sweep);
}

campaign::CampaignSpec caseSubsetSpec(const campaign::CampaignSpec& matrix,
                                      const std::string& caseName) {
  campaign::CampaignSpec spec;
  spec.name = matrix.name + "/" + caseName;
  spec.executor = matrix.executor;
  for (const auto& item : matrix.items) {
    if (item.caseStudy.name == caseName) spec.items.push_back(item);
  }
  return spec;
}

campaign::CampaignSpec singleItemSpec(const campaign::CampaignSpec& matrix, std::size_t index) {
  campaign::CampaignSpec spec;
  spec.name = matrix.name + "/item" + std::to_string(index);
  spec.executor = matrix.executor;
  spec.items.push_back(matrix.items.at(index));
  return spec;
}

ExactCounts exactCounts(const campaign::CampaignResult& result) {
  ExactCounts c;
  c.items = result.items.size();
  for (const auto& item : result.items) {
    const auto& a = item.report.analysis;
    c.mutants += static_cast<std::uint64_t>(a.total());
    c.killed += static_cast<std::uint64_t>(a.countKilled());
    c.risen += static_cast<std::uint64_t>(a.countRisen());
  }
  c.cyclesSimulated = result.cyclesSimulated;
  c.cyclesSkipped = result.cyclesSkipped;
  return c;
}

}  // namespace campaignbench
