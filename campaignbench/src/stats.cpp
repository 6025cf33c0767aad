#include "stats.h"

#include <cmath>

#include "util/stats.h"

namespace campaignbench {

std::size_t samplesBeyond(std::size_t n, double q) {
  // The epsilon keeps q * n from rounding up past an exact integer rank
  // (0.9 * 100 is 90.00000000000001 in binary floating point).
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const auto atOrBelow = static_cast<std::size_t>(rank < 0.0 ? 0.0 : rank);
  return atOrBelow >= n ? 0 : n - atOrBelow;
}

bool tailReportable(std::size_t n, double q) { return samplesBeyond(n, q) >= kMinTailSamples; }

LatencySummary summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  xlv::util::SampleSet set;
  for (double x : samples) set.add(x);
  s.p50 = set.percentile(0.5);
  if (tailReportable(samples.size(), 0.9)) s.p90 = set.percentile(0.9);
  return s;
}

double median(const std::vector<double>& values) {
  return values.empty() ? 0.0 : summarize(values).p50;
}

}  // namespace campaignbench
