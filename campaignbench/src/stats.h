// Latency summaries under the benchmark's reporting rule: a timing is
// reported as its median plus the highest percentile that still has at least
// kMinTailSamples samples beyond it — a p90 over 40 campaigns would rest on
// four values and mean little.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace campaignbench {

inline constexpr std::size_t kMinTailSamples = 10;

/// Samples strictly beyond the q-quantile of n samples: n - ceil(q * n).
std::size_t samplesBeyond(std::size_t n, double q);

/// True when the q-quantile of n samples has at least kMinTailSamples beyond
/// it (p90 needs n >= 100).
bool tailReportable(std::size_t n, double q);

struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  std::optional<double> p90;  ///< set only when tailReportable(samples, 0.9)
};

/// Median and (when reportable) p90 of `samples`, via util::SampleSet's
/// linearly interpolated percentiles. An empty set yields samples == 0.
LatencySummary summarize(const std::vector<double>& samples);

/// Median of `values` (0 for an empty set).
double median(const std::vector<double>& values);

}  // namespace campaignbench
