// In-memory span recorder for the traced (per-layer) benchmark run.
//
// A span is one call into a layer: name, start, end, the span that caused
// it and the campaign it belongs to. Spans nest through a thread-local
// stack; work handed to another thread (campaign items on the executor's
// pool) names its parent explicitly. Nothing is written while the run
// measures — spans stay in memory and are rendered at the end as Chrome
// trace-event JSON (chrome://tracing, Perfetto).
//
// Self time is a span's duration minus the part of its interval that its
// child spans cover (the union of the children's intervals, clipped to the
// parent — children on parallel threads may overlap each other).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace campaignbench {

struct Span {
  std::uint64_t id = 0;      ///< 1-based, unique per tracer
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t campaign = 0;
  std::string name;
  std::uint32_t thread = 0;  ///< small per-tracer thread index
  double startUs = 0.0;      ///< since the tracer was created
  double endUs = 0.0;
  double durationUs() const noexcept { return endUs - startUs; }
};

/// Self time of every span, parallel to `spans`.
std::vector<double> selfTimesUs(const std::vector<Span>& spans);

class Tracer {
 public:
  Tracer();

  /// A disabled tracer records nothing and its scopes cost one branch; the
  /// benchmark flips it per campaign to measure tracing overhead.
  void setEnabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// RAII span. The parent defaults to the innermost open span on this
  /// thread; pass one explicitly when the work crossed threads.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t parent = 0,
          std::uint64_t campaign = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const noexcept { return span_.id; }

   private:
    Tracer* tracer_ = nullptr;  ///< null when the tracer was disabled
    Span span_;
  };

  std::vector<Span> spans() const;
  /// Chrome trace-event JSON ("X" complete events; args carry the span id,
  /// parent, campaign and self time).
  std::string chromeTraceJson() const;

 private:
  double nowUs() const;
  std::uint32_t threadIndex();
  void finish(const Span& span);

  bool enabled_ = true;
  double originNs_ = 0.0;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t nextId_ = 1;
  std::map<std::uint64_t, std::uint32_t> threads_;  ///< hashed thread id -> index
};

/// Per-campaign sums of span durations and self times, by span name.
struct LayerTimes {
  std::map<std::string, double> totalUs;
  std::map<std::string, double> selfUs;
};
std::map<std::uint64_t, LayerTimes> layerTimesByCampaign(const std::vector<Span>& spans);

}  // namespace campaignbench
