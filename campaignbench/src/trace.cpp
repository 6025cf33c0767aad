#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

namespace campaignbench {

namespace {

double steadyNs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

/// Open spans of this thread: (tracer, span id, campaign), innermost last.
struct OpenSpan {
  const Tracer* tracer;
  std::uint64_t id;
  std::uint64_t campaign;
};
thread_local std::vector<OpenSpan> tlsOpen;

void appendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

std::vector<double> selfTimesUs(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index.end()) children[it->second].push_back(i);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<double, double>> cover;
    for (std::size_t c : children[i]) {
      const double lo = std::max(spans[c].startUs, p.startUs);
      const double hi = std::min(spans[c].endUs, p.endUs);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, runLo = 0.0, runHi = -1.0;
    for (const auto& [lo, hi] : cover) {
      if (lo > runHi) {
        if (runHi > runLo) covered += runHi - runLo;
        runLo = lo;
        runHi = hi;
      } else {
        runHi = std::max(runHi, hi);
      }
    }
    if (runHi > runLo) covered += runHi - runLo;
    self[i] = p.durationUs() - covered;
  }
  return self;
}

Tracer::Tracer() : originNs_(steadyNs()) {}

double Tracer::nowUs() const { return (steadyNs() - originNs_) / 1e3; }

std::uint32_t Tracer::threadIndex() {
  const std::uint64_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = threads_.emplace(key, static_cast<std::uint32_t>(threads_.size()));
  return it->second;
}

void Tracer::finish(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t parent,
                     std::uint64_t campaign) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  span_.name = std::move(name);
  // The innermost open span of this tracer on this thread is the default
  // parent, and lends its campaign to children that do not name one.
  for (auto it = tlsOpen.rbegin(); it != tlsOpen.rend(); ++it) {
    if (it->tracer != &tracer) continue;
    if (parent == 0) parent = it->id;
    if (campaign == 0) campaign = it->campaign;
    break;
  }
  span_.parent = parent;
  span_.campaign = campaign;
  span_.thread = tracer.threadIndex();
  {
    std::lock_guard<std::mutex> lock(tracer.mutex_);
    span_.id = tracer.nextId_++;
  }
  tlsOpen.push_back({&tracer, span_.id, campaign});
  span_.startUs = tracer.nowUs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.endUs = tracer_->nowUs();
  for (auto it = tlsOpen.rbegin(); it != tlsOpen.rend(); ++it) {
    if (it->tracer == tracer_ && it->id == span_.id) {
      tlsOpen.erase(std::next(it).base());
      break;
    }
  }
  tracer_->finish(span_);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string Tracer::chromeTraceJson() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = selfTimesUs(all);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out += "{\"name\":\"";
    appendEscaped(out, s.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu,\"campaign\":%llu,\"self_us\":%.3f}}",
                  s.thread, s.startUs, s.durationUs(), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.campaign), self[i]);
    out += buf;
    out += i + 1 < all.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

std::map<std::uint64_t, LayerTimes> layerTimesByCampaign(const std::vector<Span>& spans) {
  const std::vector<double> self = selfTimesUs(spans);
  std::map<std::uint64_t, LayerTimes> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTimes& t = out[spans[i].campaign];
    t.totalUs[spans[i].name] += spans[i].durationUs();
    t.selfUs[spans[i].name] += self[i];
  }
  return out;
}

}  // namespace campaignbench
