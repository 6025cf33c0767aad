// The monitor-module builders cache one Module per key in a function-local
// map. Campaign worker threads run insertion concurrently, so the builders
// must be safe to race: eight threads build overlapping Razor widths and
// counter-monitor configs, and every key must come back as ONE shared
// Module pointer (a second build would mean the cache raced).
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "sensors/counter_monitor.h"
#include "sensors/razor.h"

namespace xlv::sensors {
namespace {

constexpr int kThreads = 8;

TEST(SensorModuleCache, ConcurrentBuildsShareOneModulePerKey) {
  // Keys no other test builds first, so the race is on cold entries.
  const std::vector<int> widths = {37, 38, 39, 40, 41};
  std::vector<CounterConfig> configs;
  for (int t = 21; t < 25; ++t) configs.push_back(CounterConfig{9, t, 3});

  using Key = std::tuple<int, int, int>;
  std::vector<std::map<int, const ir::Module*>> razors(kThreads);
  std::vector<std::map<Key, const ir::Module*>> counters(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Each thread walks the keys from a different offset so builds of the
      // same key overlap in time instead of queueing in one order.
      for (std::size_t k = 0; k < widths.size(); ++k) {
        const int w = widths[(k + static_cast<std::size_t>(i)) % widths.size()];
        razors[i][w] = buildRazor(w).get();
      }
      for (std::size_t k = 0; k < configs.size(); ++k) {
        const CounterConfig& c = configs[(k + static_cast<std::size_t>(i)) % configs.size()];
        counters[i][Key{c.measWidth, c.threshold, c.cpsWidth}] = buildCounterMonitor(c).get();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (const int w : widths) {
    const ir::Module* first = razors[0].at(w);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(buildRazor(w).get(), first) << "razor width " << w;
    for (int i = 1; i < kThreads; ++i) {
      EXPECT_EQ(razors[i].at(w), first) << "razor width " << w << ", thread " << i;
    }
  }
  for (const CounterConfig& c : configs) {
    const Key key{c.measWidth, c.threshold, c.cpsWidth};
    const ir::Module* first = counters[0].at(key);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(buildCounterMonitor(c).get(), first) << "threshold " << c.threshold;
    for (int i = 1; i < kThreads; ++i) {
      EXPECT_EQ(counters[i].at(key), first) << "threshold " << c.threshold << ", thread " << i;
    }
  }
}

}  // namespace
}  // namespace xlv::sensors
