// Utility layer: PRNG determinism, statistics accumulators, table renderer,
// subprocess pipe hygiene.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <latch>
#include <thread>
#include <vector>

#include "util/prng.h"
#include "util/stats.h"
#include "util/subprocess.h"
#include "util/table.h"
#include "util/timer.h"

namespace xlv::util {
namespace {

TEST(Prng, DeterministicPerSeed) {
  Prng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Prng a2(123), c2(124);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Prng, BelowStaysInRange) {
  Prng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Prng, RangeInclusive) {
  Prng rng(9);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= v == -3;
    sawHi |= v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Prng, BitsMasksWidth) {
  Prng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(rng.bits(5), 32u);
  }
}

TEST(Prng, UniformInUnitInterval) {
  Prng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(0.5, sum / 10000, 0.02);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(8u, s.count());
  EXPECT_DOUBLE_EQ(5.0, s.mean());
  EXPECT_NEAR(4.571, s.variance(), 0.001);  // sample variance
  EXPECT_DOUBLE_EQ(2.0, s.min());
  EXPECT_DOUBLE_EQ(9.0, s.max());
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(1.0, s.min());
  EXPECT_DOUBLE_EQ(100.0, s.max());
  EXPECT_NEAR(50.5, s.percentile(0.5), 0.01);
  EXPECT_NEAR(90.1, s.percentile(0.9), 0.01);
  EXPECT_DOUBLE_EQ(50.5, s.mean());
}

TEST(SampleSet, EmptyThrows) {
  SampleSet s;
  EXPECT_THROW(s.percentile(0.5), std::out_of_range);
  EXPECT_THROW(s.min(), std::out_of_range);
}

TEST(Table, RendersAlignedGrid) {
  Table t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addSeparator();
  t.addRow({"longer-name", "123"});
  const std::string out = t.render();
  EXPECT_NE(std::string::npos, out.find("| name "));
  EXPECT_NE(std::string::npos, out.find("alpha"));
  EXPECT_NE(std::string::npos, out.find("longer-name"));
  // Numbers right-aligned: "  1 |" style padding before the short number.
  EXPECT_NE(std::string::npos, out.find("  1 |"));
}

TEST(Table, FixedFormatsDigits) {
  EXPECT_EQ("3.14", Table::fixed(3.14159, 2));
  EXPECT_EQ("3", Table::fixed(3.14159, 0));
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.addRow({"x"});
  EXPECT_NO_THROW(t.render());
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double s = t.seconds();
  EXPECT_GT(s, 0.0);
  // millis() reads the clock again: allow the elapsed delta.
  EXPECT_GE(t.millis(), s * 1e3);
  t.reset();
  EXPECT_LT(t.seconds(), s + 1.0);
}

// A child forked by one call must not inherit another call's pipe ends: a
// leaked write end holds back the reader's EOF until the child that holds it
// exits. Three slow calls start, 1 ms apart, while three threads run fast
// calls back to back, so some slow fork is likely to land inside a fast
// call's pipe-to-fork window; every fast call must return long before the
// slow ones end. Margins are wide (slow = 2 s, fast < 1 s) so the check holds
// under sanitizers.
TEST(Subprocess, ConcurrentCapturesDoNotHoldEachOthersOutputOpen) {
  constexpr int kSlow = 3;
  constexpr int kFast = 3;
  std::latch start(kSlow + kFast);
  std::atomic<int> slowStarted{0};
  std::atomic<int> fastFailures{0};
  std::vector<double> worstFast(kFast, 0.0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSlow; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      std::this_thread::sleep_for(std::chrono::milliseconds(i));
      slowStarted.fetch_add(1);
      runCommandCapture({"sleep", "2"});
    });
  }
  for (int f = 0; f < kFast; ++f) {
    threads.emplace_back([&, f] {
      start.arrive_and_wait();
      // Keep going until every slow call has forked, plus a few more.
      for (int extra = 0; extra < 10;) {
        if (slowStarted.load() == kSlow) ++extra;
        Timer t;
        const SubprocessResult fast = runCommandCapture({"echo", "fast"});
        worstFast[f] = std::max(worstFast[f], t.seconds());
        if (!fast.ok() || fast.output != "fast\n") fastFailures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(0, fastFailures.load());
  for (int f = 0; f < kFast; ++f) {
    EXPECT_LT(worstFast[f], 1.0) << "a sibling child kept a fast command's pipe open";
  }
}

TEST(Subprocess, SpawnedChildDoesNotInheritAnEarlierChildsStdin) {
  // Deterministic form of the same leak: `cat` exits on stdin EOF, which a
  // later sibling holding cat's stdin write end would withhold for 2 s.
  Subprocess cat = Subprocess::spawn({"cat"});
  ASSERT_TRUE(cat.started());
  Subprocess sleeper = Subprocess::spawn({"sleep", "2"});
  ASSERT_TRUE(sleeper.started());
  Timer t;
  cat.closeStdin();
  EXPECT_EQ(0, cat.wait());
  EXPECT_LT(t.seconds(), 1.0) << "the sibling inherited cat's stdin pipe";
  sleeper.kill(SIGKILL);
  sleeper.wait();
}

}  // namespace
}  // namespace xlv::util
