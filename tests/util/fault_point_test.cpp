// Unit tests of the chaos-injection registry (util/fault_point.h): the
// XLV_FAULTS grammar is STRICT (a typo'd chaos spec must abort startup, not
// silently run a clean experiment), draws are deterministic per seed, and
// an unset env leaves every point inert.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "util/fault_point.h"

namespace xlv::util {
namespace {

/// Sets XLV_FAULTS for the duration of a test and re-arms the registry;
/// restores an inert registry on the way out.
struct FaultsEnv {
  explicit FaultsEnv(const std::string& spec) {
    ::setenv("XLV_FAULTS", spec.c_str(), 1);
    reloadFaultPointsFromEnv();
  }
  ~FaultsEnv() {
    ::unsetenv("XLV_FAULTS");
    reloadFaultPointsFromEnv();
  }
};

TEST(FaultPoint, UnsetEnvIsInert) {
  ::unsetenv("XLV_FAULTS");
  reloadFaultPointsFromEnv();
  EXPECT_FALSE(faultPointsArmed());
  for (const char* p : {"store.write", "frame.write", "worker.spawn", "server.accept"}) {
    EXPECT_EQ(faultPoint(p), FaultAction::None) << p;
  }
}

TEST(FaultPoint, CertainFailFiresEveryDraw) {
  FaultsEnv env("store.write:fail");
  EXPECT_TRUE(faultPointsArmed());
  const std::uint64_t before = faultPointFireCount("store.write");
  for (int i = 0; i < 5; ++i) EXPECT_EQ(faultPoint("store.write"), FaultAction::Fail);
  EXPECT_EQ(faultPointFireCount("store.write") - before, 5u);
  // The other points stay clean — clauses are per-point, not global.
  EXPECT_EQ(faultPoint("frame.write"), FaultAction::None);
}

TEST(FaultPoint, TimesBoundsTheTriggerCount) {
  FaultsEnv env("worker.spawn:fail:times=2");
  EXPECT_EQ(faultPoint("worker.spawn"), FaultAction::Fail);
  EXPECT_EQ(faultPoint("worker.spawn"), FaultAction::Fail);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(faultPoint("worker.spawn"), FaultAction::None) << "times= cap ignored";
  }
}

TEST(FaultPoint, SeededProbabilityIsDeterministic) {
  std::vector<FaultAction> first, second;
  {
    FaultsEnv env("frame.write:short:p=0.5:seed=42");
    for (int i = 0; i < 64; ++i) first.push_back(faultPoint("frame.write"));
  }
  {
    FaultsEnv env("frame.write:short:p=0.5:seed=42");
    for (int i = 0; i < 64; ++i) second.push_back(faultPoint("frame.write"));
  }
  EXPECT_EQ(first, second) << "same seed must reproduce the same draw sequence";
  int fired = 0;
  for (const FaultAction a : first) {
    if (a != FaultAction::None) {
      ++fired;
      EXPECT_EQ(a, FaultAction::Short);
    }
  }
  EXPECT_GT(fired, 0) << "p=0.5 over 64 draws fired never";
  EXPECT_LT(fired, 64) << "p=0.5 over 64 draws fired always";
}

TEST(FaultPoint, MultipleClausesArmIndependently) {
  FaultsEnv env("store.write:fail:times=1,server.accept:fail");
  EXPECT_EQ(faultPoint("store.write"), FaultAction::Fail);
  EXPECT_EQ(faultPoint("store.write"), FaultAction::None);
  EXPECT_EQ(faultPoint("server.accept"), FaultAction::Fail);
  EXPECT_EQ(faultPoint("server.accept"), FaultAction::Fail);
}

TEST(FaultPoint, WorkerScopeKeysPickTheSlotsFirstProcessOrTheUnitsMutant) {
  FaultsEnv env("worker.die:fail:worker=1,worker.hang:fail:item=2:mutant=5");
  const auto die = [](std::uint64_t slot, std::uint64_t generation) {
    return faultPoint("worker.die", FaultScope{slot, generation, 0, 0, 1});
  };
  EXPECT_EQ(die(1, 0), FaultAction::Fail);
  EXPECT_EQ(die(1, 1), FaultAction::None) << "the respawned generation must recover";
  EXPECT_EQ(die(0, 0), FaultAction::None) << "other slots stay clean";
  const auto hang = [](std::uint64_t item, std::uint64_t begin, std::uint64_t end) {
    return faultPoint("worker.hang", FaultScope{3, 7, item, begin, end});
  };
  EXPECT_EQ(hang(2, 4, 6), FaultAction::Fail) << "any slot, any generation";
  EXPECT_EQ(hang(2, 0, UINT64_MAX), FaultAction::Fail) << "a whole-item unit covers the mutant";
  EXPECT_EQ(hang(2, 6, 8), FaultAction::None);
  EXPECT_EQ(hang(2, 0, 5), FaultAction::None) << "the range end is exclusive";
  EXPECT_EQ(hang(1, 4, 6), FaultAction::None);
  EXPECT_EQ(faultPoint("worker.exit", FaultScope{1, 0, 2, 0, UINT64_MAX}), FaultAction::None);
}

TEST(FaultPoint, MalformedSpecsThrowInsteadOfRunningClean) {
  for (const char* bad : {
           "store.write",                    // missing action
           "bogus.point:fail",               // unknown point
           "store.write:explode",            // unknown action
           "store.write:fail:p=1.5",         // probability out of range
           "store.write:fail:p=nope",        // unparsable value
           "store.write:fail:frequency=2",   // unknown key
           "store.write:fail:ms=10",         // ms only belongs to delay
           "store.write:delay",              // delay without ms=
           ",",                              // empty clause
           "worker.die:short",               // worker.* points only take fail
           "store.write:fail:worker=0",      // scope keys only on worker.*
           "worker.die:fail:item=0",         // item= without mutant=
           "worker.die:fail:worker=x",       // unparsable slot
       }) {
    ::setenv("XLV_FAULTS", bad, 1);
    EXPECT_THROW(reloadFaultPointsFromEnv(), FaultConfigError) << bad;
  }
  ::unsetenv("XLV_FAULTS");
  reloadFaultPointsFromEnv();
  EXPECT_FALSE(faultPointsArmed());
}

}  // namespace
}  // namespace xlv::util
