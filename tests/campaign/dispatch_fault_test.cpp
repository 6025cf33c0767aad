// The single-campaign run mode's crash-recovery lock: fault-injection
// against the REAL daemon worker binary (tools/xlv_campaignd, via the
// XLV_CAMPAIGND_BIN compile definition).
//
// Each test runs the builtin "single" campaign through runCampaignOnPool
// (the `xlv_campaignd run` entry point: the serve engine with one adopted
// connection) with a 3-worker pool of actual subprocesses, injects one
// fault through an XLV_FAULTS worker clause (util/fault_point.h: SIGKILL
// mid-shard, hang without heartbeats, nonzero exit, poison unit),
// and asserts the two halves of the acceptance criterion:
//
//   1. the lost unit shows up in the campaign's requeuedShards ledger
//      records with the right reason, and
//   2. the merged result is CampaignResult::sameResults-bit-identical to a
//      single-process runCampaign of the same spec — the retry changed
//      nothing observable.
//
// The tests skip (not fail) when the tools were not built.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/server.h"
#include "campaign/shard.h"
#include "core/flow.h"
#include "util/fault_point.h"

namespace xlv::campaign {
namespace {

/// Unsets XLV_FAULTS on construction AND destruction, so a failing test
/// cannot leak a fault into its neighbors; set() arms a spec for the
/// lifetime of the guard. Both re-read the registry, so a binary run as one
/// process (not one per test) never carries an armed registry into a later
/// test — worker_spec_cache_test runs the worker loop in-process.
struct FaultEnv {
  FaultEnv() { clear(); }
  ~FaultEnv() { clear(); }
  static void clear() {
    ::unsetenv("XLV_FAULTS");
    util::reloadFaultPointsFromEnv();
  }
  void set(const char* spec) {
    ::setenv("XLV_FAULTS", spec, 1);
    util::reloadFaultPointsFromEnv();
  }
};

#ifdef XLV_CAMPAIGND_BIN

/// Single-process truth, computed once per test binary with cold caches.
const CampaignResult& referenceResult() {
  static const CampaignResult* ref = [] {
    core::clearProcessCaches();
    auto* r = new CampaignResult(runCampaign(builtinCampaignSpec("single")));
    core::clearProcessCaches();
    return r;
  }();
  return *ref;
}

ServeOptions daemonOptions() {
  ServeOptions opt;
  opt.workers = 3;
  // Fragment to 2 mutants per unit so a dozen-plus stealable units exist
  // and a mid-campaign kill genuinely loses work in flight.
  opt.maxFragmentMutants = 2;
  opt.workerCommand = {XLV_CAMPAIGND_BIN, "worker"};
  opt.heartbeatIntervalMs = 100;
  opt.heartbeatTimeoutMs = 5000;
  return opt;
}

/// The one campaign entry of a run's ledger (every admitted run has one).
const CampaignLedgerEntry& campaignEntry(const PoolRunResult& out) {
  static const CampaignLedgerEntry none;
  EXPECT_EQ(out.ledger.campaigns.size(), 1u);
  return out.ledger.campaigns.empty() ? none : out.ledger.campaigns.front();
}

#define XLV_REQUIRE_DAEMON()                                                \
  do {                                                                      \
    if (::access(XLV_CAMPAIGND_BIN, X_OK) != 0)                             \
      GTEST_SKIP() << "xlv_campaignd binary not built: " XLV_CAMPAIGND_BIN; \
  } while (0)

TEST(DispatchFault, CleanDaemonRunIsBitIdenticalToSingleProcess) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  const CampaignSpec spec = builtinCampaignSpec("single");
  const PoolRunResult out = runCampaignOnPool(spec, daemonOptions());
  const CampaignLedgerEntry& entry = campaignEntry(out);
  ASSERT_TRUE(out.outcome.error.empty()) << out.outcome.error;
  EXPECT_TRUE(out.outcome.result.ok());
  EXPECT_TRUE(referenceResult().sameResults(out.outcome.result));
  EXPECT_GT(entry.unitsTotal, 1u) << "fragmentation produced no stealable units";
  EXPECT_EQ(entry.unitsCompleted, entry.unitsTotal);
  EXPECT_EQ(out.ledger.submissions, entry.unitsTotal);
  EXPECT_TRUE(entry.requeuedShards.empty());
  EXPECT_EQ(out.ledger.workerRespawns, 0u);
  EXPECT_EQ(out.ledger.workersKilled, 0u);
  EXPECT_EQ(out.ledger.workersSpawned, 3u);
}

TEST(DispatchFault, SigkilledWorkerShardIsRequeuedAndMergeStaysBitIdentical) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // Worker 0 (generation 0) raises SIGKILL on accepting its first unit —
  // the crash-mid-shard case.
  env.set("worker.die:fail:worker=0");
  const CampaignSpec spec = builtinCampaignSpec("single");
  const PoolRunResult out = runCampaignOnPool(spec, daemonOptions());
  const CampaignLedgerEntry& entry = campaignEntry(out);

  // The lost unit is visible in the ledger...
  ASSERT_FALSE(entry.requeuedShards.empty());
  const RequeueRecord& rec = entry.requeuedShards.front();
  EXPECT_EQ(rec.reason, "worker-signal");
  EXPECT_EQ(rec.workerIndex, 0u);
  EXPECT_EQ(rec.generation, 0u);
  EXPECT_EQ(rec.attempt, 1u);
  EXPECT_GE(out.ledger.workerRespawns, 1u);
  EXPECT_GT(out.ledger.submissions, entry.unitsTotal)
      << "a re-queued unit must be submitted again";
  EXPECT_EQ(entry.unitsCompleted, entry.unitsTotal);

  // ...and invisible in the result: the retry is bit-identical.
  ASSERT_TRUE(out.outcome.error.empty()) << out.outcome.error;
  EXPECT_TRUE(out.outcome.result.ok());
  EXPECT_TRUE(referenceResult().sameResults(out.outcome.result));
}

TEST(DispatchFault, HungWorkerHitsHeartbeatTimeoutAndItsShardIsRequeued) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // Worker 0 accepts a unit, then goes silent (no heartbeats, no result).
  env.set("worker.hang:fail:worker=0");
  ServeOptions opt = daemonOptions();
  // Tight liveness window so the test completes quickly; the real default
  // stays at 10 s.
  opt.heartbeatIntervalMs = 50;
  opt.heartbeatTimeoutMs = 400;
  const CampaignSpec spec = builtinCampaignSpec("single");
  const PoolRunResult out = runCampaignOnPool(spec, opt);
  const CampaignLedgerEntry& entry = campaignEntry(out);

  ASSERT_FALSE(entry.requeuedShards.empty());
  EXPECT_EQ(entry.requeuedShards.front().reason, "heartbeat-timeout");
  EXPECT_GE(out.ledger.workersKilled, 1u) << "the hung worker must be SIGKILLed";
  EXPECT_GE(out.ledger.workerRespawns, 1u);
  EXPECT_EQ(entry.unitsCompleted, entry.unitsTotal);
  ASSERT_TRUE(out.outcome.error.empty()) << out.outcome.error;
  EXPECT_TRUE(out.outcome.result.ok());
  EXPECT_TRUE(referenceResult().sameResults(out.outcome.result));
}

TEST(DispatchFault, NonzeroExitWorkerShardIsRequeued) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  env.set("worker.exit:fail:worker=0");
  const CampaignSpec spec = builtinCampaignSpec("single");
  const PoolRunResult out = runCampaignOnPool(spec, daemonOptions());
  const CampaignLedgerEntry& entry = campaignEntry(out);

  ASSERT_FALSE(entry.requeuedShards.empty());
  EXPECT_EQ(entry.requeuedShards.front().reason, "worker-exit");
  EXPECT_GE(out.ledger.workerRespawns, 1u);
  EXPECT_EQ(entry.unitsCompleted, entry.unitsTotal);
  ASSERT_TRUE(out.outcome.error.empty()) << out.outcome.error;
  EXPECT_TRUE(out.outcome.result.ok());
  EXPECT_TRUE(referenceResult().sameResults(out.outcome.result));
}

TEST(DispatchFault, FaultOnALaterWorkerSlotRecoversToo) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // Same SIGKILL fault, but aimed at worker 2 — recovery must not depend on
  // which slot dies.
  env.set("worker.die:fail:worker=2");
  const CampaignSpec spec = builtinCampaignSpec("single");
  const PoolRunResult out = runCampaignOnPool(spec, daemonOptions());
  const CampaignLedgerEntry& entry = campaignEntry(out);

  ASSERT_FALSE(entry.requeuedShards.empty());
  EXPECT_EQ(entry.requeuedShards.front().workerIndex, 2u);
  EXPECT_EQ(entry.requeuedShards.front().reason, "worker-signal");
  ASSERT_TRUE(out.outcome.error.empty()) << out.outcome.error;
  EXPECT_TRUE(out.outcome.result.ok());
  EXPECT_TRUE(referenceResult().sameResults(out.outcome.result));
}

TEST(DispatchFault, RespawnedGenerationOfTheOnlyWorkerFinishesTheCampaign) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // One worker slot, killed on its first unit: no other slot can finish the
  // campaign, so this passes only if the fault stays with generation 0 and
  // the respawned generation does all the work.
  env.set("worker.die:fail:worker=0");
  const CampaignSpec spec = builtinCampaignSpec("single");
  ServeOptions opt = daemonOptions();
  opt.workers = 1;
  const PoolRunResult out = runCampaignOnPool(spec, opt);
  const CampaignLedgerEntry& entry = campaignEntry(out);

  ASSERT_TRUE(out.outcome.error.empty()) << out.outcome.error;
  ASSERT_FALSE(entry.requeuedShards.empty());
  EXPECT_EQ(entry.requeuedShards.front().generation, 0u);
  EXPECT_EQ(out.ledger.workerRespawns, 1u);
  EXPECT_EQ(entry.unitsCompleted, entry.unitsTotal);
  EXPECT_TRUE(out.outcome.quarantined.empty());
  EXPECT_TRUE(entry.quarantined.empty());
  EXPECT_EQ(campaignExitCode(out.outcome.result), 0);
  EXPECT_TRUE(referenceResult().sameResults(out.outcome.result));
}

TEST(DispatchFault, RunQuarantinesPoisonUnit) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // Every worker of every generation SIGKILLs itself on item 0's mutant 1.
  // Attempt exhaustion used to fail the whole run (exit 6); the serve
  // engine's quarantine now narrows the loss to the poisoned item.
  env.set("worker.die:fail:item=0:mutant=1");
  CampaignSpec spec = builtinCampaignSpec("smoke");
  ASSERT_GE(spec.items.size(), 3u);
  spec.items.resize(3);
  spec.name = "run-quarantine";
  ServeOptions opt = daemonOptions();
  opt.maxTaskAttempts = 2;
  opt.maxWorkerRespawns = 50;  // each poison hit costs one respawn
  const PoolRunResult out = runCampaignOnPool(spec, opt);
  const CampaignLedgerEntry& entry = campaignEntry(out);

  ASSERT_TRUE(out.outcome.error.empty()) << out.outcome.error;
  ASSERT_TRUE(out.outcome.done);
  EXPECT_FALSE(out.outcome.quarantined.empty());
  EXPECT_FALSE(entry.quarantined.empty());
  EXPECT_EQ(campaignExitCode(out.outcome.result), 3);
  // Every lost attempt is recorded, the one that triggered the quarantine
  // included: at least maxTaskAttempts records for the poisoned unit.
  EXPECT_GE(entry.requeuedShards.size(), 2u);

  core::clearProcessCaches();
  const CampaignResult local = runCampaign(spec);
  ASSERT_EQ(out.outcome.result.items.size(), local.items.size());
  for (std::size_t i = 0; i < local.items.size(); ++i) {
    const CampaignItemResult& got = out.outcome.result.items[i];
    if (got.taskId == 0) {
      EXPECT_NE(got.error.find("quarantined"), std::string::npos) << got.error;
      continue;
    }
    CampaignResult a, b;
    a.items.push_back(got);
    b.items.push_back(local.items[i]);
    EXPECT_TRUE(a.sameResults(b)) << "non-poisoned item " << i << " diverged";
  }
}

TEST(DispatchFault, DispatcherRejectsMalformedOptions) {
  FaultEnv env;
  const CampaignSpec spec = builtinCampaignSpec("single");
  {
    ServeOptions opt = daemonOptions();
    opt.workerCommand.clear();
    EXPECT_THROW(runCampaignOnPool(spec, opt), std::invalid_argument);
  }
  {
    ServeOptions opt = daemonOptions();
    opt.heartbeatTimeoutMs = 0;
    EXPECT_THROW(runCampaignOnPool(spec, opt), std::invalid_argument);
  }
  {
    ServeOptions opt = daemonOptions();
    opt.maxTaskAttempts = 0;
    EXPECT_THROW(runCampaignOnPool(spec, opt), std::invalid_argument);
  }
}

#else  // !XLV_CAMPAIGND_BIN

TEST(DispatchFault, DaemonBinaryUnavailable) {
  GTEST_SKIP() << "built without XLV_CAMPAIGND_BIN (tools disabled)";
}

#endif

}  // namespace
}  // namespace xlv::campaign
