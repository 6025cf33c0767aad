// Native-codegen backend conformance: simulating through the compiled
// engine (abstraction/native_backend.h, FlowOptions::backend = Native) must
// be sameResults-bit-identical to the interpreter — across thread counts,
// across process-level shards, with a warm artifact store, for stateful
// (makeDriver) testbenches, and under XLV_REFERENCE_SIM=1 full replay.
// Mutant batching (FlowOptions::batch = K) is the second axis: any K must
// reproduce the K=1 results exactly, on either engine. The compile ledger is
// the third: a cold native campaign compiles each distinct injected design
// exactly once (the golden trace is always interpreted), and the analysis
// that uses a library counts it, whoever built it.
//
// Every test is gated on a system C++ compiler being present; without one
// the native path deliberately falls back to the interpreter, which would
// make these checks vacuous.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "abstraction/native_backend.h"
#include "campaign/serialize.h"
#include "campaign/shard.h"
#include "campaign/sweep.h"
#include "core/flow.h"
#include "ips/case_study.h"
#include "util/artifact_store.h"

namespace xlv::campaign {
namespace {

namespace fs = std::filesystem;

#define REQUIRE_NATIVE_TOOLCHAIN()                                            \
  if (!abstraction::nativeToolchainAvailable()) {                             \
    GTEST_SKIP() << "no system C++ compiler — native backend unavailable";    \
  }

void freshProcess() { core::clearProcessCaches(); }

CampaignSpec smokeSpec(analysis::SimBackend backend, int threads = 1) {
  CampaignSpec spec = builtinCampaignSpec("smoke");
  for (auto& item : spec.items) {
    item.options.testbenchCycles = 60;
    item.options.backend = backend;
  }
  spec.executor.threads = threads;
  return spec;
}

CampaignResult runCold(const CampaignSpec& spec) {
  freshProcess();
  return runCampaign(spec);
}

/// A native-backend result is only meaningful when the native engine was
/// actually used (the silent-fallback path would make bit-identity vacuous).
void expectNativeWork(const CampaignResult& r) {
  EXPECT_GT(r.nativeCompiles + r.nativeCacheHits, 0)
      << "native run reports no compiles and no cache hits — fell back?";
}

TEST(NativeConformance, MatchesInterpreterAcrossThreadCounts) {
  REQUIRE_NATIVE_TOOLCHAIN();
  const CampaignResult interp = runCold(smokeSpec(analysis::SimBackend::Interpreter));
  ASSERT_TRUE(interp.ok());
  EXPECT_EQ(0, interp.nativeCompiles + interp.nativeCacheHits);

  for (int threads : {1, 2, 8}) {
    const CampaignResult native =
        runCold(smokeSpec(analysis::SimBackend::Native, threads));
    ASSERT_TRUE(native.ok());
    expectNativeWork(native);
    EXPECT_TRUE(interp.sameResults(native))
        << "native backend diverged from interpreter at threads=" << threads;
  }
}

TEST(NativeConformance, MatchesReferenceFullReplay) {
  REQUIRE_NATIVE_TOOLCHAIN();
  // Under XLV_REFERENCE_SIM=1 neither engine skips anything, so even the
  // cycle ledgers must agree — the strictest cross-engine comparison.
  ::setenv("XLV_REFERENCE_SIM", "1", 1);
  const CampaignResult interp = runCold(smokeSpec(analysis::SimBackend::Interpreter));
  const CampaignResult native = runCold(smokeSpec(analysis::SimBackend::Native));
  ::unsetenv("XLV_REFERENCE_SIM");
  freshProcess();

  ASSERT_TRUE(interp.ok());
  ASSERT_TRUE(native.ok());
  expectNativeWork(native);
  EXPECT_TRUE(interp.sameResults(native));
  EXPECT_EQ(0u, interp.cyclesSkipped);
  EXPECT_EQ(0u, native.cyclesSkipped);
  EXPECT_EQ(interp.cyclesSimulated, native.cyclesSimulated);
}

TEST(NativeConformance, ThreeWayShardedNativeMatchesInterpreter) {
  REQUIRE_NATIVE_TOOLCHAIN();
  const CampaignResult interp = runCold(smokeSpec(analysis::SimBackend::Interpreter));
  ASSERT_TRUE(interp.ok());

  // Each shard runs like a separate worker process: cold in-memory caches
  // (so each re-compiles or re-loads its own native library), wire codecs
  // in between — the backend/batch options must survive the v4 codec.
  const CampaignSpec spec = smokeSpec(analysis::SimBackend::Native);
  const ShardPlan plan = planShards(spec, ShardPlanOptions{3, 0, {}});
  const std::string specWire = encodeCampaignSpec(spec);
  const std::string planWire = encodeShardPlan(plan);
  std::vector<ShardOutput> outputs;
  for (int s = 0; s < plan.shardCount(); ++s) {
    freshProcess();
    outputs.push_back(decodeShardOutput(encodeShardOutput(
        runShard(decodeCampaignSpec(specWire), decodeShardPlan(planWire), s))));
  }
  freshProcess();
  const CampaignResult merged = mergeShards(spec, outputs);
  ASSERT_TRUE(merged.ok());
  expectNativeWork(merged);
  EXPECT_TRUE(interp.sameResults(merged));
}

TEST(NativeConformance, WarmStoreServesNativeResultsAndStaysIdentical) {
  REQUIRE_NATIVE_TOOLCHAIN();
  const fs::path dir =
      fs::temp_directory_path() / ("xlv-nativeconf-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const CampaignSpec spec = smokeSpec(analysis::SimBackend::Native);
  const CampaignResult interp = runCold(smokeSpec(analysis::SimBackend::Interpreter));
  ASSERT_TRUE(interp.ok());

  util::configureProcessArtifactStore(util::ArtifactStoreConfig{dir.string(), 0});
  const CampaignResult cold = runCold(spec);
  const CampaignResult warm = runCold(spec);  // fresh memory caches, warm store
  util::configureProcessArtifactStore(std::nullopt);
  freshProcess();
  std::error_code ec;
  fs::remove_all(dir, ec);

  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  expectNativeWork(cold);
  EXPECT_TRUE(interp.sameResults(cold));
  EXPECT_TRUE(interp.sameResults(warm));
  // The warm pass reloads every mutant verdict from the store, so no
  // simulation runs: the native library is loaded from the store, never
  // compiled, and never stepped.
  EXPECT_GT(warm.mutantCacheHits, 0);
  EXPECT_EQ(0, warm.nativeCompiles);
  EXPECT_EQ(0u, warm.cyclesSimulated);
  EXPECT_EQ(0u, warm.cyclesSkipped);
}

TEST(NativeConformance, StatefulTestbenchDriverMatchesInterpreter) {
  REQUIRE_NATIVE_TOOLCHAIN();
  // The handshake case drives the DUT from a per-task protocol-FSM driver
  // (Testbench::makeDriver): the native session must observe the same
  // recorded input stream, including the null-sink prefix replay after a
  // checkpoint fast-forward. Both sensor kinds, flow level.
  for (insertion::SensorKind kind :
       {insertion::SensorKind::Razor, insertion::SensorKind::Counter}) {
    core::FlowOptions opts;
    opts.sensorKind = kind;
    opts.testbenchCycles = 96;
    opts.measureRtl = false;
    opts.measureTlm = false;
    opts.measureOptimized = false;

    freshProcess();
    opts.backend = analysis::SimBackend::Interpreter;
    const core::FlowReport interp = core::runFlow(ips::buildHandshakeCase(), opts);
    freshProcess();
    opts.backend = analysis::SimBackend::Native;
    const core::FlowReport native = core::runFlow(ips::buildHandshakeCase(), opts);

    EXPECT_TRUE(interp.analysis.sameResults(native.analysis))
        << "stateful-driver native run diverged (" << insertion::sensorKindName(kind)
        << ")";
    EXPECT_GT(native.analysis.nativeCompiles + native.analysis.nativeCacheHits, 0);
  }
  freshProcess();
}

/// Run `spec` against a fresh artifact store in a private temp directory
/// with cleared process caches: the cold path of `xlv_campaign run
/// --cache-dir`.
CampaignResult runColdStore(const CampaignSpec& spec, const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("xlv-nativeconf-" + tag + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  util::configureProcessArtifactStore(util::ArtifactStoreConfig{dir.string(), 0});
  const CampaignResult r = runCold(spec);
  util::configureProcessArtifactStore(std::nullopt);
  freshProcess();
  std::error_code ec;
  fs::remove_all(dir, ec);
  return r;
}

TEST(NativeConformance, ColdSingleCompilesOnlyTheInjectedDesign) {
  REQUIRE_NATIVE_TOOLCHAIN();
  CampaignSpec spec = builtinCampaignSpec("single");
  for (auto& item : spec.items) item.options.backend = analysis::SimBackend::Native;
  const CampaignResult r = runColdStore(spec, "single");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(1, r.nativeCompiles) << "golden design compiled, or a compile went uncounted";
  EXPECT_EQ(0, r.nativeCacheHits);
}

TEST(NativeConformance, HandshakeMatrixCompilesEachDistinctDesignOnce) {
  REQUIRE_NATIVE_TOOLCHAIN();
  // The paper matrix's Handshake items: 2 sensor kinds x 2 STA corners, run
  // one after another. The corners leave the injected design unchanged, so
  // the 4 analyses share 2 libraries: 2 compiles, and 2 hits for the
  // analyses that receive a library another analysis already claimed.
  SweepSpec sweep;
  sweep.name = "handshake-matrix";
  sweep.cases = {ips::buildHandshakeCase()};
  sweep.base.testbenchCycles = 400;
  sweep.base.measureRtl = false;
  sweep.base.measureTlm = false;
  sweep.base.measureOptimized = false;
  sweep.base.backend = analysis::SimBackend::Native;
  sweep.axes.sensorKinds = {insertion::SensorKind::Razor, insertion::SensorKind::Counter};
  sweep.axes.corners = {sta::Corner::typical(), sta::Corner::slow()};
  sweep.executor.threads = 1;
  const CampaignSpec spec = expandSweep(sweep);
  ASSERT_EQ(4u, spec.items.size());

  const CampaignResult native = runColdStore(spec, "handshake");
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(2, native.nativeCompiles);
  EXPECT_EQ(2, native.nativeCacheHits);

  CampaignSpec interpSpec = spec;
  for (auto& item : interpSpec.items) item.options.backend = analysis::SimBackend::Interpreter;
  const CampaignResult interp = runColdStore(interpSpec, "handshake-interp");
  ASSERT_TRUE(interp.ok());
  EXPECT_TRUE(interp.sameResults(native));
}

TEST(NativeConformance, FailingPresetReportsTheSameItemErrorsOnBothEngines) {
  // Items that fail in the first pass keep exactly the interpreter's error
  // through the two-pass native run, and the healthy ones still run
  // natively beside them.
  REQUIRE_NATIVE_TOOLCHAIN();
  auto spec = [](analysis::SimBackend backend) {
    CampaignSpec s = builtinCampaignSpec("failing");
    for (auto& item : s.items) item.options.backend = backend;
    return s;
  };
  const CampaignResult interp = runCold(spec(analysis::SimBackend::Interpreter));
  const CampaignResult native = runCold(spec(analysis::SimBackend::Native));
  freshProcess();
  ASSERT_FALSE(interp.ok());
  ASSERT_EQ(interp.items.size(), native.items.size());
  for (std::size_t i = 0; i < interp.items.size(); ++i) {
    EXPECT_EQ(interp.items[i].error, native.items[i].error) << interp.items[i].label;
  }
  EXPECT_TRUE(interp.sameResults(native));
  expectNativeWork(native);
}

TEST(NativeConformance, BatchSizesReproduceUnbatchedResults) {
  // Batching is engine-independent, so this case runs even without a
  // toolchain (interpreter legs) — the native legs are gated inside.
  auto spec = [](analysis::SimBackend backend, int batch) {
    CampaignSpec s = smokeSpec(backend);
    for (auto& item : s.items) item.options.batch = batch;
    return s;
  };

  const CampaignResult solo = runCold(spec(analysis::SimBackend::Interpreter, 1));
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ(0, solo.batchedMutants);

  for (int k : {4, 64}) {
    const CampaignResult batched = runCold(spec(analysis::SimBackend::Interpreter, k));
    ASSERT_TRUE(batched.ok());
    EXPECT_TRUE(solo.sameResults(batched)) << "interpreter batch=" << k;
    EXPECT_GT(batched.batchedMutants, 0) << "batch=" << k << " grouped nothing";
  }

  if (!abstraction::nativeToolchainAvailable()) {
    GTEST_SKIP() << "no system C++ compiler — native batching legs skipped";
  }
  for (int k : {1, 4, 64}) {
    const CampaignResult batched = runCold(spec(analysis::SimBackend::Native, k));
    ASSERT_TRUE(batched.ok());
    expectNativeWork(batched);
    EXPECT_TRUE(solo.sameResults(batched)) << "native batch=" << k;
  }
}

}  // namespace
}  // namespace xlv::campaign
