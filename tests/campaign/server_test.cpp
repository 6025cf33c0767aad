// End-to-end tests of the campaign service (campaign/server.h): a real
// `runCampaignServer` loop driving real worker subprocesses (the
// XLV_CAMPAIGND_BIN daemon binary), with real `submitCampaign` clients on a
// Unix-domain socket — the full v6 wire protocol, not mocks.
//
// The load-bearing assertions mirror dispatch_fault_test.cpp's: whatever
// faults fly (worker SIGKILL, hung worker, client disconnect, backpressure
// rejects), every campaign that SURVIVES must merge bit-identical
// (CampaignResult::sameResults) to a single-process runCampaign of the same
// spec. Fairness and backpressure are made deterministic by hanging the
// single worker on the big campaign's first unit: while the heartbeat clock
// runs down, the competing submissions are admitted, so the post-recovery
// schedule — round-robin across campaigns — is observable without timing
// luck.
//
// The tests skip (not fail) when the tools were not built.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/dispatch.h"
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

TEST(CampaignServer, LedgerJsonCarriesPerCampaignEntries) {
  ServeLedger ledger;
  ledger.campaignsAccepted = 2;
  ledger.campaignsRejected = 1;
  ledger.campaignsCancelled = 1;
  CampaignLedgerEntry entry;
  entry.campaignId = 7;
  entry.name = "smoke \"quoted\"";
  entry.unitsTotal = 4;
  entry.unitsCompleted = 2;
  RequeueRecord lost;
  lost.taskIndex = 3;
  lost.reason = "worker-signal";
  entry.requeuedShards.push_back(lost);
  entry.cancelled = true;
  entry.error = "gave up";
  entry.bisections = 3;
  entry.quarantined = {2, 5};
  entry.drained = true;
  ledger.quarantinedUnits = 1;
  ledger.bisections = 3;
  ledger.deadlineFailures = 2;
  ledger.frameCapRejects = 4;
  ledger.drainRequests = 1;
  ledger.drained = true;
  ledger.campaigns.push_back(entry);
  const std::string json = encodeServeLedgerJson(ledger);
  EXPECT_NE(json.find("\"campaignsAccepted\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"campaignsRejected\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"campaignId\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"cancelled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"requeues\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"worker-signal\""), std::string::npos)
      << "each lost attempt is a record in the campaign entry";
  EXPECT_NE(json.find("smoke \\\"quoted\\\""), std::string::npos)
      << "ledger names must be JSON-escaped";
  EXPECT_NE(json.find("\"error\": \"gave up\""), std::string::npos);
  EXPECT_NE(json.find("\"quarantinedUnits\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"deadlineFailures\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"frameCapRejects\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"drainRequests\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"drained\": true"), std::string::npos);
  EXPECT_NE(json.find("\"bisections\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"quarantined\": [2, 5]"), std::string::npos)
      << "per-campaign quarantined task indices must round-trip";
}

TEST(CampaignServer, ClientRetriesARefusedConnectionWithBackoff) {
  CampaignSpec spec = builtinCampaignSpec("smoke");
  spec.items.resize(1);
  SubmitOptions o;
  o.socketPath =
      "/tmp/xlv-serve-test-nobody-" + std::to_string(::getpid()) + ".sock";
  o.maxRetries = 2;
  o.retryBaseMs = 1;  // keep the jittered backoff in the microsecond range
  o.retryJitterSeed = 7;
  const SubmitOutcome out = submitCampaign(spec, o);
  EXPECT_FALSE(out.accepted);
  EXPECT_FALSE(out.done);
  EXPECT_FALSE(out.rejected);
  EXPECT_EQ(out.retries, 2u) << "the whole retry budget goes to a refused connect";
  EXPECT_EQ(out.error.rfind("cannot connect", 0), 0u) << out.error;
}

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

/// A one-item campaign a served client can finish in a single unit.
CampaignSpec smallSpec(const std::string& name) {
  CampaignSpec spec = builtinCampaignSpec("smoke");
  spec.items.resize(1);
  spec.name = name;
  return spec;
}

/// sameResults over a single item pair — the quarantine tests compare each
/// SURVIVING item against a local run while the poisoned one carries an
/// error.
bool sameItem(const CampaignItemResult& a, const CampaignItemResult& b) {
  CampaignResult x, y;
  x.items.push_back(a);
  y.items.push_back(b);
  return x.sameResults(y);
}

/// Runs runCampaignServer on a background thread against a fresh /tmp
/// socket, waits until the listener is up, and joins (returning the ledger)
/// when the server's maxCampaignsServed bound stops it.
struct ServerHarness {
  ServeOptions opt;
  ServeResult result;
  std::string error;

  explicit ServerHarness(const std::function<void(ServeOptions&)>& tweak = {}) {
    static int counter = 0;
    path_ = "/tmp/xlv-serve-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++) + ".sock";
    opt.socketPath = path_;
    opt.workers = 3;
    opt.maxFragmentMutants = 2;
    opt.workerCommand = {XLV_CAMPAIGND_BIN, "worker"};
    opt.heartbeatIntervalMs = 100;
    opt.heartbeatTimeoutMs = 5000;
    opt.maxCampaignsServed = 1;
    if (tweak) tweak(opt);
    path_ = opt.socketPath;  // a tweak may point the server elsewhere
    thread_ = std::thread([this] {
      try {
        result = runCampaignServer(opt);
      } catch (const std::exception& e) {
        error = e.what();
      }
      stopped_.store(true);
    });
    // The listener must be accepting before the first client connects; a
    // server that died on startup stops the wait early (error tells why).
    // Probe with a real connect() — the socket file merely existing is not
    // enough when a stale file predates the server (it unlinks and rebinds).
    for (int i = 0; i < 500; ++i) {
      if (stopped_.load()) break;
      if (!opt.socketPath.empty()) {
        const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (probe >= 0) {
          sockaddr_un addr{};
          addr.sun_family = AF_UNIX;
          std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path_.c_str());
          const bool up =
              ::connect(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
          ::close(probe);
          if (up) break;
        }
      }
      if (opt.socketPath.empty() && i >= 20) break;  // TCP: just give it 200 ms
      ::usleep(10000);
    }
  }

  ~ServerHarness() {
    join();
    ::unlink(path_.c_str());
  }

  SubmitOptions clientOptions(const std::string& name) const {
    SubmitOptions o;
    o.socketPath = opt.socketPath;
    o.tcpPort = opt.tcpPort;
    o.clientName = name;
    return o;
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  const ServeLedger& ledger() {
    join();
    return result.ledger;
  }

 private:
  std::string path_;
  std::thread thread_;
  std::atomic<bool> stopped_{false};
};

#define XLV_REQUIRE_DAEMON()                                                \
  do {                                                                      \
    if (::access(XLV_CAMPAIGND_BIN, X_OK) != 0)                             \
      GTEST_SKIP() << "xlv_campaignd binary not built: " XLV_CAMPAIGND_BIN; \
  } while (0)

TEST(CampaignServer, ServedCampaignIsBitIdenticalToSingleProcess) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  ServerHarness server;
  const SubmitOutcome out =
      submitCampaign(builtinCampaignSpec("single"), server.clientOptions("clean"));
  ASSERT_TRUE(out.error.empty()) << out.error;
  EXPECT_TRUE(out.accepted);
  ASSERT_TRUE(out.done);
  EXPECT_FALSE(out.rejected);
  EXPECT_GT(out.campaignId, 0u);
  EXPECT_GT(out.unitCount, 1u) << "fragmentation produced no stealable units";
  EXPECT_EQ(out.outputs.size(), out.unitCount) << "every unit streams one result";
  EXPECT_TRUE(out.result.ok());
  EXPECT_TRUE(referenceResult().sameResults(out.result));

  const ServeLedger& ledger = server.ledger();
  EXPECT_TRUE(server.error.empty()) << server.error;
  EXPECT_EQ(ledger.campaignsAccepted, 1u);
  EXPECT_EQ(ledger.campaignsCompleted, 1u);
  EXPECT_EQ(ledger.campaignsRejected, 0u);
  EXPECT_EQ(ledger.campaignsCancelled, 0u);
  EXPECT_EQ(ledger.workersSpawned, 3u);
  ASSERT_EQ(ledger.campaigns.size(), 1u);
  const CampaignLedgerEntry& entry = ledger.campaigns.front();
  EXPECT_EQ(entry.name, "clean");
  EXPECT_EQ(entry.unitsCompleted, entry.unitsTotal);
  EXPECT_EQ(entry.unitsTotal, out.unitCount);
  EXPECT_FALSE(entry.cancelled);
  EXPECT_TRUE(entry.error.empty());
}

TEST(CampaignServer, SigkilledWorkerIsRespawnedAndServedResultStaysBitIdentical) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // Worker 0 (generation 0) SIGKILLs itself on its first unit — the
  // acceptance criterion's fault-injected serve run.
  env.set("worker.die:fail:worker=0");
  ServerHarness server;
  const SubmitOutcome out =
      submitCampaign(builtinCampaignSpec("single"), server.clientOptions("survivor"));
  ASSERT_TRUE(out.error.empty()) << out.error;
  ASSERT_TRUE(out.done);
  EXPECT_TRUE(out.result.ok());
  EXPECT_TRUE(referenceResult().sameResults(out.result));

  const ServeLedger& ledger = server.ledger();
  EXPECT_GE(ledger.workerRespawns, 1u);
  ASSERT_EQ(ledger.campaigns.size(), 1u);
  // The lost unit's re-queue is attributed to the campaign that owned it.
  EXPECT_GE(ledger.campaigns.front().requeuedShards.size(), 1u);
  EXPECT_EQ(ledger.campaigns.front().unitsCompleted, ledger.campaigns.front().unitsTotal);
}

TEST(CampaignServer, SmallCampaignsFinishBeforeAHugeCampaignsTail) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // One worker, hung on the huge campaign's first unit: while the
  // heartbeat clock runs down, two small submissions arrive. Round-robin
  // fairness then MUST finish both one-unit campaigns before the huge
  // campaign's remaining units — deterministically, not by timing luck.
  env.set("worker.hang:fail:worker=0");
  ServerHarness server([](ServeOptions& o) {
    o.workers = 1;
    o.heartbeatIntervalMs = 50;
    o.heartbeatTimeoutMs = 800;
    o.maxCampaignsServed = 3;
  });
  using Clock = std::chrono::steady_clock;
  Clock::time_point hugeDone, smallDone[2];
  SubmitOutcome huge, small[2];
  std::thread hugeClient([&] {
    SubmitOptions o = server.clientOptions("huge");
    o.maxFragmentMutants = 1;  // maximum stealable units -> longest tail
    huge = submitCampaign(builtinCampaignSpec("single"), o);
    hugeDone = Clock::now();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::thread smallClients[2];
  for (int i = 0; i < 2; ++i) {
    smallClients[i] = std::thread([&, i] {
      const std::string name = "small-" + std::to_string(i);
      small[i] = submitCampaign(smallSpec(name), server.clientOptions(name));
      smallDone[i] = Clock::now();
    });
  }
  hugeClient.join();
  for (auto& t : smallClients) t.join();

  ASSERT_TRUE(huge.error.empty()) << huge.error;
  ASSERT_TRUE(huge.done);
  EXPECT_TRUE(referenceResult().sameResults(huge.result));
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(small[i].error.empty()) << small[i].error;
    ASSERT_TRUE(small[i].done);
    // Each small campaign merges bit-identical to its own local run AND
    // beats the huge campaign to the finish line.
    core::clearProcessCaches();
    const CampaignResult local = runCampaign(smallSpec("small-" + std::to_string(i)));
    EXPECT_TRUE(local.sameResults(small[i].result));
    EXPECT_LT(smallDone[i], hugeDone) << "small campaign " << i
                                      << " finished after the huge one's tail";
  }

  const ServeLedger& ledger = server.ledger();
  EXPECT_EQ(ledger.campaignsCompleted, 3u);
  EXPECT_GE(ledger.workerRespawns, 1u) << "the hung worker was SIGKILLed and respawned";
  // The lost unit belonged to the huge campaign; the re-queue lands in ITS
  // ledger entry, not a neighbor's.
  for (const CampaignLedgerEntry& entry : ledger.campaigns) {
    if (entry.name == "huge") {
      EXPECT_GE(entry.requeuedShards.size(), 1u);
    } else {
      EXPECT_EQ(entry.requeuedShards.size(), 0u);
    }
  }
}

TEST(CampaignServer, FloodedQueueYieldsStructuredRejectAndTheSurvivorCompletes) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // The single worker hangs on the huge campaign's first unit, freezing
  // ~two dozen pending units in the admission queue; a second submission
  // during that window must bounce off maxPendingUnits with a structured
  // RejectFrame, not hang and not kill the server.
  env.set("worker.hang:fail:worker=0");
  ServerHarness server([](ServeOptions& o) {
    o.workers = 1;
    o.heartbeatIntervalMs = 50;
    o.heartbeatTimeoutMs = 1500;
    o.maxPendingUnits = 4;
    o.rejectRetryAfterMs = 123;
    o.maxCampaignsServed = 1;
  });
  SubmitOutcome huge;
  std::thread hugeClient([&] {
    SubmitOptions o = server.clientOptions("huge");
    o.maxFragmentMutants = 1;
    huge = submitCampaign(builtinCampaignSpec("single"), o);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const SubmitOutcome bounced =
      submitCampaign(smallSpec("flooded"), server.clientOptions("flooded"));
  EXPECT_TRUE(bounced.rejected);
  EXPECT_FALSE(bounced.accepted);
  EXPECT_FALSE(bounced.done);
  EXPECT_FALSE(bounced.rejectReason.empty());
  EXPECT_EQ(bounced.retryAfterMs, 123u);

  // The admitted campaign rides out the hang and still merges clean.
  hugeClient.join();
  ASSERT_TRUE(huge.error.empty()) << huge.error;
  ASSERT_TRUE(huge.done);
  EXPECT_TRUE(referenceResult().sameResults(huge.result));

  const ServeLedger& ledger = server.ledger();
  EXPECT_EQ(ledger.campaignsAccepted, 1u);
  EXPECT_EQ(ledger.campaignsRejected, 1u);
  EXPECT_EQ(ledger.campaignsCompleted, 1u);
}

TEST(CampaignServer, DisconnectingClientsCampaignIsCancelledAndOthersFinish) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  ServerHarness server([](ServeOptions& o) {
    o.workers = 1;  // serialize so the huge campaign is live when it dies
    o.maxCampaignsServed = 2;
  });
  SubmitOutcome dying;
  std::thread dyingClient([&] {
    SubmitOptions o = server.clientOptions("dying");
    o.maxFragmentMutants = 1;
    o.disconnectAfterItems = 1;  // hard-close mid-stream
    dying = submitCampaign(builtinCampaignSpec("single"), o);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const SubmitOutcome healthy =
      submitCampaign(smallSpec("healthy"), server.clientOptions("healthy"));
  dyingClient.join();

  EXPECT_TRUE(dying.disconnected);
  EXPECT_FALSE(dying.done);
  ASSERT_TRUE(healthy.error.empty()) << healthy.error;
  ASSERT_TRUE(healthy.done);
  core::clearProcessCaches();
  EXPECT_TRUE(runCampaign(smallSpec("healthy")).sameResults(healthy.result));

  const ServeLedger& ledger = server.ledger();
  EXPECT_TRUE(server.error.empty()) << server.error;
  EXPECT_EQ(ledger.campaignsAccepted, 2u);
  EXPECT_EQ(ledger.campaignsCancelled, 1u);
  EXPECT_EQ(ledger.campaignsCompleted, 1u);
  bool sawCancelled = false;
  for (const CampaignLedgerEntry& entry : ledger.campaigns) {
    if (entry.name == "dying") {
      sawCancelled = true;
      EXPECT_TRUE(entry.cancelled);
      EXPECT_LT(entry.unitsCompleted, entry.unitsTotal);
    }
  }
  EXPECT_TRUE(sawCancelled);
}

TEST(CampaignServer, LoopbackTcpServesToo) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // Deterministic-ish per-process port keeps parallel CI jobs apart; if
  // the port is taken anyway the server fails to bind and the test skips.
  const int port = 42000 + static_cast<int>(::getpid() % 20000);
  ServerHarness server([port](ServeOptions& o) {
    o.socketPath.clear();
    o.tcpPort = port;
  });
  SubmitOutcome out;
  for (int attempt = 0; attempt < 20; ++attempt) {
    out = submitCampaign(builtinCampaignSpec("single"), server.clientOptions("tcp"));
    if (out.accepted || out.rejected) break;
    if (!server.error.empty()) GTEST_SKIP() << "TCP bind failed: " << server.error;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_TRUE(out.error.empty()) << out.error;
  ASSERT_TRUE(out.done);
  EXPECT_TRUE(referenceResult().sameResults(out.result));
}

TEST(CampaignServer, PoisonFragmentIsBisectedUntilTheMutantIsQuarantined) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // Every worker of every generation SIGKILLs itself the moment it starts
  // item 0's mutant 1 — a reproducible poison unit. Attempt exhaustion must
  // bisect the [0,2) fragment, re-queue both halves, and quarantine the
  // irreducible [1,2) half: the campaign COMPLETES with a structured
  // per-item error instead of failing wholesale.
  env.set("worker.die:fail:item=0:mutant=1");
  ServerHarness server([](ServeOptions& o) {
    o.maxTaskAttempts = 2;
    o.maxWorkerRespawns = 50;  // each poison hit costs one respawn
  });
  const SubmitOutcome out =
      submitCampaign(builtinCampaignSpec("single"), server.clientOptions("poisoned"));
  ASSERT_TRUE(out.error.empty()) << out.error;
  ASSERT_TRUE(out.done);
  ASSERT_EQ(out.quarantined.size(), 1u);
  ASSERT_EQ(out.result.items.size(), 1u);
  EXPECT_NE(out.result.items[0].error.find("quarantined"), std::string::npos)
      << out.result.items[0].error;

  const ServeLedger& ledger = server.ledger();
  EXPECT_TRUE(server.error.empty()) << server.error;
  EXPECT_EQ(ledger.campaignsCompleted, 1u);
  EXPECT_EQ(ledger.bisections, 1u) << "one split isolates the poison in a 2-mutant fragment";
  EXPECT_EQ(ledger.quarantinedUnits, 1u);
  ASSERT_EQ(ledger.campaigns.size(), 1u);
  const CampaignLedgerEntry& entry = ledger.campaigns.front();
  EXPECT_EQ(entry.bisections, 1u);
  ASSERT_EQ(entry.quarantined.size(), 1u);
  EXPECT_TRUE(entry.error.empty()) << "quarantine must not be campaign-fatal: " << entry.error;
  // unitsTotal is the FINAL task count: the bisected original and the
  // quarantined half are retired, everything else completed.
  EXPECT_EQ(entry.unitsCompleted + 2, entry.unitsTotal);
}

TEST(CampaignServer, QuarantineIsolatesThePoisonItemAndNeighborsStayBitIdentical) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  env.set("worker.die:fail:item=1:mutant=0");
  CampaignSpec spec = builtinCampaignSpec("smoke");
  ASSERT_GE(spec.items.size(), 3u);
  spec.items.resize(3);
  spec.name = "quarantine-neighbors";
  ServerHarness server([](ServeOptions& o) {
    o.maxTaskAttempts = 2;
    o.maxWorkerRespawns = 50;
  });
  const SubmitOutcome out = submitCampaign(spec, server.clientOptions("neighbors"));
  ASSERT_TRUE(out.error.empty()) << out.error;
  ASSERT_TRUE(out.done);
  EXPECT_FALSE(out.quarantined.empty());
  ASSERT_EQ(out.result.items.size(), 3u);
  EXPECT_NE(out.result.items[1].error.find("quarantined"), std::string::npos)
      << out.result.items[1].error;

  // The poisoned item must not perturb its neighbors: items 0 and 2 merge
  // bit-identical to a clean single-process run of the same spec.
  core::clearProcessCaches();
  const CampaignResult local = runCampaign(spec);
  ASSERT_EQ(local.items.size(), 3u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_TRUE(out.result.items[i].error.empty()) << out.result.items[i].error;
    EXPECT_TRUE(sameItem(out.result.items[i], local.items[i]))
        << "surviving item " << i << " diverged from the local run";
  }
}

TEST(CampaignServer, SigtermDrainsFinishInFlightAndRejectsNewSubmissions) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // The single gen-0 worker hangs on the first unit, pinning the admitted
  // campaign live while the drain signal lands; the heartbeat then kills
  // the hung worker and its respawn finishes the campaign under drain.
  env.set("worker.hang:fail:worker=0");
  ServerHarness server([](ServeOptions& o) {
    o.workers = 1;
    o.heartbeatIntervalMs = 50;
    o.heartbeatTimeoutMs = 1500;
    o.maxCampaignsServed = 0;  // the drain, not a quota, ends this server
    o.enableSignalDrain = true;
  });
  SubmitOutcome inflight;
  std::thread inflightClient([&] {
    SubmitOptions o = server.clientOptions("inflight");
    o.maxFragmentMutants = 1;
    inflight = submitCampaign(builtinCampaignSpec("single"), o);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // The handler self-pipes; the embedded loop sees it on its next poll
  // wake-up. The hung worker guarantees the campaign is still live.
  ::kill(::getpid(), SIGTERM);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const SubmitOutcome bounced =
      submitCampaign(smallSpec("latecomer"), server.clientOptions("latecomer"));
  EXPECT_TRUE(bounced.rejected);
  EXPECT_NE(bounced.rejectReason.find("draining"), std::string::npos)
      << bounced.rejectReason;
  EXPECT_GT(bounced.retryAfterMs, 0u) << "a drain reject must carry a retry hint";

  inflightClient.join();
  ASSERT_TRUE(inflight.error.empty()) << inflight.error;
  ASSERT_TRUE(inflight.done);
  EXPECT_TRUE(referenceResult().sameResults(inflight.result));

  const ServeLedger& ledger = server.ledger();  // join(): drain exits the loop
  EXPECT_TRUE(server.error.empty()) << server.error;
  EXPECT_TRUE(ledger.drained);
  EXPECT_GE(ledger.drainRequests, 1u);
  EXPECT_EQ(ledger.campaignsCompleted, 1u);
  EXPECT_EQ(ledger.campaignsRejected, 1u);
  ASSERT_EQ(ledger.campaigns.size(), 1u);
  EXPECT_TRUE(ledger.campaigns.front().drained);
  EXPECT_TRUE(ledger.campaigns.front().error.empty());
}

TEST(CampaignServer, SecondServerOnALiveSocketRefusesToStealIt) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  ServerHarness server;  // live listener, idle
  ServeOptions opt2;
  opt2.socketPath = server.opt.socketPath;
  opt2.workerCommand = {XLV_CAMPAIGND_BIN, "worker"};
  try {
    runCampaignServer(opt2);
    FAIL() << "second server bound over a live listener";
  } catch (const DispatchError& e) {
    EXPECT_NE(std::string(e.what()).find("already listening"), std::string::npos)
        << e.what();
  }
  // The probe connection must not have harmed the incumbent: it still serves.
  const SubmitOutcome out =
      submitCampaign(smallSpec("after-probe"), server.clientOptions("after-probe"));
  ASSERT_TRUE(out.error.empty()) << out.error;
  EXPECT_TRUE(out.done);
}

TEST(CampaignServer, StaleSocketFileIsStillUnlinkedAndServed) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // A leftover socket FILE with no listener behind it (crashed server): the
  // connect() probe finds nobody home, so taking the path stays legal.
  const std::string stale =
      "/tmp/xlv-serve-test-stale-" + std::to_string(::getpid()) + ".sock";
  ::unlink(stale.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", stale.c_str());
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  ::close(fd);  // the file stays behind, bound to nothing
  ServerHarness server([&stale](ServeOptions& o) { o.socketPath = stale; });
  const SubmitOutcome out = submitCampaign(smallSpec("stale"), server.clientOptions("stale"));
  ASSERT_TRUE(out.error.empty()) << out.error;
  EXPECT_TRUE(out.done);
}

TEST(CampaignServer, OversizeSubmitFrameIsRejectedFromItsHeader) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  ServerHarness server([](ServeOptions& o) {
    o.maxClientFrameBytes = 256;  // any real spec blows this
    o.maxCampaignsServed = 0;
    o.enableSignalDrain = true;  // the drain is how this idle server exits
  });
  const SubmitOutcome out =
      submitCampaign(builtinCampaignSpec("single"), server.clientOptions("fat"));
  EXPECT_TRUE(out.rejected);
  EXPECT_FALSE(out.done);
  EXPECT_NE(out.rejectReason.find("exceeds connection cap"), std::string::npos)
      << out.rejectReason;
  EXPECT_EQ(out.retryAfterMs, 0u) << "a frame-cap reject is not retryable";
  ::kill(::getpid(), SIGTERM);
  const ServeLedger& ledger = server.ledger();
  EXPECT_TRUE(server.error.empty()) << server.error;
  EXPECT_EQ(ledger.frameCapRejects, 1u);
  EXPECT_EQ(ledger.campaignsRejected, 1u);
  EXPECT_EQ(ledger.campaignsAccepted, 0u);
}

TEST(CampaignServer, HalfOpenClientIsTimedOutWithAStructuredReject) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  ServerHarness server([](ServeOptions& o) {
    o.clientReadTimeoutMs = 200;
    o.maxCampaignsServed = 0;
    o.enableSignalDrain = true;
  });
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                server.opt.socketPath.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  // Send nothing: the server owes this half-open connection a reject frame
  // and a close, never an open-ended poll slot.
  std::string got;
  char buf[512];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) got.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  EXPECT_FALSE(got.empty()) << "connection closed without a reject frame";
  ::kill(::getpid(), SIGTERM);
  const ServeLedger& ledger = server.ledger();
  EXPECT_TRUE(server.error.empty()) << server.error;
  EXPECT_EQ(ledger.clientReadTimeouts, 1u);
  EXPECT_EQ(ledger.campaignsRejected, 1u);
}

TEST(CampaignServer, DeadlineExceededFailsTheCampaignStructurally) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  env.set("worker.hang:fail:worker=0");  // the worker sits on unit 0
  ServerHarness server([](ServeOptions& o) {
    o.workers = 1;
    o.heartbeatIntervalMs = 50;
    o.heartbeatTimeoutMs = 1500;  // the 300 ms deadline must fire FIRST
    o.maxCampaignsServed = 1;
  });
  SubmitOptions o = server.clientOptions("deadline");
  o.deadlineMs = 300;
  const SubmitOutcome out = submitCampaign(builtinCampaignSpec("single"), o);
  ASSERT_TRUE(out.done);
  EXPECT_NE(out.error.find("deadline exceeded"), std::string::npos) << out.error;

  const ServeLedger& ledger = server.ledger();
  EXPECT_TRUE(server.error.empty()) << server.error;
  EXPECT_EQ(ledger.deadlineFailures, 1u);
  ASSERT_EQ(ledger.campaigns.size(), 1u);
  EXPECT_NE(ledger.campaigns.front().error.find("deadline"), std::string::npos);
}

TEST(CampaignServer, RejectedSubmissionIsRetriedAfterTheServersHint) {
  XLV_REQUIRE_DAEMON();
  FaultEnv env;
  // The hung worker freezes the huge campaign's units in the admission
  // queue for its whole 1.5 s heartbeat window; both attempts of the
  // retrying client land inside it, so both bounce — proving the retry
  // actually ran and came back with the same structured answer.
  env.set("worker.hang:fail:worker=0");
  ServerHarness server([](ServeOptions& o) {
    o.workers = 1;
    o.heartbeatIntervalMs = 50;
    o.heartbeatTimeoutMs = 1500;
    o.maxPendingUnits = 4;
    o.rejectRetryAfterMs = 10;
    o.maxCampaignsServed = 1;
  });
  SubmitOutcome huge;
  std::thread hugeClient([&] {
    SubmitOptions o = server.clientOptions("huge");
    o.maxFragmentMutants = 1;
    huge = submitCampaign(builtinCampaignSpec("single"), o);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  SubmitOptions retrying = server.clientOptions("retrying");
  retrying.maxRetries = 1;
  retrying.retryBaseMs = 1;
  retrying.retryJitterSeed = 42;
  const SubmitOutcome bounced = submitCampaign(smallSpec("retrying"), retrying);
  EXPECT_TRUE(bounced.rejected);
  EXPECT_EQ(bounced.retries, 1u);

  hugeClient.join();
  ASSERT_TRUE(huge.error.empty()) << huge.error;
  ASSERT_TRUE(huge.done);
  EXPECT_TRUE(referenceResult().sameResults(huge.result));
  EXPECT_EQ(server.ledger().campaignsRejected, 2u);
}

TEST(CampaignServer, ServerRejectsMalformedOptions) {
  FaultEnv env;
  {
    ServeOptions opt;  // no listen address at all
    opt.workerCommand = {XLV_CAMPAIGND_BIN, "worker"};
    EXPECT_THROW(runCampaignServer(opt), std::invalid_argument);
  }
  {
    ServeOptions opt;
    opt.socketPath = "/tmp/xlv-serve-test-invalid.sock";
    EXPECT_THROW(runCampaignServer(opt), std::invalid_argument);  // no worker command
  }
  {
    ServeOptions opt;
    opt.socketPath = "/tmp/xlv-serve-test-invalid.sock";
    opt.workerCommand = {XLV_CAMPAIGND_BIN, "worker"};
    opt.heartbeatTimeoutMs = 0;
    EXPECT_THROW(runCampaignServer(opt), std::invalid_argument);
  }
}

#else  // !XLV_CAMPAIGND_BIN

TEST(CampaignServer, DaemonBinaryUnavailable) {
  GTEST_SKIP() << "built without XLV_CAMPAIGND_BIN (tools disabled)";
}

#endif

}  // namespace
}  // namespace xlv::campaign
