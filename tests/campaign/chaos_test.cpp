// Chaos conformance suite: the REAL xlv_campaignd daemon process under
// XLV_FAULTS (util/fault_point.h), driven over its Unix socket by in-process
// clients. The invariant locked here is the PR's acceptance criterion:
// every accepted campaign either completes bit-identical to a local run
// (per surviving item when units were quarantined) or fails with a
// STRUCTURED, attributed error — and the server process itself never dies.
// A SIGTERM always drains it to exit code 0 with a ledger that says so.
//
// The fault env is injected ONLY into the daemon's environment, so the
// in-process clients and the local reference runs stay clean. Workers
// inherit the daemon's env and arm the same fault points (their main()
// calls initFaultPointsFromEnv), which is intentional: frame.write and
// store.write chaos must hit both sides of every pipe.
#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/server.h"
#include "campaign/shard.h"
#include "core/flow.h"
#include "util/fault_point.h"
#include "util/subprocess.h"

#ifdef XLV_CAMPAIGND_BIN

namespace xlv::campaign {
namespace {

/// Keeps XLV_FAULTS out of the TEST process env and its registry, so only
/// the daemon's extraEnv decides what faults fly.
struct CleanEnv {
  CleanEnv() { clear(); }
  ~CleanEnv() { clear(); }
  static void clear() {
    ::unsetenv("XLV_FAULTS");
    util::reloadFaultPointsFromEnv();
  }
};

/// The real daemon as a child process: spawn `xlv_campaignd serve` with a
/// chaos env, wait for the listener, SIGTERM it to drain, and read back the
/// ledger JSON it wrote on exit.
struct Daemon {
  util::Subprocess proc;
  std::string sock;
  std::string ledgerFile;

  explicit Daemon(const util::SubprocessEnv& extraEnv, int workers = 2) {
    static int counter = 0;
    const std::string id =
        std::to_string(::getpid()) + "-" + std::to_string(counter++);
    sock = "/tmp/xlv-chaos-" + id + ".sock";
    ledgerFile = "/tmp/xlv-chaos-ledger-" + id + ".json";
    ::unlink(sock.c_str());
    ::unlink(ledgerFile.c_str());
    proc = util::Subprocess::spawn(
        {XLV_CAMPAIGND_BIN, "serve", "--socket", sock, "--workers",
         std::to_string(workers), "--max-fragment", "2", "--heartbeat-ms", "50",
         "--heartbeat-timeout-ms", "5000", "--max-attempts", "3",
         "--max-respawns", "50", "--ledger", ledgerFile},
        extraEnv);
  }

  ~Daemon() {
    if (proc.started() && proc.running()) proc.kill(SIGKILL);
    if (proc.started()) proc.wait();
    ::unlink(sock.c_str());
    ::unlink(ledgerFile.c_str());
  }

  bool waitListening() {
    for (int i = 0; i < 500; ++i) {
      if (::access(sock.c_str(), F_OK) == 0) return true;
      if (!proc.running()) return false;
      ::usleep(10000);
    }
    return false;
  }

  /// SIGTERM, wait for exit, and return the exit code (-1 on signal death —
  /// which is exactly what the conformance tests must never see).
  int drain() {
    if (proc.running()) proc.kill(SIGTERM);
    return proc.wait();
  }

  std::string ledgerJson() const {
    std::ifstream in(ledgerFile);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  SubmitOptions clientOptions(const std::string& name) const {
    SubmitOptions o;
    o.socketPath = sock;
    o.clientName = name;
    return o;
  }
};

const CampaignResult& localSingle() {
  static const CampaignResult* ref = [] {
    core::clearProcessCaches();
    auto* r = new CampaignResult(runCampaign(builtinCampaignSpec("single")));
    core::clearProcessCaches();
    return r;
  }();
  return *ref;
}

CampaignSpec oneItemSpec(const std::string& name) {
  CampaignSpec spec = builtinCampaignSpec("smoke");
  spec.items.resize(1);
  spec.name = name;
  return spec;
}

bool sameItem(const CampaignItemResult& a, const CampaignItemResult& b) {
  CampaignResult x, y;
  x.items.push_back(a);
  y.items.push_back(b);
  return x.sameResults(y);
}

/// THE invariant: a campaign that reports clean completion must match the
/// local truth item-for-item (quarantined items excepted — they must carry
/// their attribution instead); any other outcome must be structured, never
/// a silent empty result.
void expectConformant(const SubmitOutcome& out, const CampaignResult& local,
                      const std::string& who) {
  if (out.done && out.error.empty()) {
    ASSERT_EQ(out.result.items.size(), local.items.size()) << who;
    for (std::size_t i = 0; i < local.items.size(); ++i) {
      if (!out.result.items[i].error.empty()) {
        EXPECT_NE(out.result.items[i].error.find("quarantined"), std::string::npos)
            << who << " item " << i << ": unattributed error: "
            << out.result.items[i].error;
        continue;
      }
      EXPECT_TRUE(sameItem(out.result.items[i], local.items[i]))
          << who << " item " << i << " diverged from the local run";
    }
  } else if (out.rejected) {
    EXPECT_FALSE(out.rejectReason.empty()) << who << ": reject without a reason";
  } else {
    EXPECT_FALSE(out.error.empty())
        << who << ": non-done outcome without a structured error";
  }
}

#define XLV_REQUIRE_CHAOS_DAEMON()                                          \
  do {                                                                      \
    if (::access(XLV_CAMPAIGND_BIN, X_OK) != 0)                             \
      GTEST_SKIP() << "xlv_campaignd binary not built: " XLV_CAMPAIGND_BIN; \
  } while (0)

TEST(CampaignChaos, FaultStormNeverKillsTheServerAndSurvivorsStayBitIdentical) {
  XLV_REQUIRE_CHAOS_DAEMON();
  CleanEnv clean;
  // The storm: worker 0's spawn fails outright (the slot is retired),
  // worker 1 SIGKILLs itself on its first unit (the slot is respawned),
  // every frame write on either side can come up short, and the artifact
  // store drops a fifth of its writes (degrading to recomputation).
  // Deterministic seeds keep the schedule reproducible.
  Daemon daemon({{"XLV_FAULTS",
                  "worker.spawn:fail:times=1,"
                  "worker.die:fail:worker=1,"
                  "frame.write:short:p=0.01:seed=3,"
                  "store.write:fail:p=0.2:seed=4"}},
                3);
  ASSERT_TRUE(daemon.waitListening()) << "daemon died on startup";

  core::clearProcessCaches();
  const CampaignResult localOne = runCampaign(oneItemSpec("chaos-a"));

  const SubmitOutcome big = submitCampaign(builtinCampaignSpec("single"),
                                           daemon.clientOptions("chaos-big"));
  expectConformant(big, localSingle(), "chaos-big");
  for (const char* name : {"chaos-a", "chaos-b"}) {
    SubmitOptions o = daemon.clientOptions(name);
    o.maxRetries = 2;
    o.retryBaseMs = 50;
    o.retryJitterSeed = 11;
    const SubmitOutcome out = submitCampaign(oneItemSpec(name), o);
    // The two one-item specs are identical up to the name the ledger sees.
    expectConformant(out, localOne, name);
  }

  // The whole storm and the server is still standing — and a SIGTERM still
  // means a clean drain, exit 0, and a ledger that records it.
  ASSERT_TRUE(daemon.proc.running()) << "server died under chaos";
  EXPECT_EQ(daemon.drain(), 0);
  const std::string ledger = daemon.ledgerJson();
  ASSERT_FALSE(ledger.empty()) << "no ledger written on drain";
  EXPECT_NE(ledger.find("\"drained\": true"), std::string::npos) << ledger;
}

TEST(CampaignChaos, MalformedWorkerClauseStopsTheDaemonBeforeAnyUnitRuns) {
  XLV_REQUIRE_CHAOS_DAEMON();
  CleanEnv clean;
  // A typo in a worker clause is a start-up diagnostic and exit 1 — the
  // daemon never listens, so no worker can run a unit with the fault
  // silently dropped. The daemon inherits the captured stderr.
  testing::internal::CaptureStderr();
  Daemon daemon({{"XLV_FAULTS", "worker.die:fail:worker=abc"}}, 2);
  const int rc = daemon.proc.started() ? daemon.proc.wait() : -2;
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 1) << err;
  EXPECT_NE(err.find("XLV_FAULTS:"), std::string::npos) << err;
  EXPECT_EQ(err.find("worker 0"), std::string::npos) << err;
  EXPECT_NE(::access(daemon.sock.c_str(), F_OK), 0) << "the daemon listened";
}

TEST(CampaignChaos, AcceptFaultsBounceConnectionsButNeverTheServer) {
  XLV_REQUIRE_CHAOS_DAEMON();
  CleanEnv clean;
  // More than half of all accepted connections are dropped on the floor.
  // Clients see structured connect/transport errors; retries (and plain
  // persistence) still get campaigns through, and the listener never dies.
  Daemon daemon({{"XLV_FAULTS", "server.accept:fail:p=0.6:seed=9"}}, 2);
  ASSERT_TRUE(daemon.waitListening()) << "daemon died on startup";

  core::clearProcessCaches();
  const CampaignResult local = runCampaign(oneItemSpec("accept-chaos"));
  int completed = 0;
  for (int i = 0; i < 20 && completed == 0; ++i) {
    const SubmitOutcome out =
        submitCampaign(oneItemSpec("accept-chaos"), daemon.clientOptions("accept"));
    expectConformant(out, local, "accept-chaos");
    if (out.done && out.error.empty()) ++completed;
    ASSERT_TRUE(daemon.proc.running()) << "server died on a dropped accept";
  }
  EXPECT_GT(completed, 0) << "no submission survived 20 attempts at p=0.6";
  EXPECT_EQ(daemon.drain(), 0);
}

TEST(CampaignChaos, MidRunSigtermDrainsTheInFlightCampaignAndExitsZero) {
  XLV_REQUIRE_CHAOS_DAEMON();
  CleanEnv clean;
  Daemon daemon({}, 1);
  ASSERT_TRUE(daemon.waitListening()) << "daemon died on startup";

  SubmitOutcome inflight;
  std::thread client([&] {
    SubmitOptions o = daemon.clientOptions("inflight");
    o.maxFragmentMutants = 1;  // longest tail: the drain has work to finish
    inflight = submitCampaign(builtinCampaignSpec("single"), o);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // First SIGTERM: drain. The in-flight campaign must still complete and
  // reach its client before the process exits 0.
  if (daemon.proc.running()) daemon.proc.kill(SIGTERM);
  client.join();
  ASSERT_TRUE(inflight.error.empty()) << inflight.error;
  ASSERT_TRUE(inflight.done);
  EXPECT_TRUE(localSingle().sameResults(inflight.result));
  EXPECT_EQ(daemon.proc.wait(), 0);

  const std::string ledger = daemon.ledgerJson();
  ASSERT_FALSE(ledger.empty());
  EXPECT_NE(ledger.find("\"drained\": true"), std::string::npos) << ledger;
  EXPECT_NE(ledger.find("\"campaignsCompleted\": 1"), std::string::npos) << ledger;
}

}  // namespace
}  // namespace xlv::campaign

#else  // !XLV_CAMPAIGND_BIN

TEST(CampaignChaos, DaemonBinaryUnavailable) {
  GTEST_SKIP() << "built without XLV_CAMPAIGND_BIN (tools disabled)";
}

#endif
