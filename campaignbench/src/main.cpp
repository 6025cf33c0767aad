// campaignbench — end-to-end benchmark of mutation campaigns.
//
//   campaignbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//
// Workloads (README.md explains why each exists):
//   matrix-cold  `xlv_campaign run --backend auto` on the 16-item paper
//                matrix, a fresh --cache-dir per campaign;
//   native-cold  the matrix's Handshake items with a shorter testbench,
//                `--backend native --require-native`, a fresh --cache-dir
//                per campaign;
//   rerun-warm   matrix-cold's spec re-run against a store prefilled in
//                set-up;
//   served-warm  `xlv_campaignd serve` with 3 workers and a prefilled store,
//                3 closed-loop in-process submitCampaign clients sending a
//                seeded mix of 16-item and 1-item campaigns (two to one).
//
// --trace 0 measures the tools as users run them and prints the end-to-end
// metrics. --trace 1 replays the workload's campaigns in-process through the
// layers' public functions with spans around each call (replay.h) and
// prints the per-layer metrics; the spans are written as Chrome trace-event
// JSON under .bench_out/. Either way every campaign result is checked
// against an in-process interpreter reference with sameResults and exact
// verdict counts; the last stdout line is the JSON result, and the exit
// code is nonzero when any campaign failed.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "abstraction/native_backend.h"
#include "campaign/serialize.h"
#include "campaign/server.h"
#include "campaign/shard.h"
#include "core/flow.h"
#include "proc.h"
#include "replay.h"
#include "spec.h"
#include "stats.h"
#include "trace.h"
#include "util/fnv.h"
#include "util/prng.h"
#include "util/subprocess.h"

namespace {

using namespace xlv;
using namespace campaignbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const std::vector<std::string> kWorkloads = {"matrix-cold", "native-cold", "rerun-warm",
                                             "served-warm"};
/// Testbench cycles of the matrix: long enough that mutation analysis is
/// nearly all of a cold campaign's item time.
constexpr std::uint64_t kMatrixCycles = 4000;
/// native-cold's shorter testbench: the compile, not the simulation, blocks
/// the result.
constexpr std::uint64_t kNativeCycles = 400;
/// native-cold's case study. The matrix's items run one after another
/// (spec.h), so its 8 distinct native compiles take about 20 s; the
/// Handshake items compile in about 2 s, which leaves room for several
/// campaigns in a run.
const char* const kNativeCase = "Handshake";
/// Set-up repeats per run; setup_s is their median. A cheap set-up (a few
/// milliseconds on native-cold) repeats until kSetupMinSeconds have passed:
/// over a shorter window its median moved by half from run to run.
constexpr int kSetupRepeats = 3;
constexpr double kSetupMinSeconds = 3.0;
constexpr int kSetupMaxRepeats = 2000;
constexpr int kServedClients = 3;
constexpr int kServedWorkers = 3;
constexpr int kSpawnProbes = 5;
/// served-warm reads the daemon's peak RSS when this many campaigns have
/// been served, not at the end: the daemon's RSS grows with every campaign
/// it serves, so an end-of-run figure would follow throughput.
constexpr std::uint64_t kRssProbeCampaigns = 100;
/// Budget of one cold tool process (about 2 s on 4 cores) and of one warm
/// or served campaign (under 0.2 s); a hung one is killed and counted as
/// failed.
constexpr double kColdTimeoutSeconds = 60.0;
constexpr double kWarmTimeoutSeconds = 10.0;
constexpr double kDaemonStopTimeoutSeconds = 30.0;
/// The whole run must end within 180 s; past this, the watchdog kills every
/// child and exits without a result. --seconds is capped at
/// kMaxTimedSeconds so that the set-ups (about 15 s together on 4 cores),
/// the timed region and a last campaign up to its kill budget fit under the
/// watchdog.
constexpr double kRunWatchdogSeconds = 170.0;
constexpr int kMaxTimedSeconds = 60;
constexpr double kSetupAllowanceSeconds = 30.0;
static_assert(kSetupAllowanceSeconds + kMaxTimedSeconds + kColdTimeoutSeconds <
              kRunWatchdogSeconds);

const char* const kCampaignTool = CAMPAIGNBENCH_XLV_CAMPAIGN;
const char* const kDaemonTool = CAMPAIGNBENCH_XLV_CAMPAIGND;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Mutation-analysis threads of every measured campaign: half the cores, at
/// most 3. The other half is headroom for the benchmark's own process and
/// for the rest of a shared machine.
int analysisThreads() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores / 2, 1, 3);
}

// --- arguments ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "campaignbench: %s\n\n"
               "usage: campaignbench --workload NAME --seed N [--seconds S] [--trace 0|1]\n"
               "workloads: matrix-cold, native-cold, rerun-warm, served-warm\n",
               error.c_str());
  std::exit(2);
}

std::uint64_t parseUnsigned(const std::string& flag, const std::string& v) {
  std::uint64_t n = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  if (v.empty() || ec != std::errc{} || end != v.data() + v.size()) {
    usage(flag + ": '" + v + "' is not a non-negative integer");
  }
  return n;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false, haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      if (std::find(kWorkloads.begin(), kWorkloads.end(), v) == kWorkloads.end()) {
        usage("unknown workload '" + v + "'");
      }
      a.workload = v;
      haveWorkload = true;
    } else if (flag == "--seed") {
      a.seed = parseUnsigned(flag, v);
      haveSeed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parseUnsigned(flag, v);
      if (s < 1 || s > static_cast<std::uint64_t>(kMaxTimedSeconds)) {
        usage("--seconds must be in [1, " + std::to_string(kMaxTimedSeconds) + "]");
      }
      a.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (!haveWorkload) usage("--workload is required");
  if (!haveSeed) usage("--seed is required");
  return a;
}

// --- files --------------------------------------------------------------------

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !(out << data)) throw std::runtime_error("cannot write '" + path + "'");
}

std::uint64_t directoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// FNV-1a over the library and tool sources (paths and contents), so a
/// result names the code it measured even where no git metadata exists.
std::uint64_t sourceFingerprint() {
  std::vector<std::string> files;
  for (const char* root : {"src", "tools"}) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (it->is_regular_file(ec)) files.push_back(it->path().generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  std::uint64_t h = util::fnv1a64("");
  for (const auto& f : files) h = util::fnv1a64(f + '\0' + readFile(f), h);
  return h;
}

std::string gitCommit() {
  const util::SubprocessResult r = util::runCommandCapture({"git", "rev-parse", "HEAD"});
  if (!r.ok() || r.output.size() < 40) return "unknown";
  return r.output.substr(0, 40);
}

std::string jsonEscape(const std::string& s) {
  std::string r;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      r += '\\';
      r += c;
    } else if (c == '\n') {
      r += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      r += c;
    }
  }
  return r;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// --- verification -------------------------------------------------------------

/// What a timed campaign result must match.
struct Expected {
  const campaign::CampaignResult* reference = nullptr;
  ExactCounts counts;
  /// Warm runs: every mutant verdict must come from the result cache.
  bool analysisFree = false;
  /// Cold runs: the cycle ledgers must repeat the reference's exactly.
  bool exactCycles = false;
};

/// Empty when `r` passes; otherwise why not.
std::string verify(const campaign::CampaignResult& r, const Expected& e) {
  if (!r.ok()) return "item error: " + r.firstError()->error;
  if (!r.sameResults(*e.reference)) return "not bit-identical to the interpreter reference";
  ExactCounts got = exactCounts(r);
  if (!e.exactCycles) {
    got.cyclesSimulated = e.counts.cyclesSimulated;
    got.cyclesSkipped = e.counts.cyclesSkipped;
  }
  if (!(got == e.counts)) return "verdict or cycle counts differ from the reference";
  if (e.analysisFree && static_cast<std::uint64_t>(r.mutantCacheHits) != e.counts.mutants) {
    return "warm run simulated mutants (cache hits " + std::to_string(r.mutantCacheHits) +
           " of " + std::to_string(e.counts.mutants) + ")";
  }
  return {};
}

// --- set-up -------------------------------------------------------------------

struct Daemon {
  Daemon() = default;
  Daemon(Daemon&&) = default;
  Daemon& operator=(Daemon&&) = default;
  /// Drains a daemon still running (SIGTERM: in-flight campaigns finish).
  ~Daemon() {
    child.signal(SIGTERM);
    child.wait(kDaemonStopTimeoutSeconds);
  }
  Child child;
  std::string socketPath;
  std::string ledgerPath;
  std::string logPath;
  int workers = 0;
  double readySeconds = 0.0;
};

struct Setup {
  std::string dir;
  campaign::CampaignSpec spec;
  std::string specPath;
  campaign::CampaignResult reference;
  ExactCounts counts;
  std::vector<campaign::CampaignSpec> singles;          ///< served-warm
  std::vector<campaign::CampaignResult> singleRefs;     ///< parallel to singles
  std::string storeDir;                                 ///< warm workloads
  std::optional<Daemon> daemon;                         ///< served-warm
};

/// What a timed result of this set-up's spec must match: cold runs repeat
/// the reference's cycle ledgers, warm runs are analysis-free.
Expected expectedFor(const Setup& s, bool cold) { return {&s.reference, s.counts, !cold, cold}; }

/// A set-up or infrastructure failure: no result can be measured. Thrown,
/// not exited, so every child process is stopped on the way out.
[[noreturn]] void fatal(const std::string& what) { throw std::runtime_error(what); }

bool connectsTo(const std::string& socketPath) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socketPath.c_str(), sizeof(addr.sun_path) - 1);
  const bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

Daemon startDaemon(const std::string& dir, const std::string& storeDir, int workers) {
  Daemon d;
  d.workers = workers;
  d.socketPath = dir + "/d.sock";
  d.ledgerPath = dir + "/ledger.json";
  d.logPath = dir + "/daemon.log";
  const auto t0 = Clock::now();
  d.child = Child::spawn({kDaemonTool, "serve", "--socket", d.socketPath, "--workers",
                          std::to_string(workers), "--cache-dir", storeDir, "--ledger",
                          d.ledgerPath},
                         d.logPath);
  if (!d.child.started()) fatal("cannot start " + std::string(kDaemonTool));
  // Ready = the first connection the daemon accepts.
  while (!connectsTo(d.socketPath)) {
    if (secondsSince(t0) > 60.0) fatal("daemon did not start listening within 60 s");
    if (::kill(d.child.pid(), 0) != 0) fatal("daemon died at start:\n" + logTail(d.logPath));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  d.readySeconds = secondsSince(t0);
  return d;
}

/// Drain the daemon and reap it.
ChildExit stopDaemon(Daemon& d) {
  d.child.signal(SIGTERM);
  return d.child.wait(kDaemonStopTimeoutSeconds);
}

Setup setUp(const Args& args, const std::string& dir) {
  Setup s;
  s.dir = dir;
  fs::create_directories(dir);
  s.spec = args.workload == "native-cold"
               ? caseSubsetSpec(paperMatrixSpec(args.seed, kNativeCycles, analysisThreads()),
                                kNativeCase)
               : paperMatrixSpec(args.seed, kMatrixCycles, analysisThreads());
  s.specPath = dir + "/spec.xlv";
  writeFile(s.specPath, campaign::encodeCampaignSpec(s.spec));

  // The untimed reference: in-process, interpreter, no store, cold caches,
  // one thread. The serial path is the campaign's defining semantics
  // (results are bit-identical at any thread count).
  campaign::CampaignSpec refSpec = s.spec;
  for (auto& item : refSpec.items) {
    item.options.backend = analysis::SimBackend::Interpreter;
    item.options.analysisThreads = 1;
  }
  core::clearProcessCaches();
  util::configureProcessArtifactStore(std::nullopt);
  s.reference = campaign::runCampaign(refSpec);
  core::clearProcessCaches();
  if (!s.reference.ok()) fatal("reference campaign failed: " + s.reference.firstError()->error);
  s.counts = exactCounts(s.reference);

  if (args.workload == "rerun-warm" || args.workload == "served-warm") {
    s.storeDir = dir + "/store";
    const std::string out = dir + "/prefill.xlv";
    const ChildExit ex = runChild({kCampaignTool, "run", "--spec", s.specPath, "--cache-dir",
                                   s.storeDir, "-o", out},
                                  dir + "/prefill.log", kColdTimeoutSeconds);
    if (!ex.ok()) fatal("store prefill failed:\n" + logTail(dir + "/prefill.log"));
    const std::string why = verify(campaign::decodeCampaignResult(readFile(out)),
                                   expectedFor(s, true));
    if (!why.empty()) fatal("store prefill result: " + why);
  }
  if (args.workload == "served-warm") {
    for (std::size_t i = 0; i < s.spec.items.size(); ++i) {
      s.singles.push_back(singleItemSpec(s.spec, i));
      // An item's result does not depend on the other items of its
      // campaign, so the matrix reference holds each one-item reference.
      campaign::CampaignResult ref;
      ref.name = s.singles.back().name;
      ref.items.push_back(s.reference.items[i]);
      s.singleRefs.push_back(std::move(ref));
    }
    const int workers = std::min<int>(kServedWorkers,
                                      static_cast<int>(std::thread::hardware_concurrency()));
    s.daemon = startDaemon(dir, s.storeDir, std::max(1, workers));
  }
  return s;
}

void tearDown(Setup& s) {
  if (s.daemon) stopDaemon(*s.daemon);
  std::error_code ec;
  fs::remove_all(s.dir, ec);
}

// --- measurement --------------------------------------------------------------

struct Tally {
  std::mutex mutex;
  std::vector<double> latencies;  ///< verified campaigns only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mutants = 0;
  long peakRssKb = 0;
  std::string firstFailure;

  void record(double latency, std::uint64_t mutantCount, const std::string& failure) {
    std::lock_guard<std::mutex> lock(mutex);
    ++attempted;
    if (!failure.empty()) {
      ++failed;
      if (firstFailure.empty()) firstFailure = failure;
      std::fprintf(stderr, "campaignbench: campaign %llu failed: %s\n",
                   static_cast<unsigned long long>(attempted), failure.c_str());
      return;
    }
    latencies.push_back(latency);
    mutants += mutantCount;
  }
  void rss(long kb) {
    std::lock_guard<std::mutex> lock(mutex);
    peakRssKb = std::max(peakRssKb, kb);
  }
};

/// One `xlv_campaign run` child, timed from launch to its verified result.
void toolCampaign(const std::vector<std::string>& argv, const std::string& out,
                  const std::string& log, double timeoutSeconds, const Expected& e,
                  Tally& tally) {
  const auto t0 = Clock::now();
  const ChildExit ex = runChild(argv, log, timeoutSeconds);
  std::string failure;
  if (ex.timedOut) {
    failure = "xlv_campaign hung; killed after " + fmt(timeoutSeconds) + " s";
  } else if (!ex.ok()) {
    failure = "xlv_campaign exited " + std::to_string(ex.exitCode) + " (signal " +
              std::to_string(ex.termSignal) + "):\n" + logTail(log);
  } else {
    try {
      failure = verify(campaign::decodeCampaignResult(readFile(out)), e);
    } catch (const std::exception& err) {
      failure = std::string("undecodable result: ") + err.what();
    }
  }
  tally.record(secondsSince(t0), e.counts.mutants, failure);
  tally.rss(ex.maxRssKb);
}

/// The seeded campaign order of one served client: blocks of two 16-item
/// campaigns and one one-item campaign, shuffled per block. Index -1 = the
/// matrix, otherwise a one-item campaign of that item. The ratio is an
/// assumption (README.md): with the 16-item campaigns in the majority,
/// campaign_p50_s follows the path that scheduling and merge load most.
class ServedMix {
 public:
  ServedMix(std::uint64_t seed, int client, std::size_t items)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(client) + 1),
        items_(items) {}
  int next() {
    if (block_.empty()) {
      block_ = {-1, -1, static_cast<int>(rng_.below(items_))};
      for (std::size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng_.below(i + 1)]);
      }
    }
    const int v = block_.back();
    block_.pop_back();
    return v;
  }

 private:
  util::Prng rng_;
  std::size_t items_;
  std::vector<int> block_;
};

/// Counters of the daemon's --ledger JSON: top-level fields take their
/// first occurrence, per-campaign fields ("requeues") are summed.
std::uint64_t ledgerField(const std::string& json, const std::string& key, bool sum) {
  const std::string needle = "\"" + key + "\": ";
  std::uint64_t total = 0;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    total += std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
    if (!sum) break;
  }
  return total;
}

struct ServedCampaign {
  campaign::SubmitOutcome outcome;
  double latency = 0.0;  ///< submitCampaign's call to its return
  std::string failure;
  std::size_t resultBytes = 0;
};

/// One served submission. Only submitCampaign is timed: it returns the
/// merged result a client waits for, which is then checked against the
/// reference. When the tracer is on, the streamed outputs are also merged
/// again and round-tripped through the result codec, under the
/// shard.merge / serialize.* spans; untraced runs skip that, so the closed
/// loop carries as little of the benchmark's own work as possible.
ServedCampaign servedCampaign(const campaign::CampaignSpec& spec,
                              const campaign::CampaignResult& ref, const Setup& s,
                              const std::string& client, Tracer& tracer,
                              std::uint64_t campaignId) {
  ServedCampaign sc;
  Tracer::Scope span(tracer, "campaign", 0, campaignId);
  campaign::SubmitOptions opt;
  opt.socketPath = s.daemon->socketPath;
  opt.clientName = client;
  opt.deadlineMs = static_cast<std::uint64_t>(kWarmTimeoutSeconds * 1000);
  const auto t0 = Clock::now();
  {
    Tracer::Scope submit(tracer, "server.submit");
    sc.outcome = campaign::submitCampaign(spec, opt);
  }
  sc.latency = secondsSince(t0);
  const campaign::SubmitOutcome& o = sc.outcome;
  if (o.rejected) {
    sc.failure = "rejected: " + o.rejectReason;
  } else if (!o.done || !o.error.empty()) {
    sc.failure = "submit failed: " + o.error;
  } else if (!o.quarantined.empty()) {
    sc.failure = "server quarantined units";
  } else try {
    const Expected e{&ref, exactCounts(ref), true, false};
    sc.failure = verify(o.result, e);
    if (!tracer.enabled()) return sc;
    campaign::CampaignResult merged;
    {
      Tracer::Scope merge(tracer, "shard.merge");
      merged = campaign::mergeShards(spec, o.outputs);
    }
    std::string bytes;
    {
      Tracer::Scope enc(tracer, "serialize.result_encode");
      bytes = campaign::encodeCampaignResult(merged);
    }
    campaign::CampaignResult decoded;
    {
      Tracer::Scope dec(tracer, "serialize.result_decode");
      decoded = campaign::decodeCampaignResult(bytes);
    }
    sc.resultBytes = bytes.size();
    if (sc.failure.empty()) sc.failure = verify(decoded, e);
  } catch (const std::exception& err) {
    sc.failure = std::string("merge or codec failed: ") + err.what();
  }
  return sc;
}

// --- result output ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 && tally.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  char buf[192];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string infoLine(const Args& args, const Setup& s, const Tally& tally,
                     const std::vector<std::string>& stripped,
                     const std::vector<std::pair<std::string, std::string>>& extra) {
  auto quoted = [](const std::string& v) { return "\"" + jsonEscape(v) + "\""; };
  std::string strippedList = "[";
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    strippedList += (i ? ", " : "") + quoted(stripped[i]);
  }
  strippedList += "]";
  char fnv[32];
  std::snprintf(fnv, sizeof(fnv), "%016llx",
                static_cast<unsigned long long>(campaign::campaignSpecFnv(s.spec)));
  char src[32];
  std::snprintf(src, sizeof(src), "%016llx", static_cast<unsigned long long>(sourceFingerprint()));
  std::vector<std::pair<std::string, std::string>> fields = {
      {"workload", quoted(args.workload)},
      {"seed", std::to_string(args.seed)},
      {"seconds", std::to_string(args.seconds)},
      {"trace", args.trace ? "1" : "0"},
      {"spec_fnv", quoted(fnv)},
      {"items", std::to_string(s.counts.items)},
      {"mutants", std::to_string(s.counts.mutants)},
      {"killed", std::to_string(s.counts.killed)},
      {"risen", std::to_string(s.counts.risen)},
      {"cycles_simulated", std::to_string(s.counts.cyclesSimulated)},
      {"cycles_skipped", std::to_string(s.counts.cyclesSkipped)},
      {"failed_ratio", std::to_string(tally.attempted ? static_cast<double>(tally.failed) /
                                                            static_cast<double>(tally.attempted)
                                                      : 1.0)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", quoted(CAMPAIGNBENCH_BUILD_TYPE)},
      {"native_toolchain", quoted(abstraction::nativeToolchainDescription())},
      {"git_commit", quoted(gitCommit())},
      {"source_fnv", quoted(src)},
      {"stripped_env", strippedList}};
  fields.insert(fields.end(), extra.begin(), extra.end());
  std::string out = "{\"info\": {";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += (i ? ", \"" : "\"") + fields[i].first + "\": " + fields[i].second;
  }
  return out + "}}";
}

// --- the two modes ------------------------------------------------------------

/// One finished served campaign, as a client reports it.
struct ServedSample {
  std::uint64_t id;
  bool traced;
  std::uint64_t mutants;
  const ServedCampaign& campaign;
};

/// kServedClients closed-loop clients, each submitting its seeded mix until
/// `done()` holds after one of its campaigns. With `alternate`, every
/// second campaign is traced. `onCampaign` is called from the client
/// threads. Returns the daemon's peak RSS in KiB (its own or a worker's),
/// read when kRssProbeCampaigns campaigns have finished, or at the end of a
/// run that served fewer.
long runServedClients(const Args& args, const Setup& s, Tracer& tracer, bool alternate,
                      const std::function<bool()>& done,
                      const std::function<void(const ServedSample&)>& onCampaign) {
  std::atomic<std::uint64_t> ids{0}, finished{0};
  std::atomic<long> rssKb{0};
  Tracer off;
  off.setEnabled(false);
  std::vector<std::thread> threads;
  for (int c = 0; c < kServedClients; ++c) {
    threads.emplace_back([&, c] {
      ServedMix mix(args.seed, c, s.singles.size());
      do {
        const int pick = mix.next();
        const campaign::CampaignSpec& spec = pick < 0 ? s.spec : s.singles[pick];
        const campaign::CampaignResult& ref = pick < 0 ? s.reference : s.singleRefs[pick];
        const std::uint64_t id = ++ids;
        const bool traced = alternate && id % 2 == 0;
        const ServedCampaign sc = servedCampaign(spec, ref, s, "bench-client-" + std::to_string(c),
                                                 traced ? tracer : off, id);
        if (++finished == kRssProbeCampaigns) {
          rssKb = liveTreePeakRssKb(s.daemon->child.pid());
        }
        onCampaign({id, traced, exactCounts(ref).mutants, sc});
      } while (!done());
    });
  }
  for (auto& t : threads) t.join();
  if (finished < kRssProbeCampaigns) rssKb = liveTreePeakRssKb(s.daemon->child.pid());
  return rssKb;
}

/// Stop the daemon after the timed region; a daemon that did not exit
/// cleanly fails the run.
ChildExit finishDaemon(Setup& s, Tally& tally) {
  const ChildExit ex = stopDaemon(*s.daemon);
  if (!ex.ok()) {
    std::lock_guard<std::mutex> lock(tally.mutex);
    tally.failed++;
    std::fprintf(stderr, "campaignbench: daemon exited %d:\n%s\n", ex.exitCode,
                 logTail(s.daemon->logPath).c_str());
  }
  return ex;
}

/// --trace 0: the tools as users run them.
int measureEndToEnd(const Args& args, Setup& s, double setupSeconds, const std::string& runDir,
                    const std::vector<std::string>& stripped) {
  Tally tally;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::seconds(args.seconds);
  const bool served = args.workload == "served-warm";
  if (served) {
    Tracer unused;
    tally.rss(runServedClients(
        args, s, unused, false, [&] { return Clock::now() >= deadline; },
        [&](const ServedSample& c) {
          tally.record(c.campaign.latency, c.mutants, c.campaign.failure);
        }));
  } else {
    const bool cold = args.workload != "rerun-warm";
    const bool native = args.workload == "native-cold";
    const Expected e = expectedFor(s, cold);
    const std::string out = runDir + "/out.xlv";
    const std::string log = runDir + "/tool.log";
    int i = 0;
    do {
      std::vector<std::string> argv = {kCampaignTool, "run", "--spec", s.specPath, "-o", out};
      if (cold) {
        argv.insert(argv.end(), {"--backend", native ? "native" : "auto", "--cache-dir",
                                 runDir + "/cold-" + std::to_string(i++)});
        if (native) argv.push_back("--require-native");
      } else {
        argv.insert(argv.end(), {"--cache-dir", s.storeDir, "--require-disk-hits"});
      }
      toolCampaign(argv, out, log, cold ? kColdTimeoutSeconds : kWarmTimeoutSeconds, e, tally);
    } while (Clock::now() < deadline);
  }
  const double timed = secondsSince(t0);
  std::vector<std::pair<std::string, std::string>> extra;
  if (served) {
    const long endRssKb = finishDaemon(s, tally).maxRssKb;
    extra.push_back({"server_ready_s", fmt(s.daemon->readySeconds)});
    extra.push_back({"rss_probe_campaigns", std::to_string(kRssProbeCampaigns)});
    // The daemon's wait4 peak after the whole run: it grows with the
    // campaigns served (README.md, "Known failures").
    extra.push_back({"daemon_end_rss_mb", fmt(static_cast<double>(endRssKb) / 1024.0)});
  }
  const LatencySummary lat = summarize(tally.latencies);
  extra.push_back({"samples", std::to_string(lat.samples)});
  extra.push_back({"campaign_p90_s", lat.p90 ? fmt(*lat.p90) : "null"});
  extra.push_back({"clients", std::to_string(served ? kServedClients : 1)});
  std::printf("%s\n", infoLine(args, s, tally, stripped, extra).c_str());
  printResult(tally, {
                         {"campaign_p50_s", lat.p50, "s"},
                         {"mutants_per_s", static_cast<double>(tally.mutants) / timed, "1/s"},
                         {"campaigns_per_s", static_cast<double>(lat.samples) / timed, "1/s"},
                         {"peak_rss_mb", static_cast<double>(tally.peakRssKb) / 1024.0, "MB"},
                         {"setup_s", setupSeconds, "s"},
                     });
  if (!tally.firstFailure.empty()) {
    std::fprintf(stderr, "campaignbench: first failure: %s\n", tally.firstFailure.c_str());
  }
  return tally.failed == 0 && tally.attempted > 0 ? 0 : 1;
}

/// Per-campaign figures of one traced campaign, keyed by metric name.
using Figures = std::map<std::string, double>;

/// The per-layer metrics taken as medians over traced campaigns' Figures.
const std::vector<std::pair<const char*, const char*>> kCampaignMetrics = {
    {"core.elaborate_s", "s"},          {"core.insertion_s", "s"},
    {"core.abstraction_s", "s"},        {"core.injection_s", "s"},
    {"core.analysis_s", "s"},           {"analysis.golden_s", "s"},
    {"analysis.mutant_sim_s", "s"},     {"analysis.cycles_simulated", "count"},
    {"analysis.cycles_skipped", "count"}, {"analysis.mutant_cache_hits", "count"},
    {"analysis.skip_ratio", "ratio"},   {"campaign.sim_s", "s"},
    {"campaign.parallel_efficiency", "ratio"}, {"native.compile_s", "s"},
    {"native.compiles", "count"},       {"native.cache_hits", "count"},
    {"store.disk_hits", "count"},       {"store.disk_stores", "count"},
    {"store.hit_ratio", "ratio"},       {"store.bytes", "bytes"},
    {"serialize.result_encode_s", "s"}, {"serialize.result_decode_s", "s"},
    {"serialize.result_bytes", "bytes"}, {"shard.merge_s", "s"}};

/// Span totals of the layers, in seconds (0 for a layer with no span).
void addLayerFigures(const LayerTimes& t, Figures& f) {
  for (const char* layer : {"core.elaborate", "core.insertion", "core.abstraction",
                            "core.injection", "core.analysis", "analysis.golden",
                            "analysis.mutant_sim", "native.compile", "shard.merge",
                            "serialize.result_encode", "serialize.result_decode"}) {
    auto it = t.totalUs.find(layer);
    f[std::string(layer) + "_s"] = it == t.totalUs.end() ? 0.0 : it->second / 1e6;
  }
}

/// Threads a campaign ran on: item threads times the widest item analysis.
int threadsUsed(const campaign::CampaignResult& r) {
  int analysis = 1;
  for (const auto& item : r.items) analysis = std::max(analysis, item.report.analysis.threadsUsed);
  return r.threadsUsed * analysis;
}

/// Counts and ratios from a campaign's ledgers.
void addLedgerFigures(const campaign::CampaignResult& r, double wall, int threads,
                      std::size_t resultBytes, std::uint64_t storeBytes, Figures& f) {
  const double simulated = static_cast<double>(r.cyclesSimulated);
  const double skipped = static_cast<double>(r.cyclesSkipped);
  f["analysis.cycles_simulated"] = simulated;
  f["analysis.cycles_skipped"] = skipped;
  f["analysis.skip_ratio"] = simulated + skipped > 0 ? skipped / (simulated + skipped) : 0.0;
  f["analysis.mutant_cache_hits"] = r.mutantCacheHits;
  f["campaign.sim_s"] = r.simSeconds;
  f["campaign.parallel_efficiency"] = wall > 0 ? r.simSeconds / (wall * threads) : 0.0;
  f["native.compiles"] = r.nativeCompiles;
  f["native.cache_hits"] = r.nativeCacheHits;
  f["store.disk_hits"] = r.diskHits;
  f["store.disk_stores"] = r.diskStores;
  const double accesses = r.diskHits + r.diskStores;
  f["store.hit_ratio"] = accesses > 0 ? r.diskHits / accesses : 0.0;
  f["store.bytes"] = static_cast<double>(storeBytes);
  f["serialize.result_bytes"] = static_cast<double>(resultBytes);
}

/// Median wall time of a trivial tool call: process start, static
/// initialisation, argument parsing, exit.
double spawnProbe(const std::string& runDir) {
  std::vector<double> times;
  for (int i = 0; i < kSpawnProbes; ++i) {
    const ChildExit ex = runChild({kCampaignTool, "spec", "--preset", "single", "-o",
                                   runDir + "/probe.xlv"},
                                  runDir + "/probe.log", kWarmTimeoutSeconds);
    if (!ex.ok()) fatal("trivial xlv_campaign call failed:\n" + logTail(runDir + "/probe.log"));
    times.push_back(ex.seconds);
  }
  return median(times);
}

/// --trace 1: the per-layer replay.
int measureLayers(const Args& args, Setup& s, const std::string& runDir,
                  const std::vector<std::string>& stripped) {
  Tally tally;
  Tracer tracer;
  std::mutex mutex;  ///< guards everything below that client threads touch
  std::map<std::uint64_t, Figures> figures;  ///< traced campaigns only
  std::vector<double> tracedLat, untracedLat;
  double unitsTotal = 0.0;
  std::uint64_t retries = 0;
  const double spawnSeconds = spawnProbe(runDir);
  const auto deadline = Clock::now() + std::chrono::seconds(args.seconds);
  // Campaigns alternate between tracing off and on, so the overhead ratio
  // compares interleaved, equally drifted samples.
  auto done = [&] {
    std::lock_guard<std::mutex> lock(mutex);
    return Clock::now() >= deadline && !tracedLat.empty() && !untracedLat.empty();
  };
  const bool served = args.workload == "served-warm";
  std::string ledger;

  if (served) {
    runServedClients(args, s, tracer, true, done, [&](const ServedSample& c) {
      const double latency = c.campaign.latency;
      tally.record(latency, c.mutants, c.campaign.failure);
      std::lock_guard<std::mutex> lock(mutex);
      (c.traced ? tracedLat : untracedLat).push_back(latency);
      retries += c.campaign.outcome.retries;
      if (!c.traced || !c.campaign.failure.empty()) return;
      addLedgerFigures(c.campaign.outcome.result, latency, s.daemon->workers,
                       c.campaign.resultBytes, 0, figures[c.id]);
      unitsTotal += static_cast<double>(c.campaign.outcome.unitCount);
    });
    finishDaemon(s, tally);
    ledger = readFile(s.daemon->ledgerPath);
    const double storeBytes = static_cast<double>(directoryBytes(s.storeDir));
    for (auto& [id, f] : figures) f["store.bytes"] = storeBytes;
  } else {
    campaign::CampaignSpec spec = s.spec;
    const bool cold = args.workload != "rerun-warm";
    if (args.workload == "native-cold") {
      for (auto& item : spec.items) item.options.backend = analysis::SimBackend::Native;
    }
    const Expected e = expectedFor(s, cold);
    std::uint64_t id = 0;
    do {
      ++id;
      const bool traced = id % 2 == 0;
      tracer.setEnabled(traced);
      const std::string storeDir = cold ? runDir + "/replay-" + std::to_string(id) : s.storeDir;
      const auto c0 = Clock::now();
      std::string failure;
      ReplayOutcome o;
      try {
        o = replayCampaign(spec, util::ArtifactStoreConfig{storeDir, 0, 0}, tracer, id);
        failure = verify(o.decoded, e);
        if (failure.empty()) failure = verify(o.result, e);
        if (failure.empty() && args.workload == "native-cold" && o.nativeCompiles == 0) {
          failure = "native replay compiled nothing";
        }
      } catch (const std::exception& err) {
        failure = std::string("replay failed: ") + err.what();
      }
      const double latency = secondsSince(c0);
      tally.record(latency, s.counts.mutants, failure);
      (traced ? tracedLat : untracedLat).push_back(latency);
      if (traced && failure.empty()) {
        addLedgerFigures(o.result, o.result.wallSeconds, threadsUsed(o.result), o.resultBytes,
                         directoryBytes(storeDir), figures[id]);
      }
    } while (!done());
    tracer.setEnabled(true);
  }

  const std::vector<Span> spans = tracer.spans();
  const auto layers = layerTimesByCampaign(spans);
  for (auto& [id, f] : figures) {
    auto it = layers.find(id);
    addLayerFigures(it == layers.end() ? LayerTimes{} : it->second, f);
  }
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kCampaignMetrics) {
    std::vector<double> v;
    for (const auto& [id, f] : figures) v.push_back(f.at(name));
    metrics.push_back({name, median(v), unit});
  }
  const double tracedCount = static_cast<double>(std::max<std::size_t>(1, figures.size()));
  auto ledgerCount = [&](const char* key, bool sum = false) {
    return static_cast<double>(ledgerField(ledger, key, sum));
  };
  const double untraced = median(untracedLat);
  metrics.insert(
      metrics.end(),
      {{"spawn.cli_s", spawnSeconds, "s"},
       {"server.ready_s", served ? s.daemon->readySeconds : 0.0, "s"},
       {"server.units_per_campaign", unitsTotal / tracedCount, "count"},
       {"server.requeues", ledgerCount("requeues", true), "count"},
       {"server.worker_respawns", ledgerCount("workerRespawns"), "count"},
       {"server.rejects", ledgerCount("campaignsRejected") + ledgerCount("frameCapRejects"),
        "count"},
       {"server.retries", static_cast<double>(retries), "count"},
       {"server.duplicate_results", ledgerCount("duplicateResults"), "count"},
       {"trace.overhead_ratio", untraced > 0 ? median(tracedLat) / untraced : 0.0, "ratio"}});

  // Self time per layer, median over traced campaigns (stderr, for reading
  // the split; the Chrome trace holds every span).
  std::map<std::string, std::vector<double>> selfByLayer;
  for (const auto& [id, f] : figures) {
    auto it = layers.find(id);
    if (it == layers.end()) continue;
    for (const auto& [name, us] : it->second.selfUs) selfByLayer[name].push_back(us / 1e6);
  }
  std::fprintf(stderr, "self time per campaign (median of %zu traced campaigns):\n",
               figures.size());
  for (const auto& [name, v] : selfByLayer) {
    std::fprintf(stderr, "  %-26s %10.6f s\n", name.c_str(), median(v));
  }
  const std::string tracePath =
      ".bench_out/trace-" + args.workload + "-s" + std::to_string(args.seed) + ".json";
  writeFile(tracePath, tracer.chromeTraceJson());
  std::fprintf(stderr, "chrome trace: %s (%zu spans)\n", tracePath.c_str(), spans.size());

  const std::vector<std::pair<std::string, std::string>> extra = {
      {"traced_campaigns", std::to_string(tracedLat.size())},
      {"untraced_campaigns", std::to_string(untracedLat.size())},
      {"trace_file", "\"" + jsonEscape(tracePath) + "\""}};
  std::printf("%s\n", infoLine(args, s, tally, stripped, extra).c_str());
  printResult(tally, metrics);
  return tally.failed == 0 && tally.attempted > 0 ? 0 : 1;
}

/// Kills every child and exits the process if the run outlives
/// kRunWatchdogSeconds (a hung in-process campaign cannot be interrupted any
/// other way); disarmed and joined on destruction.
class RunWatchdog {
 public:
  RunWatchdog()
      : thread_([this] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (cv_.wait_for(lock, std::chrono::duration<double>(kRunWatchdogSeconds),
                           [this] { return disarmed_; })) {
            return;
          }
          std::fprintf(stderr, "campaignbench: run exceeded %.0f s; stopping\n",
                       kRunWatchdogSeconds);
          killAllChildren();
          std::_Exit(1);
        }) {}
  ~RunWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  RunWatchdog(const RunWatchdog&) = delete;
  RunWatchdog& operator=(const RunWatchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;  ///< declared last: it uses the members above
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const std::vector<std::string> stripped = stripMeasurementKnobs();
  const RunWatchdog watchdog;
  try {
    if (args.workload == "native-cold" && !abstraction::nativeToolchainAvailable()) {
      fatal("native-cold needs a system C++ compiler (XLV_CC, c++, g++ or clang++); none "
            "found, so no native numbers can be measured");
    }
    const std::string runDir = ".bench_out/run-" + std::to_string(::getpid());
    fs::create_directories(runDir);
    struct Cleanup {
      std::string dir;
      ~Cleanup() {
        std::error_code ec;
        fs::remove_all(dir, ec);
      }
    } cleanup{runDir};

    // Set-up runs from scratch several times; the last one is kept.
    std::vector<double> setupTimes;
    Setup setup;
    const auto setupStart = Clock::now();
    for (int r = 0; r < kSetupRepeats ||
                    (r < kSetupMaxRepeats && secondsSince(setupStart) < kSetupMinSeconds);
         ++r) {
      if (r > 0) tearDown(setup);
      const auto t0 = Clock::now();
      setup = setUp(args, runDir + "/setup-" + std::to_string(r));
      setupTimes.push_back(secondsSince(t0));
    }
    std::fprintf(stderr, "campaignbench: %s seed %llu: %llu items, %llu mutants, set-up %.3f s\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                 static_cast<unsigned long long>(setup.counts.items),
                 static_cast<unsigned long long>(setup.counts.mutants), median(setupTimes));
    const int rc = args.trace ? measureLayers(args, setup, runDir, stripped)
                              : measureEndToEnd(args, setup, median(setupTimes), runDir,
                                                stripped);
    tearDown(setup);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaignbench: %s\n", e.what());
    return 1;
  }
}
