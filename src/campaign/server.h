// Campaign service: one worker-pool core for every daemon mode.
//
// A long-lived server listens on a Unix-domain socket (optionally loopback
// TCP), accepts campaign submissions from many concurrent clients, and
// multiplexes them over a single worker pool and one shared artifact store
// (the pool's building blocks — frame transport, TaskQueue, worker loop —
// are in campaign/dispatch.h). The single-campaign `xlv_campaignd run` mode
// is the same engine with one adopted connection instead of a listener
// (runCampaignOnPool below), so both modes share spawn, heartbeat, death
// handling, re-queue, quarantine and the ledger. The wire protocol is the
// length-framed codec-document stream the workers speak — FrameReader is
// transport-agnostic, so a socket fd and a pipe look the same.
// Client-facing frame schemas live in campaign/serialize:
// ClientSubmitFrame -> AcceptFrame | RejectFrame, then streamed
// ItemResultFrames and a final CampaignDoneFrame.
//
// Scheduling is ROUND-ROBIN FAIR ACROSS campaigns and HEAVIEST-FIRST WITHIN
// a campaign: each idle worker takes the heaviest pending unit of the next
// campaign in admission order, so a one-item smoke submission finishes long
// before a million-mutant campaign's tail, while each campaign individually
// keeps the LPT order that makes work-stealing efficient.
//
// Backpressure is a bounded admission queue, never an unbounded buffer: a
// submission that would push the pending-unit total past maxPendingUnits
// (or the campaign count past maxCampaigns) is answered with a structured
// RejectFrame carrying retryAfterMs. An EMPTY server always accepts, so a
// single campaign bigger than the whole budget is still servable.
//
// Crash semantics, both directions:
//   * worker death  — salvage drained results, re-queue the lost unit
//     (recorded in its owning campaign's ledger entry), respawn the slot.
//     A unit exhausting its attempt budget is bisected or quarantined: it
//     costs its own item, never its campaign or the server.
//   * client death  — a dying client's campaign is cancelled: its pending
//     units leave the scheduler immediately, in-flight units run to
//     completion with their results discarded (counted, not merged), and
//     the cancellation lands in the per-campaign ledger.
//
// The server itself is single-threaded (one poll(2) loop) and every fd —
// listener, clients, worker pipes — is non-blocking with per-connection
// outbound buffers (OutboundBuffer), so no peer can wedge the loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/dispatch.h"
#include "campaign/shard.h"

namespace xlv::campaign {

struct ServeOptions {
  /// AF_UNIX listen path; takes precedence over tcpPort. The path is
  /// unlinked (if stale) before bind and removed on shutdown.
  std::string socketPath;
  /// Loopback (127.0.0.1) TCP listen port, used when socketPath is empty.
  int tcpPort = 0;
  /// Worker pool size; 0 = resolveWorkerCount(0) (XLV_WORKERS or hardware).
  int workers = 0;
  /// Default stealable-unit granularity for submissions that do not set
  /// their own (ClientSubmitFrame::maxFragmentMutants == 0).
  std::size_t maxFragmentMutants = 0;
  /// Command prefix that execs ONE WORKER speaking the frame protocol on
  /// stdin/stdout; the server appends "--index <i> --generation <g>
  /// --heartbeat-ms <n>". Units carry their spec handoff path per frame.
  /// Required.
  std::vector<std::string> workerCommand;
  int heartbeatIntervalMs = 200;
  int heartbeatTimeoutMs = 10000;
  int maxTaskAttempts = 3;
  int maxWorkerRespawns = 2;
  /// Directory for per-campaign spec handoff files ("" = std::filesystem
  /// temp dir).
  std::string specDir;
  /// Admission bound: a submission is rejected when the queued-unit total
  /// would exceed this — unless the server is idle (nothing pending), which
  /// always admits so an oversized single campaign still runs.
  std::size_t maxPendingUnits = 1024;
  /// Admission bound on concurrently live campaigns.
  std::size_t maxCampaigns = 64;
  /// retryAfterMs stamped into backpressure RejectFrames.
  std::uint64_t rejectRetryAfterMs = 1000;
  /// Stop once this many admitted campaigns have left the scheduler
  /// (completed, failed or cancelled) and none remain live; 0 = serve
  /// forever. Tests and the CI soak bound their runs with this.
  std::uint64_t maxCampaignsServed = 0;
  /// Per-CLIENT-connection frame-length cap. A submit frame declaring a
  /// bigger body is answered with a structured RejectFrame before any body
  /// byte is read. Worker pipes keep the trusted 1 GiB codec ceiling — this
  /// bound is about untrusted sockets, not the result stream.
  std::size_t maxClientFrameBytes = std::size_t{16} << 20;
  /// Close a client connection that has been admitted onto the poll set but
  /// has not delivered a complete submit frame within this budget (half-open
  /// or stalled clients). 0 disables the scan.
  int clientReadTimeoutMs = 30000;
  /// Install SIGTERM/SIGINT handlers (self-pipe) that drain the server:
  /// stop admitting, finish in-flight campaigns, flush ledgers, exit
  /// cleanly. A second signal stops immediately. Off by default because
  /// handlers are process-global — the `serve` tool turns it on; embedded
  /// test servers leave signal disposition alone.
  bool enableSignalDrain = false;
};

/// One lost unit attempt, as surfaced in the ledger: a killed worker's unit
/// must show up here AND in the merged result.
struct RequeueRecord {
  std::uint64_t taskIndex = 0;
  ShardUnit unit;
  std::uint64_t attempt = 0;  ///< 1-based submission attempt that was lost
  std::string reason;  ///< "worker-exit" | "worker-signal" | "heartbeat-timeout" | "submit-write-failed" | "protocol-error"
  std::uint64_t workerIndex = 0;
  std::uint64_t generation = 0;
};

/// One admitted campaign's scheduling record.
struct CampaignLedgerEntry {
  std::uint64_t campaignId = 0;
  std::string name;  ///< ClientSubmitFrame::clientName
  std::uint64_t unitsTotal = 0;
  std::uint64_t unitsCompleted = 0;
  /// Every attempt of this campaign's units lost to a dead or hung worker,
  /// including the last one before a bisection or quarantine.
  std::vector<RequeueRecord> requeuedShards;
  /// Results that arrived after this campaign was cancelled and were
  /// dropped instead of forwarded.
  std::uint64_t discardedResults = 0;
  bool cancelled = false;
  std::string error;  ///< non-empty when dispatch gave up on the campaign
  /// Poison-unit splits: a multi-mutant fragment that exhausted its attempt
  /// budget is split in half and both halves re-queued, isolating the
  /// poison mutant instead of failing the campaign.
  std::uint64_t bisections = 0;
  /// Task indices of quarantined units — irreducible (whole-item or
  /// single-mutant) units that exhausted their attempts. Their items carry
  /// structured errors; the rest of the campaign completed normally.
  std::vector<std::uint64_t> quarantined;
  /// True when the campaign was still in flight as a drain began and the
  /// server finished it before exiting (informational).
  bool drained = false;
};

struct ServeLedger {
  std::uint64_t campaignsAccepted = 0;
  std::uint64_t campaignsRejected = 0;
  std::uint64_t campaignsCompleted = 0;
  std::uint64_t campaignsCancelled = 0;
  std::uint64_t submissions = 0;       ///< submit frames queued to workers
  std::uint64_t duplicateResults = 0;  ///< retry raced its predecessor's result
  std::uint64_t discardedResults = 0;  ///< results of cancelled campaigns
  std::uint64_t workersSpawned = 0;
  std::uint64_t workerRespawns = 0;
  std::uint64_t workersKilled = 0;  ///< heartbeat-timeout SIGKILLs
  std::uint64_t heartbeats = 0;
  std::uint64_t quarantinedUnits = 0;  ///< irreducible poison units isolated
  std::uint64_t bisections = 0;        ///< poison-fragment splits
  std::uint64_t deadlineFailures = 0;  ///< campaigns failed past their deadline
  std::uint64_t clientReadTimeouts = 0;  ///< half-open clients closed
  std::uint64_t frameCapRejects = 0;   ///< oversize client frames rejected
  std::uint64_t drainRequests = 0;     ///< drain signals received
  bool drained = false;  ///< the run ended via a drain signal, not quota
  /// Every admitted campaign, in admission order (live ones are finalized
  /// into here when the server stops).
  std::vector<CampaignLedgerEntry> campaigns;
};

struct ServeResult {
  ServeLedger ledger;
};

/// Run the campaign server until maxCampaignsServed campaigns finished
/// (blocks forever when that is 0). Throws DispatchError when recovery is
/// impossible (listen/bind failure, the whole worker pool lost with work
/// pending); std::invalid_argument on a malformed request (no listen
/// address, empty workerCommand, non-positive timeouts).
ServeResult runCampaignServer(const ServeOptions& opt);

/// The ledger as a JSON object (CI uploads it next to the BENCH_*.json
/// artifacts): per-campaign entries under "campaigns", each with its
/// "requeues" count and the "requeuedShards" records.
std::string encodeServeLedgerJson(const ServeLedger& ledger);

// --- client ------------------------------------------------------------------

struct SubmitOptions {
  /// AF_UNIX path of the server; takes precedence over tcpPort.
  std::string socketPath;
  /// Loopback TCP port, used when socketPath is empty.
  int tcpPort = 0;
  /// Label stored in the server's per-campaign ledger entry.
  std::string clientName = "xlv_campaign";
  /// Requested unit granularity (0 = the server's default).
  std::size_t maxFragmentMutants = 0;
  /// Test hook: hard-close the socket after receiving this many
  /// ItemResultFrames (-1 = never) — simulates a client dying mid-campaign
  /// so tests and the CI soak can exercise server-side cancellation.
  long disconnectAfterItems = -1;
  /// Server-enforced wall-clock budget for the campaign, measured from
  /// admission (ClientSubmitFrame::deadlineMs). 0 = no deadline.
  std::uint64_t deadlineMs = 0;
  /// Retry budget for RETRYABLE failures only: a structured backpressure
  /// reject (retryAfterMs > 0) or a refused connection. A mid-stream
  /// disconnect is NOT retried — the campaign may still be running
  /// server-side and a blind resubmit would double-run it. 0 = single shot.
  int maxRetries = 0;
  /// First-retry backoff; doubles per retry, floored by the server's
  /// retryAfterMs hint and jittered ±50% so synchronized clients spread out.
  std::uint64_t retryBaseMs = 200;
  /// Seed for the backoff jitter (deterministic tests); 0 derives one from
  /// the pid.
  std::uint64_t retryJitterSeed = 0;
};

/// Everything one submission produced. Exactly one of rejected /
/// disconnected / done is set on a non-error outcome; `error` is non-empty
/// when the transport or protocol failed (or the server's CampaignDoneFrame
/// carried a dispatch error).
struct SubmitOutcome {
  bool accepted = false;      ///< AcceptFrame received
  bool rejected = false;      ///< RejectFrame received (see reason/retryAfterMs)
  bool done = false;          ///< CampaignDoneFrame received
  bool disconnected = false;  ///< the disconnectAfterItems hook fired
  std::string rejectReason;
  std::uint64_t retryAfterMs = 0;
  std::string error;
  std::uint64_t campaignId = 0;
  std::uint64_t unitCount = 0;
  /// Rejected/refused submissions retried before this outcome.
  std::uint64_t retries = 0;
  /// Task indices the server quarantined (CampaignDoneFrame::quarantined).
  /// Non-empty means `result` holds per-item errors for the poisoned items
  /// while every other item merged normally.
  std::vector<std::uint64_t> quarantined;
  /// Streamed per-unit outputs, in arrival order.
  std::vector<ShardOutput> outputs;
  /// mergeShards over `outputs` — bit-identical (sameResults) to a local
  /// runCampaign(spec). Valid when done && error.empty().
  CampaignResult result;
};

/// Submit `spec` to a running server and stream the results back (blocking;
/// returns when the campaign finished, was rejected, or the connection
/// failed — never throws, errors land in SubmitOutcome::error).
SubmitOutcome submitCampaign(const CampaignSpec& spec, const SubmitOptions& opt);

// --- single-campaign run -----------------------------------------------------

struct PoolRunResult {
  SubmitOutcome outcome;  ///< merged result, quarantine list, errors
  ServeLedger ledger;     ///< one campaign entry (none if the submission was rejected)
};

/// Run ONE campaign through the serve engine (`xlv_campaignd run`): the
/// server runs on a thread with one end of a socketpair adopted as its only
/// client connection (no listener; opt.socketPath / tcpPort are ignored),
/// and this thread drives the other end with the submitCampaign stream
/// code. The server stops once that connection closes. Blocks until the
/// campaign finished; returns the merged outcome and the server's ledger.
/// Rethrows what the server thread threw: DispatchError when the whole
/// worker pool is lost, std::invalid_argument on malformed options.
PoolRunResult runCampaignOnPool(const CampaignSpec& spec, const ServeOptions& opt);

}  // namespace xlv::campaign
