// Worker-pool building blocks of the campaign service (campaign/server.h):
// the frame transport, the work-stealing task queue and the worker loop.
//
// A campaign is split into STEALABLE UNITS (planDispatchUnits — the flat
// unit/weight list underneath planShards, mutant-range fragments and all).
// Each campaign's units live in a TaskQueue ordered heaviest-first; an idle
// worker subprocess claims the next unit, runs it via runShardUnits and
// streams the ShardOutput back. A unit lost to a dead or silent worker goes
// back to the front of its queue. Retries are safe because unit results are
// bit-identical by construction — mergeShards deduplicates a retry that
// raced its dead predecessor's delivered result.
//
// Wire protocol: length-framed util/codec documents over the workers'
// stdin/stdout pipes (frameWire / FrameReader below; frame schemas in
// campaign/serialize.h). Everything is versioned, so a mixed-version
// server/worker pair refuses to talk instead of skewing results.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/shard.h"
#include "util/codec.h"

namespace xlv::campaign {

/// A frame header declared a length above the reader's configured cap.
/// Distinct from a generic framing DecodeError so the campaign service can
/// answer an untrusted client's oversized frame with a structured reject
/// instead of silently dropping the connection.
class FrameCapExceeded : public util::DecodeError {
 public:
  FrameCapExceeded(std::size_t declared, std::size_t cap)
      : util::DecodeError("frame: length " + std::to_string(declared) +
                          " exceeds connection cap " + std::to_string(cap)),
        declaredBytes(declared),
        capBytes(cap) {}
  std::size_t declaredBytes;
  std::size_t capBytes;
};

// --- frame transport ---------------------------------------------------------

/// Wrap one codec document for the pipe: "xlvf <len>\n" + document. The
/// prefix is the only framing layer; the document's own header/version
/// checks still apply after deframing.
std::string frameWire(std::string_view doc);

/// Incremental deframer for a pipe byte stream: feed() arbitrary chunks,
/// next() yields complete documents in order. Malformed framing (bad magic,
/// non-numeric or absurd length) throws util::DecodeError — a corrupted
/// stream must kill the connection, never resync silently.
class FrameReader {
 public:
  /// Append raw bytes from the pipe.
  void feed(std::string_view data);
  /// Extract the next complete document into `doc`; false when the buffer
  /// holds only a partial frame.
  bool next(std::string& doc);
  /// Bytes buffered but not yet returned (0 on a clean EOF boundary).
  std::size_t pendingBytes() const noexcept { return buffer_.size() - pos_; }
  /// Lower the acceptable frame size for this connection (an untrusted
  /// client socket, vs. the default 1 GiB trusted worker-pipe cap). A
  /// header declaring more throws FrameCapExceeded from next().
  void setMaxFrameBytes(std::size_t cap) noexcept { maxFrameBytes_ = cap; }
  std::size_t maxFrameBytes() const noexcept { return maxFrameBytes_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
  std::size_t maxFrameBytes_ = std::size_t{1} << 30;
};

/// Outcome of readFrameBlocking. Eof (peer closed the stream cleanly) and
/// Error (read(2) failed; see the errnoOut parameter) are DISTINCT: treating
/// an I/O failure as "peer finished" silently drops in-flight work.
enum class FrameRead { Frame, Eof, Error };

/// Blocking read of the next complete frame from `fd` into `doc`. Retries
/// EINTR; any other read error yields FrameRead::Error with the errno in
/// *errnoOut (when non-null). Propagates FrameReader's util::DecodeError on
/// a corrupt stream.
FrameRead readFrameBlocking(int fd, FrameReader& reader, std::string& doc,
                            int* errnoOut = nullptr);

/// Per-connection outbound byte queue for a non-blocking fd. The
/// single-threaded server loop never issues a blocking write:
/// frames are enqueue()d here and flushTo() drains as much as the fd
/// accepts, with POLLOUT re-arming the rest. This is the fix for the
/// submit-path deadlock (a worker with a full stdin pipe while itself
/// blocked writing a large result would wedge a blocking server
/// forever).
class OutboundBuffer {
 public:
  /// Append bytes to the queue (no I/O).
  void enqueue(std::string_view data);
  /// Write as much as `fd` currently accepts. True on progress or EAGAIN
  /// (remaining bytes stay queued for the next POLLOUT); false on a fatal
  /// write error (EPIPE — dead peer), after which the connection is gone.
  bool flushTo(int fd) noexcept;
  bool empty() const noexcept { return buffer_.size() == pos_; }
  /// Bytes enqueued but not yet written.
  std::size_t pendingBytes() const noexcept { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
};

// --- work-stealing task queue ------------------------------------------------

/// One stealable unit with its scheduling state.
struct DispatchTask {
  std::size_t index = 0;  ///< position in the dispatch unit list (== merge shardIndex)
  ShardUnit unit;
  std::uint64_t weight = 1;    ///< planner weight (mutant count)
  std::uint64_t attempts = 0;  ///< submissions so far (1 = first run underway/done)
};

/// Deterministic central queue the workers steal from. Pending tasks are
/// ordered heaviest-first (weight desc, index asc — LPT scheduling), so the
/// expensive fragments start first and the small ones backfill idle
/// workers; a re-queued task goes to the FRONT (it already waited once).
/// Single-threaded by design: only the server loop touches it.
class TaskQueue {
 public:
  TaskQueue() = default;
  explicit TaskQueue(const DispatchUnitPlan& plan);

  std::size_t taskCount() const noexcept { return tasks_.size(); }
  std::size_t pendingCount() const noexcept { return pending_.size(); }
  bool hasPending() const noexcept { return !pending_.empty(); }
  /// True once every task completed or retired.
  bool done() const noexcept { return completed_ + retired_ == tasks_.size(); }
  std::size_t completedCount() const noexcept { return completed_; }
  std::size_t retiredCount() const noexcept { return retired_; }

  /// Pop the heaviest pending task, marking it in flight and counting the
  /// submission attempt. Throws std::logic_error when nothing is pending.
  const DispatchTask& claim();
  /// Return an in-flight task to the front of the queue (lost worker).
  /// Throws std::logic_error unless the task is currently in flight.
  void requeue(std::size_t taskIndex);
  /// Mark a task finished (accepted while in flight OR pending — a killed
  /// worker's already-piped result can land after its task was re-queued).
  /// False (and no state change) when the task already completed — a
  /// duplicate result from a raced retry.
  bool complete(std::size_t taskIndex);
  bool isCompleted(std::size_t taskIndex) const;

  /// Append a NEW pending task (poison-unit bisection: the halves of a
  /// retired fragment). The task gets the next free index — indices are
  /// stable, never reused — a fresh attempt budget, and the front of the
  /// pending order (its parent already waited its turns). Returns the new
  /// task's index.
  std::size_t addTask(const ShardUnit& unit, std::uint64_t weight);

  /// Take an in-flight or pending task out of scheduling WITHOUT counting
  /// it completed: the bisected parent (replaced by its halves) and the
  /// quarantined unit (replaced by a synthesized errored result) both end
  /// here. A retired task counts toward done() but not completedCount(),
  /// and a late genuine result for it reads as a duplicate. Throws
  /// std::logic_error when the task is already completed or retired.
  void retire(std::size_t taskIndex);
  bool isRetired(std::size_t taskIndex) const;

  const DispatchTask& task(std::size_t taskIndex) const { return tasks_.at(taskIndex); }

 private:
  enum class State : unsigned char { Pending, InFlight, Completed, Retired };
  std::vector<DispatchTask> tasks_;
  std::vector<State> states_;
  std::vector<std::size_t> pending_;  ///< task indices, front = next claim
  std::size_t completed_ = 0;
  std::size_t retired_ = 0;
};

// --- worker pool -------------------------------------------------------------

/// Scheduling failed in a way retries cannot fix: every worker slot died
/// with work pending, or the worker pool could not be spawned at all.
/// (Campaign ITEM errors — including quarantined units — are not dispatch
/// errors; they travel inside the merged result like everywhere else.)
class DispatchError : public std::runtime_error {
 public:
  explicit DispatchError(const std::string& what)
      : std::runtime_error("dispatch: " + what) {}
};

struct DispatchWorkerOptions {
  int workerIndex = 0;
  int generation = 0;
  int heartbeatIntervalMs = 200;
  int inFd = 0;    ///< frames from the server (stdin)
  int outFd = 1;   ///< frames to the server (stdout)
};

/// Worker main loop (the "worker" subcommand of tools/xlv_campaignd): recv
/// SubmitFrames, run each unit via runShardUnits, stream StatusFrame /
/// HeartbeatFrame / ResultFrame back. Returns the process exit code: 0
/// after a clean shutdown frame or server EOF, nonzero on protocol errors
/// (codec version skew, spec fingerprint mismatch, stdin I/O failure).
///
/// Every submit names its campaign's spec handoff file (specPath). The
/// worker loads and caches the decoded spec per path; an empty path, an
/// unreadable file, or a SubmitFrame specFnv that does not match the loaded
/// spec is refused with exit 8. The cache is bounded by the live campaigns:
/// on a miss, entries whose handoff file is gone (the server removes it when
/// the campaign finishes) are dropped.
///
/// Fault-injection hooks (tests/campaign/dispatch_fault_test.cpp), honored
/// only when XLV_TEST_FAULT_WORKER (default 0) names this workerIndex AND
/// generation == 0, so the respawned worker recovers:
///   XLV_TEST_DIE_AFTER_ITEMS=N   raise(SIGKILL) on accepting a unit once
///                                itemsDone >= N (crash mid-shard);
///   XLV_TEST_HANG_AFTER_ITEMS=N  stop heartbeating and sleep forever
///                                (exercises the heartbeat timeout);
///   XLV_TEST_EXIT_AFTER_ITEMS=N  _exit(9) (orderly-looking failure).
/// XLV_TEST_POISON_ITEM=I / XLV_TEST_POISON_MUTANT=M SIGKILL EVERY worker
/// that starts a unit covering item I's mutant M (the quarantine path).
int runDispatchWorker(const DispatchWorkerOptions& opt);

/// Worker pool size: `requested` when > 0, else strict-parsed XLV_WORKERS
/// (util::envLongStrict in [1, 1024], else std::invalid_argument), else
/// hardware_concurrency (>= 1).
int resolveWorkerCount(int requested);

/// Blocking write of all of `data` (EINTR retried); false on a write error.
bool writeFdAll(int fd, std::string_view data) noexcept;

/// Make a dead peer surface as EPIPE from write(2) instead of killing the
/// process. Idempotent; every server, client and worker entry calls it.
void ignoreSigpipe();

}  // namespace xlv::campaign
