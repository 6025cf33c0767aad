// Child processes of the benchmark: the campaign tools it measures.
//
// Each child runs with the benchmark's own (pinned) environment, its stdout
// and stderr sent to a log file under the run directory so the benchmark's
// stdout carries only its result lines, and is reaped with wait4(2) so its
// peak RSS is known. A daemon's wait4 RSS covers the workers it reaped too.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace campaignbench {

/// Remove every environment knob that changes what a campaign measures
/// (XLV_BACKEND, XLV_BATCH, XLV_THREADS, XLV_WORKERS, XLV_REFERENCE_SIM,
/// XLV_FAULTS, XLV_HEARTBEAT_MS, XLV_HEARTBEAT_TIMEOUT_MS and every
/// XLV_TEST_* hook) from this process, and so from every child it starts.
/// Returns the names that were set.
std::vector<std::string> stripMeasurementKnobs();

struct ChildExit {
  bool started = false;
  bool timedOut = false;  ///< killed (SIGKILL) after its time budget ran out
  int exitCode = -1;   ///< -1 when killed by a signal
  int termSignal = 0;
  long maxRssKb = 0;   ///< ru_maxrss of the child (and its reaped children)
  double seconds = 0.0;  ///< spawn to reap
  bool ok() const noexcept { return started && exitCode == 0; }
};

class Child {
 public:
  Child() = default;
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  /// Kills (SIGKILL) and reaps a child still running.
  ~Child();

  /// Start argv[0] (a path) with stdout+stderr appended to `logPath`.
  static Child spawn(const std::vector<std::string>& argv, const std::string& logPath);

  bool started() const noexcept { return pid_ > 0; }
  pid_t pid() const noexcept { return pid_; }
  void signal(int sig) noexcept;
  /// Block until the child exits; idempotent. With a positive
  /// `timeoutSeconds`, a child still running then is SIGKILLed (and the
  /// exit reports timedOut) — a hung tool must not hang the benchmark.
  ChildExit wait(double timeoutSeconds = 0.0);

 private:
  pid_t pid_ = -1;
  double startNs_ = 0.0;
  bool reaped_ = false;
  ChildExit exit_;
};

/// spawn + wait(timeoutSeconds).
ChildExit runChild(const std::vector<std::string>& argv, const std::string& logPath,
                   double timeoutSeconds);

/// SIGKILL every child this process started and has not reaped yet (the
/// last resort of the run watchdog before it exits).
void killAllChildren() noexcept;

/// The largest VmHWM (peak RSS so far, in KiB) of a running process and of
/// every live descendant, read from /proc; 0 when none can be read. Unlike a
/// wait4 figure it can be taken at a chosen point of a long-lived process's
/// life.
long liveTreePeakRssKb(pid_t pid);

/// The last `maxBytes` of a log file (for failure diagnostics).
std::string logTail(const std::string& path, std::size_t maxBytes = 2000);

}  // namespace campaignbench
