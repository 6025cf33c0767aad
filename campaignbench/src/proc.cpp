#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

extern char** environ;

namespace campaignbench {

namespace {

double steadyNs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

std::mutex liveMutex;
std::set<pid_t> livePids;

}  // namespace

long liveTreePeakRssKb(pid_t pid) {
  long peak = 0;
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) peak = std::strtol(line.c_str() + 6, nullptr, 10);
  }
  std::error_code ec;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  for (std::filesystem::directory_iterator it(tasks, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::ifstream children(it->path() / "children");
    for (pid_t child; children >> child;) peak = std::max(peak, liveTreePeakRssKb(child));
  }
  return peak;
}

void killAllChildren() noexcept {
  std::lock_guard<std::mutex> lock(liveMutex);
  for (pid_t pid : livePids) ::kill(pid, SIGKILL);
}

std::vector<std::string> stripMeasurementKnobs() {
  static const char* const kKnobs[] = {
      "XLV_BACKEND",  "XLV_BATCH",        "XLV_THREADS",      "XLV_WORKERS",
      "XLV_REFERENCE_SIM", "XLV_FAULTS", "XLV_HEARTBEAT_MS", "XLV_HEARTBEAT_TIMEOUT_MS"};
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::string name = entry.substr(0, entry.find('='));
    bool knob = name.rfind("XLV_TEST_", 0) == 0;
    for (const char* k : kKnobs) knob = knob || name == k;
    if (knob) names.push_back(name);
  }
  for (const auto& n : names) ::unsetenv(n.c_str());
  return names;
}

Child::Child(Child&& other) noexcept { *this = std::move(other); }

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    if (started() && !reaped_) {
      signal(SIGKILL);
      wait();
    }
    pid_ = other.pid_;
    startNs_ = other.startNs_;
    reaped_ = other.reaped_;
    exit_ = other.exit_;
    other.pid_ = -1;
    other.reaped_ = false;
  }
  return *this;
}

Child::~Child() {
  if (started() && !reaped_) {
    signal(SIGKILL);
    wait();
  }
}

Child Child::spawn(const std::vector<std::string>& argv, const std::string& logPath) {
  Child c;
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int logFd = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (logFd < 0) return c;
  c.startNs_ = steadyNs();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(logFd, STDOUT_FILENO);
    ::dup2(logFd, STDERR_FILENO);
    const int devNull = ::open("/dev/null", O_RDONLY);
    if (devNull >= 0) ::dup2(devNull, STDIN_FILENO);
    ::execv(args[0], args.data());
    _exit(127);
  }
  ::close(logFd);
  if (pid > 0) {
    c.pid_ = pid;
    std::lock_guard<std::mutex> lock(liveMutex);
    livePids.insert(pid);
  }
  return c;
}

void Child::signal(int sig) noexcept {
  if (started() && !reaped_) ::kill(pid_, sig);
}

ChildExit Child::wait(double timeoutSeconds) {
  if (!started() || reaped_) return exit_;
  // The watchdog kills the child at the deadline; wait4 stays a blocking
  // call, so a child's reaping is never delayed by polling.
  std::mutex m;
  std::condition_variable cv;
  bool done = false, killed = false;
  std::thread watchdog;
  if (timeoutSeconds > 0.0) {
    watchdog = std::thread([&] {
      std::unique_lock<std::mutex> lock(m);
      if (!cv.wait_for(lock, std::chrono::duration<double>(timeoutSeconds), [&] { return done; })) {
        killed = true;
        ::kill(pid_, SIGKILL);
      }
    });
  }
  int status = 0;
  struct rusage ru {};
  pid_t r = -1;
  do {
    r = ::wait4(pid_, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(m);
      done = true;
    }
    cv.notify_all();
    watchdog.join();
  }
  {
    std::lock_guard<std::mutex> lock(liveMutex);
    livePids.erase(pid_);
  }
  reaped_ = true;
  exit_.timedOut = killed;
  exit_.started = r == pid_;
  exit_.seconds = (steadyNs() - startNs_) / 1e9;
  exit_.maxRssKb = ru.ru_maxrss;
  if (WIFEXITED(status)) {
    exit_.exitCode = WEXITSTATUS(status);
    // execv failure inside the child.
    if (exit_.exitCode == 127) exit_.started = false;
  } else if (WIFSIGNALED(status)) {
    exit_.termSignal = WTERMSIG(status);
  }
  return exit_;
}

ChildExit runChild(const std::vector<std::string>& argv, const std::string& logPath,
                   double timeoutSeconds) {
  Child c = Child::spawn(argv, logPath);
  return c.wait(timeoutSeconds);
}

std::string logTail(const std::string& path, std::size_t maxBytes) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string all = ss.str();
  return all.size() > maxBytes ? all.substr(all.size() - maxBytes) : all;
}

}  // namespace campaignbench
