#include "util/fault_point.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "util/prng.h"

namespace xlv::util {
namespace {

enum class ClauseAction { Fail, Short, Delay };

struct Clause {
  std::string point;
  ClauseAction action = ClauseAction::Fail;
  double probability = 1.0;
  std::uint64_t seed = 0;
  std::uint64_t delayMs = 0;
  std::uint64_t maxTimes = 0;  // 0 = unlimited
  std::optional<std::uint64_t> slot, item, mutant;  // worker.* scope keys
  std::uint64_t fired = 0;
  Prng rng;
};

struct Registry {
  std::mutex mu;
  std::vector<Clause> clauses;
  bool parsed = false;
};

Registry& registry() {
  static Registry r;
  return r;
}

// Armed and parsed flags outside the mutex, so an unarmed faultPoint() after
// a good parse takes no lock. gParsed is stored (release) only after a parse
// that did not throw: a malformed spec keeps it false and throws again on
// the next call.
std::atomic<bool> gArmed{false};
std::atomic<bool> gParsed{false};

const char* const kKnownPoints[] = {"store.write", "frame.write", "worker.spawn",
                                    "server.accept", "worker.die", "worker.exit",
                                    "worker.hang"};

bool knownPoint(std::string_view p) {
  for (const char* k : kKnownPoints) {
    if (p == k) return true;
  }
  return false;
}

/// The points a worker draws on accepting a unit (with a FaultScope).
bool unitPoint(std::string_view p) {
  return p == "worker.die" || p == "worker.exit" || p == "worker.hang";
}

bool inScope(const Clause& c, const FaultScope& s) {
  if (c.slot && (*c.slot != s.slot || s.generation != 0)) return false;
  return !c.item || (*c.item == s.item && *c.mutant >= s.mutantBegin && *c.mutant < s.mutantEnd);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Every diagnostic names the variable and quotes the offending clause.
FaultConfigError bad(std::string_view clause, const std::string& why) {
  return FaultConfigError("XLV_FAULTS: " + why + " in '" + std::string(clause) + "'");
}

std::uint64_t parseU64(std::string_view v, std::string_view clause) {
  if (v.empty()) throw bad(clause, "empty integer");
  std::uint64_t out = 0;
  for (const char c : v) {
    if (c < '0' || c > '9') throw bad(clause, "bad integer '" + std::string(v) + "'");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (out > (UINT64_MAX - digit) / 10) throw bad(clause, "integer overflow");
    out = out * 10 + digit;
  }
  return out;
}

double parseProbability(std::string_view v, std::string_view clause) {
  if (v.empty()) throw bad(clause, "empty probability");
  const std::string s(v);
  char* end = nullptr;
  const double p = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !(p >= 0.0) || !(p <= 1.0)) {
    throw bad(clause, "probability must be in [0,1], got '" + s + "'");
  }
  return p;
}

Clause parseClause(std::string_view text) {
  const std::vector<std::string_view> fields = split(text, ':');
  if (fields.size() < 2) throw bad(text, "need <point>:<action>");
  Clause c;
  c.point = std::string(fields[0]);
  if (!knownPoint(c.point)) throw bad(text, "unknown fault point '" + c.point + "'");
  const std::string_view action = fields[1];
  if (action == "fail") {
    c.action = ClauseAction::Fail;
  } else if (action == "short") {
    c.action = ClauseAction::Short;
  } else if (action == "delay") {
    c.action = ClauseAction::Delay;
  } else {
    throw bad(text, "unknown action '" + std::string(action) + "' (want fail|short|delay)");
  }
  bool sawMs = false;
  for (std::size_t i = 2; i < fields.size(); ++i) {
    const std::string_view field = fields[i];
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) throw bad(text, "want key=value, got " + std::string(field));
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    if (key == "p") {
      c.probability = parseProbability(value, text);
    } else if (key == "seed") {
      c.seed = parseU64(value, text);
    } else if (key == "ms") {
      c.delayMs = parseU64(value, text);
      sawMs = true;
    } else if (key == "times") {
      c.maxTimes = parseU64(value, text);
    } else if (key == "worker") {
      c.slot = parseU64(value, text);
    } else if (key == "item") {
      c.item = parseU64(value, text);
    } else if (key == "mutant") {
      c.mutant = parseU64(value, text);
    } else {
      throw bad(text, "unknown key '" + std::string(key) + "'");
    }
  }
  if (c.action == ClauseAction::Delay && !sawMs) throw bad(text, "delay requires ms=");
  if (c.action != ClauseAction::Delay && sawMs) throw bad(text, "ms= only applies to delay");
  const bool unit = unitPoint(c.point);
  if (unit && c.action != ClauseAction::Fail) throw bad(text, c.point + " only takes fail");
  if (!unit && (c.slot || c.item || c.mutant)) {
    throw bad(text, "worker=/item=/mutant= only apply to worker.die|exit|hang");
  }
  if (c.item.has_value() != c.mutant.has_value()) throw bad(text, "item= and mutant= go together");
  c.rng.reseed(c.seed);
  return c;
}

// Re-read XLV_FAULTS into the registry; the caller holds r.mu. A malformed
// spec throws with the registry disarmed and unparsed, so the next call
// parses (and throws) again instead of silently running clean.
void parseLocked(Registry& r) {
  r.clauses.clear();
  r.parsed = false;
  gParsed.store(false, std::memory_order_relaxed);
  gArmed.store(false, std::memory_order_relaxed);
  const char* env = std::getenv("XLV_FAULTS");
  if (env != nullptr && *env != '\0') {
    for (const std::string_view text : split(env, ',')) {
      if (text.empty()) {
        throw FaultConfigError("XLV_FAULTS: empty clause in spec");
      }
      r.clauses.push_back(parseClause(text));
    }
  }
  r.parsed = true;
  gArmed.store(!r.clauses.empty(), std::memory_order_relaxed);
  gParsed.store(true, std::memory_order_release);
}

void ensureParsed() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (!r.parsed) parseLocked(r);
}

}  // namespace

void initFaultPointsFromEnv() { ensureParsed(); }

void reloadFaultPointsFromEnv() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  parseLocked(r);
}

FaultAction faultPoint(std::string_view point, const FaultScope& scope) {
  if (!gArmed.load(std::memory_order_relaxed)) {
    // Parsed and disarmed: the lock-free fast path of every unarmed draw.
    if (!gParsed.load(std::memory_order_acquire)) ensureParsed();
    if (!gArmed.load(std::memory_order_relaxed)) return FaultAction::None;
  }
  std::uint64_t sleepMs = 0;
  FaultAction result = FaultAction::None;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (Clause& c : r.clauses) {
      if (c.point != point) continue;
      if (c.maxTimes != 0 && c.fired >= c.maxTimes) continue;
      if (!inScope(c, scope)) continue;
      if (!c.rng.chance(c.probability)) continue;
      ++c.fired;
      if (c.action == ClauseAction::Delay) {
        sleepMs += c.delayMs;
      } else if (result == FaultAction::None) {
        result = c.action == ClauseAction::Fail ? FaultAction::Fail : FaultAction::Short;
      }
    }
  }
  if (sleepMs != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleepMs));
  }
  return result;
}

}  // namespace xlv::util
