// Chaos-injection registry: named fault points that the XLV_FAULTS
// environment spec arms with seeded probabilistic failures. It is the one
// fault-injection mechanism; the tools parse it in main(), so a malformed
// spec exits 1 before any worker runs a unit.
//
// Grammar (strictly parsed — any malformed clause throws FaultConfigError):
//
//   XLV_FAULTS = clause[,clause...]
//   clause     = <point>:<action>[:key=<value>...]
//   point      = store.write | frame.write | worker.spawn | server.accept
//              | worker.die | worker.exit | worker.hang   (drawn by a worker
//                accepting a unit: raise(SIGKILL), _exit(9), pause() with
//                no heartbeats; fail only)
//   action     = fail   (the operation reports failure without happening)
//              | short  (a write persists/sends only a prefix, then fails)
//              | delay  (the operation blocks for ms= milliseconds first)
//   keys       = p=<probability in [0,1]>   default 1.0
//                seed=<u64>                 per-clause Prng seed, default 0
//                ms=<u64>                   required for delay, rejected otherwise
//                times=<u64>                max triggers per process (0 = unlimited)
//   scope keys (worker.die|exit|hang only; unscoped, they fire in every worker):
//                worker=<slot>              only in that slot's generation 0
//                item=<taskId>:mutant=<i>   on any unit covering the mutant
//
// Examples: XLV_FAULTS="store.write:fail:p=0.2:seed=7,frame.write:short:p=0.05"
//           XLV_FAULTS="worker.die:fail:worker=0"  (slot 0 crashes, respawn recovers)
//           XLV_FAULTS="worker.die:fail:item=0:mutant=1"  (poison unit → quarantine)
//
// When XLV_FAULTS is unset the registry is inert: faultPoint() is a single
// relaxed atomic load returning None. Fault draws are deterministic per
// clause (util::Prng seeded by seed=), and thread-safe (worker heartbeat
// threads share the frame.write point with the main loop).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace xlv::util {

/// Malformed XLV_FAULTS spec: unknown point/action/key or unparsable value.
struct FaultConfigError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class FaultAction {
  None,   ///< proceed normally (delay clauses may still have slept)
  Fail,   ///< report failure without performing the operation
  Short,  ///< perform a truncated write, then report failure
};

/// Parse XLV_FAULTS and arm the registry. Unset/empty disarms it. Throws
/// FaultConfigError on a malformed spec. Tools call this from main() for a
/// clean diagnostic; library call sites that hit an unparsed registry
/// lazily initialise it (and propagate the same error).
void initFaultPointsFromEnv();

/// Test hook: drop the armed state and re-read XLV_FAULTS.
void reloadFaultPointsFromEnv();

/// True when at least one clause is armed.
bool faultPointsArmed();

/// A worker.die|exit|hang draw's slot, generation and unit (item, mutant
/// range [mutantBegin, mutantEnd)); other points draw with the default.
struct FaultScope {
  std::uint64_t slot = 0;
  std::uint64_t generation = 0;
  std::uint64_t item = 0;
  std::uint64_t mutantBegin = 0;
  std::uint64_t mutantEnd = UINT64_MAX;
};

/// Draw the named point. Performs any armed delay internally, then returns
/// the first Fail/Short clause (in spec order) in scope whose p= fires.
FaultAction faultPoint(std::string_view point, const FaultScope& scope = {});

/// How many times any clause on the named point has fired (delays included).
std::uint64_t faultPointFireCount(std::string_view point);

}  // namespace xlv::util
