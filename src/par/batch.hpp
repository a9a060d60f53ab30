// Parallel verification: check the independent properties of ONE loaded
// design on a pool of worker threads.
//
// The unit of parallelism is the property, and the isolation unit is the
// BddManager. Each worker owns a full replica of the design's symbolic
// machine — FSM, transition relation, fairness sets, and the already
// computed reachable set — moved over ONCE by structural copy
// (BddTransfer), so after setup the workers share no BDD state at all:
// no unique-table contention, no cache interference, no GC coordination.
// A BddManager belongs to one thread; this scheduler is the only place the
// engine runs BDD work on several threads.
//
// Replicas are built serially on the calling thread — transfers read the
// source manager, whose handle refcounts are not synchronized — then handed to the workers, which do the rest (checker
// construction, don't-care minimization, the checks) fully concurrently.
//
// Language-containment properties run on the replicas too: each composes
// its monitor onto the replica's Fsm, on monitor bits the session reserved
// before the transfer (for the largest automaton of the batch), and decides
// its fair hull inside the replica's copy of the reached set.
//
// Abort semantics mirror hsis_serve's per-request contract: every worker
// binds its own obs::TaskAbort slot, so a per-property abort (watchdog
// breach, explicit request) unwinds that property only — the report gets
// an "aborted:" note and the worker moves on. A process-wide abort stops
// the whole batch and rethrows after every worker has unwound.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "debug/report.hpp"
#include "hsis/session.hpp"
#include "obs/control.hpp"
#include "pif/pif.hpp"

namespace hsis::par {

struct BatchOptions {
  /// Worker threads. <= 1 checks serially on the calling thread (exactly
  /// Session::check per property, no replicas built).
  int jobs = 1;
  /// Per-property wall-clock budget in seconds (0 = none). Breach aborts
  /// only the offending property, via the worker's TaskAbort slot.
  double propertyTimeoutSeconds = 0.0;
  /// Optional batch-wide abort relay (e.g. hsis_serve's per-request
  /// budget slot, owned by the submitting thread). Workers poll it at
  /// property boundaries: once raised, the whole batch unwinds and
  /// checkBatch rethrows AbortedError. Mid-property engine work is not
  /// interrupted by this relay — only the worker's own slot reaches the
  /// engine's safe points — so a breach surfaces at the next boundary.
  const obs::TaskAbort* requestAbort = nullptr;
};

struct BatchReport {
  /// One report per input property, in input order. An aborted property's
  /// report carries holds=false and an "aborted: <reason>" note.
  std::vector<BugReport> reports;
  /// Wall time each worker spent inside checks (excludes idle/join time).
  std::vector<uint64_t> workerBusyMicros;
  uint64_t wallMicros = 0;
  /// Replica setup on the calling thread (serial, before workers start).
  uint64_t transferMicros = 0;
  /// Total nodes structurally copied into all replicas.
  size_t transferredNodes = 0;
  int jobs = 1;
  size_t aborted = 0;  ///< properties that hit a per-property abort

  /// Busy-time bound on the batch speedup: sum of per-worker busy time
  /// over the longest worker. What the schedule would gain over serial
  /// execution given enough cores — reported alongside measured wall time
  /// because the two diverge on core-starved hosts.
  [[nodiscard]] double theoreticalSpeedup() const;
};

/// Check `properties` against the session's loaded design on `jobs` worker
/// threads. The session must have a design loaded; it is built (and its
/// reachability computed) on the calling thread first. The session itself
/// is not touched concurrently — workers run on replicas.
BatchReport checkBatch(Session& session,
                       std::span<const PifProperty> properties,
                       const BatchOptions& options = {});

}  // namespace hsis::par
