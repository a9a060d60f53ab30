// Symbolic error-trace construction: shortest paths via onion rings and
// fair lassos (prefix + cycle satisfying Büchi/edge constraints). These are
// the routines behind both debuggers — the paper's Section 6: "a set of
// routines that heuristically search for short error traces".
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "fsm/image.hpp"

namespace hsis {

/// A linear or lasso-shaped trace. Each step is a full assignment over the
/// present-state variables (decode with Fsm::formatState).
struct Trace {
  std::vector<std::vector<int8_t>> states;
  /// Index where the cycle re-enters; -1 for a plain path. The lasso is
  /// states[0..n-1] followed by a back edge from states[n-1] to
  /// states[cycleStart].
  int cycleStart = -1;
  /// Per-transition input stimulus: inputs[i] holds one decoded value per
  /// Fsm::inputVars() entry that drives states[i] -> states[i+1]; a lasso
  /// carries one extra entry for the back edge. Empty when the model has
  /// no free inputs (closed system) or recording was skipped.
  std::vector<std::vector<uint32_t>> inputs;

  [[nodiscard]] bool isLasso() const { return cycleStart >= 0; }
  [[nodiscard]] size_t length() const { return states.size(); }
};

/// Pick one concrete state out of a non-empty set (over present-state vars):
/// all state bits are made definite.
std::vector<int8_t> concretizeState(const Fsm& fsm, const Bdd& set);

/// Shortest path from `init` to `target` (both over present-state vars).
/// Returns nullopt if unreachable. The path has minimal length among all
/// paths from init (BFS onion rings).
std::optional<Trace> shortestPathTo(const TransitionRelation& tr,
                                    const Bdd& init, const Bdd& target);

/// Backtrack a shortest path through BFS onion rings (rings[0] the initial
/// states, rings[d + 1] the states first reached at depth d + 1) whose last
/// ring meets `target`: the trace ends in a state of that intersection.
Trace traceThroughRings(const TransitionRelation& tr,
                        std::span<const Bdd> rings, const Bdd& target);

/// Find a fair lasso: a minimal-prefix path from `init` into the fair hull
/// `Z`, followed by a heuristically short cycle inside Z that visits every
/// `stateConstraints[i]` and fires an edge of every `edgeConstraints[i]`
/// (edge sets are BDDs over present x next state rails).
///
/// The prefix-to-cycle distance is minimal (the paper: "the path to the
/// cycle is minimum among all error traces"); the cycle itself is heuristic
/// (cycle minimization is NP-hard).
std::optional<Trace> fairLasso(const TransitionRelation& tr, const Bdd& init,
                               const Bdd& Z,
                               const std::vector<Bdd>& stateConstraints,
                               const std::vector<Bdd>& edgeConstraints = {});

/// Solve each transition of the trace against the raw relation conjuncts
/// (Fsm::relations(); the clustered TR pre-quantifies input rails) and
/// record one concrete input assignment per step in Trace::inputs. A no-op
/// for closed systems; clears inputs on an inconsistent trace.
void attachInputs(const Fsm& fsm, Trace& trace);

}  // namespace hsis
