// Language containment checking: L(design) ⊆ L(property).
//
// The deterministic edge-Rabin property automaton is composed with the
// design as a monitor latch (Automaton::monitorProduct), in the design's
// own manager; containment fails iff the product has a reachable fair cycle
// where "fair" means:
//   - every system fairness constraint holds (Büchi sets from negative
//     state-subset constraints, edge sets from positive fair edges), and
//   - the run is NOT accepted by the property: for every Rabin pair
//     (Fin,Inf), Inf visited infinitely often implies Fin visited
//     infinitely often (the complement of deterministic Rabin is Streett).
// Emptiness is decided with the Emerson-Lei-style operator iteration of
// [17], computing an approximation of the fair states first (exact for the
// Büchi fragment).
//
// The hull is computed inside S = R × M, the design's reached set R (already
// known to the session) times the monitor's domain M, not inside the
// product's reached set P: a monitor that is deterministic and complete
// gives each design run exactly one product run, so P ⊆ S and S is closed
// under successors, and every hull operator only follows paths forward, so
// hull(S) ∩ P = hull(P). An empty hull(S) proves containment without any
// product reachability; otherwise the product is explored from its initial
// states until it meets hull(S).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fsm/image.hpp"
#include "fsm/trace.hpp"
#include "lc/automaton.hpp"

namespace hsis {

/// System fairness constraints (paper Section 5.1), in terms of the shared
/// signal-expression language.
struct FairnessSpec {
  /// Negative state-subset constraints: a run may not stay forever inside
  /// the set (equivalently: must visit its complement infinitely often).
  std::vector<SigExprRef> noStay;
  /// Plain Büchi constraints: visit the set infinitely often.
  std::vector<SigExprRef> buchi;
  /// Positive fair edges: an edge from a state satisfying `first` to a
  /// state satisfying `second` must be taken infinitely often. Both sides
  /// may reference latch-output signals only.
  std::vector<std::pair<SigExprRef, SigExprRef>> fairEdges;

  [[nodiscard]] bool empty() const {
    return noStay.empty() && buchi.empty() && fairEdges.empty();
  }
};

struct LcOptions {
  bool earlyFailureDetection = true;
  bool wantTrace = true;
  bool partitionedTr = true;
  size_t clusterLimit = 5000;
  QuantMethod quantMethod = QuantMethod::Greedy;
};

struct LcStats {
  /// Steps of the product reachability; 0 when the hull was empty and the
  /// product was never explored.
  size_t reachabilitySteps = 0;
  size_t hullIterations = 0;
  /// Product states reached (0 when the product was never explored).
  double reachedStates = 0.0;
  bool usedEarlyFailure = false;
  double seconds = 0.0;
};

struct LcResult {
  bool contained = false;
  std::optional<Trace> trace;  ///< counterexample lasso when !contained
  LcStats stats;
  std::vector<std::string> notes;
};

class LcChecker {
 public:
  /// Compose `property` onto a resident design: `design` and its reachable
  /// states `designReached`, in the design's manager, with the monitor on
  /// bits from `bits` (reserved in that manager). `fairness` constrains the
  /// design's infinite runs. `design` need not outlive the checker.
  LcChecker(const Fsm& design, const Bdd& designReached, MonitorBits& bits,
            const Automaton& property, const FairnessSpec& fairness = {},
            LcOptions options = {});
  /// The same check on a flattened model: elaborates the design, its
  /// transition relation and its reachable states in `mgr`, then composes
  /// as above.
  LcChecker(BddManager& mgr, const blifmv::Model& flatDesign,
            const Automaton& property, const FairnessSpec& fairness = {},
            LcOptions options = {});

  LcResult check();

  /// The product FSM (design + monitor latch).
  [[nodiscard]] const Fsm& fsm() const { return *fsm_; }
  [[nodiscard]] const TransitionRelation& tr() const { return *tr_; }
  /// Pretty-print a product state, monitor state last.
  [[nodiscard]] std::string formatState(const std::vector<int8_t>& s) const;
  /// Render a whole trace.
  [[nodiscard]] std::string formatTrace(const Trace& t) const;

  // Exposed for tests and the debugger:
  /// The fair hull: approximation of states on fair (counterexample) paths.
  Bdd fairHull(const Bdd& within);
  [[nodiscard]] const std::vector<Bdd>& buchiSets() const { return buchiSets_; }
  [[nodiscard]] const std::vector<Bdd>& edgeSets() const { return edgeSets_; }
  [[nodiscard]] const std::vector<std::pair<Bdd, Bdd>>& streettPairs() const {
    return streett_;
  }

 private:
  void compose(const Fsm& design, const Bdd& designReached, MonitorBits& bits,
               const Automaton& property, const FairnessSpec& fairness);
  void buildConstraints(const Automaton& property, const FairnessSpec& fairness);
  Bdd monitorSet(const std::vector<uint32_t>& states) const;
  /// Counterexample lasso from the fair hull, validated against (and if
  /// necessary re-steered through) the Streett pairs.
  std::optional<Trace> buildTrace(const Bdd& hull);
  /// States of `set` with an edge of E into `set`.
  Bdd preVia(const Bdd& e, const Bdd& set) const;

  std::optional<Fsm> fsm_;
  std::optional<TransitionRelation> tr_;
  LcOptions opts_;
  MvVarId monitorVar_ = 0;
  Bdd within_;  ///< S = design reached set × monitor domain

  std::vector<Bdd> buchiSets_;               ///< state sets: visit inf often
  std::vector<Bdd> edgeSets_;                ///< edge sets over (x,y)
  std::vector<std::pair<Bdd, Bdd>> streett_; ///< (L,U): L inf often -> U inf often
  LcStats stats_;
};

}  // namespace hsis
