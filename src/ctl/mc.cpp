#include "ctl/mc.hpp"

#include <cstdlib>
#include <span>
#include <stdexcept>

#include "obs/control.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"

namespace hsis {

CtlChecker::CtlChecker(const Fsm& fsm, const TransitionRelation& tr,
                       std::vector<Bdd> fairnessConstraints, McOptions options)
    : fsm_(&fsm), tr_(&tr), fair_(std::move(fairnessConstraints)), opts_(options) {
  if (fair_.empty()) fair_.push_back(fsm.mgr().bddOne());
  // Coverage's frontier series folds to a no-op in disabled builds and
  // under the HSIS_COV_DISABLE runtime toggle.
  opts_.recordFrontierStates = opts_.recordFrontierStates && obs::kEnabled &&
                               std::getenv("HSIS_COV_DISABLE") == nullptr;
}

const Bdd& CtlChecker::reached() {
  if (reached_.isNull()) {
    obs::Span span("ctl.reach");
    ReachOptions ro;
    ro.keepOnionRings = opts_.wantTrace;
    ro.recordFrontierStates = opts_.recordFrontierStates;
    ReachResult r = reachableStates(*tr_, fsm_->initialStates(), ro);
    reached_ = r.reached;
    onionRings_ = std::move(r.onionRings);
    frontierStates_ = std::move(r.frontierStates);
    reachDepth_ = r.depth;
    stats_.reachabilitySteps = r.depth;
  }
  return reached_;
}

void CtlChecker::seedReachability(Bdd reached, std::vector<Bdd> onionRings,
                                  std::vector<double> frontierStates,
                                  size_t steps) {
  if (!reached_.isNull())
    throw std::logic_error(
        "CtlChecker::seedReachability: reachability already computed");
  reached_ = std::move(reached);
  onionRings_ = std::move(onionRings);
  frontierStates_ = std::move(frontierStates);
  reachDepth_ = steps;
  stats_.reachabilitySteps = steps;
}

const TransitionRelation& CtlChecker::activeTr() {
  if (!opts_.useReachedDontCares || reached_.isNull()) return *tr_;
  if (!minimizedTr_) {
    obs::Span span("ctl.dc_tr");
    minimizedTr_ = tr_->minimized(reached_);
  }
  return *minimizedTr_;
}

Bdd CtlChecker::preimage(const Bdd& s) {
  ++stats_.preimageCalls;
  static obs::Counter& calls = obs::counter("ctl.preimage.calls");
  calls.add();
  return activeTr().preimage(s);
}

Bdd CtlChecker::eu(const Bdd& p, const Bdd& q) {
  static obs::Counter& iterations = obs::counter("ctl.eu.iterations");
  obs::Span span("ctl.eu");
  Bdd y = q;
  uint64_t steps = 0;
  while (true) {
    obs::checkAbort();
    ++stats_.fixpointIterations;
    iterations.add();
    ++steps;
    Bdd y2 = y | (p & preimage(y));
    if (y2 == y) {
      HSIS_LOG_DEBUG("ctl.eu", "least fixpoint converged",
                     {{"iterations", steps}, {"nodes", y.nodeCount()}});
      return y;
    }
    y = std::move(y2);
  }
}

Bdd CtlChecker::egFair(const Bdd& p) {
  static obs::Counter& iterations = obs::counter("ctl.eg.iterations");
  obs::Span span("ctl.eg");
  Bdd care = opts_.useReachedDontCares ? reached() : fsm_->mgr().bddOne();
  Bdd z = p & care;
  while (true) {
    obs::checkAbort();
    ++stats_.fixpointIterations;
    iterations.add();
    Bdd zOld = z;
    for (const Bdd& c : fair_) {
      // Z := Z ∧ EX E[p U (Z ∧ c)] — Emerson-Lei iteration step.
      z &= preimage(eu(p & care, z & c));
    }
    z &= p;
    if (z == zOld) {
      HSIS_LOG_DEBUG("ctl.eg", "greatest fixpoint converged",
                     {{"fairness_constraints", fair_.size()},
                      {"nodes", z.nodeCount()}});
      return z;
    }
  }
}

const Bdd& CtlChecker::fairStates() {
  if (!fairStatesComputed_) {
    fairStates_ = egFair(opts_.useReachedDontCares ? reached()
                                                   : fsm_->mgr().bddOne());
    fairStatesComputed_ = true;
  }
  return fairStates_;
}

Bdd CtlChecker::statesRec(const CtlFormula& f) {
  BddManager& mgr = fsm_->mgr();
  Bdd care = opts_.useReachedDontCares ? reached() : mgr.bddOne();
  switch (f.kind) {
    case CtlFormula::Kind::True:
      return care;
    case CtlFormula::Kind::False:
      return mgr.bddZero();
    case CtlFormula::Kind::Atom:
      return evalSigExpr(*f.atom, *fsm_) & care;
    case CtlFormula::Kind::Not:
      return care & !statesRec(*f.left);
    case CtlFormula::Kind::And:
      return statesRec(*f.left) & statesRec(*f.right);
    case CtlFormula::Kind::Or:
      return statesRec(*f.left) | statesRec(*f.right);
    case CtlFormula::Kind::EX:
      return care & preimage(statesRec(*f.left) & fairStates());
    case CtlFormula::Kind::EG:
      return egFair(statesRec(*f.left));
    case CtlFormula::Kind::EU:
      return care &
             eu(statesRec(*f.left), statesRec(*f.right) & fairStates());
    case CtlFormula::Kind::EF:
      return care & eu(care, statesRec(*f.left) & fairStates());
    case CtlFormula::Kind::AX:
      // AX p = ¬ EX ¬p (over fair paths)
      return care & !preimage(care & !statesRec(*f.left) & fairStates());
    case CtlFormula::Kind::AG: {
      // AG p = ¬EF¬p
      Bdd notP = care & !statesRec(*f.left);
      return care & !eu(care, notP & fairStates());
    }
    case CtlFormula::Kind::AF: {
      // AF p = ¬EG¬p
      Bdd notP = care & !statesRec(*f.left);
      return care & !egFair(notP);
    }
    case CtlFormula::Kind::AU: {
      // A[p U q] = ¬( E[¬q U ¬p∧¬q] ∨ EG¬q )
      Bdd p = statesRec(*f.left);
      Bdd q = statesRec(*f.right);
      Bdd notP = care & !p;
      Bdd notQ = care & !q;
      Bdd eu1 = eu(notQ, notP & notQ & fairStates());
      Bdd eg1 = egFair(notQ);
      return care & !(eu1 | eg1);
    }
  }
  return mgr.bddZero();
}

Bdd CtlChecker::states(const CtlRef& formula) { return statesRec(*formula); }

McResult CtlChecker::checkInvariantEarly(const CtlRef& formula) {
  // AG p with propositional p: the verdict is whether some BFS frontier
  // (onion ring) meets !p, and the counterexample backtracks from the first
  // one that does — Early Failure Detection, technique 1. With the reached
  // set resident the rings already exist and no image is computed; without
  // it the frontiers are built live and the run stops at the first
  // violating one.
  McResult res;
  Bdd p = evalPropositional(formula->left);
  Bdd notP = !p;

  std::vector<Bdd> liveRings;
  bool violated;
  if (!reached_.isNull()) {
    violated = !(reached_ & notP).isZero();
  } else {
    ReachOptions ro;
    ro.watch = [&](const Bdd& frontier, size_t) {
      liveRings.push_back(frontier);
      return !(frontier & notP).isZero();
    };
    ReachResult rr = reachableStates(*tr_, fsm_->initialStates(), ro);
    violated = rr.stoppedEarly;
    if (!violated) {
      // The full reachable set came out of the EFD run; keep it.
      reached_ = rr.reached;
      onionRings_ = std::move(liveRings);
      reachDepth_ = rr.depth;
    }
  }
  res.stats = stats_;
  if (!violated) {
    res.holds = true;
    res.stats.reachabilitySteps = reachDepth_;
    res.satisfying = reached_ & p;
    return res;
  }
  res.holds = false;
  res.stats.usedEarlyFailure = true;
  // The rings up to and including the first one meeting !p.
  std::span<const Bdd> rings = liveRings;
  if (!reached_.isNull()) {
    size_t k = 0;
    while (k < onionRings_.size() && (onionRings_[k] & notP).isZero()) ++k;
    rings = std::span<const Bdd>(onionRings_).first(
        k < onionRings_.size() ? k + 1 : 0);
  }
  res.stats.reachabilitySteps = rings.empty() ? reachDepth_ : rings.size() - 1;
  if (opts_.wantTrace) {
    res.counterexample =
        rings.empty()
            ? shortestPathTo(*tr_, fsm_->initialStates(), reached_ & notP)
            : traceThroughRings(*tr_, rings, notP);
  }
  return res;
}

Bdd CtlChecker::evalPropositional(const CtlRef& f) {
  BddManager& mgr = fsm_->mgr();
  switch (f->kind) {
    case CtlFormula::Kind::True:
      return mgr.bddOne();
    case CtlFormula::Kind::False:
      return mgr.bddZero();
    case CtlFormula::Kind::Atom:
      return evalSigExpr(*f->atom, *fsm_);
    case CtlFormula::Kind::Not:
      return !evalPropositional(f->left);
    case CtlFormula::Kind::And:
      return evalPropositional(f->left) & evalPropositional(f->right);
    case CtlFormula::Kind::Or:
      return evalPropositional(f->left) | evalPropositional(f->right);
    default:
      throw std::logic_error("evalPropositional: temporal operator");
  }
}

McResult CtlChecker::check(const CtlRef& formula) {
  obs::Span span("ctl.check");
  static obs::Counter& checks = obs::counter("ctl.checks");
  checks.add();
  auto start = std::chrono::steady_clock::now();
  McResult res;
  if (opts_.earlyFailureDetection && formula->isInvariant()) {
    res = checkInvariantEarly(formula);
    if (res.stats.usedEarlyFailure) obs::counter("ctl.efd.failures").add();
  } else {
    Bdd sat = states(formula);
    Bdd init = fsm_->initialStates();
    res.holds = init.leq(sat);
    res.satisfying = sat;
    res.stats = stats_;
    if (!res.holds && opts_.wantTrace) {
      // Counterexamples for the common universal patterns.
      const CtlFormula& f = *formula;
      if (f.kind == CtlFormula::Kind::AG) {
        Bdd notP = reached() & !statesRec(*f.left);
        res.counterexample = shortestPathTo(*tr_, init & !sat, notP);
      } else if (f.kind == CtlFormula::Kind::AF) {
        // Witness of EG ¬p: a fair lasso inside the EG hull.
        Bdd hull = egFair(reached() & !statesRec(*f.left));
        res.counterexample =
            fairLasso(*tr_, init & !sat, hull, fair_);
      }
    }
  }
  res.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stats_ = res.stats;
  HSIS_LOG_INFO("ctl.check", "property checked",
                {{"holds", res.holds},
                 {"fixpoint_iterations", res.stats.fixpointIterations},
                 {"early_failure", res.stats.usedEarlyFailure},
                 {"seconds", res.stats.seconds}});
  return res;
}

}  // namespace hsis
