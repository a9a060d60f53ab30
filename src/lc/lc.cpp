#include "lc/lc.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "obs/control.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"

namespace hsis {

namespace {

/// Reachable-state counts overflow int64 on large designs; clamp for the
/// gauge (exact counts stay in LcStats::reachedStates as double).
int64_t clampToGauge(double v) {
  constexpr double kMax = 9.2e18;
  if (v >= kMax) return static_cast<int64_t>(kMax);
  if (v <= 0) return 0;
  return static_cast<int64_t>(v);
}

}  // namespace

LcChecker::LcChecker(const Fsm& design, const Bdd& designReached,
                     MonitorBits& bits, const Automaton& property,
                     const FairnessSpec& fairness, LcOptions options)
    : opts_(options) {
  obs::Span span("lc.build");
  compose(design, designReached, bits, property, fairness);
}

LcChecker::LcChecker(BddManager& mgr, const blifmv::Model& flatDesign,
                     const Automaton& property, const FairnessSpec& fairness,
                     LcOptions options)
    : opts_(options) {
  obs::Span span("lc.build");
  Fsm design(mgr, flatDesign);
  TransitionRelation tr =
      opts_.partitionedTr
          ? TransitionRelation::partitioned(design, opts_.clusterLimit)
          : TransitionRelation::monolithic(design, opts_.quantMethod);
  Bdd reached = reachableStates(tr, design.initialStates()).reached;
  MonitorBits bits;
  compose(design, reached, bits, property, fairness);
}

void LcChecker::compose(const Fsm& design, const Bdd& designReached,
                        MonitorBits& bits, const Automaton& property,
                        const FairnessSpec& fairness) {
  fsm_.emplace(property.monitorProduct(design, bits));
  monitorVar_ = fsm_->stateVar(fsm_->numLatches() - 1);
  within_ = designReached & fsm_->space().validEncodings(monitorVar_);
  if (opts_.partitionedTr) {
    tr_ = TransitionRelation::partitioned(*fsm_, opts_.clusterLimit);
  } else {
    tr_ = TransitionRelation::monolithic(*fsm_, opts_.quantMethod);
  }
  buildConstraints(property, fairness);
}

Bdd LcChecker::monitorSet(const std::vector<uint32_t>& states) const {
  Bdd s = fsm_->mgr().bddZero();
  for (uint32_t k : states) s |= fsm_->space().literal(monitorVar_, k);
  return s;
}

void LcChecker::buildConstraints(const Automaton& property,
                                 const FairnessSpec& fairness) {
  BddManager& mgr = fsm_->mgr();
  const Fsm& fsm = *fsm_;

  for (const SigExprRef& e : fairness.noStay) {
    // May not stay in S forever == visits ¬S infinitely often.
    buchiSets_.push_back(!evalSigExpr(e, fsm));
  }
  for (const SigExprRef& e : fairness.buchi) {
    buchiSets_.push_back(evalSigExpr(e, fsm));
  }
  for (const auto& [fromE, toE] : fairness.fairEdges) {
    Bdd from = evalSigExpr(fromE, fsm);
    Bdd to = evalSigExpr(toE, fsm);
    // Both sides must be over present-state variables so the target can be
    // renamed onto the next-state rail.
    std::vector<bool> isState(mgr.numVars(), false);
    for (BddVar v : mgr.support(fsm.presentCube())) isState[v] = true;
    for (BddVar v : mgr.support(from))
      if (!isState[v])
        throw std::runtime_error(
            "fair-edge constraint references a non-latch signal");
    for (BddVar v : mgr.support(to))
      if (!isState[v])
        throw std::runtime_error(
            "fair-edge constraint references a non-latch signal");
    edgeSets_.push_back(from & fsm.presentToNext(to));
  }

  // Complemented Rabin acceptance: Streett pairs (L=Inf, U=Fin).
  for (const RabinPair& p : property.rabinPairs()) {
    Bdd inf = monitorSet(p.inf);
    Bdd fin = monitorSet(p.fin);
    if (p.fin.empty()) {
      // (Inf inf-often -> false) == Inf visited finitely often; as a hull
      // constraint this is a Streett pair with empty U.
      streett_.emplace_back(inf, mgr.bddZero());
    } else {
      streett_.emplace_back(inf, fin);
    }
  }
  if (buchiSets_.empty() && edgeSets_.empty())
    buchiSets_.push_back(mgr.bddOne());  // require an infinite run
  HSIS_LOG_INFO("lc.build", "fairness constraints compiled",
                {{"buchi_sets", buchiSets_.size()},
                 {"edge_sets", edgeSets_.size()},
                 {"streett_pairs", streett_.size()}});
}

Bdd LcChecker::preVia(const Bdd& e, const Bdd& set) const {
  const Fsm& fsm = *fsm_;
  BddManager& mgr = fsm.mgr();
  Bdd acc = fsm.presentToNext(set) & e;
  for (const Bdd& c : tr_->clusters()) acc &= c;
  acc = mgr.exists(acc, fsm.nextCube() & fsm.nonStateCube());
  return acc;
}

std::optional<Trace> LcChecker::buildTrace(const Bdd& hull) {
  obs::counter("lc.trace.attempts").add();
  const Fsm& fsm = *fsm_;
  std::optional<Trace> trace =
      fairLasso(*tr_, fsm.initialStates(), hull, buchiSets_, edgeSets_);
  if (!trace.has_value()) return trace;
  // Validate the Streett pairs (complemented Rabin acceptance) on the
  // cycle; if a pair is violated, force a visit to its U set and retry.
  for (const auto& [l, u] : streett_) {
    bool hitL = false, hitU = false;
    for (size_t i = static_cast<size_t>(trace->cycleStart);
         i < trace->states.size(); ++i) {
      Bdd sc = fsm.stateFromValues(fsm.decodeState(trace->states[i]));
      if (!(sc & l).isZero()) hitL = true;
      if (!(sc & u).isZero()) hitU = true;
    }
    if (hitL && !hitU) {
      std::vector<Bdd> cs = buchiSets_;
      cs.push_back(u);
      trace = fairLasso(*tr_, fsm.initialStates(), hull, cs, edgeSets_);
      if (!trace.has_value()) return trace;
    }
  }
  return trace;
}

Bdd LcChecker::fairHull(const Bdd& within) {
  obs::Span span("lc.hull");
  static obs::Counter& iterations = obs::counter("lc.hull.iterations");
  Bdd z = within;
  uint64_t steps = 0;
  while (true) {
    obs::checkAbort();
    ++stats_.hullIterations;
    iterations.add();
    ++steps;
    HSIS_LOG_DEBUG("lc.hull", "Emerson-Lei sweep",
                   {{"iteration", steps}, {"nodes", z.nodeCount()}});
    Bdd zOld = z;

    // Streett pairs (L,U): remove L-states that cannot reach U within Z.
    // First: with an empty U this is a plain cut that shrinks every later
    // fixpoint of the sweep.
    for (const auto& [l, u] : streett_) {
      Bdd y = z & u;
      while (true) {
        Bdd y2 = y | (z & tr_->preimage(y));
        if (y2 == y) break;
        y = std::move(y2);
      }
      Bdd bad = z & l & !y;
      z &= !bad;
    }

    // Emerson-Lei steps for Büchi state sets.
    for (const Bdd& b : buchiSets_) {
      // Z := Z ∧ EX E[Z U (Z ∧ B)]
      Bdd target = z & b;
      Bdd y = target;
      while (true) {
        Bdd y2 = y | (z & tr_->preimage(y));
        if (y2 == y) break;
        y = std::move(y2);
      }
      z &= tr_->preimage(y);
    }
    // Edge sets: from Z one must be able to reach (within Z) a state that
    // fires an E-edge back into Z.
    for (const Bdd& e : edgeSets_) {
      Bdd takeoff = z & preVia(e, z);
      Bdd y = takeoff;
      while (true) {
        Bdd y2 = y | (z & tr_->preimage(y));
        if (y2 == y) break;
        y = std::move(y2);
      }
      z &= y;
    }
    if (z == zOld || z.isZero()) {
      HSIS_LOG_DEBUG("lc.hull", "hull converged",
                     {{"iterations", steps},
                      {"empty", z.isZero()},
                      {"nodes", z.nodeCount()}});
      return z;
    }
  }
}

LcResult LcChecker::check() {
  obs::Span span("lc.check");
  obs::counter("lc.checks").add();
  auto start = std::chrono::steady_clock::now();
  LcResult res;
  auto finish = [&]() -> LcResult {
    res.stats = stats_;
    res.stats.seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    return res;
  };
  const Fsm& fsm = *fsm_;

  // A fairness constraint that is unsatisfiable, statically or on the
  // reachable state space, means the design has no fair runs at all:
  // containment holds vacuously (early pass detection, technique 2).
  for (const Bdd& b : buchiSets_) {
    if (b.isZero()) {
      res.contained = true;
      res.notes.push_back(
          "vacuous pass: a fairness constraint is unsatisfiable");
      return finish();
    }
  }
  for (const Bdd& b : buchiSets_) {
    if ((b & within_).isZero() && !b.isOne()) {
      res.contained = true;
      res.notes.push_back(
          "vacuous pass: a fairness constraint is unsatisfiable on the "
          "reachable state space");
      return finish();
    }
  }

  // Reachability don't cares: restrict-minimize the clusters by S before
  // the (preimage-heavy) fair-cycle computation. Every later source set
  // lies inside S, so the minimized relation is exact where it is used.
  tr_ = tr_->minimized(within_);

  Bdd hull = fairHull(within_);
  if (hull.isZero()) {
    res.contained = true;
    HSIS_LOG_INFO("lc.check", "containment check complete",
                  {{"contained", true},
                   {"hull_iterations", stats_.hullIterations},
                   {"reach_depth", 0}});
    return finish();
  }

  // The hull meets S: containment fails iff it meets the product's
  // reachable states. With early failure detection the exploration stops
  // at the first frontier that does.
  ReachOptions ro;
  if (opts_.earlyFailureDetection) {
    ro.watch = [&](const Bdd& frontier, size_t) {
      return !(frontier & hull).isZero();
    };
  }
  ReachResult rr = reachableStates(*tr_, fsm.initialStates(), ro);
  stats_.reachabilitySteps = rr.depth;
  stats_.reachedStates = fsm.countStates(rr.reached);
  obs::gauge("lc.product.states").set(clampToGauge(stats_.reachedStates));
  res.contained = (rr.reached & hull).isZero();
  HSIS_LOG_INFO("lc.check", "containment check complete",
                {{"contained", res.contained},
                 {"hull_iterations", stats_.hullIterations},
                 {"reach_depth", rr.depth}});
  if (res.contained) return finish();

  if (rr.stoppedEarly) {
    stats_.usedEarlyFailure = true;
    obs::counter("lc.efd.failures").add();
    HSIS_LOG_WARN("lc.check", "early failure: product frontier meets the hull",
                  {{"step", rr.depth}});
  }
  if (opts_.wantTrace) {
    res.trace = buildTrace(hull);
    if (!res.trace.has_value()) {
      res.notes.push_back(
          "fair hull nonempty but no concrete lasso found (approximation); "
          "result may be a false failure");
    }
  }
  return finish();
}

std::string LcChecker::formatState(const std::vector<int8_t>& s) const {
  return fsm_->formatState(s);
}

std::string LcChecker::formatTrace(const Trace& t) const {
  std::ostringstream os;
  for (size_t i = 0; i < t.states.size(); ++i) {
    if (t.cycleStart == static_cast<int>(i)) os << "-- cycle --\n";
    os << "  " << i << ": " << formatState(t.states[i]) << "\n";
  }
  if (t.isLasso()) os << "  (back to " << t.cycleStart << ")\n";
  return os.str();
}

}  // namespace hsis
