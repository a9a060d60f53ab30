#include "fsm/trace.hpp"

#include <map>
#include <string>

namespace hsis {

namespace {

/// Image of a single-state set through the transition relation restricted
/// to the edge set E(x,y). Debug-path use only: operands are tiny, so the
/// clusters are conjoined without early quantification.
Bdd imageVia(const TransitionRelation& tr, const Bdd& s, const Bdd& e) {
  const Fsm& fsm = tr.fsm();
  BddManager& mgr = fsm.mgr();
  Bdd acc = s & e;
  for (const Bdd& c : tr.clusters()) acc &= c;
  acc = mgr.exists(acc, fsm.presentCube() & fsm.nonStateCube());
  return fsm.nextToPresent(acc);
}

/// States of `set` that can fire an edge of E into `set`.
Bdd takeoffStates(const TransitionRelation& tr, const Bdd& set, const Bdd& e) {
  const Fsm& fsm = tr.fsm();
  BddManager& mgr = fsm.mgr();
  Bdd acc = fsm.presentToNext(set) & e;
  for (const Bdd& c : tr.clusters()) acc &= c;
  acc = mgr.exists(acc, fsm.nextCube() & fsm.nonStateCube());
  return acc & set;
}

/// BFS within `region` from the concrete-state cube `from` to `target`.
/// Appends the path states (excluding `from` itself) to `out`; returns the
/// final concrete state, or nullopt if unreachable. Zero-length when `from`
/// already satisfies target.
std::optional<std::vector<int8_t>> pathWithin(
    const TransitionRelation& tr, const Fsm& fsm, const Bdd& fromCube,
    const std::vector<int8_t>& fromState, const Bdd& region, const Bdd& target,
    std::vector<std::vector<int8_t>>& out) {
  if (!(fromCube & target).isZero()) return fromState;

  std::vector<Bdd> rings{fromCube};
  Bdd seen = fromCube;
  while (true) {
    Bdd next = tr.image(rings.back()) & region & !seen;
    if (next.isZero()) return std::nullopt;
    seen |= next;
    rings.push_back(next);
    if (!(next & target).isZero()) break;
  }
  // Backtrack from the target hit.
  size_t d = rings.size() - 1;
  std::vector<std::vector<int8_t>> rev;
  std::vector<int8_t> curAssign = concretizeState(fsm, rings[d] & target);
  Bdd cur = fsm.stateFromValues(fsm.decodeState(curAssign));
  rev.push_back(curAssign);
  for (size_t k = d; k-- > 1;) {
    Bdd prev = rings[k] & tr.preimage(cur);
    curAssign = concretizeState(fsm, prev);
    cur = fsm.stateFromValues(fsm.decodeState(curAssign));
    rev.push_back(curAssign);
  }
  for (size_t i = rev.size(); i-- > 0;) out.push_back(rev[i]);
  return out.back();
}

/// Smallest in-domain value of `v` consistent with the picked bits
/// (don't-care bits are free). Mirrors the concretizeState normalization.
uint32_t inDomainValue(const MvSpace& space, MvVarId v,
                       const std::vector<int8_t>& pick) {
  const std::vector<BddVar>& bits = space.bits(v);
  for (uint32_t val = 0; val < space.domain(v); ++val) {
    bool ok = true;
    for (size_t i = 0; i < bits.size(); ++i) {
      int8_t b = pick[bits[i]];
      if (b >= 0 && b != static_cast<int8_t>((val >> i) & 1u)) ok = false;
    }
    if (ok) return val;
  }
  return 0;
}

std::string stateKey(const Fsm& fsm, const std::vector<int8_t>& assign) {
  std::string key;
  for (uint32_t v : fsm.decodeState(assign)) {
    key += std::to_string(v);
    key += ',';
  }
  return key;
}

}  // namespace

std::vector<int8_t> concretizeState(const Fsm& fsm, const Bdd& set) {
  BddManager& mgr = fsm.mgr();
  std::vector<int8_t> pick = mgr.pickCube(set);
  const MvSpace& space = fsm.space();
  for (MvVarId v : fsm.stateVars()) {
    const std::vector<BddVar>& bits = space.bits(v);
    // Find the smallest in-domain value consistent with the picked bits.
    for (uint32_t val = 0; val < space.domain(v); ++val) {
      bool ok = true;
      for (size_t i = 0; i < bits.size(); ++i) {
        int8_t b = pick[bits[i]];
        if (b >= 0 && b != static_cast<int8_t>((val >> i) & 1u)) ok = false;
      }
      if (ok) {
        for (size_t i = 0; i < bits.size(); ++i)
          pick[bits[i]] = static_cast<int8_t>((val >> i) & 1u);
        break;
      }
    }
  }
  return pick;
}

void attachInputs(const Fsm& fsm, Trace& trace) {
  trace.inputs.clear();
  if (fsm.inputVars().empty() || trace.states.empty()) return;
  const size_t transitions =
      trace.states.size() - 1 + (trace.isLasso() ? 1 : 0);
  if (transitions == 0) return;
  BddManager& mgr = fsm.mgr();
  const MvSpace& space = fsm.space();
  trace.inputs.reserve(transitions);
  for (size_t i = 0; i < transitions; ++i) {
    const std::vector<int8_t>& nxtAssign =
        i + 1 < trace.states.size()
            ? trace.states[i + 1]
            : trace.states[static_cast<size_t>(trace.cycleStart)];
    // Both endpoints are concrete single states, so the conjunction with
    // the raw relations collapses immediately — no early quantification
    // needed on this debug-only path.
    Bdd rel = fsm.stateFromValues(fsm.decodeState(trace.states[i])) &
              fsm.presentToNext(
                  fsm.stateFromValues(fsm.decodeState(nxtAssign)));
    for (const Bdd& r : fsm.relations()) {
      rel &= r;
      if (rel.isZero()) break;
    }
    if (rel.isZero()) {
      // A trace produced by the search routines always has consistent
      // transitions; an inconsistent one (hand-built) records nothing.
      trace.inputs.clear();
      return;
    }
    std::vector<int8_t> pick = mgr.pickCube(rel);
    std::vector<uint32_t> vals;
    vals.reserve(fsm.inputVars().size());
    for (MvVarId v : fsm.inputVars())
      vals.push_back(inDomainValue(space, v, pick));
    trace.inputs.push_back(std::move(vals));
  }
}

std::optional<Trace> shortestPathTo(const TransitionRelation& tr,
                                    const Bdd& init, const Bdd& target) {
  if (init.isZero()) return std::nullopt;

  std::vector<Bdd> rings{init};
  Bdd seen = init;
  while ((rings.back() & target).isZero()) {
    Bdd next = tr.image(rings.back()) & !seen;
    if (next.isZero()) return std::nullopt;
    seen |= next;
    rings.push_back(next);
  }

  return traceThroughRings(tr, rings, target);
}

Trace traceThroughRings(const TransitionRelation& tr,
                        std::span<const Bdd> rings, const Bdd& target) {
  const Fsm& fsm = tr.fsm();
  size_t d = rings.size() - 1;
  Trace trace;
  std::vector<std::vector<int8_t>> rev;
  std::vector<int8_t> curAssign = concretizeState(fsm, rings[d] & target);
  Bdd cur = fsm.stateFromValues(fsm.decodeState(curAssign));
  rev.push_back(curAssign);
  for (size_t k = d; k-- > 0;) {
    Bdd prev = rings[k] & tr.preimage(cur);
    curAssign = concretizeState(fsm, prev);
    cur = fsm.stateFromValues(fsm.decodeState(curAssign));
    rev.push_back(curAssign);
  }
  for (size_t i = rev.size(); i-- > 0;) trace.states.push_back(rev[i]);
  attachInputs(fsm, trace);
  return trace;
}

std::optional<Trace> fairLasso(const TransitionRelation& tr, const Bdd& init,
                               const Bdd& Z,
                               const std::vector<Bdd>& stateConstraints,
                               const std::vector<Bdd>& edgeConstraints) {
  const Fsm& fsm = tr.fsm();
  BddManager& mgr = fsm.mgr();
  if (Z.isZero()) return std::nullopt;

  // Cyclic core: every state keeps a successor and a predecessor within W,
  // so a forward walk inside W never gets stuck.
  Bdd W = Z;
  while (true) {
    Bdd W2 = W & tr.preimage(W) & tr.image(W);
    if (W2 == W) break;
    W = W2;
  }
  if (W.isZero()) return std::nullopt;

  // Minimal prefix into the core.
  std::optional<Trace> prefix = shortestPathTo(tr, init, W);
  if (!prefix.has_value()) return std::nullopt;
  Trace trace = std::move(*prefix);
  int cycleStartIndex = static_cast<int>(trace.states.size()) - 1;

  std::vector<int8_t> cur = trace.states.back();
  Bdd curCube = fsm.stateFromValues(fsm.decodeState(cur));

  // Round-robin hops through every constraint; close at a round boundary.
  std::map<std::string, int> boundarySeen;
  boundarySeen[stateKey(fsm, cur)] = cycleStartIndex;
  std::vector<std::pair<Bdd, int>> boundaries;  // (cube, index)
  boundaries.emplace_back(curCube, cycleStartIndex);

  constexpr int kMaxRounds = 64;
  for (int round = 0; round < kMaxRounds; ++round) {
    size_t sizeAtRoundStart = trace.states.size();
    for (const Bdd& c : stateConstraints) {
      auto hop = pathWithin(tr, fsm, curCube, cur, W, W & c, trace.states);
      if (!hop.has_value()) return std::nullopt;  // approximation artefact
      cur = *hop;
      curCube = fsm.stateFromValues(fsm.decodeState(cur));
    }
    for (const Bdd& e : edgeConstraints) {
      Bdd takeoff = takeoffStates(tr, W, e);
      auto hop = pathWithin(tr, fsm, curCube, cur, W, takeoff, trace.states);
      if (!hop.has_value()) return std::nullopt;
      cur = *hop;
      curCube = fsm.stateFromValues(fsm.decodeState(cur));
      // Fire one E-edge.
      Bdd succ = imageVia(tr, curCube, e) & W;
      if (succ.isZero()) return std::nullopt;
      cur = concretizeState(fsm, succ);
      curCube = fsm.stateFromValues(fsm.decodeState(cur));
      trace.states.push_back(cur);
    }
    // A cycle needs at least one transition: if every hop was zero-length,
    // take one forced step inside the core.
    if (trace.states.size() == sizeAtRoundStart) {
      Bdd succ = tr.image(curCube) & W;
      if (succ.isZero()) return std::nullopt;
      cur = concretizeState(fsm, succ);
      curCube = fsm.stateFromValues(fsm.decodeState(cur));
      trace.states.push_back(cur);
    }
    // Boundary: did we return to a previous round boundary?
    std::string key = stateKey(fsm, cur);
    auto it = boundarySeen.find(key);
    if (it != boundarySeen.end()) {
      trace.cycleStart = it->second;
      // The final state duplicates the cycle-start state; drop it and let
      // cycleStart indicate the back edge.
      trace.states.pop_back();
      if (trace.states.empty() ||
          trace.cycleStart >= static_cast<int>(trace.states.size())) {
        // Degenerate self-loop: keep the single state.
        trace.states.push_back(cur);
        trace.cycleStart = static_cast<int>(trace.states.size()) - 1;
      }
      attachInputs(fsm, trace);
      return trace;
    }
    boundarySeen[key] = static_cast<int>(trace.states.size()) - 1;
    boundaries.emplace_back(curCube, static_cast<int>(trace.states.size()) - 1);

    // After a few rounds, try to steer back to any recorded boundary.
    if (round >= 2) {
      Bdd targets = mgr.bddZero();
      for (auto& [cube, idx] : boundaries) {
        (void)idx;
        targets |= cube;
      }
      size_t before = trace.states.size();
      auto hop = pathWithin(tr, fsm, curCube, cur, W, targets, trace.states);
      if (hop.has_value() && trace.states.size() > before) {
        cur = *hop;
        std::string k2 = stateKey(fsm, cur);
        auto hit = boundarySeen.find(k2);
        if (hit != boundarySeen.end()) {
          trace.cycleStart = hit->second;
          trace.states.pop_back();
          attachInputs(fsm, trace);
          return trace;
        }
        curCube = fsm.stateFromValues(fsm.decodeState(cur));
      }
    }
  }
  return std::nullopt;
}

}  // namespace hsis
