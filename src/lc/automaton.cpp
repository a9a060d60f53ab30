#include "lc/automaton.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace hsis {

namespace {

[[noreturn]] void autError(const std::string& name, const std::string& msg) {
  throw std::runtime_error("automaton " + name + ": " + msg);
}

void collectSignals(const SigExpr& e, std::vector<std::string>& out) {
  if (e.kind == SigExpr::Kind::Atom) {
    for (const std::string& s : out)
      if (s == e.signal) return;
    out.push_back(e.signal);
  }
  for (const auto& a : e.args) collectSignals(*a, out);
}

}  // namespace

uint32_t Automaton::addState(const std::string& name) {
  if (findState(name).has_value()) autError(name_, "duplicate state " + name);
  states_.push_back(name);
  return static_cast<uint32_t>(states_.size() - 1);
}

void Automaton::setInitial(const std::string& name) {
  std::optional<uint32_t> s = findState(name);
  if (!s.has_value()) autError(name_, "unknown initial state " + name);
  initial_ = *s;
}

void Automaton::addEdge(const std::string& from, const std::string& to,
                        SigExprRef guard) {
  std::optional<uint32_t> f = findState(from);
  std::optional<uint32_t> t = findState(to);
  if (!f.has_value()) autError(name_, "unknown state " + from);
  if (!t.has_value()) autError(name_, "unknown state " + to);
  edges_.push_back(Edge{*f, *t, std::move(guard)});
}

std::optional<uint32_t> Automaton::findState(const std::string& name) const {
  for (uint32_t i = 0; i < states_.size(); ++i)
    if (states_[i] == name) return i;
  return std::nullopt;
}

void Automaton::addRabinPair(const std::vector<std::string>& fin,
                             const std::vector<std::string>& inf) {
  RabinPair p;
  for (const std::string& s : fin) {
    std::optional<uint32_t> i = findState(s);
    if (!i.has_value()) autError(name_, "unknown state " + s + " in fin set");
    p.fin.push_back(*i);
  }
  for (const std::string& s : inf) {
    std::optional<uint32_t> i = findState(s);
    if (!i.has_value()) autError(name_, "unknown state " + s + " in inf set");
    p.inf.push_back(*i);
  }
  pairs_.push_back(std::move(p));
}

void Automaton::setStayAcceptance(const std::vector<std::string>& states) {
  std::unordered_set<std::string> in(states.begin(), states.end());
  std::vector<std::string> fin;
  std::vector<std::string> inf;
  for (const std::string& s : states_) {
    if (!in.contains(s)) fin.push_back(s);
    inf.push_back(s);  // Inf = all states: any cycle qualifies
  }
  addRabinPair(fin, inf);
}

void Automaton::setBuchiAcceptance(const std::vector<std::string>& states) {
  addRabinPair({}, states);
}

std::vector<bool> Automaton::deadStates() const {
  uint32_t n = numStates();
  std::vector<bool> live(n, false);

  // Adjacency (guards assumed satisfiable; identically-false guards would
  // only make this analysis conservative in the safe direction is NOT true,
  // so callers should not add 0-guards).
  std::vector<std::vector<uint32_t>> adj(n);
  for (const Edge& e : edges_) adj[e.from].push_back(e.to);

  for (const RabinPair& pair : pairs_) {
    std::vector<bool> isFin(n, false), isInf(n, false);
    for (uint32_t s : pair.fin) isFin[s] = true;
    for (uint32_t s : pair.inf) isInf[s] = true;

    // Find states on a cycle within G\Fin that passes through an Inf state.
    // Simple O(n^2) closure: within G\Fin compute reach sets.
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (uint32_t s = 0; s < n; ++s) {
      if (isFin[s]) continue;
      // BFS in G\Fin.
      std::vector<uint32_t> stack{s};
      while (!stack.empty()) {
        uint32_t u = stack.back();
        stack.pop_back();
        for (uint32_t v : adj[u]) {
          if (isFin[v] || reach[s][v]) continue;
          reach[s][v] = true;
          stack.push_back(v);
        }
      }
    }
    std::vector<bool> good(n, false);
    for (uint32_t s = 0; s < n; ++s) {
      if (isFin[s] || !isInf[s]) continue;
      if (reach[s][s]) good[s] = true;  // Inf state on a Fin-free cycle
    }
    // Live for this pair: can reach a good state through the FULL graph.
    std::vector<bool> pairLive = good;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Edge& e : edges_) {
        if (pairLive[e.to] && !pairLive[e.from]) {
          pairLive[e.from] = true;
          changed = true;
        }
      }
    }
    for (uint32_t s = 0; s < n; ++s)
      if (pairLive[s]) live[s] = true;
  }

  std::vector<bool> dead(n, false);
  for (uint32_t s = 0; s < n; ++s) dead[s] = !live[s];
  return dead;
}

void MonitorBits::reserve(const Fsm& design, uint32_t domain) {
  const uint32_t want = MvSpace::bitsFor(domain);
  if (present_.size() >= want) return;
  BddManager& mgr = design.mgr();
  uint32_t level = 0;
  auto below = [&](BddVar v) { level = std::max(level, mgr.level(v) + 1); };
  for (BddVar v : mgr.support(design.presentCube() & design.nextCube()))
    below(v);
  for (BddVar v : present_) below(v);
  for (BddVar v : next_) below(v);
  while (present_.size() < want) {
    present_.push_back(mgr.newVarAtLevel(level++));
    next_.push_back(mgr.newVarAtLevel(level++));
  }
}

Fsm Automaton::monitorProduct(const Fsm& design, MonitorBits& bits) const {
  if (states_.empty()) autError(name_, "no states");
  if (pairs_.empty()) autError(name_, "no acceptance condition");

  // Guards over the design's signals; `care` is every valid value
  // combination of the signals they read.
  std::vector<Bdd> guards;
  guards.reserve(edges_.size());
  for (const Edge& e : edges_) guards.push_back(evalGuardExpr(*e.guard, design));
  std::vector<std::string> sigs;
  for (const Edge& e : edges_) collectSignals(*e.guard, sigs);
  Bdd care = design.mgr().bddOne();
  for (const std::string& s : sigs)
    care &= design.space().validEncodings(*design.signalVar(s));

  for (uint32_t s = 0; s < states_.size(); ++s) {
    Bdd covered = design.mgr().bddZero();
    for (size_t i = 0; i < edges_.size(); ++i) {
      if (edges_[i].from != s) continue;
      for (size_t j = 0; j < i; ++j) {
        if (edges_[j].from != s || edges_[j].to == edges_[i].to) continue;
        if (!(guards[i] & guards[j] & care).isZero())
          autError(name_, "nondeterministic at state " + states_[s] +
                              " (two guards overlap)");
      }
      covered |= guards[i];
    }
    if (!(care & !covered).isZero())
      autError(name_, "incomplete at state " + states_[s] +
                          " (no guard matches some input)");
  }

  const uint32_t n = numStates();
  bits.reserve(design, n);
  const uint32_t nbits = MvSpace::bitsFor(n);
  Fsm product = design;
  size_t l = product.addLatch(
      "_monitor", n, states_,
      {bits.present().begin(), bits.present().begin() + nbits},
      {bits.next().begin(), bits.next().begin() + nbits}, initial_);
  const MvSpace& space = product.space();
  MvVarId x = product.stateVar(l);
  MvVarId y = product.nextVar(l);
  Bdd rel = design.mgr().bddZero();
  for (size_t i = 0; i < edges_.size(); ++i) {
    rel |= space.literal(x, edges_[i].from) & guards[i] &
           space.literal(y, edges_[i].to);
  }
  product.addRelation(std::move(rel));
  return product;
}

}  // namespace hsis
