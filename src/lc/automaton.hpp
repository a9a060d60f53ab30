// Deterministic ω-automata with edge guards over design signals and Rabin
// acceptance — the property formalism of HSIS's language-containment
// paradigm [16]. A property automaton becomes a monitor latch composed
// symbolically onto the design's Fsm, in the design's own manager, so the
// product machine is an ordinary Fsm.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fsm/fsm.hpp"
#include "pif/sigexpr.hpp"

namespace hsis {

/// Encoding bits for property monitors over one design's manager. They are
/// allocated on first demand directly below the design's latch block (where
/// a monitor latch appended to the flat model would sit) and reused by every
/// later monitor, so repeated checks do not grow the variable space. Holds
/// variable ids only: a copy stays valid in a manager that mirrors this
/// one's variables (BddTransfer).
class MonitorBits {
 public:
  /// Make room for a monitor of `domain` values over `design`; allocates
  /// only when no earlier monitor was as large.
  void reserve(const Fsm& design, uint32_t domain);
  [[nodiscard]] const std::vector<BddVar>& present() const { return present_; }
  [[nodiscard]] const std::vector<BddVar>& next() const { return next_; }

 private:
  std::vector<BddVar> present_, next_;  ///< present_[i], next_[i] adjacent
};

/// Rabin pair over automaton states: a run is accepted iff for SOME pair,
/// states in `fin` are visited finitely often AND states in `inf` are
/// visited infinitely often.
struct RabinPair {
  std::vector<uint32_t> fin;
  std::vector<uint32_t> inf;
};

class Automaton {
 public:
  explicit Automaton(std::string name = "property") : name_(std::move(name)) {}

  uint32_t addState(const std::string& name);
  void setInitial(const std::string& name);
  void addEdge(const std::string& from, const std::string& to, SigExprRef guard);

  void addRabinPair(const std::vector<std::string>& fin,
                    const std::vector<std::string>& inf);
  /// Figure-2 style sugar: accepting runs eventually remain inside `states`
  /// forever. Equivalent to the Rabin pair (Fin = complement, Inf = all).
  void setStayAcceptance(const std::vector<std::string>& states);
  /// Büchi sugar: accepting runs visit `states` infinitely often.
  void setBuchiAcceptance(const std::vector<std::string>& states);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] uint32_t numStates() const { return static_cast<uint32_t>(states_.size()); }
  [[nodiscard]] const std::string& stateName(uint32_t s) const { return states_[s]; }
  [[nodiscard]] std::optional<uint32_t> findState(const std::string& name) const;
  [[nodiscard]] uint32_t initialState() const { return initial_; }
  [[nodiscard]] const std::vector<RabinPair>& rabinPairs() const { return pairs_; }

  struct Edge {
    uint32_t from, to;
    SigExprRef guard;
  };
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  /// States with no accepting continuation (pure graph analysis, assuming
  /// all guards satisfiable). A reachable product state in one of these
  /// with a fair design continuation lies in LcChecker's fair hull, so the
  /// checker's early failure detection covers them without a separate watch.
  [[nodiscard]] std::vector<bool> deadStates() const;

  /// The product of `design` with this automaton's monitor: a copy of the
  /// design plus one MV latch "_monitor" over the automaton's states
  /// (symbolic value names, reset to the initial state) on bits from
  /// `bits`, with its next-state relation built from the edge guards
  /// (evalGuardExpr, so guards may read combinational and `$ND` wires).
  /// Throws std::runtime_error when the automaton has no states or no
  /// acceptance condition, or is not deterministic and complete over the
  /// values of its guard signals.
  [[nodiscard]] Fsm monitorProduct(const Fsm& design, MonitorBits& bits) const;

 private:
  std::string name_;
  std::vector<std::string> states_;
  std::vector<Edge> edges_;
  std::vector<RabinPair> pairs_;
  uint32_t initial_ = 0;
};

}  // namespace hsis
