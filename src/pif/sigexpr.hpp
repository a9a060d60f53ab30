// Boolean expressions over design signals — the shared atom language of
// CTL formulas, automaton edge guards, and fairness constraints in PIF.
//
// Grammar:
//   expr   := term ('|' term)*          (also "||")
//   term   := factor ('&' factor)*      (also "&&")
//   factor := '!' factor | '(' expr ')' | atom | '0' | '1'
//   atom   := SIGNAL | SIGNAL '=' VALUE | SIGNAL '!=' VALUE
// A bare SIGNAL of binary domain means SIGNAL=1. VALUE may be a symbolic
// value name or a numeral.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "fsm/fsm.hpp"

namespace hsis {

struct SigExpr {
  enum class Kind : uint8_t { True, False, Atom, Not, And, Or };
  Kind kind = Kind::True;
  std::string signal;  ///< Atom
  std::string value;   ///< Atom; empty means "=1" on a binary signal
  bool negatedAtom = false;  ///< Atom: '!=' comparison
  std::vector<std::shared_ptr<const SigExpr>> args;

  /// Render back to source syntax.
  [[nodiscard]] std::string toString() const;
};

using SigExprRef = std::shared_ptr<const SigExpr>;

SigExprRef sigTrue();
SigExprRef sigFalse();
SigExprRef sigAtom(std::string signal, std::string value = "",
                   bool negated = false);
SigExprRef sigNot(SigExprRef a);
SigExprRef sigAnd(SigExprRef a, SigExprRef b);
SigExprRef sigOr(SigExprRef a, SigExprRef b);

/// Parse the expression language above. Throws std::runtime_error.
SigExprRef parseSigExpr(const std::string& text);

/// Evaluate to a BDD over the FSM's latch-output variables. Unknown or
/// combinational signals and out-of-domain values throw std::runtime_error.
Bdd evalSigExpr(const SigExpr& e, const Fsm& fsm);
inline Bdd evalSigExpr(const SigExprRef& e, const Fsm& fsm) {
  return evalSigExpr(*e, fsm);
}

/// As evalSigExpr, but atoms may also name combinational signals: the
/// form of automaton edge guards, which become a conjunct of the product
/// relation and so are quantified with the design's own wires.
Bdd evalGuardExpr(const SigExpr& e, const Fsm& fsm);

}  // namespace hsis
