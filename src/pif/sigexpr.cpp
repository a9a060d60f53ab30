#include "pif/sigexpr.hpp"

#include <cctype>
#include <stdexcept>

namespace hsis {

namespace {

std::shared_ptr<SigExpr> mk(SigExpr::Kind k) {
  auto e = std::make_shared<SigExpr>();
  e->kind = k;
  return e;
}

}  // namespace

SigExprRef sigTrue() { return mk(SigExpr::Kind::True); }
SigExprRef sigFalse() { return mk(SigExpr::Kind::False); }

SigExprRef sigAtom(std::string signal, std::string value, bool negated) {
  auto e = mk(SigExpr::Kind::Atom);
  e->signal = std::move(signal);
  e->value = std::move(value);
  e->negatedAtom = negated;
  return e;
}

SigExprRef sigNot(SigExprRef a) {
  auto e = mk(SigExpr::Kind::Not);
  e->args.push_back(std::move(a));
  return e;
}

SigExprRef sigAnd(SigExprRef a, SigExprRef b) {
  auto e = mk(SigExpr::Kind::And);
  e->args.push_back(std::move(a));
  e->args.push_back(std::move(b));
  return e;
}

SigExprRef sigOr(SigExprRef a, SigExprRef b) {
  auto e = mk(SigExpr::Kind::Or);
  e->args.push_back(std::move(a));
  e->args.push_back(std::move(b));
  return e;
}

std::string SigExpr::toString() const {
  switch (kind) {
    case Kind::True:
      return "1";
    case Kind::False:
      return "0";
    case Kind::Atom: {
      std::string s = signal;
      if (!value.empty()) s += (negatedAtom ? "!=" : "=") + value;
      return s;
    }
    case Kind::Not:
      return "!(" + args[0]->toString() + ")";
    case Kind::And:
      return "(" + args[0]->toString() + " & " + args[1]->toString() + ")";
    case Kind::Or:
      return "(" + args[0]->toString() + " | " + args[1]->toString() + ")";
  }
  return "?";
}

namespace {

class ExprParser {
 public:
  explicit ExprParser(const std::string& text) : text_(text) {}

  SigExprRef parse() {
    SigExprRef e = parseOr();
    skipWs();
    if (pos_ != text_.size())
      fail("trailing characters after expression");
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    throw std::runtime_error("expression error in \"" + text_ + "\": " + msg);
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)
      ++pos_;
  }

  bool eat(char c) {
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool peekIs(char c) {
    skipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  SigExprRef parseOr() {
    SigExprRef e = parseAnd();
    while (true) {
      skipWs();
      if (eat('|')) {
        eat('|');  // tolerate "||"
        e = sigOr(std::move(e), parseAnd());
      } else {
        return e;
      }
    }
  }

  SigExprRef parseAnd() {
    SigExprRef e = parseFactor();
    while (true) {
      skipWs();
      if (eat('&')) {
        eat('&');  // tolerate "&&"
        e = sigAnd(std::move(e), parseFactor());
      } else {
        return e;
      }
    }
  }

  std::string parseWord() {
    skipWs();
    size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
          c == '.' || c == '$') {
        ++pos_;
      } else {
        break;
      }
    }
    if (start == pos_) fail("expected identifier or value");
    return text_.substr(start, pos_ - start);
  }

  SigExprRef parseFactor() {
    skipWs();
    if (eat('!')) {
      // could be '!(' or '!expr'
      return sigNot(parseFactor());
    }
    if (eat('(')) {
      SigExprRef e = parseOr();
      if (!eat(')')) fail("missing ')'");
      return e;
    }
    std::string word = parseWord();
    if (word == "1" || word == "true") return sigTrue();
    if (word == "0" || word == "false") return sigFalse();
    skipWs();
    bool negated = false;
    if (pos_ + 1 < text_.size() && text_[pos_] == '!' && text_[pos_ + 1] == '=') {
      pos_ += 2;
      negated = true;
    } else if (peekIs('=')) {
      ++pos_;
      eat('=');  // tolerate "=="
    } else {
      return sigAtom(word);  // bare boolean signal
    }
    std::string value = parseWord();
    return sigAtom(word, value, negated);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

SigExprRef parseSigExpr(const std::string& text) {
  return ExprParser(text).parse();
}

namespace {

Bdd evalExpr(const SigExpr& e, const Fsm& fsm, bool wiresAllowed) {
  BddManager& mgr = fsm.mgr();
  switch (e.kind) {
    case SigExpr::Kind::True:
      return mgr.bddOne();
    case SigExpr::Kind::False:
      return mgr.bddZero();
    case SigExpr::Kind::Not:
      return !evalExpr(*e.args[0], fsm, wiresAllowed);
    case SigExpr::Kind::And:
      return evalExpr(*e.args[0], fsm, wiresAllowed) &
             evalExpr(*e.args[1], fsm, wiresAllowed);
    case SigExpr::Kind::Or:
      return evalExpr(*e.args[0], fsm, wiresAllowed) |
             evalExpr(*e.args[1], fsm, wiresAllowed);
    case SigExpr::Kind::Atom: {
      std::optional<MvVarId> var = fsm.signalVar(e.signal);
      if (!var.has_value())
        throw std::runtime_error("property references unknown signal " +
                                 e.signal);
      // CTL atoms and fairness constraints must be state predicates:
      // combinational signals are existentially quantified out of the
      // transition relation, so a set over them would not survive image
      // computation. (Automaton edge guards may reference any signal — they
      // are conjoined into the product relation instead.)
      bool isState = false;
      for (MvVarId sv : fsm.stateVars()) isState = isState || sv == *var;
      if (!isState && !wiresAllowed)
        throw std::runtime_error(
            "signal " + e.signal +
            " is combinational; CTL atoms and fairness constraints must "
            "reference latch outputs (register the signal in the design or "
            "use an automaton property)");
      const MvSpace& space = fsm.space();
      std::string value = e.value;
      if (value.empty()) {
        if (space.domain(*var) != 2)
          throw std::runtime_error("bare atom " + e.signal +
                                   " needs an explicit value (domain > 2)");
        value = "1";
      }
      std::optional<uint32_t> k = space.valueOf(*var, value);
      if (!k.has_value())
        throw std::runtime_error("value " + value + " not in domain of " +
                                 e.signal);
      Bdd lit = space.literal(*var, *k);
      return e.negatedAtom ? (space.validEncodings(*var) & !lit) : lit;
    }
  }
  return mgr.bddZero();
}

}  // namespace

Bdd evalSigExpr(const SigExpr& e, const Fsm& fsm) {
  return evalExpr(e, fsm, false);
}

Bdd evalGuardExpr(const SigExpr& e, const Fsm& fsm) {
  return evalExpr(e, fsm, true);
}

}  // namespace hsis
