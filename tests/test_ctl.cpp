// Tests for the CTL parser and the fair CTL model checker.
#include <gtest/gtest.h>

#include <map>
#include <string_view>

#include "blifmv/blifmv.hpp"
#include "ctl/mc.hpp"
#include "models/models.hpp"
#include "obs/obs.hpp"
#include "pif/pif.hpp"
#include "vl2mv/vl2mv.hpp"

namespace hsis {
namespace {

// ------------------------------------------------------------------ parse

TEST(CtlParse, OperatorsAndPrecedence) {
  EXPECT_EQ(parseCtl("AG p=1")->kind, CtlFormula::Kind::AG);
  EXPECT_EQ(parseCtl("EF p=1")->kind, CtlFormula::Kind::EF);
  EXPECT_EQ(parseCtl("A[p=1 U q=1]")->kind, CtlFormula::Kind::AU);
  EXPECT_EQ(parseCtl("E[p=1 U q=1]")->kind, CtlFormula::Kind::EU);
  EXPECT_EQ(parseCtl("!p=1")->kind, CtlFormula::Kind::Not);
  // implication rewrites to !a | b
  CtlRef imp = parseCtl("p=1 -> q=1");
  EXPECT_EQ(imp->kind, CtlFormula::Kind::Or);
  EXPECT_EQ(imp->left->kind, CtlFormula::Kind::Not);
  // & binds tighter than |
  CtlRef f = parseCtl("a=1 | b=1 & c=1");
  EXPECT_EQ(f->kind, CtlFormula::Kind::Or);
  EXPECT_EQ(f->right->kind, CtlFormula::Kind::And);
  // nesting
  CtlRef g = parseCtl("AG (req=1 -> AF ack=1)");
  EXPECT_EQ(g->kind, CtlFormula::Kind::AG);
}

TEST(CtlParse, RoundTripThroughToString) {
  const char* formulas[] = {
      "AG !(a=1 & b=1)", "AG (a=1 -> AF b=1)", "E[a=1 U b=1]",
      "A[a=1 U b=1]",    "EX EG a=1",          "AX AF b=0",
  };
  for (const char* text : formulas) {
    CtlRef f = parseCtl(text);
    CtlRef g = parseCtl(f->toString());
    EXPECT_EQ(f->toString(), g->toString()) << text;
  }
}

TEST(CtlParse, Classification) {
  EXPECT_TRUE(parseCtl("AG !(a=1 & b=1)")->isInvariant());
  EXPECT_FALSE(parseCtl("AG AF a=1")->isInvariant());
  EXPECT_FALSE(parseCtl("EF a=1")->isInvariant());
  EXPECT_TRUE(parseCtl("a=1 & !b=0")->isPropositional());
  EXPECT_FALSE(parseCtl("EX a=1")->isPropositional());
}

TEST(CtlParse, Errors) {
  EXPECT_THROW(parseCtl(""), std::runtime_error);
  EXPECT_THROW(parseCtl("AG"), std::runtime_error);
  EXPECT_THROW(parseCtl("A[p=1 q=1]"), std::runtime_error);
  EXPECT_THROW(parseCtl("(p=1"), std::runtime_error);
  EXPECT_THROW(parseCtl("p=1 trailing=2 junk !"), std::runtime_error);
}

// -------------------------------------------------------------- semantics

/// A 3-state loop with a one-way escape:
///   s: 0 -> 1 -> 2 -> 0 ... and from 1 the machine may jump to sink 3.
struct McFixture : ::testing::Test {
  void SetUp() override {
    auto design = blifmv::parse(R"(
.model loop
.mv s, ns 4
.table s ns
0 1
1 (2,3)
2 0
3 3
.latch ns s
.reset s
0
.end
)");
    flat = blifmv::flatten(design);
    fsm = std::make_unique<Fsm>(mgr, flat);
    tr = TransitionRelation::monolithic(*fsm);
  }

  McResult check(const std::string& f, std::vector<Bdd> fair = {},
                 McOptions opts = {}) {
    CtlChecker mc(*fsm, *tr, std::move(fair), opts);
    return mc.check(parseCtl(f));
  }

  BddManager mgr;
  blifmv::Model flat;
  std::unique_ptr<Fsm> fsm;
  std::optional<TransitionRelation> tr;
};

TEST_F(McFixture, Invariants) {
  EXPECT_TRUE(check("AG (s=0 | s=1 | s=2 | s=3)").holds);
  EXPECT_TRUE(check("AG !(s=0 & s=1)").holds);
}

TEST_F(McFixture, BasicOperators) {
  EXPECT_TRUE(check("EF s=3").holds);
  EXPECT_TRUE(check("EF s=2").holds);
  EXPECT_FALSE(check("AF s=3").holds);   // can loop forever
  EXPECT_FALSE(check("AG s!=3").holds);  // can fall into the sink
  EXPECT_TRUE(check("EG s!=3").holds);   // the loop avoids the sink
  EXPECT_TRUE(check("AX s=1").holds);    // from 0 the only move is to 1
  EXPECT_FALSE(check("AX s=2").holds);
  EXPECT_TRUE(check("E[s!=3 U s=2]").holds);
  EXPECT_TRUE(check("A[s!=3 U s=1]").holds);  // must pass through 1 first
  EXPECT_FALSE(check("A[s!=1 U s=2]").holds);
  EXPECT_TRUE(check("AG (s=3 -> AG s=3)").holds);  // sink is absorbing
  EXPECT_TRUE(check("AG (s=0 -> EX s=1)").holds);
}

TEST_F(McFixture, FairnessChangesVerdict) {
  // Unfair: the run may cycle 0,1,2 forever, so AF s=3 fails.
  EXPECT_FALSE(check("AF s=3").holds);
  // Under the fairness constraint "visit s=3 infinitely often", every fair
  // path ends in the sink.
  Bdd f3 = fsm->space().literal(fsm->stateVar(0), 3);
  EXPECT_TRUE(check("AF s=3", {f3}).holds);
  // EG over fair paths: the loop is no longer a fair path.
  EXPECT_FALSE(check("EG s!=3", {f3}).holds);
}

TEST_F(McFixture, SatisfyingSets) {
  CtlChecker mc(*fsm, *tr);
  Bdd sat = mc.states(parseCtl("EX s=2"));
  EXPECT_EQ(sat, fsm->space().literal(fsm->stateVar(0), 1) & mc.reached());
  // duality: AX p == !EX !p on the reached care set
  Bdd ax = mc.states(parseCtl("AX s=1"));
  Bdd viaDual = mc.reached() & !mc.states(parseCtl("EX s!=1"));
  EXPECT_EQ(ax, viaDual);
}

TEST_F(McFixture, CounterexampleForInvariant) {
  McResult r = check("AG s!=3");
  ASSERT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  const Trace& t = *r.counterexample;
  // shortest path to the sink: 0 -> 1 -> 3
  EXPECT_EQ(t.states.size(), 3u);
  EXPECT_EQ(fsm->decodeState(t.states.back())[0], 3u);
  EXPECT_TRUE(r.stats.usedEarlyFailure);
}

TEST_F(McFixture, CounterexampleForLiveness) {
  McResult r = check("AF s=3");
  ASSERT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_TRUE(r.counterexample->isLasso());
  // the lasso cycle avoids the sink
  for (size_t i = static_cast<size_t>(r.counterexample->cycleStart);
       i < r.counterexample->states.size(); ++i) {
    EXPECT_NE(fsm->decodeState(r.counterexample->states[i])[0], 3u);
  }
}

TEST_F(McFixture, EarlyFailureDetectionToggle) {
  McOptions noEfd;
  noEfd.earlyFailureDetection = false;
  McResult r = check("AG s!=3", {}, noEfd);
  EXPECT_FALSE(r.holds);
  EXPECT_FALSE(r.stats.usedEarlyFailure);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->states.size(), 3u);
}

TEST_F(McFixture, DontCareToggleAgrees) {
  McOptions a, b;
  a.useReachedDontCares = true;
  b.useReachedDontCares = false;
  const char* formulas[] = {"EF s=3", "AF s=3", "EG s!=3", "A[s!=3 U s=2]",
                            "AG (s=1 -> EX s=2)"};
  for (const char* f : formulas) {
    EXPECT_EQ(check(f, {}, a).holds, check(f, {}, b).holds) << f;
  }
}

TEST_F(McFixture, StatsPopulated) {
  McResult r = check("AG (s=0 -> AF s=1)");
  EXPECT_TRUE(r.holds);
  EXPECT_GT(r.stats.preimageCalls + r.stats.reachabilitySteps, 0u);
  EXPECT_GE(r.stats.seconds, 0.0);
}

// ----------------------------------------------------------- compute-once
//
// Once the reached set exists, an invariant is decided on it and its onion
// rings: no second fixpoint, and the same result as the live early-failure
// run of a fresh checker. The registry reads are 0 in HSIS_OBS_DISABLE
// builds, where the "no fixpoint" assertions hold trivially.

uint64_t reachIterations() {
  return obs::counter("fsm.reach.iterations").value();
}

size_t spansNamed(std::string_view name) {
  size_t n = 0;
  for (const obs::SpanSample& s : obs::Tracer::instance().completed())
    n += s.name == name ? 1 : 0;
  return n;
}

void expectSameResult(const McResult& got, const McResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.holds, want.holds) << what;
  EXPECT_EQ(got.stats.usedEarlyFailure, want.stats.usedEarlyFailure) << what;
  ASSERT_EQ(got.satisfying.isNull(), want.satisfying.isNull()) << what;
  if (!want.satisfying.isNull()) EXPECT_EQ(got.satisfying, want.satisfying) << what;
  ASSERT_EQ(got.counterexample.has_value(), want.counterexample.has_value())
      << what;
  if (want.counterexample.has_value())
    EXPECT_EQ(got.counterexample->states, want.counterexample->states) << what;
}

const char* const kLoopInvariants[] = {"AG (s=0 | s=1 | s=2 | s=3)",
                                       "AG s!=3", "AG s!=1", "AG s!=0"};

TEST_F(McFixture, InvariantsReuseTheReachedSet) {
  for (bool wantTrace : {true, false}) {
    McOptions opts;
    opts.wantTrace = wantTrace;
    CtlChecker resident(*fsm, *tr, {}, opts);
    (void)resident.reached();
    for (const char* f : kLoopInvariants) {
      const std::string what = std::string(f) + (wantTrace ? "" : " (no trace)");
      McResult live = check(f, {}, opts);  // fresh checker: live EFD run
      const uint64_t before = reachIterations();
      McResult reused = resident.check(parseCtl(f));
      EXPECT_EQ(reachIterations(), before) << what;
      expectSameResult(reused, live, what);
    }
  }
}

TEST_F(McFixture, SeededCheckerReusesTheReachedSet) {
  CtlChecker primary(*fsm, *tr);
  (void)primary.reached();
  ASSERT_FALSE(primary.onionRings().empty());
  for (bool keepRings : {true, false}) {
    // Without rings a wanted trace falls back to a shortest-path search;
    // it must find the same path.
    CtlChecker replica(*fsm, *tr);
    replica.seedReachability(
        primary.reached(),
        keepRings ? primary.onionRings() : std::vector<Bdd>{},
        primary.frontierNewStates(), primary.lastStats().reachabilitySteps);
    for (const char* f : kLoopInvariants) {
      const std::string what = std::string(f) + (keepRings ? "" : " (no rings)");
      McResult live = check(f);
      const uint64_t before = reachIterations();
      McResult seeded = replica.check(parseCtl(f));
      if (keepRings) EXPECT_EQ(reachIterations(), before) << what;
      expectSameResult(seeded, live, what);
    }
  }
}

TEST_F(McFixture, DontCareTrBuiltOnFirstPreimage) {
  const char* temporal[] = {"EF s=3", "AF s=3", "EG s!=3", "A[s!=3 U s=2]",
                            "AG (s=1 -> EX s=2)"};
  // Reference verdicts from fresh checkers with the default options.
  std::map<std::string, bool> want;
  for (const char* f : kLoopInvariants) want[f] = check(f).holds;
  for (const char* f : temporal) want[f] = check(f).holds;
  for (bool dontCares : {true, false}) {
    McOptions opts;
    opts.useReachedDontCares = dontCares;
    obs::Tracer::instance().clear();
    CtlChecker mc(*fsm, *tr, {}, opts);
    (void)mc.reached();
    for (const char* f : kLoopInvariants)
      EXPECT_EQ(mc.check(parseCtl(f)).holds, want[f]) << f;
    EXPECT_EQ(mc.lastStats().preimageCalls, 0u);
    EXPECT_EQ(spansNamed("ctl.dc_tr"), 0u);  // invariants only: never built
    for (const char* f : temporal)
      EXPECT_EQ(mc.check(parseCtl(f)).holds, want[f]) << f;
    EXPECT_GT(mc.lastStats().preimageCalls, 0u);
    EXPECT_EQ(spansNamed("ctl.dc_tr"), obs::kEnabled && dontCares ? 1u : 0u);
  }
}

// Every invariant of the bundled models, decided on a resident reached set,
// matches the live early-failure run (philos's no_deadlock fails early).
TEST(CtlComputeOnce, BundledInvariantsMatchTheLiveRun) {
  for (const models::ModelDef& m : models::all()) {
    blifmv::Model flat = blifmv::flatten(
        vl2mv::compile(std::string(m.verilog), std::string(m.top)));
    BddManager mgr;
    Fsm fsm(mgr, flat);
    TransitionRelation tr = TransitionRelation::partitioned(fsm);
    CtlChecker resident(fsm, tr);
    (void)resident.reached();
    for (const PifProperty& p : parsePif(std::string(m.pif)).properties) {
      if (p.kind != PifProperty::Kind::Ctl || !p.ctl->isInvariant()) continue;
      const std::string what = std::string(m.name) + "/" + p.name;
      McResult live = CtlChecker(fsm, tr).check(p.ctl);
      const uint64_t before = reachIterations();
      McResult reused = resident.check(p.ctl);
      EXPECT_EQ(reachIterations(), before) << what;
      expectSameResult(reused, live, what);
    }
  }
}

// Deadlock handling: states without successors have no infinite path, so
// even EG true ("there is some fair path") excludes them.
TEST(CtlDeadlock, NoFairPathFromDeadlock) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(R"(
.model dead
.mv s, ns 2
.table s ns
0 1
.latch ns s
.reset s
0
.end
)"));
  // from 1 the table has no row: deadlock at s=1
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::monolithic(fsm);
  CtlChecker mc(fsm, tr);
  Bdd fair = mc.fairStates();
  EXPECT_TRUE((fair & fsm.space().literal(fsm.stateVar(0), 1)).isZero());
  McResult r = mc.check(parseCtl("EX s=1"));
  EXPECT_FALSE(r.holds);  // the successor is not on any fair (infinite) path
}

// Model-checking a Verilog design end to end (the mutual-exclusion example
// from the paper's Figure 2 discussion).
TEST(CtlIntegration, MutexFromVerilog) {
  auto design = vl2mv::compile(R"(
module top;
  wire clk;
  enum { idle, trying, critical } p0, p1;
  wire grant0, grant1, req0, req1;
  assign req0 = $ND(0, 1);
  assign req1 = $ND(0, 1);
  assign grant0 = (p0 == trying) && !(p1 == critical);
  assign grant1 = (p1 == trying) && !(p0 == critical) && !grant0;
  always @(posedge clk) begin
    case (p0)
      idle:     if (req0) p0 <= trying;
      trying:   if (grant0) p0 <= critical;
      critical: p0 <= idle;
    endcase
  end
  always @(posedge clk) begin
    case (p1)
      idle:     if (req1) p1 <= trying;
      trying:   if (grant1) p1 <= critical;
      critical: p1 <= idle;
    endcase
  end
  initial p0 = idle;
  initial p1 = idle;
endmodule
)");
  auto flat = blifmv::flatten(design);
  BddManager mgr;
  Fsm fsm(mgr, flat);
  auto tr = TransitionRelation::partitioned(fsm);
  CtlChecker mc(fsm, tr);
  EXPECT_TRUE(mc.check(parseCtl("AG !(p0=critical & p1=critical)")).holds);
  EXPECT_TRUE(mc.check(parseCtl("EF p0=critical")).holds);
  EXPECT_TRUE(mc.check(parseCtl("EF p1=critical")).holds);
  EXPECT_FALSE(mc.check(parseCtl("AG !(p0=trying & p1=trying)")).holds);
}

}  // namespace
}  // namespace hsis
