// Tests for ω-automata and the language-containment checker.
#include <gtest/gtest.h>

#include "blifmv/blifmv.hpp"
#include "hsis/session.hpp"
#include "lc/lc.hpp"
#include "models/models.hpp"
#include "pif/pif.hpp"
#include "vl2mv/vl2mv.hpp"

namespace hsis {
namespace {

// ------------------------------------------------------------- automaton

Automaton figure2Automaton(const std::string& badExpr) {
  // The paper's Figure 2: stay in A unless the bad condition fires.
  Automaton aut("invariance");
  aut.addState("A");
  aut.addState("B");
  aut.setInitial("A");
  aut.addEdge("A", "A", sigNot(parseSigExpr(badExpr)));
  aut.addEdge("A", "B", parseSigExpr(badExpr));
  aut.addEdge("B", "B", sigTrue());
  aut.setStayAcceptance({"A"});
  return aut;
}

TEST(Automaton, Structure) {
  Automaton aut = figure2Automaton("x=1");
  EXPECT_EQ(aut.numStates(), 2u);
  EXPECT_EQ(aut.initialState(), 0u);
  EXPECT_EQ(aut.stateName(1), "B");
  EXPECT_EQ(aut.findState("B"), std::optional<uint32_t>(1));
  EXPECT_EQ(aut.findState("C"), std::nullopt);
  EXPECT_EQ(aut.edges().size(), 3u);
  ASSERT_EQ(aut.rabinPairs().size(), 1u);
  // stay {A} == Rabin(fin = {B}, inf = all)
  EXPECT_EQ(aut.rabinPairs()[0].fin, std::vector<uint32_t>{1});
}

TEST(Automaton, DeadStates) {
  Automaton aut = figure2Automaton("x=1");
  std::vector<bool> dead = aut.deadStates();
  EXPECT_FALSE(dead[0]);  // A can accept
  EXPECT_TRUE(dead[1]);   // B is the rejecting trap
  // Büchi acceptance on a two-state ping automaton: nothing is dead.
  Automaton b("buchi");
  b.addState("p");
  b.addState("q");
  b.addEdge("p", "q", sigTrue());
  b.addEdge("q", "p", sigTrue());
  b.setBuchiAcceptance({"q"});
  std::vector<bool> bd = b.deadStates();
  EXPECT_FALSE(bd[0]);
  EXPECT_FALSE(bd[1]);
}

/// A one-wire design for the monitor-build tests: x is a free ($ND-style)
/// binary wire, so a guard over x is enumerated over both of its values.
Fsm oneWireDesign(BddManager& mgr) {
  return Fsm(mgr, blifmv::flatten(blifmv::parse(R"(
.model m
.table x
(0,1)
.end
)")));
}

TEST(Automaton, ErrorsAndChecks) {
  Automaton aut("t");
  aut.addState("A");
  EXPECT_THROW(aut.addState("A"), std::runtime_error);
  EXPECT_THROW(aut.setInitial("Z"), std::runtime_error);
  EXPECT_THROW(aut.addEdge("A", "Z", sigTrue()), std::runtime_error);
  EXPECT_THROW(aut.addRabinPair({"Z"}, {}), std::runtime_error);

  BddManager mgr;
  Fsm design = oneWireDesign(mgr);
  MonitorBits bits;
  // no acceptance condition
  Automaton na("na");
  na.addState("A");
  na.addEdge("A", "A", sigTrue());
  EXPECT_THROW((void)na.monitorProduct(design, bits), std::runtime_error);
  // nondeterministic guards
  Automaton nd("nd");
  nd.addState("A");
  nd.addState("B");
  nd.addEdge("A", "A", parseSigExpr("x=1"));
  nd.addEdge("A", "B", parseSigExpr("x=1"));
  nd.addEdge("B", "B", sigTrue());
  nd.setStayAcceptance({"A"});
  EXPECT_THROW((void)nd.monitorProduct(design, bits), std::runtime_error);
  // incomplete guards
  Automaton inc("inc");
  inc.addState("A");
  inc.addEdge("A", "A", parseSigExpr("x=1"));
  inc.setStayAcceptance({"A"});
  EXPECT_THROW((void)inc.monitorProduct(design, bits), std::runtime_error);
  // a rejected automaton reserves no monitor bits
  EXPECT_TRUE(bits.present().empty());
}

TEST(Automaton, ComposeBuildsMonitor) {
  BddManager mgr;
  Fsm design = oneWireDesign(mgr);
  MonitorBits bits;
  Fsm product = figure2Automaton("x=1").monitorProduct(design, bits);
  // exactly one MV latch over the automaton's states, reset to its initial
  // state, on the reserved bits
  ASSERT_EQ(product.numLatches(), design.numLatches() + 1);
  const MvVarId m = product.stateVar(product.numLatches() - 1);
  EXPECT_EQ(product.latchName(product.numLatches() - 1), "_monitor");
  EXPECT_EQ(product.space().domain(m), 2u);
  EXPECT_EQ(product.space().valueNames(m),
            (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(product.space().bits(m), bits.present());
  EXPECT_EQ(product.initialStates(),
            design.initialStates() & product.space().literal(m, 0));
  // one relation more than the design: the monitor's next state
  EXPECT_EQ(product.relations().size(), design.relations().size() + 1);
  // the design itself is untouched
  EXPECT_EQ(design.numLatches(), 0u);
}

TEST(Automaton, MonitorBitsAreReused) {
  BddManager mgr;
  Fsm design = oneWireDesign(mgr);
  MonitorBits bits;
  (void)figure2Automaton("x=1").monitorProduct(design, bits);
  const uint32_t vars = mgr.numVars();
  (void)figure2Automaton("x=0").monitorProduct(design, bits);
  EXPECT_EQ(mgr.numVars(), vars);
  // a larger automaton extends the reservation, directly below it
  Automaton three("three");
  for (const char* s : {"a", "b", "c"}) three.addState(s);
  three.addEdge("a", "b", sigTrue());
  three.addEdge("b", "c", sigTrue());
  three.addEdge("c", "c", sigTrue());
  three.setBuchiAcceptance({"c"});
  (void)three.monitorProduct(design, bits);
  EXPECT_EQ(mgr.numVars(), vars + 2);
  ASSERT_EQ(bits.present().size(), 2u);
  EXPECT_EQ(mgr.level(bits.present()[1]), mgr.level(bits.next()[0]) + 1);
}

// ------------------------------------------------------------ containment

/// Modulo-4 counter; out=1 exactly at s=3.
const char* kCounter = R"(
.model counter
.mv s, ns 4
.table s ns
0 1
1 2
2 3
3 0
.latch ns s
.reset s
0
.table s out
3 1
.default 0
.end
)";

TEST(Lc, InvarianceHolds) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  // "out and s=1 never coincide" — true, out only at s=3.
  LcChecker lc(mgr, flat, figure2Automaton("out=1 & s=1"));
  LcResult r = lc.check();
  EXPECT_TRUE(r.contained);
  EXPECT_FALSE(r.trace.has_value());
  EXPECT_GT(r.stats.reachedStates, 0.0);
}

TEST(Lc, InvarianceFailsWithEarlyDetectionAndTrace) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  LcChecker lc(mgr, flat, figure2Automaton("out=1"));
  LcResult r = lc.check();
  EXPECT_FALSE(r.contained);
  EXPECT_TRUE(r.stats.usedEarlyFailure);
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_TRUE(r.trace->isLasso());
  std::string text = lc.formatTrace(*r.trace);
  EXPECT_NE(text.find("_monitor"), std::string::npos);
}

TEST(Lc, EarlyFailureCanBeDisabled) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  LcOptions opts;
  opts.earlyFailureDetection = false;
  LcChecker lc(mgr, flat, figure2Automaton("out=1"), {}, opts);
  LcResult r = lc.check();
  EXPECT_FALSE(r.contained);
  EXPECT_FALSE(r.stats.usedEarlyFailure);
  EXPECT_TRUE(r.trace.has_value());
}

TEST(Lc, BuchiLiveness) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  // the counter passes s=3 infinitely often
  Automaton live("live");
  live.addState("wait");
  live.addState("seen");
  live.addEdge("wait", "seen", parseSigExpr("s=3"));
  live.addEdge("wait", "wait", parseSigExpr("s!=3"));
  live.addEdge("seen", "seen", parseSigExpr("s=3"));
  live.addEdge("seen", "wait", parseSigExpr("s!=3"));
  live.setBuchiAcceptance({"seen"});
  LcChecker lc(mgr, flat, live);
  EXPECT_TRUE(lc.check().contained);
}

TEST(Lc, BuchiLivenessFailsWithLasso) {
  BddManager mgr;
  // A machine that may stall forever at s=0.
  auto flat = blifmv::flatten(blifmv::parse(R"(
.model stall
.mv s, ns 2
.table s ns
0 (0,1)
1 0
.latch ns s
.reset s
0
.end
)"));
  Automaton live("live");
  live.addState("wait");
  live.addState("seen");
  live.addEdge("wait", "seen", parseSigExpr("s=1"));
  live.addEdge("wait", "wait", parseSigExpr("s!=1"));
  live.addEdge("seen", "seen", parseSigExpr("s=1"));
  live.addEdge("seen", "wait", parseSigExpr("s!=1"));
  live.setBuchiAcceptance({"seen"});
  LcChecker lc(mgr, flat, live);
  LcResult r = lc.check();
  ASSERT_FALSE(r.contained);
  ASSERT_TRUE(r.trace.has_value());
  // the counterexample cycle never visits s=1
  for (size_t i = static_cast<size_t>(r.trace->cycleStart);
       i < r.trace->states.size(); ++i) {
    EXPECT_EQ(lc.fsm().decodeState(r.trace->states[i])[0], 0u);
  }
}

TEST(Lc, NoStayFairnessRescuesLiveness) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(R"(
.model stall
.mv s, ns 2
.table s ns
0 (0,1)
1 0
.latch ns s
.reset s
0
.end
)"));
  Automaton live("live");
  live.addState("wait");
  live.addState("seen");
  live.addEdge("wait", "seen", parseSigExpr("s=1"));
  live.addEdge("wait", "wait", parseSigExpr("s!=1"));
  live.addEdge("seen", "seen", parseSigExpr("s=1"));
  live.addEdge("seen", "wait", parseSigExpr("s!=1"));
  live.setBuchiAcceptance({"seen"});
  FairnessSpec fair;
  fair.noStay.push_back(parseSigExpr("s=0"));  // cannot stall forever
  LcChecker lc(mgr, flat, live, fair);
  EXPECT_TRUE(lc.check().contained);
}

TEST(Lc, FairEdgeConstraint) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(R"(
.model stall
.mv s, ns 2
.table s ns
0 (0,1)
1 0
.latch ns s
.reset s
0
.end
)"));
  Automaton live("live");
  live.addState("wait");
  live.addState("seen");
  live.addEdge("wait", "seen", parseSigExpr("s=1"));
  live.addEdge("wait", "wait", parseSigExpr("s!=1"));
  live.addEdge("seen", "seen", parseSigExpr("s=1"));
  live.addEdge("seen", "wait", parseSigExpr("s!=1"));
  live.setBuchiAcceptance({"seen"});
  FairnessSpec fair;
  // the edge s=0 -> s=1 must be taken infinitely often
  fair.fairEdges.emplace_back(parseSigExpr("s=0"), parseSigExpr("s=1"));
  LcChecker lc(mgr, flat, live, fair);
  EXPECT_TRUE(lc.check().contained);
  EXPECT_EQ(lc.edgeSets().size(), 1u);
}

TEST(Lc, FairEdgeRejectsCombinationalGuards) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  FairnessSpec fair;
  fair.fairEdges.emplace_back(parseSigExpr("s=0"), parseSigExpr("s=1"));
  {
    // fine: both sides over latches
    LcChecker lc(mgr, flat, figure2Automaton("out=1 & s=1"), fair);
  }
  FairnessSpec bad;
  bad.fairEdges.emplace_back(parseSigExpr("out=1"), parseSigExpr("s=1"));
  BddManager mgr2;
  EXPECT_THROW(
      LcChecker(mgr2, flat, figure2Automaton("out=1 & s=1"), bad),
      std::runtime_error);
}

TEST(Lc, VacuousPassWhenFairnessUnsatisfiable) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  FairnessSpec fair;
  // s=1 and s=2 simultaneously is impossible: no fair runs at all
  fair.buchi.push_back(parseSigExpr("s=1 & s=2"));
  LcChecker lc(mgr, flat, figure2Automaton("out=1"), fair);
  LcResult r = lc.check();
  EXPECT_TRUE(r.contained);
  ASSERT_FALSE(r.notes.empty());
  EXPECT_NE(r.notes[0].find("vacuous"), std::string::npos);
}

TEST(Lc, MonolithicAndPartitionedAgree) {
  for (bool partitioned : {false, true}) {
    BddManager mgr;
    auto flat = blifmv::flatten(blifmv::parse(kCounter));
    LcOptions opts;
    opts.partitionedTr = partitioned;
    LcChecker lc(mgr, flat, figure2Automaton("out=1 & s=1"), {}, opts);
    EXPECT_TRUE(lc.check().contained);
    BddManager mgr2;
    LcChecker lc2(mgr2, flat, figure2Automaton("out=1"), {}, opts);
    EXPECT_FALSE(lc2.check().contained);
  }
}

TEST(Lc, RabinPairAcceptance) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  // explicit Rabin pair equivalent to the stay-acceptance
  Automaton aut("rabin");
  aut.addState("A");
  aut.addState("B");
  aut.addEdge("A", "A", parseSigExpr("!(out=1 & s=1)"));
  aut.addEdge("A", "B", parseSigExpr("out=1 & s=1"));
  aut.addEdge("B", "B", sigTrue());
  aut.addRabinPair({"B"}, {"A"});
  LcChecker lc(mgr, flat, aut);
  EXPECT_TRUE(lc.check().contained);
}

TEST(Lc, MonitorNameAvoidsCollision) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(R"(
.model m
.table _monitor
(0,1)
.table _monitor x
- =_monitor
.end
)"));
  // The design already uses "_monitor": guards still read the design's
  // signal, never the monitor latch.
  LcChecker lc(mgr, flat, figure2Automaton("_monitor=1"));
  std::optional<MvVarId> sig = lc.fsm().signalVar("_monitor");
  ASSERT_TRUE(sig.has_value());
  EXPECT_NE(*sig, lc.fsm().stateVar(lc.fsm().numLatches() - 1));
  EXPECT_FALSE(lc.check().contained);  // the wire can be 1
}

TEST(Lc, EmptyHullSkipsProductReachability) {
  BddManager mgr;
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  Automaton live("live");
  live.addState("wait");
  live.addState("seen");
  live.addEdge("wait", "seen", parseSigExpr("s=3"));
  live.addEdge("wait", "wait", parseSigExpr("s!=3"));
  live.addEdge("seen", "seen", parseSigExpr("s=3"));
  live.addEdge("seen", "wait", parseSigExpr("s!=3"));
  live.setBuchiAcceptance({"seen"});
  LcChecker lc(mgr, flat, live);
  LcResult r = lc.check();
  EXPECT_TRUE(r.contained);
  EXPECT_GT(r.stats.hullIterations, 0u);
  EXPECT_EQ(r.stats.reachabilitySteps, 0u);
  EXPECT_EQ(r.stats.reachedStates, 0.0);
}

TEST(Lc, DeadStateSafetyWithAndWithoutEarlyFailure) {
  auto flat = blifmv::flatten(blifmv::parse(kCounter));
  for (bool efd : {true, false}) {
    LcOptions opts;
    opts.earlyFailureDetection = efd;
    {
      // Passes with a non-empty hull over S (the dead state B traps every
      // design state) that the product never reaches: the product
      // reachability runs to its fixpoint.
      BddManager mgr;
      LcChecker lc(mgr, flat, figure2Automaton("out=1 & s=1"), {}, opts);
      LcResult r = lc.check();
      EXPECT_TRUE(r.contained) << "efd=" << efd;
      EXPECT_FALSE(r.stats.usedEarlyFailure) << "efd=" << efd;
      EXPECT_EQ(r.stats.reachabilitySteps, 3u) << "efd=" << efd;
      EXPECT_EQ(r.stats.reachedStates, 4.0) << "efd=" << efd;
    }
    {
      // Fails: with EFD the exploration stops at the first frontier in the
      // hull (the initial state already is), without it at the fixpoint:
      // 0..3 in A, then 0..3 in B, seven steps for eight product states.
      BddManager mgr;
      LcChecker lc(mgr, flat, figure2Automaton("out=1"), {}, opts);
      LcResult r = lc.check();
      EXPECT_FALSE(r.contained) << "efd=" << efd;
      EXPECT_EQ(r.stats.usedEarlyFailure, efd);
      EXPECT_EQ(r.stats.reachabilitySteps, efd ? 0u : 7u) << "efd=" << efd;
      EXPECT_EQ(r.stats.reachedStates, efd ? 1.0 : 8.0) << "efd=" << efd;
      ASSERT_TRUE(r.trace.has_value()) << "efd=" << efd;
      EXPECT_TRUE(r.trace->isLasso());
      // the lasso reaches the dead state B
      bool sawB = false;
      for (const auto& st : r.trace->states)
        sawB |= lc.fsm().decodeState(st).back() == 1;
      EXPECT_TRUE(sawB) << "efd=" << efd;
    }
  }
}

TEST(Lc, GuardsReadNondeterministicWires) {
  // pingpong's ping_hits is (ball == ping_side) && $ND(0, 1): a guard over
  // it reads a wire that the design's own clusters quantify away. The
  // verdicts below are the ones the earlier text composition of the monitor
  // into the BLIF-MV model gave.
  const char* kPif = R"(
automaton hit_lands {
  state idle init;
  state hit;
  state bad;
  edge idle -> hit on "ping_hits";
  edge idle -> idle on "!ping_hits";
  edge hit -> idle on "ball=to_pong & !ping_hits";
  edge hit -> hit on "ball=to_pong & ping_hits";
  edge hit -> bad on "ball!=to_pong";
  edge bad -> bad on "1";
  accept stay idle, hit;
}
automaton ping_never_hits {
  state ok init;
  state bad;
  edge ok -> ok on "!ping_hits";
  edge ok -> bad on "ping_hits";
  edge bad -> bad on "1";
  accept stay ok;
}
automaton hits_forever {
  state wait init;
  state seen;
  edge wait -> seen on "ping_hits";
  edge wait -> wait on "!ping_hits";
  edge seen -> seen on "ping_hits";
  edge seen -> wait on "!ping_hits";
  accept buchi seen;
}
)";
  const models::ModelDef* m = models::find("pingpong");
  ASSERT_NE(m, nullptr);
  PifFile props = parsePif(kPif);
  FairnessSpec fair = parsePif(std::string(m->pif)).fairness;
  for (bool withFairness : {true, false}) {
    for (bool efd : {true, false}) {
      Session::Options opts;
      opts.earlyFailureDetection = efd;
      Session s(opts);
      s.load(Session::DesignSource::verilog(std::string(m->verilog),
                                            std::string(m->top)));
      if (withFairness) s.setFairness(fair);
      const std::string tag = std::string(withFairness ? "fair" : "unfair") +
                              (efd ? "/efd" : "/full");
      EXPECT_TRUE(s.check(props.properties[0]).holds) << tag;
      EXPECT_FALSE(s.check(props.properties[1]).holds) << tag;
      // Büchi on the wire: holds only when a player may not keep the ball
      EXPECT_EQ(s.check(props.properties[2]).holds, withFairness) << tag;
    }
  }
}

TEST(Lc, RepeatedChecksDoNotGrowTheVariableSpace) {
  const models::ModelDef* m = models::find("pingpong");
  ASSERT_NE(m, nullptr);
  PifFile pif = parsePif(std::string(m->pif));
  const PifProperty* lcProp = nullptr;
  for (const PifProperty& p : pif.properties)
    if (p.kind == PifProperty::Kind::Automaton && p.aut.numStates() == 5)
      lcProp = &p;
  ASSERT_NE(lcProp, nullptr);
  Session s;
  s.load(Session::DesignSource::verilog(std::string(m->verilog),
                                        std::string(m->top)));
  s.setFairness(pif.fairness);
  ASSERT_TRUE(s.check(*lcProp).holds);
  const uint32_t vars = s.manager().numVars();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(s.check(*lcProp).holds);
    EXPECT_EQ(s.manager().numVars(), vars) << "check " << i + 2;
  }
  // a smaller automaton reuses the same bits
  for (const PifProperty& p : pif.properties)
    if (p.kind == PifProperty::Kind::Automaton) (void)s.check(p);
  EXPECT_EQ(s.manager().numVars(), vars);
}

}  // namespace
}  // namespace hsis
