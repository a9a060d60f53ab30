// hsis_bench: the benchmark harness. Every paper table and ablation is a
// suite of a declarative scenario table (EXPERIMENTS.md names the suite
// behind each table and the registry key behind each column); each case
// runs warmup+repeat times with a clean metrics registry, and the run
// writes a BENCH_<suite>.json baseline (schema hsis-bench-v1, see
// bench_schema.hpp) that perf_compare can diff against a later run.
//
//   hsis_bench --list
//   hsis_bench --suite table1 --repeat 3 --stats-json out/
//   hsis_bench --suite reach --filter gigamax --heartbeat 500 --timeout-s 60
//
// --stats-json takes either a directory (gets BENCH_<suite>.json inside;
// created if missing, but never its missing parents) or an explicit .json
// path in an existing directory; a missing parent exits with code 2 before
// any case runs. --trace-out DIR writes one Chrome trace
// (phase spans plus profiler counter tracks) per case as
// TRACE_<case>.json, mirroring how --stats-json names baselines. The
// shared obs flags (--heartbeat, --timeout-s, --mem-limit-mb, --profile)
// work like in every other driver; a watchdog abort stops the suite but
// the baseline written so far is still valid, with the aborted case
// marked, and the exit code is 3. A case whose paper claim does not hold
// (a seeded bug not found, LC and MC disagreeing, ...) fails the run with
// exit code 1.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_schema.hpp"
#include "fsm/quantify.hpp"
#include "hsis/session.hpp"
#include "minimize/bisim.hpp"
#include "models/models.hpp"
#include "obs/control.hpp"
#include "obs/obs.hpp"
#include "obs/version.hpp"
#include "par/batch.hpp"
#include "vl2mv/vl2mv.hpp"

namespace {

struct Case {
  std::string name;
  std::function<void()> body;
};

// ------------------------------------------------------------ case bodies
//
// A column that no registry entry carries is set by the case body as a
// `bench.<suite>.<column>` gauge, so every paper-table column is read from
// the case's obs snapshot in BENCH_<suite>.json (see EXPERIMENTS.md). A
// case whose paper claim breaks throws, which fails the whole run.

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

void setGauge(const char* name, double value) {
  hsis::obs::gauge(name).set(static_cast<int64_t>(value));
}

hsis::Session::DesignSource modelSource(const hsis::models::ModelDef& model) {
  return hsis::Session::DesignSource::verilog(std::string(model.verilog),
                                              std::string(model.top));
}

/// Read + build + reachability + every PIF property of `model`, on
/// hsis::Session directly — the same load/build/check path an hsis_serve
/// worker takes, so these numbers transfer to the service.
void verifyModel(hsis::Session& session, const hsis::models::ModelDef& model) {
  session.load(modelSource(model));
  session.build();
  hsis::PifFile pif = hsis::parsePif(std::string(model.pif));
  session.setFairness(pif.fairness);
  (void)session.reachedStates();
  for (const hsis::PifProperty& p : pif.properties) (void)session.check(p);
}

/// Compiled+flattened design shared across the repeats of a case so the
/// measured body is the BDD work, not the parser.
using FlatPtr = std::shared_ptr<const hsis::blifmv::Model>;

FlatPtr flatten(const hsis::models::ModelDef& model) {
  auto design = hsis::vl2mv::compile(std::string(model.verilog),
                                     std::string(model.top));
  return std::make_shared<hsis::blifmv::Model>(hsis::blifmv::flatten(design));
}

hsis::Bdd randomFunction(hsis::BddManager& m, std::mt19937& rng, uint32_t vars,
                         int cubes) {
  hsis::Bdd f = m.bddZero();
  for (int k = 0; k < cubes; ++k) {
    hsis::Bdd cube = m.bddOne();
    for (hsis::BddVar v = 0; v < vars; ++v) {
      switch (rng() % 3) {
        case 0: cube &= m.bddVar(v); break;
        case 1: cube &= !m.bddVar(v); break;
        default: break;
      }
    }
    f |= cube;
  }
  return f;
}

/// The paper's Section-4 data point ("around 1600 relations had to be
/// multiplied and 1500 variables had to be quantified out") at the same
/// scale: 100 latches, each fed by a cone of 15 gate relations chained
/// through intermediate wires, plus one next-state relation per latch.
void synthetic1600(hsis::QuantMethod method) {
  constexpr uint32_t kLatches = 100;
  constexpr uint32_t kDepth = 15;  // wires per latch cone
  hsis::BddManager mgr;
  std::vector<hsis::Bdd> relations;
  // Present/next rails interleaved; wires below them (quantified anyway).
  std::vector<hsis::BddVar> state, nextState, wires;
  for (uint32_t l = 0; l < kLatches; ++l) {
    state.push_back(mgr.newVar());
    nextState.push_back(mgr.newVar());
  }
  auto equal = [&](hsis::BddVar v, const hsis::Bdd& f) {
    hsis::Bdd fv = mgr.bddVar(v);
    return (fv & f) | ((!fv) & !f);
  };
  for (uint32_t l = 0; l < kLatches; ++l) {
    hsis::BddVar prev = state[l];
    for (uint32_t d = 0; d < kDepth; ++d) {
      hsis::BddVar w = mgr.newVar();
      // local coupling: each cone mixes its own latch and its neighbour
      hsis::Bdd a = mgr.bddVar(prev);
      hsis::Bdd b = mgr.bddVar(state[(l + (d % 2)) % kLatches]);
      relations.push_back(
          equal(w, d % 3 == 0 ? (a & b) : d % 3 == 1 ? (a | b) : (a ^ b)));
      wires.push_back(w);
      prev = w;
    }
    relations.push_back(equal(nextState[l], mgr.bddVar(prev)));
  }
  std::vector<bool> quantifiable(mgr.numVars(), false);
  for (hsis::BddVar w : wires) quantifiable[w] = true;

  hsis::QuantPlan plan = [&] {
    hsis::obs::Span span("bench.quantify.plan");
    return hsis::planQuantification(mgr, relations, quantifiable, method);
  }();
  hsis::Bdd t = hsis::executePlan(mgr, plan, relations);
  setGauge("bench.quantify.relations", static_cast<double>(relations.size()));
  setGauge("bench.quantify.quantified_vars", static_cast<double>(wires.size()));
  setGauge("bench.quantify.result_nodes", static_cast<double>(t.nodeCount()));
}

/// Section 5.4's seeded bugs: a patch to the bundled Verilog that breaks
/// the design, and the invariant that must then fail.
struct SeededBug {
  const char* design;
  const char* patchFrom;
  const char* patchTo;
  const char* property;
};

const SeededBug kSeededBugs[] = {
    // gigamax: owners are no longer demoted on foreign read_shared, so an
    // owner and a sharer can coexist
    {"gigamax", "if (st == owned) st <= shared;   // supply data, demote",
     "st <= st;",
     "AG ((p0.st=owned -> (p1.st=invalid & p2.st=invalid)) & "
     "(p1.st=owned -> (p0.st=invalid & p2.st=invalid)) & "
     "(p2.st=owned -> (p0.st=invalid & p1.st=invalid)))"},
    // dcnew: grants ignore the busy bus
    {"dcnew", "assign g1 = busfree && r1 && !r0;", "assign g1 = r1;",
     "AG (!(ch0.st=transfer & ch1.st=transfer) & !(ch1.st=transfer & "
     "ch2.st=transfer) & !(ch0.st=transfer & ch2.st=transfer))"},
    // scheduler: cell 3 spuriously re-creates the token
    {"scheduler", "cell c3(s2, s3, b3);",
     "cell #(.HASTOKEN(1)) c3(s2, s3, b3);", "AG !(c0.token=1 & c3.token=1)"},
    // 2mdlc: the receiver stops checking the checksum on link 0
    {"2mdlc", "assign rok = ch_valid && (rx_crc == ch_crc);",
     "assign rok = ch_valid;", "AG (l0.err=0 & l1.err=0)"},
};

/// Section 5.2's matched pairs: a CTL formula and an automaton that state
/// the same requirement, under the same fairness.
struct MatchedPair {
  const char* design;
  const char* kind;
  const char* ctl;        // PIF ctl line
  const char* automaton;  // PIF automaton block
  const char* fairness;   // PIF fairness block (may be "")
};

const MatchedPair kMatchedPairs[] = {
    {"pingpong", "invariance",
     R"PIF(ctl p "AG !(ball=ping_side & ball=pong_side)";)PIF",
     R"PIF(automaton p { state ok init; state bad;
        edge ok -> ok on "!(ping_has & pong_has)";
        edge ok -> bad on "ping_has & pong_has";
        edge bad -> bad on "1"; accept stay ok; })PIF",
     R"PIF(fairness { nostay "ball=ping_side"; nostay "ball=pong_side"; })PIF"},
    {"pingpong", "liveness", R"PIF(ctl p "AG AF ball=pong_side";)PIF",
     R"PIF(automaton p { state wait init; state seen;
        edge wait -> seen on "pong_has"; edge wait -> wait on "!pong_has";
        edge seen -> wait on "!pong_has"; edge seen -> seen on "pong_has";
        accept buchi seen; })PIF",
     R"PIF(fairness { nostay "ball=ping_side"; nostay "ball=pong_side"; })PIF"},
    {"gigamax", "invariance",
     R"PIF(ctl p "AG (!(p0.st=owned & p1.st=owned) & !(p1.st=owned & p2.st=owned) & !(p0.st=owned & p2.st=owned))";)PIF",
     R"PIF(automaton p { state ok init; state bad;
        edge ok -> ok on "!two_owners";
        edge ok -> bad on "two_owners";
        edge bad -> bad on "1"; accept stay ok; })PIF",
     ""},
    {"scheduler", "liveness", R"PIF(ctl p "AG AF c0.running=1";)PIF",
     R"PIF(automaton p { state wait init; state seen;
        edge wait -> seen on "c0.running=1"; edge wait -> wait on "!(c0.running=1)";
        edge seen -> wait on "!(c0.running=1)"; edge seen -> seen on "c0.running=1";
        accept buchi seen; })PIF",
     R"PIF(fairness { nostay "c0.running=1"; nostay "c1.running=1";
        nostay "c2.running=1"; nostay "c3.running=1"; nostay "c4.running=1";
        nostay "c5.running=1"; nostay "c6.running=1"; nostay "c7.running=1";
        nostay "c8.running=1"; nostay "c9.running=1"; })PIF"},
    {"dcnew", "invariance",
     R"PIF(ctl p "AG (!(ch0.st=transfer & ch1.st=transfer) & !(ch1.st=transfer & ch2.st=transfer) & !(ch0.st=transfer & ch2.st=transfer))";)PIF",
     R"PIF(automaton p { state ok init; state bad;
        edge ok -> ok on "!((t0 & t1) | (t1 & t2) | (t0 & t2))";
        edge ok -> bad on "(t0 & t1) | (t1 & t2) | (t0 & t2)";
        edge bad -> bad on "1"; accept stay ok; })PIF",
     ""},
    {"2mdlc", "invariance", R"PIF(ctl p "AG (l0.err=0 & l1.err=0)";)PIF",
     R"PIF(automaton p { state ok init; state bad;
        edge ok -> ok on "!(l0.err=1 | l1.err=1)";
        edge ok -> bad on "l0.err=1 | l1.err=1";
        edge bad -> bad on "1"; accept stay ok; })PIF",
     ""},
    {"2mdlc", "liveness", R"PIF(ctl p "AG AF l0.deliver=1";)PIF",
     R"PIF(automaton p { state wait init; state seen;
        edge wait -> seen on "l0.deliver=1"; edge wait -> wait on "!(l0.deliver=1)";
        edge seen -> wait on "!(l0.deliver=1)"; edge seen -> seen on "l0.deliver=1";
        accept buchi seen; })PIF",
     R"PIF(fairness { buchi "l0.acked=1"; buchi "l1.acked=1"; })PIF"},
};

// --------------------------------------------------------------- the table

std::vector<Case> makeSuite(const std::string& suite, int maxThreads = 4) {
  std::vector<Case> cases;
  auto add = [&](std::string name, std::function<void()> body) {
    cases.push_back({std::move(name), std::move(body)});
  };

  if (suite == "smoke") {
    // The fast end-to-end pass CI runs on every push: two toy designs
    // through the full pipeline plus one BDD micro.
    for (const char* name : {"philos", "pingpong"}) {
      const auto* model = hsis::models::find(name);
      add(std::string("smoke/") + name, [model] {
        hsis::Session session;
        verifyModel(session, *model);
      });
    }
    add("smoke/bdd-ite", [] {
      hsis::BddManager m(24);
      std::mt19937 rng(1);
      hsis::Bdd f = randomFunction(m, rng, 24, 32);
      hsis::Bdd g = randomFunction(m, rng, 24, 32);
      hsis::Bdd h = randomFunction(m, rng, 24, 32);
      for (int i = 0; i < 16; ++i) {
        (void)m.ite(f, g, h);
        m.clearCaches();
      }
    });
  } else if (suite == "table1") {
    // The paper's Table 1: every bundled design through read + build +
    // reachability + all of its PIF properties. The other columns are the
    // env.* entries Session sets.
    for (const auto& model : hsis::models::all()) {
      add(std::string("table1/") + std::string(model.name), [&model] {
        hsis::Session session;
        verifyModel(session, model);
        setGauge("bench.table1.lines_verilog",
                 static_cast<double>(session.linesVerilog()));
        setGauge("bench.table1.lines_blifmv",
                 static_cast<double>(session.linesBlifMv()));
      });
    }
  } else if (suite == "reach") {
    // Monolithic vs partitioned transition relations (future-work item 4):
    // fsm.tr.clusters, fsm.tr.nodes, and the fsm.tr.build, fsm.reach and
    // fsm.preimage spans.
    for (const char* name : {"philos", "pingpong", "gigamax", "2mdlc"}) {
      const auto* model = hsis::models::find(name);
      FlatPtr flat = flatten(*model);
      struct Config {
        const char* label;
        bool partitioned;
        size_t limit;
      };
      for (const Config& cfg : {Config{"monolithic", false, 0},
                                Config{"part-5000", true, 5000},
                                Config{"part-500", true, 500}}) {
        add(std::string("reach/") + name + "/" + cfg.label, [flat, cfg] {
          hsis::BddManager mgr;
          hsis::Fsm fsm(mgr, *flat);
          auto tr = cfg.partitioned
                        ? hsis::TransitionRelation::partitioned(fsm, cfg.limit)
                        : hsis::TransitionRelation::monolithic(fsm);
          auto rr = hsis::reachableStates(tr, fsm.initialStates());
          (void)tr.preimage(rr.reached);
        });
      }
    }
  } else if (suite == "quantify") {
    // Early-quantification planners on the monolithic product (Section 4):
    // peak nodes are the max of fsm.quant.intermediate.nodes. The naive
    // baseline only survives the toy designs.
    struct Run {
      const char* design;
      hsis::QuantMethod method;
    };
    std::vector<Run> runs;
    for (const char* name : {"philos", "pingpong", "gigamax", "2mdlc"})
      for (hsis::QuantMethod m :
           {hsis::QuantMethod::Greedy, hsis::QuantMethod::Tree})
        runs.push_back({name, m});
    for (const char* name : {"philos", "pingpong"})
      runs.push_back({name, hsis::QuantMethod::Naive});
    for (const Run& run : runs) {
      FlatPtr flat = flatten(*hsis::models::find(run.design));
      hsis::QuantMethod method = run.method;
      add(std::string("quantify/") + run.design + "/" + toString(method),
          [flat, method] {
            hsis::BddManager mgr;
            hsis::Fsm fsm(mgr, *flat);
            setGauge("bench.quantify.relations",
                     static_cast<double>(fsm.relations().size()));
            setGauge("bench.quantify.quantified_vars",
                     static_cast<double>(
                         mgr.support(fsm.nonStateCube()).size()));
            (void)hsis::TransitionRelation::monolithic(fsm, method);
          });
    }
    for (hsis::QuantMethod method :
         {hsis::QuantMethod::Greedy, hsis::QuantMethod::Tree}) {
      add(std::string("quantify/synthetic/") + toString(method),
          [method] { synthetic1600(method); });
    }
  } else if (suite == "efd") {
    // Early failure detection (Section 5.4) on the seeded bugs: the same
    // invariant checked with EFD (bench.efd.efd_check span) and with the
    // full fixpoint first (bench.efd.full_check).
    for (const SeededBug& bug : kSeededBugs) {
      const std::string name = std::string("efd/") + bug.design;
      add(name, [bug, name] {
        std::string verilog(hsis::models::find(bug.design)->verilog);
        size_t pos = verilog.find(bug.patchFrom);
        require(pos != std::string::npos,
                name + ": seeded patch site not found");
        verilog.replace(pos, std::strlen(bug.patchFrom), bug.patchTo);
        size_t steps[2] = {0, 0};  // [full, efd]
        for (bool efd : {true, false}) {
          hsis::Session::Options opts;
          opts.earlyFailureDetection = efd;
          opts.wantTraces = false;
          hsis::Session session(opts);
          session.load(hsis::Session::DesignSource::verilog(verilog));
          session.build();
          hsis::obs::Span span(efd ? "bench.efd.efd_check"
                                   : "bench.efd.full_check");
          hsis::BugReport r =
              session.checkCtl("seeded", hsis::parseCtl(bug.property));
          require(!r.holds, name + ": the seeded invariant holds");
          steps[efd] = session.checker().lastStats().reachabilitySteps;
        }
        setGauge("bench.efd.efd_steps", static_cast<double>(steps[1]));
        setGauge("bench.efd.full_steps", static_cast<double>(steps[0]));
        require(steps[1] < steps[0],
                name + ": EFD took " + std::to_string(steps[1]) +
                    " steps, not fewer than the full fixpoint's " +
                    std::to_string(steps[0]));
      });
    }
  } else if (suite == "dontcare") {
    // Don't cares (Section 2, item 3). minimize: fsm.tr.nodes before and
    // bench.dontcare.minimized_nodes after restricting the transition
    // relation to the reached set. bisim: classes of the first latch's
    // zero-value observation, and a class-closed set shrunk to
    // representatives.
    for (const char* name : {"gigamax", "scheduler", "2mdlc"}) {
      FlatPtr flat = flatten(*hsis::models::find(name));
      add(std::string("dontcare/") + name + "/minimize", [flat] {
        hsis::BddManager mgr;
        hsis::Fsm fsm(mgr, *flat);
        auto tr = hsis::TransitionRelation::partitioned(fsm);
        auto rr = hsis::reachableStates(tr, fsm.initialStates());
        setGauge("bench.dontcare.minimized_nodes",
                 static_cast<double>(tr.minimized(rr.reached).totalNodes()));
      });
    }
    for (const char* name : {"philos", "gigamax", "dcnew"}) {
      FlatPtr flat = flatten(*hsis::models::find(name));
      add(std::string("dontcare/") + name + "/bisim", [flat] {
        hsis::BddManager mgr;
        hsis::Fsm fsm(mgr, *flat);
        auto tr = hsis::TransitionRelation::monolithic(fsm);
        auto rr = hsis::reachableStates(tr, fsm.initialStates());
        std::vector<hsis::Bdd> obs{fsm.space().literal(fsm.stateVar(0), 0)};
        hsis::BisimResult bisim =
            hsis::bisimulation(fsm, tr, obs, rr.reached);
        hsis::Bdd set = obs[0] & rr.reached;
        hsis::Bdd shrunk = hsis::shrinkToRepresentatives(fsm, bisim, set);
        setGauge("bench.dontcare.states", fsm.countStates(rr.reached));
        setGauge("bench.dontcare.classes", bisim.classCount);
        setGauge("bench.dontcare.set_nodes",
                 static_cast<double>(set.nodeCount()));
        setGauge("bench.dontcare.shrunk_nodes",
                 static_cast<double>(shrunk.nodeCount()));
      });
    }
  } else if (suite == "lc_vs_mc") {
    // LC vs MC (Section 5.2) on matched pairs: the env.verify.ctl and
    // env.verify.lc spans time the two checks after a shared reachability;
    // bench.lc_vs_mc.holds is the (common) verdict.
    for (const MatchedPair& pair : kMatchedPairs) {
      const std::string name =
          std::string("lc_vs_mc/") + pair.design + "/" + pair.kind;
      add(name, [pair, name] {
        hsis::Session session;
        session.load(modelSource(*hsis::models::find(pair.design)));
        session.setFairness(hsis::parsePif(pair.fairness).fairness);
        session.build();
        (void)session.reachedStates();
        hsis::BugReport mc =
            session.check(hsis::parsePif(pair.ctl).properties.at(0));
        hsis::BugReport lc =
            session.check(hsis::parsePif(pair.automaton).properties.at(0));
        require(mc.holds == lc.holds,
                name + ": LC and MC verdicts disagree (MC " +
                    (mc.holds ? "PASS" : "FAIL") + ")");
        setGauge("bench.lc_vs_mc.holds", mc.holds ? 1 : 0);
      });
    }
  } else if (suite == "bdd") {
    // BDD package micros (the rows EXPERIMENTS.md reports).
    for (uint32_t nv : {16u, 32u}) {
      add("bdd/ite/" + std::to_string(nv), [nv] {
        hsis::BddManager m(nv);
        std::mt19937 rng(1);
        hsis::Bdd f = randomFunction(m, rng, nv, 32);
        hsis::Bdd g = randomFunction(m, rng, nv, 32);
        hsis::Bdd h = randomFunction(m, rng, nv, 32);
        for (int i = 0; i < 32; ++i) {
          (void)m.ite(f, g, h);
          m.clearCaches();
        }
      });
      add("bdd/and-exists/" + std::to_string(nv), [nv] {
        hsis::BddManager m(nv);
        std::mt19937 rng(2);
        hsis::Bdd f = randomFunction(m, rng, nv, 32);
        hsis::Bdd g = randomFunction(m, rng, nv, 32);
        hsis::Bdd cube = m.bddOne();
        for (hsis::BddVar v = 0; v < nv; v += 2) cube &= m.bddVar(v);
        for (int i = 0; i < 32; ++i) {
          (void)m.andExists(f, g, cube);
          m.clearCaches();
        }
      });
      add("bdd/not/" + std::to_string(nv), [nv] {
        // With complement edges negation is a bit flip: this case should
        // stay flat no matter how big the operand gets.
        hsis::BddManager m(nv);
        std::mt19937 rng(3);
        hsis::Bdd f = randomFunction(m, rng, nv, 32);
        for (int i = 0; i < 4096; ++i) f = !f;
      });
    }
  } else if (suite == "parallel") {
    // The property-batch scheduler swept over a job count list (1, 2, 4,
    // ... up to --threads). j1 rows are the serial anchors a sweep is read
    // against.
    std::vector<int> ks{1};
    for (int k = 2; k <= maxThreads; k *= 2) ks.push_back(k);
    if (ks.back() != maxThreads) ks.push_back(maxThreads);

    // The property batch of one design fanned out onto k replica-owning
    // workers (exactly hsis_cli --jobs k).
    for (const char* name : {"philos", "gigamax"}) {
      const auto* model = hsis::models::find(name);
      for (int k : ks) {
        add("parallel/batch/" + std::string(name) + "/j" + std::to_string(k),
            [model, k] {
              hsis::Session session;
              session.load(modelSource(*model));
              session.build();
              hsis::PifFile pif = hsis::parsePif(std::string(model->pif));
              session.setFairness(pif.fairness);
              (void)hsis::par::checkBatch(session, pif.properties,
                                          {.jobs = k});
            });
      }
    }
  }
  return cases;
}

const char* const kSuites[] = {"smoke",    "table1",   "reach",
                               "quantify", "efd",      "dontcare",
                               "lc_vs_mc", "bdd",      "parallel"};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--suite NAME] [--repeat N] [--warmup N] [--filter SUBSTR]\n"
      "          [--threads N] [--stats-json DIR-or-FILE.json]\n"
      "          [--trace-out DIR] [--list]\n"
      "          [--heartbeat MS] [--heartbeat-file F] [--timeout-s S]\n"
      "          [--mem-limit-mb M] [--profile] [--profile-out BASE]\n"
      "          [--profile-interval-ms N] [--log-level LVL] [--log-file F]\n"
      "          [--ledger PATH] [--flight-dir DIR]\n"
      "suites: smoke table1 reach quantify efd dontcare lc_vs_mc bdd "
      "parallel\n"
      "--threads caps the parallel suite's --jobs sweep (default 4)\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (hsis::obs::handleVersionFlag(argc, argv, "hsis_bench")) return 0;
  // hsis_bench owns --stats-json (it means the BENCH baseline, not a bare
  // obs snapshot) and its own ledger records (one per case, not one per
  // process).
  hsis::obs::ObsCliOptions obsOpts = hsis::obs::initDriverObs(
      argc, argv,
      {.driverName = "hsis_bench", .ownStatsJson = true, .ownLedger = true});

  std::string suite = "smoke";
  std::string filter;
  std::string traceOut;
  int repeat = 3;
  int warmup = 1;
  int threads = 4;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--suite") suite = value();
    else if (arg == "--repeat") repeat = std::atoi(value());
    else if (arg == "--warmup") warmup = std::atoi(value());
    else if (arg == "--filter") filter = value();
    else if (arg == "--threads") threads = std::atoi(value());
    else if (arg == "--trace-out") traceOut = value();
    else if (arg == "--list") list = true;
    else return usage(argv[0]);
  }
  if (repeat < 1) repeat = 1;
  if (warmup < 0) warmup = 0;
  if (threads < 1) threads = 1;

  if (list) {
    for (const char* s : kSuites) {
      std::printf("%s\n", s);
      for (const Case& c : makeSuite(s, threads))
        std::printf("  %s\n", c.name.c_str());
    }
    return 0;
  }

  bool known = false;
  for (const char* s : kSuites) known |= suite == s;
  if (!known) {
    std::fprintf(stderr, "unknown suite '%s'\n", suite.c_str());
    return usage(argv[0]);
  }

  std::vector<Case> cases = makeSuite(suite, threads);
  if (!filter.empty()) {
    std::erase_if(cases, [&](const Case& c) {
      return c.name.find(filter) == std::string::npos;
    });
  }
  if (cases.empty()) {
    std::fprintf(stderr, "no cases match\n");
    return 2;
  }

  // Resolve the --stats-json target before any case runs. A path ending
  // in .json names the file; anything else names a directory that receives
  // BENCH_<suite>.json and is created if missing. Only that one directory
  // is made: a missing parent is a usage error, never created.
  std::filesystem::path statsFile;
  if (!obsOpts.statsJsonPath.empty()) {
    namespace fs = std::filesystem;
    const fs::path out(obsOpts.statsJsonPath);
    const bool isDir = out.extension() != ".json";
    statsFile = isDir ? out / ("BENCH_" + suite + ".json") : out;
    const fs::path dir = statsFile.parent_path();
    std::error_code ec;
    const fs::path parent = isDir ? dir.parent_path() : dir;
    if (!parent.empty() && !fs::is_directory(parent, ec)) {
      std::fprintf(stderr, "--stats-json: directory %s does not exist\n",
                   parent.c_str());
      return 2;
    }
    if (isDir && !dir.empty() && !fs::is_directory(dir, ec))
      fs::create_directory(dir, ec);
  }

  hsisbench::BenchDoc doc;
  doc.suite = suite;
  doc.gitSha = hsisbench::gitSha();
  doc.repeat = repeat;
  doc.warmup = warmup;

  bool aborted = false;
  std::printf("suite %s: %zu cases, repeat=%d warmup=%d%s\n", suite.c_str(),
              cases.size(), repeat, warmup,
              hsis::obs::kEnabled ? "" : " (obs disabled)");
  const std::string ledgerPath = hsis::obs::activeLedgerPath();
  for (const Case& c : cases) {
    std::printf("%-40s ", c.name.c_str());
    std::fflush(stdout);
    hsisbench::CaseResult result;
    try {
      result = hsisbench::runCase(c.name, c.body, repeat, warmup);
    } catch (const std::exception& e) {
      std::printf("FAILED\n");
      std::fflush(stdout);
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    if (result.anyAborted()) {
      const hsisbench::RunStats& last = result.runs.back();
      std::printf("ABORTED (%s)\n", last.abortReason.c_str());
      aborted = true;
    } else {
      std::printf("%10.3f ms (min of %zu)\n", result.wallMsMin(),
                  result.runs.size());
    }
    if (!ledgerPath.empty()) {
      // One ledger record per case: the per-case min wall time and peak RSS
      // are what hsis_report diffs across runs/commits.
      hsis::obs::ledger::Record rec = hsis::obs::baseLedgerRecord();
      rec.subject = c.name;
      if (result.anyAborted()) {
        rec.result = "aborted";
        rec.detail = result.runs.empty() ? std::string("no runs")
                                         : result.runs.back().abortReason;
      } else {
        rec.result = "completed";
      }
      rec.wallSeconds = result.wallMsMin() * 1e-3;
      rec.peakRssKb = result.peakRssKbMin();
      hsis::obs::ledger::append(ledgerPath, rec);
    }
    doc.cases.push_back(std::move(result));
    if (!traceOut.empty()) {
      // runCase resets the tracer before each measured run, so the
      // snapshot here holds exactly the last run of this case.
      namespace fs = std::filesystem;
      fs::create_directories(traceOut);
      std::string fname = c.name;
      std::replace(fname.begin(), fname.end(), '/', '_');
      fs::path file = fs::path(traceOut) / ("TRACE_" + fname + ".json");
      std::ofstream f(file);
      if (!f) {
        std::fprintf(stderr, "cannot write %s\n", file.c_str());
        return 2;
      }
      f << hsis::obs::toChromeTrace(hsis::obs::snapshot());
    }
    // A watchdog breach is a whole-process condition: running the
    // remaining cases would only re-trip it, so stop here. The baseline
    // written below is still schema-valid with this case marked aborted.
    if (aborted) break;
  }

  if (!statsFile.empty()) {
    std::ofstream f(statsFile);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", statsFile.c_str());
      return 2;
    }
    f << hsisbench::toJson(doc);
    std::printf("wrote %s\n", statsFile.c_str());
  }
  return aborted ? 3 : 0;
}
