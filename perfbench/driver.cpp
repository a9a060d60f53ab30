// perfbench_driver — the measuring half of the HSIS benchmark.
//
// Reads one workload manifest written by perfbench/gen.py, sets up (loads
// the expected answers, derives reachable-state references from the
// simulator, compiles every design once), then measures for a fixed number
// of seconds and prints one JSON line of raw metric values. perfbench/run.py
// builds this program, generates the manifest, and adds units.
//
//   perfbench_driver --manifest FILE --seconds S --trace 0|1
//   perfbench_driver --list-metrics
//
// --trace 0 measures the end-to-end metrics with no timers inside the
// verification: batch workloads verify through hsis::Session, serve-table1
// through an in-process serve::SessionPool driven by two closed-loop
// clients. --trace 1 measures the per-layer metrics: it calls each layer's
// public function itself and times the call from outside, alternating with
// untraced Session passes so the tracing overhead is measured in the same
// run.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "blifmv/blifmv.hpp"
#include "ctl/mc.hpp"
#include "fsm/fsm.hpp"
#include "fsm/image.hpp"
#include "hsis/session.hpp"
#include "lc/lc.hpp"
#include "obs/jsonlite.hpp"
#include "obs/obs.hpp"
#include "pif/pif.hpp"
#include "pif/sigexpr.hpp"
#include "serve/pool.hpp"
#include "serve/protocol.hpp"
#include "sim/simulator.hpp"
#include "vl2mv/vl2mv.hpp"

namespace {

using hsis::obs::jsonlite::Value;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ metric names

const std::vector<std::string> kEndToEnd = {
    "verify_s",   "req_p50_ms", "req_p90_ms",
    "req_per_s",  "setup_s",    "peak_rss_mb",
};

const char* const kBddPhases[] = {"tr_build", "reach", "ctl_check", "lc"};
const char* const kBddCounters[] = {"cache_lookups", "cache_hit_ratio",
                                    "nodes_created", "peak_live_nodes",
                                    "gc_runs"};

// Layer times summed into trace.layer_share.
const char* const kLayerTimes[] = {
    "vl2mv.compile_ms", "blifmv.flatten_ms", "fsm.elab_ms", "fsm.tr_build_ms",
    "ctl.reach_ms",     "ctl.check_ms",      "lc.build_ms", "lc.check_ms",
};

std::vector<std::string> perLayerNames() {
  std::vector<std::string> names(std::begin(kLayerTimes),
                                 std::end(kLayerTimes));
  for (const char* n :
       {"fsm.tr_nodes", "fsm.tr_clusters", "ctl.reach_steps",
        "ctl.check_reach_steps", "ctl.preimage_calls", "ctl.fixpoint_iters",
        "lc.reach_steps", "lc.hull_iters"})
    names.emplace_back(n);
  for (const char* phase : kBddPhases)
    for (const char* c : kBddCounters)
      names.push_back(std::string("bdd.") + phase + "." + c);
  for (const char* n :
       {"serve.queue_ms_p50", "serve.build_ms_p50", "serve.cache_hit_ratio",
        "trace.verify_s", "trace.overhead_s", "trace.layer_share",
        "wrong_verdicts", "wrong_state_counts", "check_error_ratio"})
    names.emplace_back(n);
  return names;
}

// ------------------------------------------------------------- statistics

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile (the "inclusive" method of Python's
/// statistics.quantiles); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------------ corpus

struct Design {
  std::string name;
  std::string top;
  std::string verilog;
  std::string pif;
  std::map<std::string, bool> expected;

  [[nodiscard]] hsis::Session::DesignSource source() const {
    return {hsis::Session::DesignSource::Kind::Verilog, verilog, top};
  }
};

struct Corpus {
  std::string workload;
  uint64_t seed = 0;
  std::vector<Design> designs;
  /// serve-table1 only: per client, blocks of design indices.
  std::vector<std::vector<std::vector<size_t>>> blocks;
  size_t repeat = 1;
  size_t workers = 2;
};

const Value& member(const Value& obj, const std::string& key) {
  const Value* v = hsis::obs::jsonlite::find(obj.object(), key);
  if (v == nullptr) throw std::runtime_error("missing JSON member " + key);
  return *v;
}

Corpus loadCorpus(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read manifest " + path);
  std::stringstream text;
  text << in.rdbuf();
  const Value doc = hsis::obs::jsonlite::parse(text.str());
  Corpus c;
  c.workload = member(doc, "workload").str();
  c.seed = static_cast<uint64_t>(member(doc, "seed").number());
  for (const Value& d : member(doc, "designs").array()) {
    Design design;
    design.name = member(d, "name").str();
    design.top = member(d, "top").str();
    design.verilog = member(d, "verilog").str();
    design.pif = member(d, "pif").str();
    for (const auto& [prop, holds] : member(d, "expected").object())
      design.expected[prop] = holds.boolean();
    c.designs.push_back(std::move(design));
  }
  if (c.designs.empty()) throw std::runtime_error("manifest: no designs");
  if (const Value* serve = hsis::obs::jsonlite::find(doc.object(), "serve")) {
    c.repeat = static_cast<size_t>(member(*serve, "repeat").number());
    c.workers = static_cast<size_t>(member(*serve, "workers").number());
    for (const Value& client : member(*serve, "blocks").array()) {
      std::vector<std::vector<size_t>> blocks;
      for (const Value& block : client.array()) {
        std::vector<size_t> order;
        for (const Value& i : block.array()) {
          const auto idx = static_cast<size_t>(i.number());
          if (idx >= c.designs.size())
            throw std::runtime_error("manifest: design index out of range");
          order.push_back(idx);
        }
        blocks.push_back(std::move(order));
      }
      c.blocks.push_back(std::move(blocks));
    }
  }
  return c;
}

// ------------------------------------------------------- verdict accounting

/// Checks attempted, failed (threw, aborted or refused) and answered wrong.
/// Shared by the serve clients, hence the mutex.
struct Tally {
  std::mutex mu;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;

  void verdict(const Design& d, const std::string& property, bool holds) {
    auto it = d.expected.find(property);
    std::lock_guard<std::mutex> lock(mu);
    if (it == d.expected.end() || it->second != holds) ++wrong;
  }
  void attempt(bool ok) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (!ok) ++failed;
  }
};

// --------------------------------------------------- simulator references

/// Reachable-state count from the simulator: exact when breadth-first
/// enumeration exhausts the state space within kBfsCap states, otherwise a
/// lower bound (distinct states seen on a seeded random walk).
struct StateRef {
  double count = 0.0;
  bool exact = false;
};

constexpr size_t kBfsCap = 8000;
constexpr size_t kWalkSteps = 50;

StateRef simulatorReference(const Design& d, uint64_t seed) {
  const hsis::blifmv::Model flat = hsis::blifmv::flatten(
      hsis::vl2mv::compile(d.verilog, d.top));
  hsis::BddManager mgr;
  hsis::Fsm fsm(mgr, flat);
  const hsis::TransitionRelation tr =
      hsis::TransitionRelation::partitioned(fsm, 5000);
  hsis::Simulator sim(fsm, tr, seed);
  const size_t seen = sim.enumerate(kBfsCap + 1, [](const auto&) {});
  if (seen <= kBfsCap) return {static_cast<double>(seen), true};
  std::set<std::vector<int8_t>> walked{sim.currentState()};
  for (size_t i = 0; i < kWalkSteps; ++i) {
    if (!sim.randomStep()) sim.reset();
    walked.insert(sim.currentState());
  }
  return {static_cast<double>(walked.size()), false};
}

bool stateCountAgrees(double symbolic, const StateRef& ref) {
  if (ref.exact) return symbolic == ref.count;
  return symbolic >= ref.count;
}

// ------------------------------------------------------ untraced verifying

bool anyCtl(const hsis::PifFile& pif) {
  return std::any_of(pif.properties.begin(), pif.properties.end(),
                     [](const hsis::PifProperty& p) {
                       return p.kind == hsis::PifProperty::Kind::Ctl;
                     });
}

/// One verification through the Session API, in the order both front doors
/// (hsis_cli, hsis_serve) use: load, build, reachable set, then every
/// property. Returns the wall time from Session::load to the last verdict.
double verifySession(const Design& d, Tally& tally) {
  hsis::Session session;
  const Clock::time_point t0 = Clock::now();
  hsis::PifFile pif;
  try {
    session.load(d.source());
    session.build();
    pif = hsis::parsePif(d.pif);
    session.setFairness(pif.fairness);
    if (anyCtl(pif)) (void)session.checker().reached();
  } catch (const std::exception&) {
    tally.attempt(false);
    return secondsSince(t0);
  }
  for (const hsis::PifProperty& p : pif.properties) {
    try {
      const hsis::BugReport r = session.check(p);
      tally.attempt(true);
      tally.verdict(d, r.propertyName, r.holds);
    } catch (const std::exception&) {
      tally.attempt(false);
    }
  }
  return secondsSince(t0);
}

// ---------------------------------------------------- traced (per layer)

using Sample = std::map<std::string, double>;

/// Process-wide bdd.* registry values at one instant.
struct BddMark {
  uint64_t lookups = 0, hits = 0, created = 0, gcRuns = 0;
  static BddMark now() {
    using hsis::obs::counter;
    return {counter("bdd.cache.lookups").value(),
            counter("bdd.cache.hits").value(),
            counter("bdd.nodes.created").value(),
            counter("bdd.gc.runs").value()};
  }
};

/// Accumulates the registry deltas of one BDD phase. The peak is the
/// bdd.unique.peak high-water gauge, reset when the phase opens; it reports
/// the owning manager's peak so far, so a later phase on the same manager
/// includes the earlier phases' peak.
class BddPhase {
 public:
  BddPhase(Sample& out, const std::string& phase)
      : out_(out), key_("bdd." + phase + ".") {
    hsis::obs::gauge("bdd.unique.peak").reset();
    start_ = BddMark::now();
  }
  ~BddPhase() {
    const BddMark end = BddMark::now();
    add("cache_lookups", end.lookups - start_.lookups);
    add("cache_hits", end.hits - start_.hits);
    add("nodes_created", end.created - start_.created);
    add("gc_runs", end.gcRuns - start_.gcRuns);
    double& peak = out_[key_ + "peak_live_nodes"];
    peak = std::max(peak, static_cast<double>(
                              hsis::obs::gauge("bdd.unique.peak").value()));
  }
  BddPhase(const BddPhase&) = delete;
  BddPhase& operator=(const BddPhase&) = delete;

 private:
  void add(const char* name, uint64_t delta) {
    out_[key_ + name] += static_cast<double>(delta);
  }

  Sample& out_;
  std::string key_;
  BddMark start_;
};

template <typename Fn>
void timeLayer(Sample& out, const char* name, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  out[name] += secondsSince(t0) * 1e3;
}

std::vector<hsis::Bdd> ctlFairnessSets(const hsis::FairnessSpec& f,
                                       const hsis::Fsm& fsm) {
  // Same sets hsis::Session builds for its checker (fair edges approximated
  // by their target states).
  std::vector<hsis::Bdd> sets;
  for (const hsis::SigExprRef& e : f.noStay)
    sets.push_back(!hsis::evalSigExpr(e, fsm));
  for (const hsis::SigExprRef& e : f.buchi)
    sets.push_back(hsis::evalSigExpr(e, fsm));
  for (const auto& edge : f.fairEdges)
    sets.push_back(hsis::evalSigExpr(edge.second, fsm));
  return sets;
}

/// One verification with every layer called directly and timed from
/// outside, in the order verifySession takes. Adds the layer metrics to
/// `out`; returns the wall time over the same span verifySession measures.
/// When `states` is set, the symbolic reachable-state count is stored there
/// after the clock has stopped.
double verifyLayered(const Design& d, Sample& out, Tally& tally,
                     double* states) {
  std::optional<hsis::BddManager> mgr;  // outlives everything built in it
  const Clock::time_point t0 = Clock::now();
  double wall = 0.0;
  try {
    hsis::blifmv::Design design;
    timeLayer(out, "vl2mv.compile_ms",
              [&] { design = hsis::vl2mv::compile(d.verilog, d.top); });
    hsis::blifmv::Model flat;
    timeLayer(out, "blifmv.flatten_ms",
              [&] { flat = hsis::blifmv::flatten(design); });
    std::optional<hsis::Fsm> fsm;
    std::optional<hsis::TransitionRelation> tr;
    {
      BddPhase phase(out, "tr_build");
      timeLayer(out, "fsm.elab_ms", [&] {
        mgr.emplace();
        fsm.emplace(*mgr, flat);
      });
      timeLayer(out, "fsm.tr_build_ms", [&] {
        tr.emplace(hsis::TransitionRelation::partitioned(*fsm, 5000));
      });
    }
    out["fsm.tr_nodes"] += static_cast<double>(tr->totalNodes());
    out["fsm.tr_clusters"] += static_cast<double>(tr->clusterCount());

    const hsis::PifFile pif = hsis::parsePif(d.pif);
    hsis::McOptions mo;  // Session's defaults: EFD, don't-cares, traces
    hsis::CtlChecker mc(*fsm, *tr, ctlFairnessSets(pif.fairness, *fsm), mo);
    if (anyCtl(pif)) {
      BddPhase phase(out, "reach");
      timeLayer(out, "ctl.reach_ms", [&] { (void)mc.reached(); });
      out["ctl.reach_steps"] +=
          static_cast<double>(mc.lastStats().reachabilitySteps);
    }
    hsis::obs::Counter& reachIters = hsis::obs::counter("fsm.reach.iterations");
    for (const hsis::PifProperty& p : pif.properties) {
      try {
        if (p.kind == hsis::PifProperty::Kind::Ctl) {
          BddPhase phase(out, "ctl_check");
          const hsis::McStats before = mc.lastStats();
          const uint64_t itersBefore = reachIters.value();
          hsis::McResult r;
          timeLayer(out, "ctl.check_ms", [&] { r = mc.check(p.ctl); });
          // McStats counts preimages and fixpoint iterations cumulatively;
          // reachability steps it overwrites, so a fixpoint run inside the
          // check is read from the registry's reach-iteration counter.
          out["ctl.preimage_calls"] +=
              static_cast<double>(r.stats.preimageCalls - before.preimageCalls);
          out["ctl.fixpoint_iters"] += static_cast<double>(
              r.stats.fixpointIterations - before.fixpointIterations);
          out["ctl.check_reach_steps"] +=
              static_cast<double>(reachIters.value() - itersBefore);
          tally.attempt(true);
          tally.verdict(d, p.name, r.holds);
        } else {
          BddPhase phase(out, "lc");
          hsis::BddManager productMgr;  // as Session: one manager per check
          hsis::LcOptions lo;
          std::optional<hsis::LcChecker> lc;
          timeLayer(out, "lc.build_ms", [&] {
            lc.emplace(productMgr, flat, p.aut, pif.fairness, lo);
          });
          hsis::LcResult r;
          timeLayer(out, "lc.check_ms", [&] {
            r = lc->check();
            if (r.trace.has_value()) (void)lc->formatTrace(*r.trace);
          });
          out["lc.reach_steps"] +=
              static_cast<double>(r.stats.reachabilitySteps);
          out["lc.hull_iters"] += static_cast<double>(r.stats.hullIterations);
          tally.attempt(true);
          tally.verdict(d, p.name, r.contained);
        }
      } catch (const std::exception&) {
        tally.attempt(false);
      }
    }
    wall = secondsSince(t0);
    if (states != nullptr) *states = fsm->countStates(mc.reached());
  } catch (const std::exception&) {
    tally.attempt(false);
    wall = secondsSince(t0);
  }
  return wall;
}

// ---------------------------------------------------------------- serving

struct ServeRun {
  std::vector<double> latencyMs;   ///< submit -> done frame, per request
  std::vector<double> queueMs;     ///< done-frame stages.queue
  std::vector<double> missBuildMs; ///< stages.parse + stages.tr, misses only
  std::vector<double> blockS;      ///< wall time of one client block
  double wallS = 0.0;
  uint64_t completed = 0;
  uint64_t cacheHits = 0;
  uint64_t cacheMisses = 0;
};

/// Frames of one in-flight request, filled by the pool's worker thread.
struct Pending {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<hsis::serve::Frame> frames;
  bool finished = false;
  bool malformed = false;
  Clock::time_point doneAt;
};

double stageMs(const Value& stages, const char* key) {
  const Value* v = hsis::obs::jsonlite::find(stages.object(), key);
  return v != nullptr && v->isNumber() ? v->number() / 1e3 : 0.0;
}

/// Submit one request and wait for its terminal frame.
void serveOne(hsis::serve::SessionPool& pool, const Design& d,
              const std::string& id, Tally& tally, ServeRun& run,
              std::mutex& runMu) {
  Pending pending;
  hsis::serve::CheckRequest req;
  req.id = id;
  req.name = d.name;
  req.design = d.source();
  req.pif = d.pif;
  auto sink = [&pending](const std::string& line) {
    std::lock_guard<std::mutex> lock(pending.mu);
    try {
      hsis::serve::Frame f = hsis::serve::parseFrame(line);
      const bool terminal = f.event == "done" || f.event == "error";
      pending.frames.push_back(std::move(f));
      if (!terminal) return;
    } catch (const std::exception&) {
      pending.malformed = true;
    }
    pending.doneAt = Clock::now();
    pending.finished = true;
    pending.cv.notify_all();
  };
  const Clock::time_point t0 = Clock::now();
  pool.submit(std::move(req), sink);
  std::unique_lock<std::mutex> lock(pending.mu);
  pending.cv.wait(lock, [&] { return pending.finished; });

  bool ok = !pending.malformed;
  bool hit = false;
  double queueMs = 0.0, buildMs = 0.0;
  try {
    for (const hsis::serve::Frame& f : pending.frames) {
      if (f.event == "verdict") {
        tally.verdict(d, member(f.body, "property").str(),
                      member(f.body, "holds").boolean());
      } else if (f.event == "error") {
        ok = false;
      } else if (f.event == "done") {
        const std::string& verdict = member(f.body, "verdict").str();
        ok = ok && (verdict == "pass" || verdict == "fail");
        const Value& stats = member(f.body, "stats");
        hit = member(stats, "cache").str() == "hit";
        const Value& stages = member(stats, "stages");
        queueMs = stageMs(stages, "queue");
        buildMs = stageMs(stages, "parse") + stageMs(stages, "tr");
      }
    }
  } catch (const std::exception&) {
    ok = false;  // a frame without the fields hsis-serve-v1 promises
  }
  tally.attempt(ok);
  std::lock_guard<std::mutex> runLock(runMu);
  run.latencyMs.push_back(
      std::chrono::duration<double, std::milli>(pending.doneAt - t0).count());
  if (!ok) return;
  ++run.completed;
  run.queueMs.push_back(queueMs);
  if (hit) {
    ++run.cacheHits;
  } else {
    ++run.cacheMisses;
    run.missBuildMs.push_back(buildMs);
  }
}

/// Closed loop: one thread per client, each submitting its blocks (every
/// design index repeated `repeat` times) and waiting for each reply before
/// the next request. A client starts no new block once `seconds` passed.
ServeRun serveLoop(const Corpus& c,
                   const std::vector<std::vector<std::vector<size_t>>>& blocks,
                   size_t repeat, double seconds, Tally& tally) {
  hsis::serve::PoolOptions po;
  po.workers = c.workers;
  hsis::serve::SessionPool pool(po);
  ServeRun run;
  std::mutex runMu;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (size_t ci = 0; ci < blocks.size(); ++ci) {
    clients.emplace_back([&, ci] {
      size_t seq = 0;
      for (const std::vector<size_t>& block : blocks[ci]) {
        if (seq > 0 && secondsSince(t0) >= seconds) break;
        const Clock::time_point b0 = Clock::now();
        for (size_t idx : block)
          for (size_t r = 0; r < repeat; ++r)
            serveOne(pool, c.designs[idx],
                     "c" + std::to_string(ci) + "-" + std::to_string(seq++),
                     tally, run, runMu);
        std::lock_guard<std::mutex> lock(runMu);
        run.blockS.push_back(secondsSince(b0));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  run.wallS = secondsSince(t0);
  pool.shutdown(false);
  return run;
}

// ------------------------------------------------------------------ setup

struct Setup {
  Corpus corpus;
  std::vector<StateRef> refs;
};

constexpr int kSetupReps = 3;

/// Load the manifest (designs and expected verdicts), derive the simulator
/// state references, and compile + build every design once (warm-up).
Setup setUp(const std::string& manifest) {
  Setup s;
  s.corpus = loadCorpus(manifest);
  for (const Design& d : s.corpus.designs)
    s.refs.push_back(simulatorReference(d, s.corpus.seed + 1));
  for (const Design& d : s.corpus.designs) {
    hsis::Session warm;
    warm.load(d.source());
    warm.build();
  }
  return s;
}

// ---------------------------------------------------------------- modes

struct Result {
  Sample metrics;
  Tally tally;
};

/// Batch workloads: verify the design over and over for `seconds`.
void measureBatch(const Corpus& c, double seconds, Result& res) {
  std::vector<double> times;
  const Clock::time_point t0 = Clock::now();
  while (times.size() < 3 || secondsSince(t0) < seconds) {
    double t = 0.0;
    for (const Design& d : c.designs) t += verifySession(d, res.tally);
    times.push_back(t);
  }
  const double wall = secondsSince(t0);
  res.metrics["verify_s"] = median(times);
  res.metrics["req_p50_ms"] = median(times) * 1e3;
  res.metrics["req_p90_ms"] = quantile(times, 0.9) * 1e3;
  res.metrics["req_per_s"] = static_cast<double>(times.size()) / wall;
}

void measureServe(const Corpus& c, double seconds, Result& res) {
  const ServeRun run = serveLoop(c, c.blocks, c.repeat, seconds, res.tally);
  res.metrics["verify_s"] = median(run.blockS);
  res.metrics["req_p50_ms"] = median(run.latencyMs);
  res.metrics["req_p90_ms"] = quantile(run.latencyMs, 0.9);
  res.metrics["req_per_s"] = static_cast<double>(run.completed) / run.wallS;
}

/// Per-layer run: traced passes over the corpus alternate with untraced
/// ones, after a serve phase that yields the serve.* metrics.
void measureTraced(const Setup& s, double seconds, Result& res) {
  const Corpus& c = s.corpus;
  const Clock::time_point t0 = Clock::now();

  // Serve phase: the workload's own closed loop for serve-table1 (half the
  // run); for a batch workload, its design submitted twice (miss, then hit).
  ServeRun run;
  if (!c.blocks.empty()) {
    run = serveLoop(c, c.blocks, c.repeat, seconds / 2, res.tally);
  } else {
    std::vector<size_t> all(c.designs.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    const std::vector<std::vector<std::vector<size_t>>> once{{all}};
    run = serveLoop(c, once, 2, 0.0, res.tally);
  }
  Sample& m = res.metrics;
  m["serve.queue_ms_p50"] = median(run.queueMs);
  m["serve.build_ms_p50"] = median(run.missBuildMs);
  const uint64_t routed = run.cacheHits + run.cacheMisses;
  m["serve.cache_hit_ratio"] =
      routed == 0 ? 0.0 : static_cast<double>(run.cacheHits) / routed;

  std::vector<Sample> traced;
  std::vector<double> tracedS, untracedS;
  size_t wrongStates = 0;
  while (traced.size() < 2 || secondsSince(t0) < seconds) {
    double u = 0.0;
    for (const Design& d : c.designs) u += verifySession(d, res.tally);
    untracedS.push_back(u);

    Sample sample;
    double t = 0.0;
    const bool first = traced.empty();
    for (size_t i = 0; i < c.designs.size(); ++i) {
      double states = 0.0;
      t += verifyLayered(c.designs[i], sample, res.tally,
                         first ? &states : nullptr);
      if (first && !stateCountAgrees(states, s.refs[i])) ++wrongStates;
    }
    double layers = 0.0;
    for (const char* name : kLayerTimes) layers += sample[name];
    sample["trace.layer_share"] = layers / (t * 1e3);
    tracedS.push_back(t);
    traced.push_back(std::move(sample));
  }

  // Per-layer value = median over traced passes; hit ratios from the
  // medians of lookups and hits.
  std::set<std::string> keys;
  for (const Sample& smp : traced)
    for (const auto& kv : smp) keys.insert(kv.first);
  for (const std::string& k : keys) {
    std::vector<double> v;
    for (const Sample& smp : traced) {
      auto it = smp.find(k);
      v.push_back(it == smp.end() ? 0.0 : it->second);
    }
    m[k] = median(v);
  }
  for (const char* phase : kBddPhases) {
    const std::string key = std::string("bdd.") + phase + ".";
    const double lookups = m[key + "cache_lookups"];
    m[key + "cache_hit_ratio"] =
        lookups == 0.0 ? 0.0 : m[key + "cache_hits"] / lookups;
    m.erase(key + "cache_hits");
  }
  m["trace.verify_s"] = median(tracedS);
  m["trace.overhead_s"] = median(tracedS) - median(untracedS);
  m["wrong_state_counts"] = static_cast<double>(wrongStates);
}

// ----------------------------------------------------------------- output

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printNames(const char* key, const std::vector<std::string>& names,
                bool last) {
  std::printf("\"%s\": [", key);
  for (size_t i = 0; i < names.size(); ++i)
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", names[i].c_str());
  std::printf("]%s", last ? "" : ", ");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --manifest FILE --seconds S "
               "--trace 0|1\n"
               "       perfbench_driver --list-metrics\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string manifest;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      std::printf("{");
      printNames("end_to_end", kEndToEnd, false);
      printNames("per_layer", perLayerNames(), true);
      std::printf("}\n");
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--manifest") manifest = v;
    else if (a == "--seconds") seconds = std::stod(v);
    else if (a == "--trace") trace = std::stoi(v);
    else return usage();
  }
  if (manifest.empty() || seconds <= 0 || (trace != 0 && trace != 1))
    return usage();

  // Set-up is repeated and its median reported, so that work moved into
  // set-up shows; the last repetition's results are used.
  std::vector<double> setupS;
  Setup setup;
  for (int r = 0; r < kSetupReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    setup = setUp(manifest);
    setupS.push_back(secondsSince(t0));
  }

  Result res;
  const bool serve = setup.corpus.workload == "serve-table1";
  std::vector<std::string> names;
  if (trace == 0) {
    if (serve) measureServe(setup.corpus, seconds, res);
    else measureBatch(setup.corpus, seconds, res);
    res.metrics["setup_s"] = median(setupS);
    res.metrics["peak_rss_mb"] = peakRssMb();
    names = kEndToEnd;
  } else {
    measureTraced(setup, seconds, res);
    names = perLayerNames();
  }
  res.metrics["wrong_verdicts"] = static_cast<double>(res.tally.wrong);
  res.metrics["check_error_ratio"] =
      res.tally.attempted == 0
          ? 0.0
          : static_cast<double>(res.tally.failed) / res.tally.attempted;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.tally.wrong == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.tally.attempted),
              static_cast<unsigned long long>(res.tally.failed));
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = res.metrics.find(names[i]);
    if (it == res.metrics.end())
      throw std::logic_error("metric not measured: " + names[i]);
    std::printf("%s\"%s\": %s", i == 0 ? "" : ", ", names[i].c_str(),
                jsonNumber(it->second).c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
