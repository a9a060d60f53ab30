// par::checkBatch — the property-batch scheduler. The
// contract under test: a batch on N workers returns exactly the verdicts
// the serial session would (each worker checks against its own replica
// manager, so any divergence is a transfer or seeding bug), and abort
// unwinding is contained — a watchdog breach on one worker kills only the
// property it was checking, while a request-level abort unwinds the whole
// batch and still leaves the session resident.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ctl/ctl.hpp"
#include "hsis/session.hpp"
#include "models/models.hpp"
#include "obs/control.hpp"
#include "par/batch.hpp"

namespace {

using namespace hsis;

Session::DesignSource modelSource(const char* name) {
  const models::ModelDef* m = models::find(name);
  EXPECT_NE(m, nullptr) << name;
  Session::DesignSource src;
  src.kind = Session::DesignSource::Kind::Verilog;
  src.text = std::string(m->verilog);
  src.top = std::string(m->top);
  return src;
}

PifFile modelPif(const char* name) {
  return parsePif(std::string(models::find(name)->pif));
}

std::vector<BugReport> serialVerdicts(const char* model) {
  Session s;
  EXPECT_TRUE(s.load(modelSource(model)));
  s.build();
  PifFile pif = modelPif(model);
  s.setFairness(pif.fairness);
  std::vector<BugReport> out;
  for (const PifProperty& p : pif.properties) out.push_back(s.check(p));
  return out;
}

TEST(ParBatch, VerdictsMatchSerial) {
  // Every bundled design: philos covers CTL under Büchi fairness, and all
  // of them put the replica transfer through the design's own transition
  // relation and reached set. Every design has language-containment
  // properties, which run on the replicas too: their monitors go onto
  // bits the session reserved before the transfer.
  for (const models::ModelDef& def : models::all()) {
    const std::string name(def.name);
    const char* model = name.c_str();
    std::vector<BugReport> serial = serialVerdicts(model);

    Session s;
    ASSERT_TRUE(s.load(modelSource(model)));
    s.build();
    PifFile pif = modelPif(model);
    s.setFairness(pif.fairness);
    par::BatchReport batch = par::checkBatch(s, pif.properties, {.jobs = 4});

    ASSERT_EQ(batch.reports.size(), serial.size()) << model;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(batch.reports[i].propertyName, serial[i].propertyName)
          << model << " property " << i << " (input order must be kept)";
      EXPECT_EQ(batch.reports[i].holds, serial[i].holds)
          << model << " property " << serial[i].propertyName;
      EXPECT_EQ(static_cast<int>(batch.reports[i].paradigm),
                static_cast<int>(serial[i].paradigm))
          << model << " property " << serial[i].propertyName;
      EXPECT_EQ(batch.reports[i].usedEarlyFailure, serial[i].usedEarlyFailure)
          << model << " property " << serial[i].propertyName;
      EXPECT_EQ(batch.reports[i].notes, serial[i].notes)
          << model << " property " << serial[i].propertyName;
    }
    EXPECT_EQ(batch.jobs, 4);
    EXPECT_EQ(batch.aborted, 0u);
    EXPECT_EQ(batch.workerBusyMicros.size(),
              std::min<size_t>(4, serial.size()));
    EXPECT_GE(batch.theoreticalSpeedup(), 1.0);
    // Every batch on more than one worker replicates the design.
    EXPECT_GT(batch.transferredNodes, 0u) << model;
  }
}

TEST(ParBatch, JobsOneIsTheSerialPath) {
  std::vector<BugReport> serial = serialVerdicts("pingpong");

  Session s;
  ASSERT_TRUE(s.load(modelSource("pingpong")));
  s.build();
  PifFile pif = modelPif("pingpong");
  s.setFairness(pif.fairness);
  par::BatchReport batch = par::checkBatch(s, pif.properties, {.jobs = 1});

  ASSERT_EQ(batch.reports.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(batch.reports[i].holds, serial[i].holds);
  EXPECT_EQ(batch.workerBusyMicros.size(), 1u);  // no replicas, no threads
  EXPECT_EQ(batch.transferredNodes, 0u);
}

namespace {

/// An n-bit ripple counter: 18 one-bit registers plus a carry chain, all
/// boolean — no wide arithmetic tables. Its state graph is a single cycle
/// of length 2^n, which makes fixpoint costs exact and hardware-
/// independent: `EF(all ones)` must run 2^n backward iterations (each
/// adds exactly one state), and every iteration polls the abort slot.
std::string counterVerilog(int bits) {
  auto S = [](int i) { return std::to_string(i); };
  std::string v = "module bigcount;\n  wire clk;\n";
  for (int i = 0; i < bits; ++i) v += "  enum { zero, one } b" + S(i) + ";\n";
  v += "  wire a0;\n  assign a0 = (b0 == one);\n";
  for (int i = 1; i < bits; ++i)
    v += "  wire a" + S(i) + ";\n  assign a" + S(i) + " = a" + S(i - 1) +
         " && (b" + S(i) + " == one);\n";
  v += "  always @(posedge clk) begin\n"
       "    if (b0 == zero) b0 <= one; else b0 <= zero;\n  end\n";
  for (int i = 1; i < bits; ++i)
    v += "  always @(posedge clk) begin\n    if (a" + S(i - 1) +
         ") begin\n      if (b" + S(i) + " == zero) b" + S(i) +
         " <= one; else b" + S(i) + " <= zero;\n    end\n  end\n";
  for (int i = 0; i < bits; ++i) v += "  initial b" + S(i) + " = zero;\n";
  v += "endmodule\n";
  return v;
}

}  // namespace

TEST(ParBatch, WatchdogAbortsOnlyTheBreachingProperty) {
  obs::clearAbort();
  constexpr int kBits = 18;
  Session::DesignSource src;
  src.kind = Session::DesignSource::Kind::Verilog;
  src.text = counterVerilog(kBits);
  src.top = "bigcount";
  Session s;
  ASSERT_TRUE(s.load(src));
  s.build();

  // Heavy: EF of the all-ones state — 2^18 = 262144 fixpoint iterations
  // with an abort poll in each. Even at well under a microsecond per
  // iteration that is far past the 0.1s budget on any machine, so the
  // watchdog breach is deterministic, and the property aborts mid-fixpoint
  // rather than ever completing.
  std::string allOnes;
  for (int i = 0; i < kBits; ++i)
    allOnes += std::string(i > 0 ? " & " : "") + "b" + std::to_string(i) +
               "=one";
  PifProperty heavyProp;
  heavyProp.kind = PifProperty::Kind::Ctl;
  heavyProp.name = "synthetic_heavy";
  heavyProp.ctl = parseCtl("EF (" + allOnes + ")");

  // Light companions: one backward step each against the seeded reached
  // set — microseconds of work against a 0.1s budget, so they can only
  // abort if the machine stalls this thread for five orders of magnitude
  // longer than the work itself.
  PifProperty light;
  light.kind = PifProperty::Kind::Ctl;
  light.name = "light";
  light.ctl = parseCtl("EF b0=one");
  std::vector<PifProperty> props{heavyProp, light, light};

  par::BatchOptions bo;
  bo.jobs = 2;
  bo.propertyTimeoutSeconds = 0.1;
  par::BatchReport batch = par::checkBatch(s, props, bo);

  ASSERT_EQ(batch.reports.size(), 3u);
  EXPECT_EQ(batch.aborted, 1u);
  EXPECT_FALSE(batch.reports[0].holds);
  ASSERT_FALSE(batch.reports[0].notes.empty());
  EXPECT_EQ(batch.reports[0].notes.front().rfind("aborted:", 0), 0u)
      << batch.reports[0].notes.front();
  // The other worker — and the breaching worker after it re-arms — still
  // delivered real verdicts.
  EXPECT_TRUE(batch.reports[1].holds);
  EXPECT_TRUE(batch.reports[2].holds);

  // Worker-survival: the source session is untouched by the batch abort.
  EXPECT_TRUE(s.resident());
  EXPECT_TRUE(s.check(light).holds);
}

TEST(ParBatch, RequestAbortUnwindsTheWholeBatch) {
  obs::clearAbort();
  Session s;
  ASSERT_TRUE(s.load(modelSource("philos")));
  s.build();
  PifFile pif = modelPif("philos");
  s.setFairness(pif.fairness);

  // A pre-raised request slot (the hsis_serve budget-breach shape): every
  // worker sees it at its first property boundary and rethrows, so the
  // batch unwinds as a whole instead of reporting per-property aborts.
  obs::TaskAbort request;
  request.request("test: request budget breached");
  par::BatchOptions bo;
  bo.jobs = 2;
  bo.requestAbort = &request;
  EXPECT_THROW(par::checkBatch(s, pif.properties, bo), obs::AbortedError);

  // The session keeps answering on the calling thread.
  EXPECT_TRUE(s.resident());
  EXPECT_TRUE(s.check(pif.properties.front()).holds);
}

}  // namespace
