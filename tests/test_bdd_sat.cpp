// Randomized satCount oracle: random expression DAGs over up to 16
// variables are built simultaneously as a BDD and as an explicit truth
// vector; the model count must match the popcount exactly (satCount works
// in exact powers of two well inside double precision here). Negations in
// the expression stream exercise complement-edge inputs directly. Sparse
// functions over wide spaces (real reachable sets, a 60-variable cube) are
// checked against an exact integer Shannon-expansion count.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "blifmv/blifmv.hpp"
#include "fsm/image.hpp"
#include "models/models.hpp"
#include "vl2mv/vl2mv.hpp"

namespace hsis {
namespace {

// Truth vector over n vars: bit i of word i/64 is f(assignment i), where
// bit v of i is the value of variable v.
struct TruthVec {
  explicit TruthVec(uint32_t n) : nbits(1u << n), w((nbits + 63) / 64, 0) {}
  uint32_t nbits;
  std::vector<uint64_t> w;

  uint64_t popcount() const {
    uint64_t total = 0;
    for (uint64_t x : w) total += static_cast<uint64_t>(std::popcount(x));
    return total;
  }
};

TruthVec varVec(uint32_t v, uint32_t n) {
  TruthVec tv(n);
  for (uint32_t i = 0; i < tv.nbits; ++i) {
    if ((i >> v) & 1u) tv.w[i / 64] |= 1ull << (i % 64);
  }
  return tv;
}

void applyNot(TruthVec& a) {
  for (size_t i = 0; i < a.w.size(); ++i) a.w[i] = ~a.w[i];
  // Mask the tail so popcount stays honest for n < 6.
  uint32_t tail = a.nbits % 64;
  if (tail != 0) a.w.back() &= (1ull << tail) - 1;
}

TEST(BddSatCount, RandomizedOracle) {
  std::mt19937 rng(20260809);
  for (int trial = 0; trial < 30; ++trial) {
    uint32_t n = 3 + rng() % 14;  // 3..16 variables
    BddManager m(n);
    // Seed with one literal, then fold in random ops against fresh
    // literals or the accumulated function itself.
    uint32_t v0 = rng() % n;
    Bdd f = m.bddVar(v0);
    TruthVec tf = varVec(v0, n);
    int ops = 8 + static_cast<int>(rng() % 24);
    for (int k = 0; k < ops; ++k) {
      uint32_t v = rng() % n;
      Bdd g = m.bddVar(v);
      TruthVec tg = varVec(v, n);
      if (rng() % 2 == 0) {
        g = !g;
        applyNot(tg);
      }
      switch (rng() % 4) {
        case 0:
          f = f & g;
          for (size_t i = 0; i < tf.w.size(); ++i) tf.w[i] &= tg.w[i];
          break;
        case 1:
          f = f | g;
          for (size_t i = 0; i < tf.w.size(); ++i) tf.w[i] |= tg.w[i];
          break;
        case 2:
          f = f ^ g;
          for (size_t i = 0; i < tf.w.size(); ++i) tf.w[i] ^= tg.w[i];
          break;
        default:
          f = !f;  // complement edge on the accumulated root
          applyNot(tf);
          break;
      }
    }
    double expected = static_cast<double>(tf.popcount());
    EXPECT_DOUBLE_EQ(m.satCount(f, n), expected)
        << "trial " << trial << " n=" << n;
    // The complement must count the rest of the space (complement-edge
    // root into satCount).
    EXPECT_DOUBLE_EQ(m.satCount(!f, n),
                     static_cast<double>(tf.nbits) - expected)
        << "trial " << trial << " n=" << n;
    // Span overload over the full variable set agrees.
    std::vector<BddVar> all(n);
    for (uint32_t v = 0; v < n; ++v) all[v] = v;
    EXPECT_DOUBLE_EQ(m.satCount(f, std::span<const BddVar>(all)), expected);
  }
}

TEST(BddSatCount, ConstantsAndScaling) {
  BddManager m(8);
  EXPECT_DOUBLE_EQ(m.satCount(m.bddOne(), 8), 256.0);
  EXPECT_DOUBLE_EQ(m.satCount(m.bddZero(), 8), 0.0);
  EXPECT_DOUBLE_EQ(m.satCount(m.bddOne(), 0), 1.0);
  // Counting a sparse function over a wider space scales by 2^extra.
  Bdd f = m.bddVar(0) & m.bddVar(1);
  EXPECT_DOUBLE_EQ(m.satCount(f, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.satCount(f, 8), 64.0);
}

TEST(BddSatCount, ThrowsWhenSpaceTooSmall) {
  // The space is a variable *count*, so the check is on support size: a
  // 3-variable function cannot be counted over a 2-variable space.
  BddManager m(8);
  Bdd f = m.bddVar(0) & m.bddVar(1) & m.bddVar(5);
  EXPECT_THROW(m.satCount(f, 2), std::invalid_argument);
  // Complemented root hits the same validation.
  EXPECT_THROW(m.satCount(!f, 2), std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.satCount(f, 3), 1.0);
  EXPECT_DOUBLE_EQ(m.satCount(f, 8), 32.0);
}

TEST(BddSatCount, SpanOverloadValidation) {
  BddManager m(4);
  Bdd f = m.bddVar(0) & m.bddVar(1);
  std::vector<BddVar> unknown{0, 1, 99};
  EXPECT_THROW(m.satCount(f, std::span<const BddVar>(unknown)),
               std::invalid_argument);
  std::vector<BddVar> missing{0};  // support var 1 outside the set
  EXPECT_THROW(m.satCount(f, std::span<const BddVar>(missing)),
               std::invalid_argument);
  // Duplicates count once: space {0,1}, one satisfying assignment.
  std::vector<BddVar> dup{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(m.satCount(f, std::span<const BddVar>(dup)), 1.0);
  // Extra non-support vars widen the space.
  std::vector<BddVar> wide{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(m.satCount(f, std::span<const BddVar>(wide)), 4.0);
}

// ------------------------------------------------------ exact-count oracle

using Count = unsigned __int128;

/// Exact model count of `f` over an `nvars`-variable space covering its
/// support: Shannon expansion over the support in level order, memoized per
/// edge, in 128-bit integers — no subtraction and no rounding anywhere.
Count exactCount(BddManager& m, const Bdd& f, uint32_t nvars) {
  const std::vector<BddVar> supp = m.support(f);  // in level order
  const uint32_t k = static_cast<uint32_t>(supp.size());
  std::unordered_map<BddVar, uint32_t> pos;
  for (uint32_t i = 0; i < k; ++i) pos[supp[i]] = i;
  std::unordered_map<uint32_t, Count> memo;  // edge -> count over [pos, k)
  // Count over the support positions [from, k).
  auto rec = [&](auto&& self, const Bdd& e, uint32_t from) -> Count {
    if (e.isZero()) return 0;
    if (e.isOne()) return Count{1} << (k - from);
    const uint32_t p = pos.at(e.var());
    auto it = memo.find(e.index());
    if (it == memo.end()) {
      Count c = self(self, e.low(), p + 1) + self(self, e.high(), p + 1);
      it = memo.emplace(e.index(), c).first;
    }
    return it->second << (p - from);
  };
  return rec(rec, f, 0) << (nvars - k);
}

std::string toString(Count c) {
  std::string s;
  do {
    s.insert(s.begin(), static_cast<char>('0' + static_cast<int>(c % 10)));
    c /= 10;
  } while (c != 0);
  return s;
}

/// The bundled 2-link data-link controller widened to three links (the
/// benchmark's reach-mdlc design, up to names).
std::string threeLinkMdlc() {
  std::string v(models::find("2mdlc")->verilog);
  const std::string links = "  wire dlv0, dlv1;\n  link l0(dlv0);\n  link l1(dlv1);\n";
  const size_t at = v.find(links);
  EXPECT_NE(at, std::string::npos);
  v.replace(at, links.size(),
            "  wire dlv0, dlv1, dlv2;\n  link l0(dlv0);\n  link l1(dlv1);\n"
            "  link l2(dlv2);\n");
  return v;
}

/// Reachable set of a Verilog design; checks the symbolic state count
/// against the exact oracle and returns the exact count.
Count checkReachableCount(const std::string& name, const std::string& verilog,
                          const std::string& top) {
  blifmv::Model flat = blifmv::flatten(vl2mv::compile(verilog, top));
  BddManager mgr;
  Fsm fsm(mgr, flat);
  TransitionRelation tr = TransitionRelation::partitioned(fsm);
  Bdd reached = reachableStates(tr, fsm.initialStates()).reached;
  const Count exact = exactCount(mgr, reached, fsm.stateBits());
  EXPECT_LT(exact, Count{1} << 53) << name << ": not exact in a double";
  EXPECT_EQ(fsm.countStates(reached), static_cast<double>(exact))
      << name << ": exact count " << toString(exact);
  return exact;
}

TEST(BddSatCount, ExactOnReachableSets) {
  for (const models::ModelDef& m : models::all())
    checkReachableCount(std::string(m.name), std::string(m.verilog),
                        std::string(m.top));
  // Sparse in a wide space: ~2^36.6 states over far more state bits, where
  // reading a complemented edge as 1 - d used to round the count to 1.
  EXPECT_EQ(toString(checkReachableCount("mdlc3", threeLinkMdlc(), "mdlc2")),
            "104676229121");
}

TEST(BddSatCount, SixtyVariableCube) {
  BddManager m(60);
  Bdd cube = m.bddOne();
  Bdd head = m.bddOne();  // the cube's first 50 literals: a 2^10 subcube
  for (BddVar v = 0; v < 60; ++v) {
    Bdd lit = m.bddLiteral(v, v % 3 != 0);
    cube &= lit;
    if (v < 50) head &= lit;
  }
  EXPECT_EQ(m.satCount(cube, 60), 1.0);
  EXPECT_EQ(m.satCount(head & !cube, 60), 1023.0);
  Bdd twin = (cube & m.bddVar(59)) | (m.cofactor(cube, 59, true) & !m.bddVar(59));
  EXPECT_EQ(m.satCount(twin, 60), 2.0);
  for (const Bdd& f : {cube, head & !cube, twin})
    EXPECT_EQ(m.satCount(f, 60), static_cast<double>(exactCount(m, f, 60)));
  // satCount borrows nodeCount's visit stamps; it must leave none behind
  // that a later walk could mistake for its epoch.
  EXPECT_EQ(cube.nodeCount(), 61u);
  EXPECT_EQ(twin.nodeCount(), 60u);  // x59 is free in the twin pair
}

}  // namespace
}  // namespace hsis
