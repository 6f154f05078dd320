// Differential/property tier (ctest label `diff`): ~200 seeded random
// functions from gen::random_cover, cross-checked across four independent
// implementations of Boolean semantics:
//
//   truth table   -- Cover::to_truth_table(), the ground-truth oracle
//   BDD           -- an OR-of-AND build through bdd::Manager, read back
//                    via Bdd::to_truth_table()
//   SAT           -- a Tseitin encoding of the cover into l2l::sat,
//                    checked for satisfiability, tautology, and
//                    (via assumption miters) equivalence
//   espresso      -- minimize() output must stay equivalent to its input
//                    (and stay within the don't-care bounds when a DC
//                    cover is supplied)
//   espresso's two oracles -- EXPAND / IRREDUNDANT / REDUCE / minimize
//                    forced onto minterm bitsets and onto URP cube covers
//                    must return cube-for-cube identical covers
//   exact ESOP    -- esop::synthesize_minimum must return a proven-minimal
//                    XOR cover that folds back to the same truth table and
//                    respects the theorem-backed size bounds against the
//                    minterm fallback and the espresso SOP (its own
//                    200-seed sweep below)
//
// A disagreement anywhere is shrunk to a minimal failing cover -- greedy
// cube removal, then literal widening -- and printed with its seed, so a
// red run hands the debugger a two-line reproduction, not a 40-cube blob.

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/manager.hpp"
#include "cubes/cover.hpp"
#include "esop/esop.hpp"
#include "cubes/urp.hpp"
#include "espresso/detail.hpp"
#include "espresso/minimize.hpp"
#include "gen/function_gen.hpp"
#include "network/bdd_build.hpp"
#include "network/network.hpp"
#include "sat/solver.hpp"
#include "sema/sema.hpp"
#include "sat/types.hpp"
#include "tt/truth_table.hpp"
#include "util/rng.hpp"

namespace {

using l2l::cubes::Cover;
using l2l::cubes::Cube;
using l2l::cubes::Pcn;
using l2l::tt::TruthTable;

// ---- BDD oracle ---------------------------------------------------------

l2l::bdd::Bdd bdd_from_cover(l2l::bdd::Manager& mgr, const Cover& f) {
  l2l::bdd::Bdd out = mgr.zero();
  for (const Cube& c : f.cubes()) {
    l2l::bdd::Bdd product = mgr.one();
    for (int v = 0; v < f.num_vars(); ++v) {
      switch (c.code(v)) {
        case Pcn::kPos: product = product & mgr.var(v); break;
        case Pcn::kNeg: product = product & mgr.nvar(v); break;
        case Pcn::kEmpty: product = mgr.zero(); break;
        case Pcn::kDontCare: break;
      }
    }
    out = out | product;
  }
  return out;
}

// ---- SAT oracle ---------------------------------------------------------

/// Tseitin-encodes `f` into `solver` over input vars 0..num_vars-1
/// (created by the caller) and returns the literal representing the
/// cover's output: aux var c_j <-> AND(literals of cube j), output
/// <-> OR(c_j).
l2l::sat::Lit encode_cover(l2l::sat::Solver& solver, const Cover& f) {
  using l2l::sat::Lit;
  const l2l::sat::Var out = solver.new_var();
  std::vector<Lit> any_cube;  // out -> c_1 | ... | c_m
  any_cube.push_back(Lit(out, true));
  for (const Cube& c : f.cubes()) {
    bool contradiction = false;
    std::vector<Lit> lits;
    for (int v = 0; v < f.num_vars(); ++v) {
      switch (c.code(v)) {
        case Pcn::kPos: lits.push_back(Lit(v, false)); break;
        case Pcn::kNeg: lits.push_back(Lit(v, true)); break;
        case Pcn::kEmpty: contradiction = true; break;
        case Pcn::kDontCare: break;
      }
    }
    if (contradiction) continue;
    const l2l::sat::Var cj = solver.new_var();
    std::vector<Lit> reverse;  // lits all true -> c_j
    reverse.push_back(Lit(cj, false));
    for (const Lit& l : lits) {
      solver.add_clause({Lit(cj, true), l});  // c_j -> each literal
      reverse.push_back(~l);
    }
    solver.add_clause(reverse);
    solver.add_clause({Lit(cj, true), Lit(out, false)});  // c_j -> out
    any_cube.push_back(Lit(cj, false));
  }
  solver.add_clause(any_cube);
  return Lit(out, false);
}

struct SatOracle {
  l2l::sat::Solver solver;
  l2l::sat::Lit out{0, false};

  explicit SatOracle(const Cover& f) {
    for (int v = 0; v < f.num_vars(); ++v) solver.new_var();
    out = encode_cover(solver, f);
  }
  bool satisfiable() {
    return solver.solve({out}) == l2l::sat::LBool::kTrue;
  }
  bool tautology() {
    return solver.solve({l2l::sat::Lit(out.var(), true)}) ==
           l2l::sat::LBool::kFalse;
  }
};

/// SAT-checked equivalence of two covers over the same inputs: encode
/// both into one solver and probe both difference directions with
/// assumptions. UNSAT both ways <=> equivalent.
bool sat_equivalent(const Cover& a, const Cover& b) {
  using l2l::sat::Lit;
  l2l::sat::Solver solver;
  for (int v = 0; v < a.num_vars(); ++v) solver.new_var();
  const Lit fa = encode_cover(solver, a);
  const Lit fb = encode_cover(solver, b);
  if (solver.solve({fa, Lit(fb.var(), true)}) == l2l::sat::LBool::kTrue)
    return false;  // a & !b satisfiable
  if (solver.solve({Lit(fa.var(), true), fb}) == l2l::sat::LBool::kTrue)
    return false;  // !a & b satisfiable
  return true;
}

// ---- the cross-check ----------------------------------------------------

/// Runs every differential property on `f` (with optional don't-care
/// cover `dc` for the espresso legality check). Returns std::nullopt when
/// all oracles agree, else a description of the first disagreement.
std::optional<std::string> cross_check(const Cover& f, const Cover* dc) {
  const TruthTable want = f.to_truth_table();

  // BDD vs truth table.
  {
    l2l::bdd::Manager mgr(f.num_vars());
    const TruthTable got = bdd_from_cover(mgr, f).to_truth_table();
    if (!(got == want)) return "BDD truth table != cover truth table";
  }

  // SAT vs truth table.
  {
    SatOracle sat(f);
    if (sat.satisfiable() != !want.is_constant_zero())
      return "SAT satisfiability disagrees with truth table";
    if (sat.tautology() != want.is_constant_one())
      return "SAT tautology check disagrees with truth table";
  }

  // espresso::minimize must preserve the function exactly (empty DC)...
  {
    const Cover g = l2l::espresso::minimize(f);
    if (!(g.to_truth_table() == want))
      return "espresso cover truth table != input truth table";
    if (!sat_equivalent(f, g))
      return "SAT miter says espresso cover != input";
    if (!l2l::espresso::is_legal_implementation(g, f, Cover(f.num_vars())))
      return "espresso cover fails is_legal_implementation (no DC)";
  }

  // ...and stay within [f \ dc, f | dc] when a DC cover is given.
  if (dc != nullptr) {
    const Cover g =
        l2l::espresso::minimize(f, *dc, l2l::espresso::MinimizeOptions{},
                                nullptr);
    if (!l2l::espresso::is_legal_implementation(g, f, *dc))
      return "espresso cover fails is_legal_implementation (with DC)";
    const TruthTable got = g.to_truth_table();
    const TruthTable dct = dc->to_truth_table();
    for (std::uint64_t m = 0; m < want.num_minterms(); ++m) {
      if (dct.get(m)) continue;  // don't-care point: either value legal
      if (got.get(m) != want.get(m))
        return "espresso cover leaves the DC bounds";
    }
  }
  return std::nullopt;
}

// ---- shrinking ----------------------------------------------------------

/// Greedily shrinks `f` while `cross_check(f, dc)` still fails: first
/// whole-cube removal, then widening single literals to don't-care. The
/// result is locally minimal -- removing any one cube or literal makes
/// the failure disappear.
Cover shrink_failure(Cover f, const Cover* dc) {
  bool changed = true;
  while (changed) {
    changed = false;
    // Cube removal.
    for (int i = 0; i < f.size(); ++i) {
      std::vector<Cube> keep;
      for (int j = 0; j < f.size(); ++j)
        if (j != i) keep.push_back(f.cubes()[static_cast<std::size_t>(j)]);
      Cover candidate(f.num_vars(), keep);
      if (cross_check(candidate, dc).has_value()) {
        f = std::move(candidate);
        changed = true;
        break;
      }
    }
    if (changed) continue;
    // Literal widening.
    for (int i = 0; i < f.size() && !changed; ++i) {
      for (int v = 0; v < f.num_vars() && !changed; ++v) {
        const Cube& c = f.cubes()[static_cast<std::size_t>(i)];
        if (c.code(v) == Pcn::kDontCare) continue;
        std::vector<Cube> cubes = f.cubes();
        cubes[static_cast<std::size_t>(i)].set_code(v, Pcn::kDontCare);
        Cover candidate(f.num_vars(), std::move(cubes));
        if (cross_check(candidate, dc).has_value()) {
          f = std::move(candidate);
          changed = true;
        }
      }
    }
  }
  return f;
}

// ---- the 200-seed sweep -------------------------------------------------

TEST(DifferentialTest, TwoHundredRandomFunctionsAgreeAcrossEngines) {
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    l2l::util::Rng rng(0xd1ffull * 1000003ull + seed);
    const int num_vars = 3 + static_cast<int>(rng.next_below(4));   // 3..6
    const int num_cubes = 1 + static_cast<int>(rng.next_below(8));  // 1..8
    const Cover f = l2l::gen::random_cover(num_vars, num_cubes, rng);
    // A small random DC cover on every other seed exercises the
    // minimize-with-DC legality bounds.
    std::optional<Cover> dc;
    if (seed % 2 == 1)
      dc = l2l::gen::random_cover(num_vars,
                                  static_cast<int>(rng.next_below(3)), rng);
    const Cover* dcp = dc ? &*dc : nullptr;

    const auto failure = cross_check(f, dcp);
    if (failure.has_value()) {
      const Cover minimal = shrink_failure(f, dcp);
      const auto why = cross_check(minimal, dcp);
      FAIL() << "seed " << seed << ": " << *failure
             << "\nminimal failing cover (" << minimal.num_vars()
             << " vars):\n"
             << minimal.to_string()
             << (dc ? "with DC cover:\n" + dc->to_string() : std::string())
             << "shrunk failure: " << why.value_or(*failure);
    }
    ++checked;
  }
  EXPECT_EQ(checked, 200);
}

// Directed corner cases the random sweep is unlikely to hit exactly.
TEST(DifferentialTest, ConstantAndSingleLiteralCovers) {
  // Constant 0 (empty cover) and constant 1 (universal cube).
  for (int n = 1; n <= 4; ++n) {
    EXPECT_EQ(cross_check(Cover(n), nullptr), std::nullopt) << "empty, n=" << n;
    EXPECT_EQ(cross_check(Cover::universal(n), nullptr), std::nullopt)
        << "universal, n=" << n;
    // Each single positive / negative literal.
    for (int v = 0; v < n; ++v) {
      Cube pos(n), neg(n);
      pos.set_code(v, Pcn::kPos);
      neg.set_code(v, Pcn::kNeg);
      EXPECT_EQ(cross_check(Cover(n, {pos}), nullptr), std::nullopt);
      EXPECT_EQ(cross_check(Cover(n, {neg}), nullptr), std::nullopt);
    }
  }
}

// ---- exact ESOP vs the oracles ------------------------------------------

/// Differential properties of the exact-ESOP engine on one cover:
///   equivalence  -- XOR-folding the synthesized terms over all minterms
///                   (esop_truth_table) must reproduce the cover's truth
///                   table, and the SAT miter must agree in OR semantics
///                   when the ESOP is re-read as a plain cover of its own
///                   truth table's minterm expansion;
///   minimality   -- the proven-minimal flag must be set, and the exact
///                   term count must respect both theorem-backed upper
///                   bounds: the |ON|-minterm fallback, and the GF(2)
///                   inclusion-exclusion expansion of the espresso SOP
///                   (OR of s cubes == XOR of its <= 2^s - 1 nonempty
///                   subset products, each of which is a cube). The naive
///                   "exact ESOP <= espresso SOP size" is NOT a theorem:
///                   this very harness falsified it and shrank the
///                   counterexample (see EsopCanExceedSopSize below), so
///                   the sweep checks the bounds that are actually true.
std::optional<std::string> esop_check(const Cover& f) {
  const TruthTable want = f.to_truth_table();
  const auto r = l2l::esop::synthesize_minimum(want);
  if (!r.status.ok())
    return "esop engine returned non-ok on an unguarded run: " +
           r.status.to_string();
  if (!r.minimal) return "esop engine did not prove minimality";
  if (!(l2l::esop::esop_truth_table(r.cover) == want))
    return "esop XOR-fold truth table != cover truth table";
  if (r.terms != r.cover.size())
    return "esop term count disagrees with decoded cover size";
  const auto on_set = static_cast<long long>(want.count_ones());
  if (r.terms > on_set)
    return "exact ESOP (" + std::to_string(r.terms) +
           " terms) larger than the minterm fallback (" +
           std::to_string(on_set) + ")";
  const Cover sop = l2l::espresso::minimize(f);
  if (!(sop.to_truth_table() == want))
    return "espresso cover truth table != input truth table";
  // Subset-product bound, saturated once it can no longer bind.
  if (sop.size() < 20) {
    const long long ie_bound = (1ll << sop.size()) - 1;
    if (r.terms > ie_bound)
      return "exact ESOP (" + std::to_string(r.terms) +
             " terms) above the 2^s-1 inclusion-exclusion bound of the " +
             std::to_string(sop.size()) + "-cube espresso SOP";
  }
  return std::nullopt;
}

/// Same greedy shrink protocol as shrink_failure, but driven by
/// esop_check: the printed cover is minimal for the ESOP disagreement.
Cover shrink_esop_failure(Cover f) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i < f.size(); ++i) {
      std::vector<Cube> keep;
      for (int j = 0; j < f.size(); ++j)
        if (j != i) keep.push_back(f.cubes()[static_cast<std::size_t>(j)]);
      Cover candidate(f.num_vars(), keep);
      if (esop_check(candidate).has_value()) {
        f = std::move(candidate);
        changed = true;
        break;
      }
    }
    if (changed) continue;
    for (int i = 0; i < f.size() && !changed; ++i) {
      for (int v = 0; v < f.num_vars() && !changed; ++v) {
        const Cube& c = f.cubes()[static_cast<std::size_t>(i)];
        if (c.code(v) == Pcn::kDontCare) continue;
        std::vector<Cube> cubes = f.cubes();
        cubes[static_cast<std::size_t>(i)].set_code(v, Pcn::kDontCare);
        Cover candidate(f.num_vars(), std::move(cubes));
        if (esop_check(candidate).has_value()) {
          f = std::move(candidate);
          changed = true;
        }
      }
    }
  }
  return f;
}

TEST(DifferentialTest, TwoHundredRandomFunctionsExactEsop) {
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    // Same generator discipline as the four-oracle sweep, offset so the
    // two tests draw different functions.
    l2l::util::Rng rng(0xe50full * 1000003ull + seed);
    const int num_vars = 3 + static_cast<int>(rng.next_below(4));   // 3..6
    const int num_cubes = 1 + static_cast<int>(rng.next_below(8));  // 1..8
    const Cover f = l2l::gen::random_cover(num_vars, num_cubes, rng);

    const auto failure = esop_check(f);
    if (failure.has_value()) {
      const Cover minimal = shrink_esop_failure(f);
      const auto why = esop_check(minimal);
      FAIL() << "seed " << seed << ": " << *failure
             << "\nminimal failing cover (" << minimal.num_vars()
             << " vars):\n"
             << minimal.to_string()
             << "shrunk failure: " << why.value_or(*failure);
    }
    ++checked;
  }
  EXPECT_EQ(checked, 200);
}

// Found and shrunk by this harness's first run: the OR of two overlapping
// products on disjoint supports has a 2-cube SOP but minimum ESOP 3
// (a | b = a ^ b ^ ab, and a case analysis over the power-of-two ON-set
// sizes of XOR pairs shows no 2-term ESOP reaches this 7-minterm
// function). This is the counterexample that killed the naive
// "exact ESOP <= espresso SOP size" property -- pinned so the corrected
// sweep bound above never quietly regresses back to the false claim.
TEST(DifferentialTest, EsopCanExceedSopSize) {
  Cube a(4), b(4);
  a.set_code(0, Pcn::kPos);
  a.set_code(1, Pcn::kNeg);  // x0 !x1
  b.set_code(2, Pcn::kPos);
  b.set_code(3, Pcn::kNeg);  // x2 !x3
  const Cover f(4, {a, b});
  const Cover sop = l2l::espresso::minimize(f);
  EXPECT_EQ(sop.size(), 2);
  const auto r = l2l::esop::synthesize_minimum(f.to_truth_table());
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_TRUE(r.minimal);
  EXPECT_EQ(r.terms, 3) << "minimum ESOP of two overlapping products";
  EXPECT_EQ(esop_check(f), std::nullopt)
      << "the corrected sweep bounds must accept this function";
}

// Hand-picked ESOP corners: parity (worst case for SOP, linear for ESOP)
// and majority (same size in both representations).
TEST(DifferentialTest, EsopDirectedCorners) {
  // Parity over 4 vars as a cover: 8 disjoint minterm cubes. Espresso
  // cannot merge any (no two differ in one literal with equal value), so
  // SOP stays at 8 while the exact ESOP drops to 4.
  TruthTable par(4);
  for (std::uint64_t m = 0; m < par.num_minterms(); ++m)
    par.set(m, __builtin_popcountll(m) % 2 == 1);
  const auto r = l2l::esop::synthesize_minimum(par);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.terms, 4);
  EXPECT_TRUE(r.minimal);

  // maj3 = ab | bc | ca = ab ^ bc ^ ca: three terms in both worlds.
  Cube ab(3), bc(3), ca(3);
  ab.set_code(0, Pcn::kPos);
  ab.set_code(1, Pcn::kPos);
  bc.set_code(1, Pcn::kPos);
  bc.set_code(2, Pcn::kPos);
  ca.set_code(2, Pcn::kPos);
  ca.set_code(0, Pcn::kPos);
  const Cover maj(3, {ab, bc, ca});
  EXPECT_EQ(esop_check(maj), std::nullopt);
  const auto rm = l2l::esop::synthesize_minimum(maj.to_truth_table());
  ASSERT_TRUE(rm.status.ok());
  EXPECT_EQ(rm.terms, 3);
}

// A cover whose cubes together form a tautology without any single cube
// being universal -- the classic SAT-tautology trap.
TEST(DifferentialTest, NonObviousTautology) {
  const int n = 2;
  Cube a(n), b(n);
  a.set_code(0, Pcn::kPos);
  b.set_code(0, Pcn::kNeg);
  const Cover f(n, {a, b});  // x0 | !x0 == 1
  ASSERT_TRUE(f.to_truth_table().is_constant_one());
  EXPECT_EQ(cross_check(f, nullptr), std::nullopt);
}

// ---- sema stuck-at vs BDD -----------------------------------------------

// The semantic analyzer's L2L-N006 verdicts are claimed to be theorems
// (exact const-prop: cofactor substitution, then empty-cover = 0 and
// URP tautology = 1). Sweep 100 seeded random networks and confirm every
// claimed constant against an independent BDD build -- sema must never
// cry wolf, because a false stuck-at report would tell a student to
// delete live logic.
TEST(DifferentialTest, SemaStuckAtVerdictsAreBddConfirmed) {
  int verdicts = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    l2l::util::Rng rng(seed);
    const l2l::gen::NetworkGenOptions opt;  // 8 in, 30 nodes, arity <= 4
    const auto net = l2l::gen::random_network(opt, rng);
    const auto analysis = l2l::sema::analyze_network(net);
    if (analysis.stuck_at.empty()) continue;
    l2l::bdd::Manager mgr(static_cast<int>(net.inputs().size()));
    const auto bdds = l2l::network::build_bdds(net, mgr);
    for (const auto& [name, value] : analysis.stuck_at) {
      const auto id = net.find(name);
      ASSERT_TRUE(id.has_value()) << "seed " << seed << ": sema reported "
                                  << "unknown net '" << name << "'";
      const auto& f = bdds.node[static_cast<std::size_t>(*id)];
      if (value) {
        EXPECT_TRUE(f.is_one())
            << "seed " << seed << ": '" << name
            << "' reported stuck-at-1 but its BDD is not constant one";
      } else {
        EXPECT_TRUE(f.is_zero())
            << "seed " << seed << ": '" << name
            << "' reported stuck-at-0 but its BDD is not constant zero";
      }
      ++verdicts;
    }
  }
  // The sweep must actually exercise the claim: random covers produce
  // constants (an all-don't-care cube is a tautology) often enough that
  // a zero-verdict run means the generator or the analyzer broke.
  EXPECT_GT(verdicts, 0) << "no stuck-at verdicts across 100 seeds";
}

// ---- espresso: bitset oracle vs URP oracle ------------------------------

namespace espresso_detail = l2l::espresso::detail;
using espresso_detail::Oracle;

/// Random cube over n variables: each variable is a literal with
/// probability ~density/8, of either phase.
Cube random_cube(int n, int density, l2l::util::Rng& rng) {
  Cube c(n);
  for (int v = 0; v < n; ++v)
    if (static_cast<int>(rng.next_below(8)) < density)
      c.set_code(v, rng.next_bool() ? Pcn::kPos : Pcn::kNeg);
  return c;
}

Cover random_sparse_cover(int n, int k, int density, l2l::util::Rng& rng) {
  Cover f(n);
  for (int i = 0; i < k; ++i) f.add(random_cube(n, density, rng));
  return f;
}

/// Every pass, and minimize under three option sets, on both oracles:
/// returns the first disagreement, or nullopt.
std::optional<std::string> oracle_mismatch(const Cover& f, const Cover& dc) {
  const auto same = [](const Cover& a, const Cover& b) {
    return a.num_vars() == b.num_vars() && a.cubes() == b.cubes();
  };
  const Cover offset = l2l::cubes::complement(f | dc);
  if (!same(espresso_detail::expand(f, offset, Oracle::kBitset),
            espresso_detail::expand(f, offset, Oracle::kUrp)))
    return "expand";
  const Cover expanded = l2l::espresso::expand(f, offset);
  for (const Cover* in : {&f, &expanded}) {
    if (!same(espresso_detail::irredundant(*in, dc, Oracle::kBitset),
              espresso_detail::irredundant(*in, dc, Oracle::kUrp)))
      return "irredundant";
    if (!same(espresso_detail::reduce(*in, dc, Oracle::kBitset),
              espresso_detail::reduce(*in, dc, Oracle::kUrp)))
      return "reduce";
  }
  l2l::espresso::MinimizeOptions single, capped;
  single.single_pass = true;
  capped.max_iterations = 1;
  for (const auto& opt : {l2l::espresso::MinimizeOptions{}, single, capped}) {
    l2l::espresso::MinimizeStats sb, su;
    const Cover gb = espresso_detail::minimize(f, dc, opt, &sb, Oracle::kBitset);
    const Cover gu = espresso_detail::minimize(f, dc, opt, &su, Oracle::kUrp);
    if (!same(gb, gu)) return "minimize";
    if (sb.iterations != su.iterations || sb.initial_cubes != su.initial_cubes ||
        sb.final_cubes != su.final_cubes ||
        sb.initial_literals != su.initial_literals ||
        sb.final_literals != su.final_literals)
      return "minimize stats";
    if (!same(l2l::espresso::minimize(f, dc, opt, nullptr), gb))
      return "minimize (auto oracle)";
    // is_legal_implementation stays on URP: an independent check.
    if (!l2l::espresso::is_legal_implementation(gb, f, dc))
      return "minimize result is not a legal implementation";
  }
  return std::nullopt;
}

// Both sides of the automatic limit: n = 1 .. bitset_max_vars() + 1, with
// and without a DC cover, dense and sparse cubes.
TEST(EspressoOracleTest, BitsetAndUrpAgreeCubeForCube) {
  const int max_n = espresso_detail::bitset_max_vars() + 1;
  int checked = 0;
  for (int n = 1; n <= max_n; ++n) {
    const int trials = n <= 8 ? 48 : 12;
    for (int t = 0; t < trials; ++t) {
      const std::uint64_t seed = 0xe59ull * 1000003ull + 100 * n + t;
      l2l::util::Rng rng(seed);
      const int density = 2 + static_cast<int>(rng.next_below(5));  // 2..6
      const int k = 1 + static_cast<int>(rng.next_below(n <= 8 ? 16 : 10));
      const Cover f = random_sparse_cover(n, k, density, rng);
      const Cover dc = t % 2 == 1
                           ? random_sparse_cover(
                                 n, 1 + static_cast<int>(rng.next_below(4)),
                                 density, rng)
                           : Cover(n);
      const auto why = oracle_mismatch(f, dc);
      ASSERT_EQ(why, std::nullopt)
          << "n=" << n << " seed=" << seed << ": " << why.value_or("")
          << "\nf:\n" << f.to_string() << "dc:\n" << dc.to_string();
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

// The corners: constant 0 and 1, a DC cover equal to everything, one
// literal, and an ON cube that the DC cover swallows.
TEST(EspressoOracleTest, ConstantAndDcCorners) {
  for (int n = 1; n <= 8; ++n) {
    Cube lit(n);
    lit.set_code(n - 1, Pcn::kPos);
    const Cover one_lit(n, {lit});
    for (const Cover& f : {Cover(n), Cover::universal(n), one_lit}) {
      for (const Cover& dc : {Cover(n), Cover::universal(n), one_lit}) {
        const auto why = oracle_mismatch(f, dc);
        EXPECT_EQ(why, std::nullopt) << "n=" << n << "\nf:\n" << f.to_string()
                                     << "dc:\n" << dc.to_string();
      }
    }
  }
}

TEST(EspressoOracleTest, ForcedBitsetRejectsWideCovers) {
  const int n = espresso_detail::bitset_forced_max_vars() + 1;
  EXPECT_THROW(espresso_detail::irredundant(Cover::universal(n), Cover(n),
                                            Oracle::kBitset),
               std::invalid_argument);
  // The automatic choice falls back to URP instead.
  EXPECT_EQ(espresso_detail::irredundant(Cover::universal(n), Cover(n),
                                         Oracle::kAuto)
                .size(),
            1);
}

}  // namespace
