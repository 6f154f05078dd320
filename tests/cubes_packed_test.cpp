// Differential property test for the packed 2-bit cube layout
// (src/cubes/cube.hpp): every word-parallel kernel is checked against a
// straightforward byte-per-variable reference implementation on seeded
// random cubes, at arities chosen to cross the 32-variable word and the
// 64-variable inline/heap boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cubes/cube.hpp"
#include "util/rng.hpp"

namespace {

using l2l::cubes::Cube;
using l2l::cubes::Pcn;

/// Reference cube: one Pcn per variable, ops straight from the PCN
/// definition (this is the layout the packed class replaced).
using RefCube = std::vector<Pcn>;

RefCube ref_of(const Cube& c) {
  RefCube r(static_cast<std::size_t>(c.num_vars()));
  for (int v = 0; v < c.num_vars(); ++v)
    r[static_cast<std::size_t>(v)] = c.code(v);
  return r;
}

int ref_num_literals(const RefCube& c) {
  int n = 0;
  for (const Pcn p : c)
    if (p != Pcn::kDontCare) ++n;
  return n;
}

bool ref_is_empty(const RefCube& c) {
  return std::any_of(c.begin(), c.end(),
                     [](Pcn p) { return p == Pcn::kEmpty; });
}

RefCube ref_intersect(const RefCube& a, const RefCube& b) {
  RefCube r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] & b[i];
  return r;
}

bool ref_contains(const RefCube& a, const RefCube& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if ((a[i] & b[i]) != b[i]) return false;
  return true;
}

int ref_distance(const RefCube& a, const RefCube& b) {
  int d = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if ((a[i] & b[i]) == Pcn::kEmpty) ++d;
  return d;
}

bool ref_less(const RefCube& a, const RefCube& b) {
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i])
      return static_cast<std::uint8_t>(a[i]) < static_cast<std::uint8_t>(b[i]);
  }
  return a.size() < b.size();
}

std::optional<RefCube> ref_consensus(const RefCube& a, const RefCube& b) {
  if (ref_distance(a, b) != 1) return std::nullopt;
  RefCube r = ref_intersect(a, b);
  for (auto& p : r)
    if (p == Pcn::kEmpty) p = Pcn::kDontCare;
  return r;
}

/// Random cube over the three storable codes (no kEmpty).
Cube random_cube(int vars, l2l::util::Rng& rng) {
  Cube c(vars);
  for (int v = 0; v < vars; ++v)
    c.set_code(v, static_cast<Pcn>(rng.next_below(3) + 1));
  return c;
}

// Arities probing the packing edges: inside one word, at the 32-variable
// word boundary, at the 64-variable inline/heap boundary, and far beyond.
const int kArities[] = {1, 5, 31, 32, 33, 63, 64, 65, 96, 200, 231};

TEST(CubesPacked, KernelsMatchByteReferenceOnRandomPairs) {
  l2l::util::Rng rng(2024);
  for (const int vars : kArities) {
    for (int trial = 0; trial < 200; ++trial) {
      const Cube a = random_cube(vars, rng);
      const Cube b = random_cube(vars, rng);
      const RefCube ra = ref_of(a), rb = ref_of(b);

      EXPECT_EQ(a.num_literals(), ref_num_literals(ra));
      EXPECT_EQ(a.is_empty(), ref_is_empty(ra));
      EXPECT_EQ(a.distance(b), ref_distance(ra, rb)) << "vars=" << vars;
      EXPECT_EQ(a.contains(b), ref_contains(ra, rb));
      EXPECT_EQ(b.contains(a), ref_contains(rb, ra));
      EXPECT_EQ(a < b, ref_less(ra, rb));
      EXPECT_EQ(b < a, ref_less(rb, ra));
      EXPECT_EQ(a == b, ra == rb);

      // The intersection usually carries kEmpty positions -- the kernels
      // must agree on those codes too.
      const Cube x = a.intersect(b);
      EXPECT_EQ(ref_of(x), ref_intersect(ra, rb));
      EXPECT_EQ(x.num_literals(), ref_num_literals(ref_intersect(ra, rb)));
      EXPECT_EQ(x.is_empty(), ref_is_empty(ref_intersect(ra, rb)));

      const auto cons = a.consensus(b);
      const auto rcons = ref_consensus(ra, rb);
      ASSERT_EQ(cons.has_value(), rcons.has_value()) << "vars=" << vars;
      if (cons) {
        EXPECT_EQ(ref_of(*cons), *rcons);
      }
    }
  }
}

TEST(CubesPacked, ContainmentOnSparseCubes) {
  // Sparse cubes (mostly don't-care) make real containments likely, which
  // the uniform-random pairs above almost never produce.
  l2l::util::Rng rng(7);
  for (const int vars : kArities) {
    for (int trial = 0; trial < 100; ++trial) {
      Cube a(vars);
      const int lits = static_cast<int>(rng.next_below(4));
      for (int k = 0; k < lits; ++k)
        a.set_code(static_cast<int>(
                       rng.next_below(static_cast<std::uint64_t>(vars))),
                   rng.next_bool() ? Pcn::kPos : Pcn::kNeg);
      // b = a with one extra literal: a must contain b, not vice versa
      // (unless the extra literal collides with an existing position).
      Cube b = a;
      const int extra =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(vars)));
      b.set_code(extra, rng.next_bool() ? Pcn::kPos : Pcn::kNeg);
      EXPECT_EQ(a.contains(b), ref_contains(ref_of(a), ref_of(b)));
      EXPECT_TRUE(ref_contains(ref_of(a), ref_of(b)) || a.code(extra) != Pcn::kDontCare);
      EXPECT_EQ(b.contains(a), ref_contains(ref_of(b), ref_of(a)));
    }
  }
}

TEST(CubesPacked, CofactorAndOrWithMatchReference) {
  l2l::util::Rng rng(11);
  for (const int vars : kArities) {
    for (int trial = 0; trial < 100; ++trial) {
      const Cube a = random_cube(vars, rng);
      const Cube b = random_cube(vars, rng);
      const int v =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(vars)));
      const bool phase = rng.next_bool();

      const auto cf = a.cofactor(v, phase);
      const Pcn need = phase ? Pcn::kPos : Pcn::kNeg;
      if (a.code(v) != Pcn::kDontCare && a.code(v) != need) {
        EXPECT_FALSE(cf.has_value());
      } else {
        ASSERT_TRUE(cf.has_value());
        RefCube expect = ref_of(a);
        expect[static_cast<std::size_t>(v)] = Pcn::kDontCare;
        EXPECT_EQ(ref_of(*cf), expect);
      }

      Cube raised = a;
      raised.or_with(b);
      RefCube expect = ref_of(a);
      const RefCube rb = ref_of(b);
      for (std::size_t i = 0; i < expect.size(); ++i)
        expect[i] = expect[i] | rb[i];
      EXPECT_EQ(ref_of(raised), expect);
    }
  }
}

TEST(CubesPacked, ParseToStringRoundTrip) {
  l2l::util::Rng rng(13);
  for (const int vars : kArities) {
    for (int trial = 0; trial < 50; ++trial) {
      std::string s(static_cast<std::size_t>(vars), '-');
      for (auto& ch : s) ch = "01-"[rng.next_below(3)];
      const Cube c = Cube::parse(s);
      EXPECT_EQ(c.to_string(), s);
      EXPECT_EQ(c.num_vars(), vars);
      // Re-parsing the printed form yields an identical cube (canonical
      // padding makes operator== exact).
      EXPECT_EQ(Cube::parse(c.to_string()), c);
    }
  }
}

TEST(CubesPacked, EvalMatchesLiteralSemantics) {
  l2l::util::Rng rng(17);
  for (const int vars : {1, 5, 12, 20}) {
    for (int trial = 0; trial < 50; ++trial) {
      const Cube c = random_cube(vars, rng);
      const std::uint64_t m = rng.next_below(1ull << vars);
      bool expect = true;
      for (int v = 0; v < vars; ++v) {
        const bool value = (m >> v) & 1;
        if (c.code(v) == Pcn::kPos && !value) expect = false;
        if (c.code(v) == Pcn::kNeg && value) expect = false;
      }
      EXPECT_EQ(c.eval(m), expect);
    }
  }
}

TEST(CubesPacked, OrderingIsTotalAndSortStable) {
  // Sorting packed cubes must equal sorting their reference vectors --
  // this is what keeps Cover::sorted() (and the determinism goldens)
  // byte-identical across the layout change.
  l2l::util::Rng rng(19);
  for (const int vars : {31, 32, 33, 64, 65, 200}) {
    std::vector<Cube> cubes;
    for (int i = 0; i < 128; ++i) cubes.push_back(random_cube(vars, rng));
    // A few deliberate near-duplicates differing only at word boundaries.
    for (const int v : {0, 31, 32, 63, 64, vars - 1}) {
      if (v >= vars) continue;  // 32, 63 and 64 lie past the narrow arities
      Cube c = cubes[0];
      c.set_code(v, Pcn::kPos);
      cubes.push_back(c);
      c.set_code(v, Pcn::kNeg);
      cubes.push_back(std::move(c));
    }
    std::vector<RefCube> refs;
    refs.reserve(cubes.size());
    for (const auto& c : cubes) refs.push_back(ref_of(c));
    std::sort(cubes.begin(), cubes.end());
    std::sort(refs.begin(), refs.end(), ref_less);
    for (std::size_t i = 0; i < cubes.size(); ++i)
      EXPECT_EQ(ref_of(cubes[i]), refs[i]) << "position " << i;
  }
}

TEST(CubesPacked, UniversalAndEmptyEdges) {
  for (const int vars : kArities) {
    const Cube u(vars);
    EXPECT_TRUE(u.is_universal());
    EXPECT_FALSE(u.is_empty());
    EXPECT_EQ(u.num_literals(), 0);

    Cube pos = u;
    pos.set_code(vars - 1, Pcn::kPos);  // last variable: trailing-word field
    EXPECT_FALSE(pos.is_universal());
    EXPECT_EQ(pos.num_literals(), 1);

    Cube neg = u;
    neg.set_code(vars - 1, Pcn::kNeg);
    const Cube clash = pos.intersect(neg);
    EXPECT_TRUE(clash.is_empty());
    EXPECT_EQ(pos.distance(neg), 1);
  }
}

}  // namespace
