#include "espresso/minimize.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cubes/urp.hpp"
#include "espresso/detail.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace l2l::espresso {

using cubes::Cover;
using cubes::Cube;
using cubes::Pcn;

namespace {

/// Widest function that Oracle::kAuto answers from minterm bitsets: 2^14
/// bits, 256 words per set. Up to 14 variables the bitset oracle was never
/// slower than URP on any cover shape measured (BM_EspressoOracle's dense
/// 4n-cube covers, and sparse 2-8-cube covers); at 16 variables URP wins on
/// covers of one or two sparse cubes, since bitsets grow as 2^n.
constexpr int kBitsetMaxVars = 14;

/// Widest function the bitset oracle accepts when forced (test seam):
/// 2^20 bits, 128 KiB per set.
constexpr int kBitsetForcedMaxVars = 20;

/// Smallest cube containing every cube of g (the "supercube"):
/// positionwise OR, one word-parallel or_with per cube.
Cube supercube(const Cover& g) {
  if (g.empty()) return Cube(g.num_vars());  // callers guard; universal
  Cube s = g.cube(0);
  for (int i = 1; i < g.size(); ++i) s.or_with(g.cube(i));
  return s;
}

// The two oracles. Each answers the three questions the passes ask:
//   meets_offset(trial)             EXPAND: does trial meet the OFF-set?
//   covered(cubes, alive, i)        IRREDUNDANT: is cubes[i] covered by dc
//                                   plus the other alive cubes?
//   exclusive_supercube(cubes, i)   REDUCE: supercube of cubes[i] AND NOT
//                                   (dc + the other cubes), nullopt if empty
// load(cubes) starts a pass over `cubes`; refresh(i, c) follows REDUCE's
// replacement of cubes[i] by c. The answers depend only on the function,
// so both oracles drive the passes to the same cover.

/// Cube covers and the unate recursive paradigm: works at any width.
class UrpOracle {
 public:
  explicit UrpOracle(const Cover& dc) : dc_(dc) {}

  void set_offset(const Cover& offset) { offset_ = offset; }
  /// OFF-set of (on, dc): the URP complement of on | dc.
  void set_offset_of(const Cover& on) { offset_ = cubes::complement(on | dc_); }

  void load(const std::vector<Cube>&) {}
  void refresh(int, const Cube&) {}

  bool meets_offset(const Cube& trial) const {
    for (const auto& rc : offset_.cubes())
      if (trial.distance(rc) == 0) return true;
    return false;
  }

  bool covered(const std::vector<Cube>& cs, const std::vector<bool>& alive,
               int i) const {
    Cover rest = dc_;
    for (std::size_t j = 0; j < cs.size(); ++j)
      if (static_cast<int>(j) != i && alive[j]) rest.add(cs[j]);
    return cubes::cover_contains_cube(rest, cs[static_cast<std::size_t>(i)]);
  }

  std::optional<Cube> exclusive_supercube(const std::vector<Cube>& cs,
                                          int i) const {
    Cover rest = dc_;
    for (std::size_t j = 0; j < cs.size(); ++j)
      if (static_cast<int>(j) != i) rest.add(cs[j]);
    const Cube& c = cs[static_cast<std::size_t>(i)];
    const Cover exclusive = cubes::sharp(Cover(c.num_vars(), {c}), rest);
    if (exclusive.empty()) return std::nullopt;
    return supercube(exclusive);
  }

 private:
  Cover dc_;
  Cover offset_;
};

/// Minterm bitsets. Minterm m (bit v of m = value of variable v) is bit
/// (m & 63) of word (m >> 6), so variables 0-5 select bits inside a word
/// and variables 6+ select words. A cube's set is then a "shape": one
/// in-word mask (the AND of its six lane masks) repeated over the words
/// whose index matches its literals on variables 6+. Below six variables
/// the word's unused lanes act as variables no cube mentions: every set is
/// a cylinder over them, so no answer changes. Only DC and OFF are
/// materialized; cube words come from their shapes on demand, so loading
/// or refreshing a cube costs one pass over its codes.
class BitsetOracle {
 public:
  BitsetOracle(int n, const Cover& dc)
      : n_(n), nw_(num_words(n)), dc_(nw_, 0) {
    or_into(dc, dc_);
  }

  void set_offset(const Cover& offset) {
    off_.assign(nw_, 0);
    or_into(offset, off_);
  }
  void set_offset_of(const Cover& on) {
    off_.assign(nw_, 0);
    or_into(on, off_);
    for (std::uint32_t w = 0; w < nw_; ++w) off_[w] = ~(off_[w] | dc_[w]);
  }

  void load(const std::vector<Cube>& cs) {
    shapes_.clear();
    for (const auto& c : cs) shapes_.push_back(shape(c));
  }
  void refresh(int i, const Cube& c) {
    shapes_[static_cast<std::size_t>(i)] = shape(c);
  }

  bool meets_offset(const Cube& trial) const {
    const Shape s = shape(trial);
    return !for_each_word(s, [&](std::uint32_t w) {
      return (s.lo & off_[w]) == 0;
    });
  }

  bool covered(const std::vector<Cube>&, const std::vector<bool>& alive,
               int i) const {
    const Shape& s = shapes_[static_cast<std::size_t>(i)];
    return for_each_word(s, [&](std::uint32_t w) {
      std::uint64_t left = s.lo & ~dc_[w];
      for (std::size_t j = 0; j < shapes_.size() && left; ++j)
        if (static_cast<int>(j) != i && alive[j]) left &= ~word(shapes_[j], w);
      return left == 0;
    });
  }

  std::optional<Cube> exclusive_supercube(const std::vector<Cube>&,
                                          int i) const {
    const Shape& s = shapes_[static_cast<std::size_t>(i)];
    // Presence of each phase: in-word variables from the OR of the
    // exclusive words, word-index variables from the OR and AND of the
    // indices of the words that hold an exclusive minterm.
    std::uint64_t bits = 0;
    std::uint32_t idx_or = 0, idx_and = ~0u;
    for_each_word(s, [&](std::uint32_t w) {
      std::uint64_t x = s.lo & ~dc_[w];
      for (std::size_t j = 0; j < shapes_.size() && x; ++j)
        if (static_cast<int>(j) != i) x &= ~word(shapes_[j], w);
      if (x) {
        bits |= x;
        idx_or |= w;
        idx_and &= w;
      }
      return true;
    });
    if (bits == 0) return std::nullopt;
    Cube r(n_);
    for (int v = 0; v < n_; ++v) {
      bool one, zero;
      if (v < 6) {
        one = (bits & kLane[v]) != 0;
        zero = (bits & ~kLane[v]) != 0;
      } else {
        const std::uint32_t b = 1u << (v - 6);
        one = (idx_or & b) != 0;
        zero = (idx_and & b) == 0;
      }
      if (!zero) r.set_code(v, Pcn::kPos);
      else if (!one) r.set_code(v, Pcn::kNeg);
    }
    return r;
  }

 private:
  /// Bits of a word whose minterm has variable v = 1, for v < 6.
  static constexpr std::uint64_t kLane[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

  static std::uint32_t num_words(int n) {
    if (n > kBitsetForcedMaxVars)
      throw std::invalid_argument("espresso: bitset oracle is limited to " +
                                  std::to_string(kBitsetForcedMaxVars) +
                                  " variables");
    return n <= 6 ? 1u : 1u << (n - 6);
  }

  /// A cube's minterm set: `lo` in every word w with (w & care) == val.
  struct Shape {
    std::uint64_t lo;
    std::uint32_t care, val;
  };

  Shape shape(const Cube& c) const {
    Shape s{~std::uint64_t{0}, 0, 0};
    for (int v = 0; v < n_; ++v) {
      const Pcn p = c.code(v);
      if (p == Pcn::kDontCare) continue;
      if (p == Pcn::kEmpty) return {0, 0, 0};
      if (v < 6) {
        s.lo &= p == Pcn::kPos ? kLane[v] : ~kLane[v];
      } else {
        const std::uint32_t b = 1u << (v - 6);
        s.care |= b;
        if (p == Pcn::kPos) s.val |= b;
      }
    }
    return s;
  }

  static std::uint64_t word(const Shape& s, std::uint32_t w) {
    return (w & s.care) == s.val ? s.lo : 0;
  }

  /// Calls f(w) on each word index w of s's set, in increasing order, while
  /// f returns true. Returns false iff some call returned false.
  template <class F>
  bool for_each_word(const Shape& s, F&& f) const {
    if (s.lo == 0) return true;
    const std::uint32_t free = (nw_ - 1) & ~s.care;
    std::uint32_t sub = 0;
    do {
      if (!f(s.val | sub)) return false;
      sub = (sub - free) & free;  // next subset of `free`
    } while (sub != 0);
    return true;
  }

  void or_into(const Cover& g, std::vector<std::uint64_t>& words) const {
    for (const auto& c : g.cubes()) {
      const Shape s = shape(c);
      for_each_word(s, [&](std::uint32_t w) {
        words[w] |= s.lo;
        return true;
      });
    }
  }

  int n_;
  std::uint32_t nw_;
  std::vector<std::uint64_t> dc_, off_;
  std::vector<Shape> shapes_;
};

bool use_bitset(detail::Oracle oracle, int n) {
  switch (oracle) {
    case detail::Oracle::kBitset: return true;
    case detail::Oracle::kUrp: return false;
    case detail::Oracle::kAuto: break;
  }
  return n <= kBitsetMaxVars;
}

/// Runs body(oracle) on the oracle `which` selects for n variables.
template <class Body>
Cover with_oracle(detail::Oracle which, int n, const Cover& dc, Body&& body) {
  if (use_bitset(which, n)) {
    BitsetOracle o(n, dc);
    return body(o);
  }
  UrpOracle o(dc);
  return body(o);
}

template <class Oracle>
Cover expand_pass(const Cover& f, const Oracle& oracle) {
  Cover out(f.num_vars());
  std::vector<Cube> done;
  for (const auto& orig : f.cubes()) {
    Cube c = orig;
    // Greedy raising: repeatedly pick the literal whose removal keeps the
    // cube disjoint from the OFF-set and frees the most OFF-set blocking
    // (heuristic: just first-feasible in variable order, then retry --
    // adequate at course scale and still yields primes).
    bool raised = true;
    while (raised) {
      raised = false;
      for (int v = 0; v < c.num_vars(); ++v) {
        if (c.code(v) == Pcn::kDontCare) continue;
        Cube trial = c;
        trial.set_code(v, Pcn::kDontCare);
        if (!oracle.meets_offset(trial)) {
          c = trial;
          raised = true;
        }
      }
    }
    // Single-cube containment cleanup keeps EXPAND from stuffing the cover
    // with duplicates of the same prime.
    bool contained = false;
    for (const auto& d : done)
      if (d.contains(c)) {
        contained = true;
        break;
      }
    if (!contained) {
      done.push_back(c);
      out.add(std::move(c));
    }
  }
  return out;
}

template <class Oracle>
Cover irredundant_pass(const Cover& f, Oracle& oracle) {
  // Greedy: try to drop each cube (largest first so small leftovers are
  // preferentially kept as the exclusive covers).
  std::vector<int> order(static_cast<std::size_t>(f.size()));
  for (int i = 0; i < f.size(); ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return f.cube(a).num_literals() > f.cube(b).num_literals();
  });
  oracle.load(f.cubes());
  std::vector<bool> alive(static_cast<std::size_t>(f.size()), true);
  for (const int i : order)
    if (oracle.covered(f.cubes(), alive, i))
      alive[static_cast<std::size_t>(i)] = false;
  Cover out(f.num_vars());
  for (int i = 0; i < f.size(); ++i)
    if (alive[static_cast<std::size_t>(i)]) out.add(f.cube(i));
  return out;
}

template <class Oracle>
Cover reduce_pass(const Cover& f, Oracle& oracle) {
  // Process largest cubes first; each cube shrinks against the rest of the
  // *current* (partially reduced) cover, preserving the overall function.
  std::vector<Cube> current(f.cubes());
  std::vector<int> order(current.size());
  for (std::size_t i = 0; i < current.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return current[static_cast<std::size_t>(a)].num_literals() <
           current[static_cast<std::size_t>(b)].num_literals();
  });
  oracle.load(current);
  for (const int i : order) {
    // Exclusive part of c: c AND NOT rest; replace c by its supercube.
    auto reduced = oracle.exclusive_supercube(current, i);
    if (!reduced) continue;  // fully covered; irredundant removes it
    current[static_cast<std::size_t>(i)] = std::move(*reduced);
    oracle.refresh(i, current[static_cast<std::size_t>(i)]);
  }
  Cover out(f.num_vars());
  for (auto& c : current) out.add(std::move(c));
  return out;
}

template <class Oracle>
Cover minimize_pass(const Cover& f, const MinimizeOptions& options,
                    MinimizeStats* stats, Oracle& oracle) {
  MinimizeStats local;
  local.initial_cubes = f.size();
  local.initial_literals = f.num_literals();

  oracle.set_offset_of(f);
  Cover g = f;
  g.remove_contained_cubes();
  int best_cost = -1;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++local.iterations;
    g = expand_pass(g, oracle);
    g = irredundant_pass(g, oracle);
    const int cost = g.size() * 1000 + g.num_literals();
    if (best_cost >= 0 && cost >= best_cost) break;
    best_cost = cost;
    if (options.single_pass) break;
    g = reduce_pass(g, oracle);
  }
  // Always finish on an expanded, irredundant cover.
  g = irredundant_pass(expand_pass(g, oracle), oracle);

  local.final_cubes = g.size();
  local.final_literals = g.num_literals();
  if (stats) *stats = local;
  if (obs::enabled()) {
    obs::count("espresso.minimize_calls");
    obs::count("espresso.iterations", local.iterations);
    obs::count("espresso.cubes_in", local.initial_cubes);
    obs::count("espresso.cubes_out", local.final_cubes);
    obs::observe("espresso.literals_saved",
                 std::max(0, local.initial_literals - local.final_literals));
  }
  return g;
}

}  // namespace

namespace detail {

int bitset_max_vars() { return kBitsetMaxVars; }
int bitset_forced_max_vars() { return kBitsetForcedMaxVars; }

Cover expand(const Cover& f, const Cover& offset, Oracle which) {
  return with_oracle(which, f.num_vars(), Cover(f.num_vars()), [&](auto& o) {
    o.set_offset(offset);
    return expand_pass(f, o);
  });
}

Cover irredundant(const Cover& f, const Cover& dc, Oracle which) {
  return with_oracle(which, f.num_vars(), dc,
                     [&](auto& o) { return irredundant_pass(f, o); });
}

Cover reduce(const Cover& f, const Cover& dc, Oracle which) {
  return with_oracle(which, f.num_vars(), dc,
                     [&](auto& o) { return reduce_pass(f, o); });
}

Cover minimize(const Cover& f, const Cover& dc, const MinimizeOptions& options,
               MinimizeStats* stats, Oracle which) {
  return with_oracle(which, f.num_vars(), dc, [&](auto& o) {
    return minimize_pass(f, options, stats, o);
  });
}

}  // namespace detail

Cover expand(const Cover& f, const Cover& offset) {
  return detail::expand(f, offset, detail::Oracle::kAuto);
}

Cover irredundant(const Cover& f, const Cover& dc) {
  return detail::irredundant(f, dc, detail::Oracle::kAuto);
}

Cover reduce(const Cover& f, const Cover& dc) {
  return detail::reduce(f, dc, detail::Oracle::kAuto);
}

Cover minimize(const Cover& f, const Cover& dc, const MinimizeOptions& options,
               MinimizeStats* stats) {
  return detail::minimize(f, dc, options, stats, detail::Oracle::kAuto);
}

Cover minimize(const Cover& f) {
  return minimize(f, Cover(f.num_vars()), MinimizeOptions{}, nullptr);
}

bool is_legal_implementation(const Cover& g, const Cover& f, const Cover& dc) {
  // Lower bound: every minterm of f not in dc must be covered by g.
  const Cover must = cubes::sharp(f, dc);
  for (const auto& c : must.cubes())
    if (!cubes::cover_contains_cube(g, c)) return false;
  // Upper bound: g must stay inside f | dc.
  const Cover allowed = f | dc;
  for (const auto& c : g.cubes())
    if (!cubes::cover_contains_cube(allowed, c)) return false;
  return true;
}

}  // namespace l2l::espresso
