#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "cache/digest.hpp"
#include "route/maze.hpp"
#include "route/router.hpp"
#include "route/solution.hpp"
#include "util/rng.hpp"

namespace l2l::route {
namespace {

gen::RoutingProblem empty_grid(int w, int h) {
  gen::RoutingProblem p;
  p.width = w;
  p.height = h;
  p.num_layers = 2;
  p.blocked.assign(2, std::vector<bool>(static_cast<std::size_t>(w) *
                                            static_cast<std::size_t>(h),
                                        false));
  return p;
}

// The problem's obstacles with every pin reserved for its net, as the
// router sets the grid up before searching.
Occupancy pinned_occupancy(const gen::RoutingProblem& p) {
  Occupancy occ(p);
  for (const auto& net : p.nets)
    for (const auto& pin : net.pins) occ.set(pin, net.id);
  return occ;
}

// Is the net's cell set connected (orthogonal steps in-layer, vias between
// layers at the same x,y)?
bool connected(const NetRoute& net) {
  if (net.cells.empty()) return false;
  std::set<GridPoint> cells(net.cells.begin(), net.cells.end());
  std::vector<GridPoint> stack{net.cells.front()};
  std::set<GridPoint> seen;
  while (!stack.empty()) {
    const auto c = stack.back();
    stack.pop_back();
    if (!seen.insert(c).second) continue;
    const GridPoint nbrs[6] = {{c.x + 1, c.y, c.layer}, {c.x - 1, c.y, c.layer},
                               {c.x, c.y + 1, c.layer}, {c.x, c.y - 1, c.layer},
                               {c.x, c.y, c.layer + 1}, {c.x, c.y, c.layer - 1}};
    for (const auto& n : nbrs)
      if (cells.count(n)) stack.push_back(n);
  }
  return seen.size() == cells.size();
}

TEST(Maze, StraightShot) {
  const auto p = empty_grid(10, 10);
  Occupancy occ(p);
  const auto path = find_path(occ, {{0, 5, 0}}, {{9, 5, 0}}, 0, {});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->cells.size(), 10u);
  EXPECT_DOUBLE_EQ(path->cost, 9.0);  // 9 steps on the preferred layer
}

TEST(Maze, NoPathThroughWall) {
  auto p = empty_grid(10, 10);
  // Wall across both layers at x=5.
  for (int layer = 0; layer < 2; ++layer)
    for (int y = 0; y < 10; ++y)
      p.blocked[static_cast<std::size_t>(layer)]
               [static_cast<std::size_t>(y) * 10 + 5] = true;
  Occupancy occ(p);
  EXPECT_FALSE(find_path(occ, {{0, 0, 0}}, {{9, 9, 0}}, 0, {}).has_value());
}

TEST(Maze, RoutesAroundObstacle) {
  auto p = empty_grid(10, 10);
  // Partial wall on layer 0 only; gap at the top.
  for (int y = 0; y < 9; ++y)
    p.blocked[0][static_cast<std::size_t>(y) * 10 + 5] = true;
  RouteCosts costs;
  costs.via = 1000.0;  // discourage layer change: must go around
  Occupancy occ(p);
  const auto path = find_path(occ, {{0, 0, 0}}, {{9, 0, 0}}, 0, costs);
  ASSERT_TRUE(path.has_value());
  bool visits_top = false;
  for (const auto& c : path->cells) {
    EXPECT_FALSE(p.is_blocked(c));
    if (c.y == 9) visits_top = true;
    EXPECT_EQ(c.layer, 0);
  }
  EXPECT_TRUE(visits_top);
}

TEST(Maze, CheapViaPrefersLayerChange) {
  auto p = empty_grid(10, 10);
  for (int y = 0; y < 10; ++y)
    p.blocked[0][static_cast<std::size_t>(y) * 10 + 5] = true;  // full wall, layer 0
  RouteCosts costs;
  costs.via = 2.0;
  Occupancy occ(p);
  const auto path = find_path(occ, {{0, 0, 0}}, {{9, 0, 0}}, 0, costs);
  ASSERT_TRUE(path.has_value());
  bool uses_layer1 = false;
  for (const auto& c : path->cells) uses_layer1 |= c.layer == 1;
  EXPECT_TRUE(uses_layer1);
}

TEST(Maze, PreferredDirectionPenaltyShapesRoute) {
  // Vertical run on layer 0 (horizontal-preferred) should switch to
  // layer 1 when vias are cheap, stay on layer 0 when vias are dear.
  const auto p = empty_grid(20, 20);
  Occupancy occ(p);
  RouteCosts cheap_via;
  cheap_via.via = 1.0;
  const auto with_via = find_path(occ, {{10, 0, 0}}, {{10, 19, 0}}, 0, cheap_via);
  ASSERT_TRUE(with_via.has_value());
  bool layer1 = false;
  for (const auto& c : with_via->cells) layer1 |= c.layer == 1;
  EXPECT_TRUE(layer1);

  RouteCosts dear_via;
  dear_via.via = 1e6;
  const auto without = find_path(occ, {{10, 0, 0}}, {{10, 19, 0}}, 0, dear_via);
  ASSERT_TRUE(without.has_value());
  for (const auto& c : without->cells) EXPECT_EQ(c.layer, 0);
  EXPECT_GT(without->cost, with_via->cost);
}

TEST(Maze, AStarAndDijkstraAgreeOnCost) {
  util::Rng rng(121);
  gen::RoutingGenOptions gopt;
  gopt.width = 24;
  gopt.height = 24;
  gopt.num_nets = 8;
  const auto p = gen::generate_routing(gopt, rng);
  Occupancy occ(p);
  for (const auto& net : p.nets) {
    RouteCosts astar;
    RouteCosts dijkstra;
    dijkstra.use_astar = false;
    const auto pa = find_path(occ, {net.pins[0]}, {net.pins[1]}, net.id, astar);
    const auto pd = find_path(occ, {net.pins[0]}, {net.pins[1]}, net.id, dijkstra);
    ASSERT_EQ(pa.has_value(), pd.has_value());
    if (pa) {
      EXPECT_NEAR(pa->cost, pd->cost, 1e-9);
      EXPECT_LE(pa->expansions, pd->expansions);  // A* is never worse
    }
  }
}

TEST(Maze, OwnCellsAreFreeToReuse) {
  const auto p = empty_grid(10, 10);
  Occupancy occ(p);
  // Pre-claim a backbone for net 7.
  for (int x = 0; x < 10; ++x) occ.set({x, 5, 0}, 7);
  const auto path = find_path(occ, {{0, 5, 0}}, {{9, 5, 0}}, 7, {});
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->cost, 0.0);  // rides its own metal
}

TEST(Maze, OtherNetsBlock) {
  const auto p = empty_grid(10, 10);
  Occupancy occ(p);
  for (int y = 0; y < 10; ++y)
    for (int layer = 0; layer < 2; ++layer) occ.set({5, y, layer}, 3);
  EXPECT_FALSE(find_path(occ, {{0, 0, 0}}, {{9, 0, 0}}, 0, {}).has_value());
}

// find_path keeps its search state per thread and reuses it. A call must
// not see anything an earlier call left behind -- visited slots, target
// marks, heap entries, a grown-then-shrunk grid -- so every call in a
// mixed sequence on one thread must match the same call made first on a
// fresh thread.
TEST(Maze, ReusedSearchStateMatchesFreshThread) {
  struct Call {
    const Occupancy* occ;
    std::vector<GridPoint> sources, targets;
    int net_id;
    RouteCosts costs;
    const std::vector<double>* extra;
  };
  auto make = [](int w, int h, std::uint64_t seed) {
    gen::RoutingGenOptions gopt;
    gopt.width = w;
    gopt.height = h;
    gopt.num_nets = 6;
    gopt.max_pins_per_net = 4;
    util::Rng rng(seed);
    return gen::generate_routing(gopt, rng);
  };
  const auto big = make(40, 36, 5);
  const auto small = make(9, 7, 6);
  const Occupancy big_occ = pinned_occupancy(big);
  const Occupancy small_occ = pinned_occupancy(small);
  std::vector<double> big_extra(static_cast<std::size_t>(40 * 36 * 2));
  util::Rng rng(7);
  for (auto& e : big_extra) e = 2.0 * rng.next_double();

  RouteCosts dijkstra;
  dijkstra.use_astar = false;
  std::vector<Call> calls;
  for (int round = 0; round < 2; ++round) {
    const auto& bn = big.nets[static_cast<std::size_t>(round)];
    const auto& sn = small.nets[static_cast<std::size_t>(round)];
    // Large, multi-target, penalty field.
    calls.push_back({&big_occ, {bn.pins.front()},
                     {bn.pins.begin() + 1, bn.pins.end()}, bn.id, {}, &big_extra});
    // Small grid right after the large one: leftover slots and marks
    // from the large call land on other points here.
    calls.push_back({&small_occ, {sn.pins.front()}, {sn.pins.back()}, sn.id,
                     dijkstra, nullptr});
    // A target owned by another net: the search exhausts without a path.
    calls.push_back({&small_occ, {sn.pins.front()},
                     {small.nets[2].pins.front()}, sn.id, {}, nullptr});
    // Large again, another net, several sources, Dijkstra.
    const auto& bn2 = big.nets[static_cast<std::size_t>(round + 2)];
    calls.push_back({&big_occ, {bn2.pins.begin(), bn2.pins.end() - 1},
                     {bn2.pins.back()}, bn2.id, dijkstra, &big_extra});
  }

  auto run = [](const Call& c) {
    return find_path(*c.occ, c.sources, c.targets, c.net_id, c.costs, c.extra);
  };
  std::vector<std::optional<PathResult>> fresh(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i)
    std::thread([&, i] { fresh[i] = run(calls[i]); }).join();

  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const auto got = run(calls[i]);
      ASSERT_EQ(got.has_value(), fresh[i].has_value()) << "call " << i;
      if (!got) continue;
      EXPECT_EQ(got->cells, fresh[i]->cells) << "call " << i;
      EXPECT_EQ(got->cost, fresh[i]->cost) << "call " << i;
      EXPECT_EQ(got->expansions, fresh[i]->expansions) << "call " << i;
    }
  EXPECT_FALSE(fresh[2].has_value());
  EXPECT_TRUE(fresh[0].has_value());
}

TEST(Router, RoutesCleanProblemCompletely) {
  util::Rng rng(122);
  gen::RoutingGenOptions gopt;
  gopt.width = 32;
  gopt.height = 32;
  gopt.num_nets = 16;
  gopt.obstacle_fraction = 0.05;
  const auto p = gen::generate_routing(gopt, rng);
  const auto sol = route_all(p);
  EXPECT_EQ(sol.stats.failed, 0);
  EXPECT_EQ(sol.stats.routed, 16);
  for (const auto& net : sol.nets) {
    EXPECT_TRUE(net.routed);
    EXPECT_TRUE(connected(net)) << "net " << net.net_id;
  }
  // No two nets share a cell.
  std::set<GridPoint> all;
  for (const auto& net : sol.nets)
    for (const auto& c : net.cells)
      EXPECT_TRUE(all.insert(c).second) << "overlap at net " << net.net_id;
}

TEST(Router, MultiPinNetsFormTrees) {
  util::Rng rng(123);
  gen::RoutingGenOptions gopt;
  gopt.width = 32;
  gopt.height = 32;
  gopt.num_nets = 8;
  gopt.max_pins_per_net = 5;
  const auto p = gen::generate_routing(gopt, rng);
  const auto sol = route_all(p);
  for (std::size_t n = 0; n < p.nets.size(); ++n) {
    if (!sol.nets[n].routed) continue;
    EXPECT_TRUE(connected(sol.nets[n]));
    std::set<GridPoint> cells(sol.nets[n].cells.begin(), sol.nets[n].cells.end());
    for (const auto& pin : p.nets[n].pins)
      EXPECT_TRUE(cells.count(pin)) << "pin missing from net " << n;
  }
}

TEST(Router, RipUpRecoversCongestion) {
  // Dense crossing pattern that sequential routing may fail without rip-up.
  auto p = empty_grid(16, 16);
  // Nets crossing through the center from all sides.
  int id = 0;
  for (int k = 2; k < 14; k += 2) {
    p.nets.push_back({id++, {{0, k, 0}, {15, k, 0}}});
    p.nets.push_back({id++, {{k, 0, 0}, {k, 15, 0}}});
  }
  RouterOptions opt;
  opt.max_ripup_iterations = 5;
  const auto sol = route_all(p, opt);
  EXPECT_EQ(sol.stats.failed, 0) << "failed " << sol.stats.failed;
}

TEST(Router, NegotiationBeatsSequentialOnCongestion) {
  // A deliberately congested die: PathFinder-style negotiation must route
  // at least as many nets as plain sequential rip-up (in practice more),
  // and both answers must be legal (checked by the overlap sweep below).
  util::Rng rng(99);
  gen::RoutingGenOptions gopt;
  gopt.width = gopt.height = 32;
  gopt.num_nets = 40;
  gopt.max_pins_per_net = 3;
  const auto p = gen::generate_routing(gopt, rng);
  RouterOptions nego;
  nego.max_negotiation_iterations = 15;
  RouterOptions seq;
  seq.negotiated = false;
  const auto s1 = route_all(p, nego);
  const auto s2 = route_all(p, seq);
  EXPECT_GE(s1.stats.routed, s2.stats.routed);
  EXPECT_GT(s1.stats.routed, 0);
  for (const auto* sol : {&s1, &s2}) {
    std::set<GridPoint> all;
    for (const auto& net : sol->nets) {
      if (!net.routed) continue;
      EXPECT_TRUE(connected(net));
      for (const auto& c : net.cells) EXPECT_TRUE(all.insert(c).second);
    }
  }
}

TEST(Solution, WriteParseRoundTrip) {
  util::Rng rng(124);
  gen::RoutingGenOptions gopt;
  gopt.width = 16;
  gopt.height = 16;
  gopt.num_nets = 5;
  const auto p = gen::generate_routing(gopt, rng);
  const auto sol = route_all(p);
  const auto again = parse_solution(write_solution(sol));
  ASSERT_EQ(again.nets.size(), sol.nets.size());
  for (std::size_t n = 0; n < sol.nets.size(); ++n) {
    EXPECT_EQ(again.nets[n].net_id, sol.nets[n].net_id);
    EXPECT_EQ(again.nets[n].cells, sol.nets[n].cells);
  }
}

TEST(Solution, ParseErrors) {
  EXPECT_THROW(parse_solution(""), std::invalid_argument);
  EXPECT_THROW(parse_solution("1\n(0 0 0)\n"), std::invalid_argument);
  EXPECT_THROW(parse_solution("2\nnet 0\n!\n"), std::invalid_argument);
  EXPECT_THROW(parse_solution("1\nnet 0\n(1 2)\n!\n"), std::invalid_argument);
  EXPECT_THROW(parse_solution("1\nnet 0\nxyz\n!\n"), std::invalid_argument);
}

TEST(Solution, ProblemRoundTrip) {
  util::Rng rng(125);
  gen::RoutingGenOptions gopt;
  gopt.width = 16;
  gopt.height = 12;
  gopt.num_nets = 4;
  const auto p = gen::generate_routing(gopt, rng);
  const auto again = parse_problem(write_problem(p));
  EXPECT_EQ(again.width, p.width);
  EXPECT_EQ(again.height, p.height);
  EXPECT_EQ(again.blocked, p.blocked);
  ASSERT_EQ(again.nets.size(), p.nets.size());
  for (std::size_t n = 0; n < p.nets.size(); ++n)
    EXPECT_EQ(again.nets[n].pins, p.nets[n].pins);
}

TEST(Solution, AsciiRenderShowsNetsAndPins) {
  auto p = empty_grid(8, 8);
  p.nets.push_back({0, {{0, 0, 0}, {7, 0, 0}}});
  const auto sol = route_all(p);
  const auto art = render_ascii(p, sol, 0);
  EXPECT_NE(art.find('*'), std::string::npos);
  EXPECT_NE(art.find('a'), std::string::npos);
}

// ---- bit-exactness golden ------------------------------------------------
//
// Pins the router's search, not just its answers: every case records the
// expansion count, the cost bit-for-bit (%.17g) and a digest of the cells
// in path order. Any change to the kernel that reorders ties, drops or
// adds a push, or reassociates the step arithmetic fails here. Regenerate
// with L2L_UPDATE_GOLDEN=1 only for an intended search change, and commit
// tests/data/golden/route_fingerprints.txt.

std::string fingerprint_line(const std::string& name, long long expansions,
                             double cost, const RouteSolution& sol) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", cost);
  return name + " expansions=" + std::to_string(expansions) + " cost=" + buf +
         " digest=" + cache::digest_bytes(write_solution(sol)).hex() + "\n";
}

std::string path_fingerprint(const std::string& name,
                             const std::optional<PathResult>& path) {
  if (!path) return name + " none\n";
  RouteSolution sol;
  sol.nets.push_back({0, true, path->cells});
  return fingerprint_line(name, path->expansions, path->cost, sol);
}

std::string route_fingerprints() {
  std::string out;
  // route_all: A*/Dijkstra x preferred/isotropic x via 1/5/20 x
  // negotiated/sequential, each on its own seeded congested problem with
  // multi-pin nets.
  int k = 0;
  for (const bool astar : {true, false})
    for (const bool preferred : {true, false})
      for (const double via : {1.0, 5.0, 20.0})
        for (const bool negotiated : {true, false}) {
          gen::RoutingGenOptions gopt;
          gopt.width = 18;
          gopt.height = 18;
          gopt.num_nets = 14;
          gopt.obstacle_fraction = 0.1;
          gopt.max_pins_per_net = 3;
          util::Rng rng(1000 + static_cast<std::uint64_t>(k));
          const auto p = gen::generate_routing(gopt, rng);
          RouterOptions opt;
          opt.costs.use_astar = astar;
          opt.costs.preferred_directions = preferred;
          opt.costs.via = via;
          opt.negotiated = negotiated;
          const auto sol = route_all(p, opt);
          const std::string name =
              "route_all/" + std::to_string(k) + (astar ? "/astar" : "/dijkstra") +
              (preferred ? "/preferred" : "/isotropic") + "/via" +
              std::to_string(static_cast<int>(via)) +
              (negotiated ? "/negotiated" : "/sequential");
          out += fingerprint_line(name, sol.stats.expansions,
                                  sol.stats.total_wire, sol);
          ++k;
        }

  // Direct find_path calls: a seeded penalty field, multi-source trees over
  // the net's own cells, and multi-target calls (the BFS heuristic).
  gen::RoutingGenOptions gopt;
  gopt.width = 32;
  gopt.height = 28;
  gopt.num_nets = 10;
  gopt.obstacle_fraction = 0.12;
  gopt.max_pins_per_net = 4;
  util::Rng rng(77);
  const auto p = gen::generate_routing(gopt, rng);
  const Occupancy occ = pinned_occupancy(p);
  std::vector<double> extra(static_cast<std::size_t>(p.width * p.height * 2));
  for (auto& e : extra) e = 3.0 * rng.next_double();

  RouteCosts pref;
  RouteCosts iso;
  iso.preferred_directions = false;
  iso.via = 5.0;
  RouteCosts dijkstra;
  dijkstra.use_astar = false;
  dijkstra.via = 1.0;
  for (std::size_t n = 0; n < p.nets.size(); ++n) {
    const auto& net = p.nets[n];
    const std::string base = "find_path/net" + std::to_string(net.id);
    const std::vector<GridPoint> src{net.pins.front()};
    const std::vector<GridPoint> one{net.pins.back()};
    const std::vector<GridPoint> rest(net.pins.begin() + 1, net.pins.end());
    out += path_fingerprint(base + "/extra/astar",
                            find_path(occ, src, one, net.id, pref, &extra));
    out += path_fingerprint(base + "/extra/dijkstra",
                            find_path(occ, src, one, net.id, dijkstra, &extra));
    out += path_fingerprint(base + "/multi_target/astar",
                            find_path(occ, src, rest, net.id, pref));
    out += path_fingerprint(base + "/multi_target/extra/isotropic",
                            find_path(occ, src, rest, net.id, iso, &extra));
    out += path_fingerprint(base + "/multi_target/dijkstra",
                            find_path(occ, src, rest, net.id, dijkstra, &extra));
    // Grow the net's own tree (zero-cost reuse) and route the last pin
    // from every tree cell.
    if (const auto first = find_path(occ, src, {net.pins[1]}, net.id, pref)) {
      Occupancy grown = occ;
      for (const auto& c : first->cells) grown.set(c, net.id);
      out += path_fingerprint(
          base + "/tree_sources/extra",
          find_path(grown, first->cells, one, net.id, iso, &extra));
    }
  }
  // A target owned by another net is never enterable.
  out += path_fingerprint(
      "find_path/blocked_target",
      find_path(occ, {p.nets[0].pins.front()}, {p.nets[1].pins.front()},
                p.nets[0].id, pref, &extra));
  return out;
}

TEST(RouteGolden, FingerprintsMatchGoldenFile) {
  const std::string got = route_fingerprints();
  const std::string golden_path =
      L2L_TEST_DATA_DIR "/golden/route_fingerprints.txt";
  if (std::getenv("L2L_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "golden file regenerated";
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good())
      << "missing golden file tests/data/golden/route_fingerprints.txt";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str()) << "actual:\n" << got;
}

// The Figure-6 unit tests of the MOOC router project: short wires in one
// layer, vertical segments, bends, obstacle detours -- run as a
// parameterized suite.
struct UnitCase {
  const char* name;
  GridPoint from, to;
  int wall_x;  // -1 = none; else vertical wall on layer 0 with top gap
};

// Print a case by name. Without this gtest dumps the struct's raw bytes,
// pointer and padding included, into the listed test name, so the name
// changed from one build (and one process) to the next.
void PrintTo(const UnitCase& tc, std::ostream* os) { *os << tc.name; }

class RouterUnitTests : public ::testing::TestWithParam<UnitCase> {};

TEST_P(RouterUnitTests, RoutesAndVerifies) {
  const auto& tc = GetParam();
  auto p = empty_grid(12, 12);
  if (tc.wall_x >= 0)
    for (int y = 0; y < 11; ++y)
      p.blocked[0][static_cast<std::size_t>(y) * 12 +
                   static_cast<std::size_t>(tc.wall_x)] = true;
  p.nets.push_back({0, {tc.from, tc.to}});
  const auto sol = route_all(p);
  ASSERT_TRUE(sol.nets[0].routed) << tc.name;
  EXPECT_TRUE(connected(sol.nets[0])) << tc.name;
  for (const auto& c : sol.nets[0].cells) EXPECT_FALSE(p.is_blocked(c));
}

INSTANTIATE_TEST_SUITE_P(
    Fig6, RouterUnitTests,
    ::testing::Values(
        UnitCase{"short_horizontal", {1, 1, 0}, {4, 1, 0}, -1},
        UnitCase{"short_vertical", {2, 1, 0}, {2, 6, 0}, -1},
        UnitCase{"single_bend", {1, 1, 0}, {8, 8, 0}, -1},
        UnitCase{"cross_layer", {1, 1, 0}, {8, 8, 1}, -1},
        UnitCase{"around_obstacle", {1, 1, 0}, {10, 1, 0}, 6},
        UnitCase{"adjacent_cells", {5, 5, 0}, {5, 6, 0}, -1}),
    [](const ::testing::TestParamInfo<UnitCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace l2l::route
