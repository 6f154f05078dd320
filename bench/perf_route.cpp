// Router benchmarks + ablations: A* vs Dijkstra search effort, the
// preferred-direction penalty's effect on vias/quality, via-cost sweeps,
// multi-thread scaling of the negotiated-congestion router, and the cost
// of a single maze search (the kernel every router pass repeats).

#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "gen/routing_gen.hpp"
#include "route/maze.hpp"
#include "route/router.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace l2l;

gen::RoutingProblem problem(int size, int nets, std::uint64_t seed) {
  util::Rng rng(seed);
  gen::RoutingGenOptions opt;
  opt.width = opt.height = size;
  opt.num_nets = nets;
  opt.max_pins_per_net = 3;
  return gen::generate_routing(opt, rng);
}

void BM_AStarVsDijkstra(benchmark::State& state) {
  const bool astar = state.range(0) != 0;
  const auto p = problem(64, 32, 21);
  long long expansions = 0;
  for (auto _ : state) {
    route::RouterOptions opt;
    opt.costs.use_astar = astar;
    const auto sol = route::route_all(p, opt);
    expansions = sol.stats.expansions;
    state.counters["expansions"] = static_cast<double>(expansions);
  }
  (void)expansions;
  state.SetLabel(astar ? "A* (manhattan lower bound)" : "Dijkstra/Lee");
}
BENCHMARK(BM_AStarVsDijkstra)->Arg(1)->Arg(0)->Iterations(1);

void BM_PreferredDirections(benchmark::State& state) {
  const bool preferred = state.range(0) != 0;
  const auto p = problem(64, 40, 22);
  int vias = 0, routed = 0;
  double wire = 0;
  for (auto _ : state) {
    route::RouterOptions opt;
    opt.costs.preferred_directions = preferred;
    const auto sol = route::route_all(p, opt);
    vias = sol.stats.total_vias;
    wire = sol.stats.total_wire;
    routed = sol.stats.routed;
    state.counters["vias"] = vias;
    state.counters["wire"] = wire;
    state.counters["routed"] = routed;
  }
  (void)routed;
  state.SetLabel(preferred ? "layer-preferred directions" : "isotropic");
}
BENCHMARK(BM_PreferredDirections)->Arg(1)->Arg(0)->Iterations(1);

void BM_ViaCostSweep(benchmark::State& state) {
  const double via_cost = static_cast<double>(state.range(0));
  const auto p = problem(48, 30, 23);
  int vias = 0;
  for (auto _ : state) {
    route::RouterOptions opt;
    opt.costs.via = via_cost;
    const auto sol = route::route_all(p, opt);
    vias = sol.stats.total_vias;
    state.counters["vias"] = vias;
  }
  (void)vias;
}
BENCHMARK(BM_ViaCostSweep)->Arg(1)->Arg(5)->Arg(20)->Iterations(1);

void BM_NegotiatedVsSequential(benchmark::State& state) {
  // The headline router ablation: PathFinder-style negotiation vs plain
  // sequential rip-up on a congested die.
  const bool negotiated = state.range(0) != 0;
  const auto p = problem(48, 40, 25);
  int routed = 0, iterations = 0;
  for (auto _ : state) {
    route::RouterOptions opt;
    opt.negotiated = negotiated;
    const auto sol = route::route_all(p, opt);
    routed = sol.stats.routed;
    iterations = sol.stats.negotiation_iterations;
    state.counters["routed_of_40"] = routed;
    state.counters["iterations"] = iterations;
  }
  (void)routed;
  (void)iterations;
  state.SetLabel(negotiated ? "negotiated congestion" : "sequential rip-up");
}
BENCHMARK(BM_NegotiatedVsSequential)->Arg(1)->Arg(0)->Iterations(1);

void BM_RouteThreadScaling(benchmark::State& state) {
  // The tentpole measurement: negotiated routing on the largest generated
  // die at 1/2/4/8 threads. Wall-clock (real time) is the speedup metric;
  // the routed/wire counters double as a determinism cross-check -- they
  // must not move with the thread count.
  const int threads = static_cast<int>(state.range(0));
  const auto p = problem(128, 160, 27);
  util::set_num_threads(threads);
  int routed = 0;
  double wire = 0;
  for (auto _ : state) {
    const auto sol = route::route_all(p);
    routed = sol.stats.routed;
    wire = sol.stats.total_wire;
  }
  util::set_num_threads(0);
  state.counters["threads"] = threads;
  state.counters["routed"] = routed;
  state.counters["wire"] = wire;
}
BENCHMARK(BM_RouteThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FindPath(benchmark::State& state) {
  // One maze search at a time on a size x size two-layer die: seeded
  // obstacles, a seeded negotiation-style penalty field, and a fixed
  // rotation of source/target pairs. This isolates the per-search cost
  // (state setup, heap traffic, neighbour reads) that the negotiated
  // router pays tens of thousands of times per flow. /40 is the size of a
  // flow-designs routing grid, where a search is short next to the grid;
  // /128 is a die where each search expands tens of thousands of states.
  const int size = static_cast<int>(state.range(0));
  const auto p = problem(size, 0, 28);
  const route::Occupancy occ(p);
  util::Rng rng(29);
  std::vector<double> extra(static_cast<std::size_t>(p.width) *
                            static_cast<std::size_t>(p.height) * 2);
  for (auto& e : extra) e = 2.0 * rng.next_double();
  const auto bound = static_cast<std::uint64_t>(size);
  std::vector<std::array<gen::GridPoint, 2>> pairs;
  while (pairs.size() < 64) {
    const gen::GridPoint a{static_cast<int>(rng.next_below(bound)),
                           static_cast<int>(rng.next_below(bound)), 0};
    const gen::GridPoint b{static_cast<int>(rng.next_below(bound)),
                           static_cast<int>(rng.next_below(bound)), 0};
    if (occ.at(a) == route::Occupancy::kFree &&
        occ.at(b) == route::Occupancy::kFree && a != b)
      pairs.push_back({a, b});
  }
  const route::RouteCosts costs;
  // Search effort over one full rotation: identical on every kernel that
  // expands the same states, so it doubles as a bit-exactness check.
  long long expansions = 0;
  for (const auto& [a, b] : pairs)
    if (const auto path = route::find_path(occ, {a}, {b}, 0, costs, &extra))
      expansions += path->expansions;
  std::size_t k = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[k];
    k = (k + 1) % pairs.size();
    auto path = route::find_path(occ, {a}, {b}, 0, costs, &extra);
    benchmark::DoNotOptimize(path);
  }
  state.counters["expansions_per_search"] =
      static_cast<double>(expansions) / static_cast<double>(pairs.size());
}
BENCHMARK(BM_FindPath)->Arg(40)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_GridScaling(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  const auto p = problem(size, size / 2, 24);
  for (auto _ : state) {
    const auto sol = route::route_all(p);
    benchmark::DoNotOptimize(sol.stats.routed);
  }
  state.SetComplexityN(size);
}
BENCHMARK(BM_GridScaling)->Arg(32)->Arg(64)->Arg(128)->Iterations(1)->Complexity();

}  // namespace
