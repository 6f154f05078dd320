#include "route/maze.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>

namespace l2l::route {

Occupancy::Occupancy(const gen::RoutingProblem& p)
    : width_(p.width), height_(p.height), layers_(p.num_layers) {
  cells_.assign(static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_) *
                    static_cast<std::size_t>(layers_),
                kFree);
  for (int layer = 0; layer < layers_; ++layer)
    for (int y = 0; y < height_; ++y)
      for (int x = 0; x < width_; ++x)
        if (p.blocked[static_cast<std::size_t>(layer)]
                     [static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                      static_cast<std::size_t>(x)])
          set({x, y, layer}, kObstacle);
}

namespace {

// Directions: 0=+x, 1=-x, 2=+y, 3=-y, 4=via, 5=start.
constexpr int kDirs = 6;
constexpr int kDx[4] = {1, -1, 0, 0};
constexpr int kDy[4] = {0, 0, 1, -1};

struct QEntry {
  double f;      // g + heuristic
  double g;
  int state;     // packed (point, dir): point * kDirs + dir
  int x, y, layer;  // the point's coordinates, carried from the push
  bool operator>(const QEntry& o) const { return f > o.f; }
};

/// Per-thread search state, reused by every find_path call on the thread.
/// A (point, dir) slot's dist/parent are valid only when its stamp equals
/// the current call's; any other stamp reads as "unvisited" (dist = inf),
/// so a new search starts without clearing anything. Target marks work
/// the same way per point. The arrays only grow, to the largest grid the
/// thread has seen.
struct SearchState {
  struct Slot {
    double dist;
    int parent;          // packed predecessor state, -1 at a source
    std::uint32_t stamp;
  };
  std::vector<Slot> slots;             // per (point, dir)
  std::vector<std::uint32_t> target;   // per point
  std::vector<QEntry> heap;
  std::vector<int> target_dist;        // per (x, y): multi-target heuristic
  std::vector<std::size_t> frontier, next;
  std::uint32_t stamp = 0;

  /// Start a search over `n_points` grid points; returns its stamp.
  std::uint32_t begin(std::size_t n_points) {
    if (target.size() < n_points) {
      slots.resize(n_points * kDirs, Slot{0.0, -1, 0});
      target.resize(n_points, 0);
    }
    if (++stamp == 0) {  // wrapped: forget every old mark once
      for (auto& sl : slots) sl.stamp = 0;
      std::fill(target.begin(), target.end(), 0);
      stamp = 1;
    }
    heap.clear();
    return stamp;
  }
};

thread_local SearchState t_search;

}  // namespace

std::optional<PathResult> find_path(const Occupancy& occ,
                                    const std::vector<GridPoint>& sources,
                                    const std::vector<GridPoint>& targets,
                                    int net_id, const RouteCosts& costs,
                                    const std::vector<double>* extra_cost) {
  if (targets.empty()) return std::nullopt;

  const int w = occ.width(), h = occ.height(), layers = occ.layers();
  const std::size_t plane = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  const std::size_t n_points = plane * static_cast<std::size_t>(layers);
  auto point_index = [&](const GridPoint& g) {
    return static_cast<std::size_t>(g.layer) * plane +
           static_cast<std::size_t>(g.y) * static_cast<std::size_t>(w) +
           static_cast<std::size_t>(g.x);
  };

  SearchState& st = t_search;
  const std::uint32_t stamp = st.begin(n_points);
  auto& slots = st.slots;
  for (const auto& t : targets)
    if (occ.in_bounds(t)) st.target[point_index(t)] = stamp;

  // A* heuristic: cheapest possible remaining cost = manhattan distance to
  // the closest target times the unit wire cost (admissible: every step
  // costs at least `wire`; vias only add). A single target is a closed
  // form; for multi-target calls the per-(x,y) nearest-target distance is
  // precomputed once by multi-source BFS on the (unobstructed) plane
  // instead of scanning every target on every push.
  const bool field = costs.use_astar && targets.size() > 1;
  if (field) {
    auto& td = st.target_dist;
    td.assign(plane, -1);
    st.frontier.clear();
    for (const auto& t : targets) {
      if (!occ.in_bounds(t)) continue;
      const std::size_t xy = static_cast<std::size_t>(t.y) * static_cast<std::size_t>(w) +
                             static_cast<std::size_t>(t.x);
      if (td[xy] != 0) {
        td[xy] = 0;
        st.frontier.push_back(xy);
      }
    }
    for (int d = 1; !st.frontier.empty(); ++d) {
      st.next.clear();
      for (const std::size_t xy : st.frontier) {
        const int x = static_cast<int>(xy % static_cast<std::size_t>(w));
        const int y = static_cast<int>(xy / static_cast<std::size_t>(w));
        for (int k = 0; k < 4; ++k) {
          const int nx = x + kDx[k], ny = y + kDy[k];
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          const std::size_t nxy = static_cast<std::size_t>(ny) * static_cast<std::size_t>(w) +
                                  static_cast<std::size_t>(nx);
          if (td[nxy] < 0) {
            td[nxy] = d;
            st.next.push_back(nxy);
          }
        }
      }
      st.frontier.swap(st.next);
    }
  }
  const int* target_dist = st.target_dist.data();
  const GridPoint& t0 = targets.front();
  auto heuristic = [&](int x, int y) -> double {
    if (!costs.use_astar) return 0.0;
    if (field)
      return target_dist[static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
                         static_cast<std::size_t>(x)] *
             costs.wire;
    return (std::abs(x - t0.x) + std::abs(y - t0.y)) * costs.wire;
  };

  // The heap is driven exactly like std::priority_queue with
  // std::greater<QEntry>, so pop order -- ties included -- is the order
  // the search has always had.
  const double kInf = std::numeric_limits<double>::infinity();
  auto& heap = st.heap;
  auto push = [&](std::size_t pi, int dir, double g, int from_state, int x,
                  int y, int layer) {
    const std::size_t s = pi * kDirs + static_cast<std::size_t>(dir);
    auto& slot = slots[s];
    if (g < (slot.stamp == stamp ? slot.dist : kInf)) {
      slot = {g, from_state, stamp};
      heap.push_back({g + heuristic(x, y), g, static_cast<int>(s), x, y, layer});
      std::push_heap(heap.begin(), heap.end(), std::greater<QEntry>{});
    }
  };

  // One read of the grid per neighbour: a cell is passable when free or
  // the net's own, and own cells cost nothing to re-enter.
  const int* cells = occ.data();
  const double* extra = extra_cost ? extra_cost->data() : nullptr;
  for (const auto& src : sources) {
    if (!occ.in_bounds(src)) continue;
    const std::size_t pi = point_index(src);
    if (cells[pi] != Occupancy::kFree && cells[pi] != net_id) continue;
    push(pi, 5, 0.0, -1, src.x, src.y, src.layer);
  }

  const std::ptrdiff_t step_of[4] = {1, -1, w, -static_cast<std::ptrdiff_t>(w)};
  int expansions = 0;
  int goal_state = -1;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<QEntry>{});
    const QEntry e = heap.back();
    heap.pop_back();
    const auto s = static_cast<std::size_t>(e.state);
    if (e.g > slots[s].dist) continue;  // stale entry
    ++expansions;
    const std::size_t pi = s / kDirs;
    const int dir = static_cast<int>(s % kDirs);
    if (st.target[pi] == stamp) {
      goal_state = e.state;
      break;
    }

    // Planar moves.
    for (int d = 0; d < 4; ++d) {
      const int nx = e.x + kDx[d], ny = e.y + kDy[d];
      if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
      const std::size_t npi = pi + static_cast<std::size_t>(step_of[d]);
      const int v = cells[npi];
      if (v != Occupancy::kFree && v != net_id) continue;
      const bool own = v == net_id;
      double step = own ? 0.0 : costs.wire;
      if (!own && extra) step += extra[npi];
      if (costs.preferred_directions && !own) {
        // Layer 0 prefers horizontal (d 0/1); layer 1 vertical (d 2/3).
        const bool preferred = e.layer == 0 ? d < 2 : d >= 2;
        if (!preferred) step += costs.wrong_way;
      }
      if (dir < 4 && dir != d) step += costs.bend;
      push(npi, d, e.g + step, e.state, nx, ny, e.layer);
    }
    // Via move.
    for (int dl = -1; dl <= 1; dl += 2) {
      const int nl = e.layer + dl;
      if (nl < 0 || nl >= layers) continue;
      const std::size_t npi = dl < 0 ? pi - plane : pi + plane;
      const int v = cells[npi];
      if (v != Occupancy::kFree && v != net_id) continue;
      const bool own = v == net_id;
      double step = own ? 0.0 : costs.via;
      if (!own && extra) step += extra[npi];
      push(npi, 4, e.g + step, e.state, e.x, e.y, nl);
    }
  }
  if (goal_state < 0) return std::nullopt;

  PathResult res;
  res.cost = slots[static_cast<std::size_t>(goal_state)].dist;
  res.expansions = expansions;
  for (int s = goal_state; s >= 0; s = slots[static_cast<std::size_t>(s)].parent) {
    const std::size_t pi = static_cast<std::size_t>(s) / kDirs;
    const std::size_t xy = pi % plane;
    res.cells.push_back({static_cast<int>(xy % static_cast<std::size_t>(w)),
                         static_cast<int>(xy / static_cast<std::size_t>(w)),
                         static_cast<int>(pi / plane)});
  }
  std::reverse(res.cells.begin(), res.cells.end());
  // Source cells reached at zero cost may duplicate when the path touches
  // the net's own tree; dedupe consecutive repeats.
  res.cells.erase(std::unique(res.cells.begin(), res.cells.end()),
                  res.cells.end());
  return res;
}

}  // namespace l2l::route
