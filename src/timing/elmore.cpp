#include "timing/elmore.hpp"

#include <map>
#include <queue>
#include <set>
#include <stdexcept>

namespace l2l::timing {

void RcTree::validate() const {
  if (nodes.empty()) throw std::logic_error("RcTree: empty");
  if (nodes[0].parent != -1) throw std::logic_error("RcTree: bad root");
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i].parent < 0 || static_cast<std::size_t>(nodes[i].parent) >= i)
      throw std::logic_error("RcTree: parents must precede children");
  }
}

std::vector<double> elmore_delays(const RcTree& tree) {
  tree.validate();
  const std::size_t n = tree.nodes.size();
  // Downstream capacitance per node: children-first accumulation.
  std::vector<double> cdown(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) cdown[i] = tree.nodes[i].capacitance;
  for (std::size_t i = n; i-- > 1;)
    cdown[static_cast<std::size_t>(tree.nodes[i].parent)] += cdown[i];
  // delay(i) = delay(parent) + R_i * cdown(i).
  std::vector<double> delay(n, 0.0);
  for (std::size_t i = 1; i < n; ++i)
    delay[i] = delay[static_cast<std::size_t>(tree.nodes[i].parent)] +
               tree.nodes[i].resistance * cdown[i];
  return delay;
}

double total_capacitance(const RcTree& tree) {
  double c = 0.0;
  for (const auto& n : tree.nodes) c += n.capacitance;
  return c;
}

namespace {

/// The RC tree of a routed net plus the tree node of every net cell.
struct RouteTree {
  RcTree tree;
  std::map<route::GridPoint, int> index;  // grid cell -> tree node
};

RouteTree build_route_tree(const route::NetRoute& net,
                           const route::GridPoint& source,
                           const std::vector<route::GridPoint>& sinks,
                           const WireParasitics& par) {
  RouteTree rt;
  auto& [tree, index] = rt;

  std::map<route::GridPoint, double> extra_cap;
  for (const auto& s : sinks) extra_cap[s] += par.sink_c;

  // BFS from the source over the net's cells.
  const std::set<route::GridPoint> in_net(net.cells.begin(), net.cells.end());
  if (!in_net.count(source))
    throw std::invalid_argument("rc_tree_from_route: source not on net");

  auto add_node = [&](const route::GridPoint& g, int parent, bool via) {
    RcTree::RcNode n;
    n.parent = parent;
    n.resistance = parent < 0 ? 0.0 : (via ? par.via_r : par.r_per_unit);
    n.capacitance = parent < 0 ? 0.0 : (via ? par.via_c : par.c_per_unit);
    if (const auto it = extra_cap.find(g); it != extra_cap.end())
      n.capacitance += it->second;
    tree.nodes.push_back(n);
    index[g] = static_cast<int>(tree.nodes.size()) - 1;
  };

  std::queue<route::GridPoint> frontier;
  add_node(source, -1, false);
  frontier.push(source);
  while (!frontier.empty()) {
    const auto here = frontier.front();
    frontier.pop();
    const int here_idx = index[here];
    const route::GridPoint nbrs[6] = {
        {here.x + 1, here.y, here.layer}, {here.x - 1, here.y, here.layer},
        {here.x, here.y + 1, here.layer}, {here.x, here.y - 1, here.layer},
        {here.x, here.y, here.layer + 1}, {here.x, here.y, here.layer - 1}};
    for (int k = 0; k < 6; ++k) {
      const auto& nb = nbrs[k];
      if (!in_net.count(nb) || index.count(nb)) continue;
      add_node(nb, here_idx, /*via=*/k >= 4);
      frontier.push(nb);
    }
  }
  if (index.size() != in_net.size())
    throw std::invalid_argument("rc_tree_from_route: net is not connected");
  for (const auto& s : sinks)
    if (!index.count(s))
      throw std::invalid_argument("rc_tree_from_route: sink not on net");
  return rt;
}

}  // namespace

RcTree rc_tree_from_route(const route::NetRoute& net,
                          const route::GridPoint& source,
                          const std::vector<route::GridPoint>& sinks,
                          const WireParasitics& par) {
  return build_route_tree(net, source, sinks, par).tree;
}

std::vector<double> net_sink_delays(const route::NetRoute& net,
                                    const route::GridPoint& source,
                                    const std::vector<route::GridPoint>& sinks,
                                    const WireParasitics& par) {
  const auto rt = build_route_tree(net, source, sinks, par);
  const auto delays = elmore_delays(rt.tree);
  std::vector<double> out;
  out.reserve(sinks.size());
  for (const auto& s : sinks)
    out.push_back(delays[static_cast<std::size_t>(rt.index.at(s))]);
  return out;
}

}  // namespace l2l::timing
