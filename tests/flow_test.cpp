#include <gtest/gtest.h>

#include "flow/flow.hpp"
#include "gen/function_gen.hpp"
#include "geom/drc.hpp"
#include "geom/extract.hpp"
#include "grader/place_grader.hpp"
#include "grader/route_grader.hpp"
#include "network/equivalence.hpp"
#include "util/rng.hpp"

namespace l2l::flow {
namespace {

TEST(Flow, AdderEndToEnd) {
  const auto net = gen::adder_network(3);
  const auto res = run_flow(net);

  // Synthesis did not grow the network.
  EXPECT_LE(res.literals_after, res.literals_before);
  // Mapping is functionally correct.
  EXPECT_TRUE(network::check_equivalence(net, res.mapped.netlist,
                                         network::EquivalenceMethod::kBdd)
                  .equivalent);
  // Placement is legal.
  EXPECT_TRUE(place::is_legal(res.placement, res.grid));
  EXPECT_GT(res.hpwl, 0.0);
  // Routing is fully legal by the auto-grader's standards.
  const auto rg = grader::grade_routing(res.routing_problem, res.routing);
  EXPECT_EQ(rg.legal_nets, rg.total_nets) << rg.report;
  // Timing includes both gate and wire contributions.
  EXPECT_GE(res.timing.critical_delay, res.gate_delay);
  EXPECT_GT(res.worst_wire_delay, 0.0);
  EXPECT_FALSE(res.report().empty());
  // Physical verification: DRC clean and LVS matches the intended nets.
  const auto drc = geom::check_drc(res.routing);
  EXPECT_TRUE(drc.clean()) << drc.report();
  const auto lvs = geom::lvs(res.routing_problem, res.routing);
  EXPECT_TRUE(lvs.clean) << lvs.report();
}

TEST(Flow, ParityTree) {
  const auto net = gen::parity_network(6);
  const auto res = run_flow(net);
  EXPECT_TRUE(network::check_equivalence(net, res.mapped.netlist,
                                         network::EquivalenceMethod::kSat)
                  .equivalent);
  const auto rg = grader::grade_routing(res.routing_problem, res.routing);
  EXPECT_EQ(rg.legal_nets, rg.total_nets) << rg.report;
}

TEST(Flow, DelayObjectiveNoWorseGateDelay) {
  const auto net = gen::adder_network(3);
  FlowOptions area;
  FlowOptions delay;
  delay.objective = techmap::MapObjective::kDelay;
  const auto ra = run_flow(net, area);
  const auto rd = run_flow(net, delay);
  EXPECT_LE(rd.mapped.critical_delay, ra.mapped.critical_delay + 1e-9);
}

TEST(Flow, RandomNetworksSurviveWholeFlow) {
  util::Rng rng(171);
  gen::NetworkGenOptions gopt;
  gopt.num_inputs = 6;
  gopt.num_nodes = 12;
  gopt.num_outputs = 3;
  for (int trial = 0; trial < 3; ++trial) {
    const auto net = gen::random_network(gopt, rng);
    const auto res = run_flow(net);
    EXPECT_TRUE(network::check_equivalence(net, res.mapped.netlist,
                                           network::EquivalenceMethod::kBdd)
                    .equivalent)
        << "trial " << trial;
    EXPECT_TRUE(place::is_legal(res.placement, res.grid));
    const auto rg = grader::grade_routing(res.routing_problem, res.routing);
    EXPECT_EQ(rg.legal_nets, rg.total_nets) << rg.report;
  }
}

TEST(Flow, OptimizationCanBeDisabled) {
  const auto net = gen::adder_network(2);
  FlowOptions opt;
  opt.optimize_logic = false;
  const auto res = run_flow(net, opt);
  EXPECT_EQ(res.literals_after, res.literals_before);
}

// A layout with an unrouted net must not report success. Two routing
// tracks per site and no spare sites congest small designs until the
// router gives up on a net; every such run has to say so and stop
// before timing.
TEST(Flow, UnroutedNetIsAnError) {
  FlowOptions opt;
  opt.route_grid_per_site = 2;
  opt.grid_margin_percent = 0;
  std::vector<network::Network> designs;
  for (int bits = 2; bits <= 5; ++bits) {
    designs.push_back(gen::parity_network(bits));
    designs.push_back(gen::adder_network(bits - 1));
  }
  int unrouted_runs = 0;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const auto res = run_flow(designs[d], opt);
    if (res.routing.stats.failed == 0) {
      EXPECT_TRUE(res.status.ok()) << "design " << d << ": " << res.status.message;
      continue;
    }
    ++unrouted_runs;
    EXPECT_EQ(res.status.code, util::StatusCode::kInternalError) << "design " << d;
    EXPECT_NE(res.status.message.find("unrouted"), std::string::npos)
        << res.status.message;
    EXPECT_EQ(res.stopped_stage, "routing");
    EXPECT_EQ(res.timing.critical_delay, 0.0) << "timing ran on a broken layout";
  }
  EXPECT_GT(unrouted_runs, 0) << "no design congested enough to leave a net unrouted";
}

}  // namespace
}  // namespace l2l::flow
