#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "flow/flow.hpp"
#include "gen/function_gen.hpp"
#include "geom/drc.hpp"
#include "geom/extract.hpp"
#include "grader/place_grader.hpp"
#include "grader/route_grader.hpp"
#include "network/blif.hpp"
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

// A routing grid with fewer points than the design has pins is an invalid
// option: run_flow refuses it before placement instead of failing inside
// the routing-problem construction.
TEST(Flow, RoutingGridTooSmallForPinsIsInvalid) {
  std::ifstream in(std::string(L2L_REPO_DATA_DIR) + "/fulladder.blif");
  ASSERT_TRUE(in) << "cannot read data/fulladder.blif";
  std::stringstream text;
  text << in.rdbuf();
  const auto net = network::parse_blif(text.str());
  struct Case {
    int grid, margin;
  };
  for (const Case c : {Case{1, 0}, Case{1, 100}, Case{0, 100}, Case{-1, 100}}) {
    FlowOptions opt;
    opt.route_grid_per_site = c.grid;
    opt.grid_margin_percent = c.margin;
    const auto res = run_flow(net, opt);
    EXPECT_EQ(res.status.code, util::StatusCode::kInvalidInput)
        << "grid " << c.grid << " margin " << c.margin << ": "
        << res.status.message;
    EXPECT_NE(res.status.message.find("pins"), std::string::npos)
        << res.status.message;
    EXPECT_EQ(res.stopped_stage, "placement");
    EXPECT_TRUE(res.placement.col.empty()) << "placement ran";
  }
  // Enough spare sites give one grid point per pin: the run gets past
  // the check and builds the routing problem.
  FlowOptions roomy;
  roomy.route_grid_per_site = 1;
  roomy.grid_margin_percent = 400;
  const auto res = run_flow(net, roomy);
  EXPECT_NE(res.status.code, util::StatusCode::kInvalidInput)
      << res.status.message;
  EXPECT_FALSE(res.routing_problem.nets.empty());
}

}  // namespace
}  // namespace l2l::flow
