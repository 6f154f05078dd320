// The engine facades' shared cache contract, facade by facade: a cold
// call computes, a warm call replays every result field, and each way of
// opting out (use_cache = false, a wall-clock limit, an external Budget)
// bypasses the cache without a lookup or an insert. The hostile half
// plants checksum-valid but lying disk entries -- any process sharing
// L2L_CACHE_DIR can write one -- and requires a plain miss, never a
// throw.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "api/axb.hpp"
#include "api/bdd.hpp"
#include "api/espresso.hpp"
#include "api/grade.hpp"
#include "api/mls.hpp"
#include "api/place.hpp"
#include "api/route.hpp"
#include "api/sat.hpp"
#include "cache/cache.hpp"
#include "gen/placement_gen.hpp"
#include "gen/routing_gen.hpp"
#include "grader/place_grader.hpp"
#include "network/blif.hpp"
#include "place/wirelength.hpp"
#include "route/solution.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace l2l {
namespace {

namespace fs = std::filesystem;

constexpr const char* kBlif =
    ".model t\n.inputs a b c d\n.outputs f g\n"
    ".names a b c f\n11- 1\n1-1 1\n"
    ".names a b d g\n11- 1\n1-1 1\n-11 1\n.end\n";

class ApiCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cache::set_enabled(true);
    saved_dir_ = cache::Cache::global().disk_dir();
    cache::Cache::global().set_disk_dir("");
    cache::Cache::global().clear();
  }
  void TearDown() override {
    cache::Cache::global().clear();
    cache::Cache::global().set_disk_dir(saved_dir_);
  }

 private:
  std::string saved_dir_;
};

/// Calls `call` on a cold cache, then again; returns {cold, warm}.
template <class Call>
auto cold_warm(Call call) {
  cache::Cache::global().clear();
  auto cold = call();
  auto warm = call();
  EXPECT_FALSE(cold.cached);
  EXPECT_TRUE(warm.cached);
  return std::pair{std::move(cold), std::move(warm)};
}

/// `call` must bypass the cache even though an entry for the same input
/// exists: not replayed, and no lookup, miss or insert counted.
template <class Call>
void expect_bypass(Call call) {
  const auto before = cache::Cache::global().stats();
  const auto res = call();
  const auto after = cache::Cache::global().stats();
  EXPECT_FALSE(res.cached);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.inserts, before.inserts);
}

void expect_same(const util::Status& a, const util::Status& b) {
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.message, b.message);
}

void expect_same(const std::vector<util::Diagnostic>& a,
                 const std::vector<util::Diagnostic>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].severity, b[k].severity);
    EXPECT_EQ(a[k].line, b[k].line);
    EXPECT_EQ(a[k].column, b[k].column);
    EXPECT_EQ(a[k].message, b[k].message);
  }
}

void expect_same(const mls::ScriptStats& a, const mls::ScriptStats& b) {
  EXPECT_EQ(a.literals_before, b.literals_before);
  EXPECT_EQ(a.literals_after, b.literals_after);
  EXPECT_EQ(a.nodes_before, b.nodes_before);
  EXPECT_EQ(a.nodes_after, b.nodes_after);
  EXPECT_EQ(a.swept, b.swept);
  EXPECT_EQ(a.eliminated, b.eliminated);
  EXPECT_EQ(a.kernels_extracted, b.kernels_extracted);
  EXPECT_EQ(a.cubes_extracted, b.cubes_extracted);
  EXPECT_EQ(a.resubstitutions, b.resubstitutions);
}

void expect_same(const route::RouteSolution& a, const route::RouteSolution& b) {
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t k = 0; k < a.nets.size(); ++k) {
    EXPECT_EQ(a.nets[k].net_id, b.nets[k].net_id);
    EXPECT_EQ(a.nets[k].routed, b.nets[k].routed);
    EXPECT_EQ(a.nets[k].cells, b.nets[k].cells);
  }
  EXPECT_EQ(a.stats.routed, b.stats.routed);
  EXPECT_EQ(a.stats.failed, b.stats.failed);
  EXPECT_EQ(a.stats.ripups, b.stats.ripups);
  EXPECT_EQ(a.stats.negotiation_iterations, b.stats.negotiation_iterations);
  EXPECT_EQ(a.stats.total_wire, b.stats.total_wire);
  EXPECT_EQ(a.stats.total_vias, b.stats.total_vias);
  EXPECT_EQ(a.stats.expansions, b.stats.expansions);
  expect_same(a.status, b.status);
}

void expect_same(const api::PlaceResult& a, const api::PlaceResult& b) {
  EXPECT_EQ(a.placement.col, b.placement.col);
  EXPECT_EQ(a.placement.row, b.placement.row);
  EXPECT_EQ(a.hpwl, b.hpwl);  // bit-exact: the payload stores raw doubles
}

gen::PlacementProblem place_problem() {
  util::Rng rng(301);
  gen::PlacementGenOptions opt;
  opt.num_cells = 40;
  return gen::generate_placement(opt, rng);
}

gen::RoutingProblem route_problem() {
  util::Rng rng(302);
  gen::RoutingGenOptions opt;
  opt.width = opt.height = 24;
  opt.num_nets = 8;
  opt.obstacle_fraction = 0.05;
  return gen::generate_routing(opt, rng);
}

TEST_F(ApiCacheTest, SatReplaysAndBypasses) {
  api::SatRequest req;
  req.dimacs = "p cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n";
  req.show_stats = true;
  const auto [cold, warm] = cold_warm([&] { return api::solve_sat(req); });
  EXPECT_EQ(warm.output, cold.output);
  EXPECT_EQ(warm.exit_code, cold.exit_code);
  expect_same(warm.status, cold.status);

  util::Budget budget;
  auto off = req;
  off.use_cache = false;
  expect_bypass([&] { return api::solve_sat(off); });
  auto timed = req;
  timed.time_limit_ms = 100000;
  expect_bypass([&] { return api::solve_sat(timed); });
  auto budgeted = req;
  budgeted.options.budget = &budget;
  expect_bypass([&] { return api::solve_sat(budgeted); });
}

TEST_F(ApiCacheTest, BddReplaysAndBypasses) {
  api::BddScriptRequest req;
  req.script = "var a b c\nf = a & b | c\nprint f\nsatcount f\n";
  const auto [cold, warm] =
      cold_warm([&] { return api::run_bdd_script(req); });
  EXPECT_EQ(warm.output, cold.output);
  EXPECT_EQ(warm.exit_code, cold.exit_code);
  expect_same(warm.status, cold.status);

  auto off = req;
  off.use_cache = false;
  expect_bypass([&] { return api::run_bdd_script(off); });
  auto timed = req;
  timed.time_limit_ms = 100000;
  expect_bypass([&] { return api::run_bdd_script(timed); });
}

TEST_F(ApiCacheTest, EspressoReplaysAndBypasses) {
  api::EspressoRequest req;
  req.pla = ".i 3\n.o 1\n111 1\n110 1\n011 1\n001 1\n.e\n";
  req.show_stats = true;
  const auto [cold, warm] = cold_warm([&] { return api::minimize_pla(req); });
  EXPECT_EQ(warm.output, cold.output);
  EXPECT_EQ(warm.stats_output, cold.stats_output);
  EXPECT_EQ(warm.exit_code, cold.exit_code);
  expect_same(warm.status, cold.status);

  auto off = req;
  off.use_cache = false;
  expect_bypass([&] { return api::minimize_pla(off); });
  auto timed = req;
  timed.time_limit_ms = 100000;
  expect_bypass([&] { return api::minimize_pla(timed); });
}

TEST_F(ApiCacheTest, AxbReplaysAndBypasses) {
  api::AxbRequest req;
  req.input = "2\n4 1\n1 3\n1 2\n";
  req.use_cg = true;
  const auto [cold, warm] = cold_warm([&] { return api::solve_axb(req); });
  EXPECT_EQ(warm.output, cold.output);
  EXPECT_EQ(warm.error_output, cold.error_output);
  EXPECT_EQ(warm.exit_code, cold.exit_code);
  expect_same(warm.status, cold.status);

  auto off = req;
  off.use_cache = false;
  expect_bypass([&] { return api::solve_axb(off); });
  auto timed = req;
  timed.time_limit_ms = 100000;
  expect_bypass([&] { return api::solve_axb(timed); });
}

TEST_F(ApiCacheTest, OptimizeBlifReplaysAndBypasses) {
  api::MlsRequest req;
  req.blif = kBlif;
  const auto [cold, warm] = cold_warm([&] { return api::optimize_blif(req); });
  ASSERT_TRUE(cold.status.ok()) << cold.status.to_string();
  EXPECT_EQ(warm.blif, cold.blif);
  expect_same(warm.stats, cold.stats);
  expect_same(warm.status, cold.status);

  auto off = req;
  off.use_cache = false;
  expect_bypass([&] { return api::optimize_blif(off); });
  auto timed = req;
  timed.time_limit_ms = 100000;
  expect_bypass([&] { return api::optimize_blif(timed); });
}

TEST_F(ApiCacheTest, OptimizeBlifNeverStoresAParseFailure) {
  // The stored payload (BLIF + stats) has no status field: a stored
  // failure would replay as an empty success.
  api::MlsRequest req;
  req.blif = ".model broken\n.inputs a\n.outputs f\n.names a q f\n1\n.end\n";
  const auto before = cache::Cache::global().stats();
  for (int call = 0; call < 2; ++call) {
    const auto res = api::optimize_blif(req);
    EXPECT_EQ(res.status.code, util::StatusCode::kParseError) << "call " << call;
    EXPECT_FALSE(res.cached) << "call " << call;
  }
  EXPECT_EQ(cache::Cache::global().stats().inserts, before.inserts);
}

TEST_F(ApiCacheTest, OptimizeNetworkReplaysAndBypasses) {
  struct Run {
    api::MlsNetworkResult res;
    std::string blif;
    bool cached;
  };
  auto run = [](bool use_cache) {
    network::Network net = network::parse_blif(kBlif);
    const auto res =
        api::optimize_network(net, mls::ScriptOptions{}, use_cache);
    return Run{res, network::write_blif(net), res.cached};
  };
  const auto [cold, warm] = cold_warm([&] { return run(true); });
  EXPECT_EQ(warm.blif, cold.blif);
  expect_same(warm.res.stats, cold.res.stats);
  expect_bypass([&] { return run(false); });
}

TEST_F(ApiCacheTest, PlaceReplaysAndBypasses) {
  const auto p = place_problem();
  api::PlaceRequest req;
  req.grid = place::Grid{8, 8, p.width, p.height};
  const auto [cold, warm] =
      cold_warm([&] { return api::place_and_legalize(p, req); });
  expect_same(warm, cold);

  util::Budget budget;
  auto off = req;
  off.use_cache = false;
  expect_bypass([&] { return api::place_and_legalize(p, off); });
  auto timed = req;
  timed.time_limit_ms = 100000;
  expect_bypass([&] { return api::place_and_legalize(p, timed); });
  auto budgeted = req;
  budgeted.options.budget = &budget;
  expect_bypass([&] { return api::place_and_legalize(p, budgeted); });
}

TEST_F(ApiCacheTest, RouteReplaysAndBypasses) {
  const auto p = route_problem();
  api::RouteRequest req;
  const auto [cold, warm] = cold_warm([&] { return api::route_nets(p, req); });
  expect_same(warm.solution, cold.solution);

  util::Budget budget;
  auto off = req;
  off.use_cache = false;
  expect_bypass([&] { return api::route_nets(p, off); });
  auto timed = req;
  timed.time_limit_ms = 100000;
  expect_bypass([&] { return api::route_nets(p, timed); });
  auto budgeted = req;
  budgeted.options.budget = &budget;
  expect_bypass([&] { return api::route_nets(p, budgeted); });
}

TEST_F(ApiCacheTest, RouteGradeReplaysAndBypasses) {
  const auto p = route_problem();
  api::RouteGradeRequest req;
  req.submission = route::write_solution(route::route_all(p));
  req.submission += "garbage line\n";  // a diagnostic to replay too
  const auto [cold, warm] =
      cold_warm([&] { return api::grade_route_submission(p, req); });
  const auto& a = warm.grade;
  const auto& b = cold.grade;
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t k = 0; k < a.nets.size(); ++k) {
    EXPECT_EQ(a.nets[k].net_id, b.nets[k].net_id);
    EXPECT_EQ(a.nets[k].legal, b.nets[k].legal);
    EXPECT_EQ(a.nets[k].reason, b.nets[k].reason);
    EXPECT_EQ(a.nets[k].wirelength, b.nets[k].wirelength);
    EXPECT_EQ(a.nets[k].vias, b.nets[k].vias);
  }
  EXPECT_EQ(a.legal_nets, b.legal_nets);
  EXPECT_EQ(a.total_nets, b.total_nets);
  EXPECT_EQ(a.total_wirelength, b.total_wirelength);
  EXPECT_EQ(a.total_vias, b.total_vias);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.report, b.report);
  expect_same(a.diagnostics, b.diagnostics);
  expect_same(a.lint, b.lint);
  expect_same(a.sema, b.sema);
  expect_same(a.status, b.status);

  auto off = req;
  off.use_cache = false;
  expect_bypass([&] { return api::grade_route_submission(p, off); });
  auto timed = req;
  timed.time_limit_ms = 100000;
  expect_bypass([&] { return api::grade_route_submission(p, timed); });
}

TEST_F(ApiCacheTest, PlaceGradeReplaysAndBypasses) {
  const auto p = place_problem();
  const place::Grid grid{8, 8, p.width, p.height};
  api::PlaceRequest preq;
  preq.grid = grid;
  preq.use_cache = false;
  const auto placed = api::place_and_legalize(p, preq);
  api::PlaceGradeRequest req;
  req.submission = grader::write_placement_text(placed.placement);
  req.reference_hpwl = placed.hpwl * 0.9;
  const auto [cold, warm] = cold_warm(
      [&] { return api::grade_place_submission(p, grid, req); });
  const auto& a = warm.grade;
  const auto& b = cold.grade;
  EXPECT_EQ(a.legal, b.legal);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.hpwl, b.hpwl);
  EXPECT_EQ(a.quality_ratio, b.quality_ratio);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.report, b.report);
  expect_same(a.diagnostics, b.diagnostics);
  expect_same(a.lint, b.lint);
  expect_same(a.sema, b.sema);
  expect_same(a.status, b.status);

  auto off = req;
  off.use_cache = false;
  expect_bypass([&] { return api::grade_place_submission(p, grid, off); });
  auto timed = req;
  timed.time_limit_ms = 100000;
  expect_bypass([&] { return api::grade_place_submission(p, grid, timed); });
}

// ---- planted disk entries ------------------------------------------------

/// A scratch cache directory, installed as the global disk tier. Each test
/// names its own, so concurrent ctest jobs never share one.
class PlantedEntryTest : public ApiCacheTest {
 protected:
  void SetUp() override {
    ApiCacheTest::SetUp();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("l2l_api_test_planted_") + info->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    cache::Cache::global().set_disk_dir(dir_);
  }
  void TearDown() override {
    ApiCacheTest::TearDown();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Rewrites the one `engine` entry on disk to carry `payload`, with a
  /// header and checksum that pass validation, then empties the memory
  /// tier so the next lookup reads it.
  void plant(const std::string& engine, const std::string& payload) {
    for (const auto& e : fs::directory_iterator(dir_)) {
      const std::string name = e.path().filename().string();
      if (name.rfind(engine + "-", 0) != 0 || e.path().extension() != ".l2lc")
        continue;
      std::ifstream in(e.path(), std::ios::binary);
      std::string header, line;
      for (int k = 0; k < 4 && std::getline(in, line); ++k)
        header += line + "\n";  // magic, engine, input, config
      in.close();
      const cache::Digest128 d = cache::digest_bytes(payload);
      std::ofstream out(e.path(), std::ios::binary | std::ios::trunc);
      out << header << "bytes " << payload.size() << "\ncheck "
          << cache::Digest128{0, d.lo}.hex().substr(16) << "\n"
          << payload;
      out.close();
      cache::Cache::global().clear();
      return;
    }
    ADD_FAILURE() << "no " << engine << " entry under " << dir_;
  }

  std::string dir_;
};

constexpr std::int64_t kHugeCount = 9'000'000'000'000'000'000;

TEST_F(PlantedEntryTest, HugePlaceCountIsAMissNotACrash) {
  const auto p = place_problem();
  api::PlaceRequest req;
  req.grid = place::Grid{8, 8, p.width, p.height};
  const auto cold = api::place_and_legalize(p, req);
  ASSERT_FALSE(cold.cached);

  std::string payload;
  cache::append_i64(payload, kHugeCount);
  plant("place", payload);
  api::PlaceResult res;
  EXPECT_NO_THROW(res = api::place_and_legalize(p, req));
  EXPECT_FALSE(res.cached);
  expect_same(res, cold);
}

TEST_F(PlantedEntryTest, HugeRouteCountsAreAMissNotACrash) {
  const auto p = route_problem();
  api::RouteRequest req;
  const auto cold = api::route_nets(p, req);
  ASSERT_FALSE(cold.cached);

  std::string huge_nets;
  cache::append_i64(huge_nets, kHugeCount);
  std::string huge_cells;  // one net (id 0, routed) claiming kHugeCount cells
  for (const std::int64_t v : {std::int64_t{1}, std::int64_t{0},
                               std::int64_t{1}, kHugeCount})
    cache::append_i64(huge_cells, v);
  for (const auto& payload : {huge_nets, huge_cells}) {
    plant("route", payload);
    api::RouteResult res;
    EXPECT_NO_THROW(res = api::route_nets(p, req));
    EXPECT_FALSE(res.cached);
    expect_same(res.solution, cold.solution);
  }
}

TEST_F(PlantedEntryTest, UnparsableMlsNetworkIsAMissNotACrash) {
  auto run = [] {
    network::Network net = network::parse_blif(kBlif);
    const auto res = api::optimize_network(net, mls::ScriptOptions{});
    return std::pair{res, network::write_blif(net)};
  };
  const auto [cold, cold_blif] = run();
  ASSERT_FALSE(cold.cached);

  std::string payload;  // BLIF with an undriven signal, then zeroed stats
  cache::append_record(payload,
                       ".model x\n.inputs a\n.outputs f\n.names a q f\n1\n.end\n");
  for (int k = 0; k < 9; ++k) cache::append_i64(payload, 0);
  plant("mls", payload);
  std::pair<api::MlsNetworkResult, std::string> warm;
  EXPECT_NO_THROW(warm = run());
  EXPECT_FALSE(warm.first.cached);
  EXPECT_EQ(warm.second, cold_blif);
  expect_same(warm.first.stats, cold.stats);
}

}  // namespace
}  // namespace l2l
