// Result-cache benchmarks: what a content-addressed hit costs (the
// latency every deduplicated submission pays instead of a grade), digest
// throughput over realistic submission sizes, and the headline workload
// from DESIGN.md "Caching & dedup" -- a 1000-submission grading-service
// drain where 90% of uploads are duplicates, cold vs warm vs kill-switch.
// The warm drain is the number the ROADMAP's "never compute the same
// answer twice" line rests on.

#include <benchmark/benchmark.h>

#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/digest.hpp"
#include "mooc/grading_service.hpp"
#include "util/budget.hpp"
#include "util/parallel.hpp"

namespace {

using namespace l2l;

void BM_DigestThroughput(benchmark::State& state) {
  const std::string text(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    auto d = cache::digest_bytes(text);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_DigestThroughput)->Range(64, 1 << 16);

void BM_CacheHitLatency(benchmark::State& state) {
  cache::Cache c;
  const cache::CacheKey key{"bench", cache::digest_bytes("submission"),
                            cache::digest_bytes("config")};
  c.insert(key, std::string(256, 'r'));
  for (auto _ : state) {
    auto hit = c.lookup(key);
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitLatency);

void BM_CacheMissLatency(benchmark::State& state) {
  cache::Cache c;
  std::uint64_t salt = 0;
  for (auto _ : state) {
    cache::Hasher h;
    h.u64(++salt);
    const cache::CacheKey key{"bench", h.finish(), cache::Digest128{}};
    auto miss = c.lookup(key);
    benchmark::DoNotOptimize(miss);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissLatency);

// ---- the 90%-duplicates service drain -----------------------------------

constexpr int kUnique = 100;
constexpr int kCopies = 10;

/// 1000 submissions, 100 unique (every upload repeated 10x) -- the shape
/// of a cohort resubmitting around a deadline. Each body is a few hundred
/// bytes so digesting is realistic, not free. Upload i arrives at tick
/// i / 100: each tick carries every unique body once, so each copy lands
/// on a later tick than the first, where the service's dedup memo (or the
/// warm cache) replays it.
mooc::SubmissionTrace duplicate_heavy_trace() {
  mooc::SubmissionTrace trace;
  trace.num_courses = 1;
  trace.ticks = kCopies;
  for (int i = 0; i < kUnique * kCopies; ++i) {
    const int u = i % kUnique;
    trace.bodies.push_back("solution variant " + std::to_string(u) + "\n" +
                           std::string(300, static_cast<char>('a' + u % 26)));
    mooc::SubmissionEvent ev;
    ev.body = static_cast<std::uint32_t>(i);
    ev.arrival_tick = static_cast<std::uint32_t>(i / kUnique);
    ev.deadline_tick = kCopies;
    trace.events.push_back(ev);
  }
  return trace;
}

/// A deliberately non-trivial grade: re-digests the submission 64 times,
/// standing in for a real grader's parse+verify pass. Deterministic, so
/// the cache may replay it.
double slow_grade(const std::string& s, const util::Budget&) {
  cache::Digest128 d = cache::digest_bytes(s);
  for (int r = 0; r < 64; ++r) {
    cache::Hasher h;
    h.u64(d.hi).u64(d.lo).str(s);
    d = h.finish();
  }
  return static_cast<double>(d.lo % 101);
}

/// Bounds that admit and serve a whole tick at once, and a breaker that
/// never trips: the service as a plain batch drain.
mooc::GradingService bench_service() {
  mooc::ServiceOptions opt;
  opt.queue_cap = opt.admit_quota = opt.service_rate = kUnique;
  opt.breaker_threshold = INT_MAX;
  opt.queue.cache_domain = "bench.service";
  return mooc::GradingService(opt, slow_grade);
}

void BM_QueueDrainColdCache(benchmark::State& state) {
  const auto trace = duplicate_heavy_trace();
  const auto service = bench_service();
  for (auto _ : state) {
    cache::Cache::global().clear();  // every drain starts cold
    auto res = service.run(trace);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events.size()));
  cache::Cache::global().clear();
}
BENCHMARK(BM_QueueDrainColdCache)->Unit(benchmark::kMillisecond);

void BM_QueueDrainWarmCache(benchmark::State& state) {
  const auto trace = duplicate_heavy_trace();
  const auto service = bench_service();
  cache::Cache::global().clear();
  {
    auto prefill = service.run(trace);
    benchmark::DoNotOptimize(prefill);
  }
  for (auto _ : state) {
    auto res = service.run(trace);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events.size()));
  cache::Cache::global().clear();
}
BENCHMARK(BM_QueueDrainWarmCache)->Unit(benchmark::kMillisecond);

void BM_QueueDrainKillSwitch(benchmark::State& state) {
  // L2L_CACHE=0 equivalent: the grade-everything path, the baseline both
  // cached drains are measured against.
  const auto trace = duplicate_heavy_trace();
  const auto service = bench_service();
  cache::set_enabled(false);
  for (auto _ : state) {
    auto res = service.run(trace);
    benchmark::DoNotOptimize(res);
  }
  cache::set_enabled(true);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events.size()));
}
BENCHMARK(BM_QueueDrainKillSwitch)->Unit(benchmark::kMillisecond);

}  // namespace
