// Journal-layer microbenchmarks (mooc/journal.hpp, mooc/shard_map.hpp):
// what the crash-recovery machinery itself costs, isolated from the
// grading loop it protects. Three questions:
//
//   * append -- frames/sec through JournalWriter with a once-per-tick
//     flush cadence (the write path every journaled drain pays);
//   * scan   -- bytes/sec through scan_journal's CRC-checked frame walk
//     (the recovery path's startup cost);
//   * ring   -- ShardMap course-ownership lookups/sec (paid per arrival
//     in sharded runs).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "mooc/grading_service.hpp"
#include "mooc/journal.hpp"
#include "mooc/shard_map.hpp"
#include "util/status.hpp"

namespace {

using namespace l2l;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

mooc::JournalHeader bench_header() {
  mooc::JournalHeader h;
  h.num_events = 1 << 20;
  return h;
}

/// A representative graded outcome: a couple of attempts, a short
/// diagnostic -- the frame size the write path sees in the wild.
mooc::SubmissionOutcome bench_outcome() {
  mooc::SubmissionOutcome out;
  out.kind = mooc::OutcomeKind::kGraded;
  out.score = 87.0;
  out.attempts = 2;
  out.status = util::Status::okay();
  return out;
}

/// Append throughput: ticks of 64 outcome frames plus the begin/end
/// marks, flushed per tick like the service does.
void BM_JournalAppend(benchmark::State& state) {
  const auto path = temp_path("l2l_perf_journal_append.l2lj");
  const auto out = bench_outcome();
  const mooc::FaultTally tally;
  constexpr int kPerTick = 64;
  std::int64_t frames = 0;
  for (auto _ : state) {
    state.PauseTiming();
    mooc::JournalWriter writer;
    if (const auto st = writer.open(path, bench_header(), false); !st.ok()) {
      state.SkipWithError(st.to_string().c_str());
      break;
    }
    state.ResumeTiming();
    for (std::uint32_t tick = 0; tick < 64; ++tick) {
      writer.tick_begin(tick);
      for (int i = 0; i < kPerTick; ++i)
        writer.outcome(static_cast<std::uint64_t>(tick) * kPerTick + i,
                       mooc::Disposition::kGraded, 0, false, false, out,
                       tally);
      if (const auto st = writer.tick_end(tick, 0x1234u + tick); !st.ok()) {
        state.SkipWithError(st.to_string().c_str());
        break;
      }
      frames += kPerTick + 2;
    }
    benchmark::DoNotOptimize(writer.bytes_written());
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  state.SetItemsProcessed(frames);
  state.counters["frames_per_tick"] = kPerTick + 2;
}
BENCHMARK(BM_JournalAppend)->Unit(benchmark::kMillisecond);

/// Scan/recovery read path: CRC-walk a complete journal of 64 ticks and
/// decode every frame.
void BM_JournalScan(benchmark::State& state) {
  const auto path = temp_path("l2l_perf_journal_scan.l2lj");
  const auto out = bench_outcome();
  const mooc::FaultTally tally;
  {
    mooc::JournalWriter writer;
    if (const auto st = writer.open(path, bench_header(), false); !st.ok()) {
      state.SkipWithError(st.to_string().c_str());
      return;
    }
    for (std::uint32_t tick = 0; tick < 64; ++tick) {
      writer.tick_begin(tick);
      for (int i = 0; i < 64; ++i)
        writer.outcome(static_cast<std::uint64_t>(tick) * 64 + i,
                       mooc::Disposition::kGraded, 0, false, false, out,
                       tally);
      (void)writer.tick_end(tick, 0x1234u + tick);
    }
  }
  std::error_code ec;
  const auto bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(path, ec));
  std::int64_t ticks = 0;
  for (auto _ : state) {
    const auto scan = mooc::scan_journal(path);
    if (!scan.status.ok() || !scan.found) {
      state.SkipWithError("scan failed");
      break;
    }
    ticks += static_cast<std::int64_t>(scan.ticks.size());
    benchmark::DoNotOptimize(scan.valid_bytes);
  }
  std::filesystem::remove(path, ec);
  state.SetBytesProcessed(state.iterations() * bytes);
  benchmark::DoNotOptimize(ticks);
}
BENCHMARK(BM_JournalScan)->Unit(benchmark::kMillisecond);

/// Ring lookup: the per-arrival cost of course ownership in a sharded
/// drain (binary search over num_shards * 64 points).
void BM_ShardMapLookup(benchmark::State& state) {
  const mooc::ShardMap map(static_cast<int>(state.range(0)));
  std::uint64_t acc = 0;
  std::uint32_t course = 0;
  for (auto _ : state) {
    acc += static_cast<std::uint64_t>(map.shard_for_course(course));
    course = (course + 1) & 0xfff;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardMapLookup)->Arg(4)->Arg(16);

}  // namespace
