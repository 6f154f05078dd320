#include "mooc/grading_service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "cache/cache.hpp"
#include "mooc/journal.hpp"
#include "mooc/shard_map.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace l2l::mooc {
namespace {

constexpr std::uint64_t kServiceFormatVersion = 1;

/// One queued submission. `id` is the trace-wide submission id -- it keys
/// the fault draws (so outcomes are schedule-independent), breaks every
/// EDF tie, and orders "newest" for the newest-first shed policy.
struct Entry {
  std::uint64_t id = 0;
  std::uint32_t body = 0;
  std::uint32_t arrival = 0;
  std::uint32_t deadline = 0;
  std::uint8_t lane = 0;
};

/// One priority lane of one course: an EDF index (deadline, id) plus the
/// id-ordered entry store. Both are ordered containers, so pops and
/// evictions are total-order decisions -- no hashing, no schedule input.
struct LaneQueue {
  std::set<std::pair<std::uint64_t, std::uint64_t>> edf;
  std::map<std::uint64_t, Entry> by_id;

  std::size_t size() const { return by_id.size(); }

  void insert(const Entry& e) {
    edf.emplace(e.deadline, e.id);
    by_id.emplace(e.id, e);
  }

  Entry take(std::uint64_t id) {
    auto it = by_id.find(id);
    Entry e = it->second;
    by_id.erase(it);
    edf.erase({e.deadline, e.id});
    return e;
  }

  /// Earliest deadline, ties to the smallest submission id.
  Entry pop_edf() { return take(edf.begin()->second); }

  /// The shed victim under `policy` (never called on an empty lane).
  Entry evict(ShedPolicy policy) {
    if (policy == ShedPolicy::kNewestFirst)
      return take(by_id.rbegin()->first);
    return pop_edf();  // oldest deadline
  }
};

struct CourseState {
  LaneQueue lanes[2];  // 0 = first submits, 1 = resubmits
  int admitted_this_tick = 0;
  // Circuit breaker.
  bool open = false;
  int consecutive = 0;
  std::uint64_t opened_tick = 0;

  std::size_t depth() const { return lanes[0].size() + lanes[1].size(); }

  /// Service order: the first-submit lane outranks resubmits.
  Entry pop() {
    return lanes[0].size() ? lanes[0].pop_edf() : lanes[1].pop_edf();
  }

  /// Shed order: resubmits go first; a first submit is only evicted when
  /// the resubmit lane is already empty.
  Entry evict(ShedPolicy policy) {
    return lanes[1].size() ? lanes[1].evict(policy) : lanes[0].evict(policy);
  }
};

/// splitmix64: the standard 64-bit finalizer. Good enough to turn
/// (seed, submission, attempt) into an independent uniform draw.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double uniform01(std::uint64_t seed, std::uint64_t submission,
                 std::uint64_t attempt, std::uint64_t salt) {
  std::uint64_t h = splitmix64(seed ^ splitmix64(submission ^ salt));
  h = splitmix64(h ^ attempt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Pre-grade lint: runs QueueOptions::lint (when set) and, on any
/// error-severity finding, fills `out` with the kRejected verdict and
/// returns true. Pure in the submission bytes, so verdicts replay.
bool lint_pre_grade_rejects(const std::string& submission,
                            const QueueOptions& opt, SubmissionOutcome& out) {
  if (!opt.lint) return false;
  const auto findings = opt.lint(submission);
  bool fatal = false;
  for (const auto& d : findings)
    fatal = fatal || d.severity == util::Severity::kError;
  if (!fatal) return false;
  out.kind = OutcomeKind::kRejected;
  out.status = util::Status::parse_error("rejected by lint");
  out.diagnostic =
      util::format("lint rejected the submission (%d finding(s)):\n",
                   static_cast<int>(findings.size())) +
      util::render_diagnostics(findings);
  return true;
}

/// One submission through the full attempt loop: injected faults, budget
/// guard, exception barrier, bounded retries with saturating exponential
/// backoff. Fault draws are keyed by `fault_key` (the trace-wide
/// submission id), so the outcome never depends on which worker lane
/// runs it.
void grade_one_submission(std::uint64_t fault_key,
                          const std::string& submission, const GradeFn& grade,
                          const QueueOptions& opt, SubmissionOutcome& out,
                          FaultTally& tally) {
  const int max_attempts = 1 + std::max(0, opt.max_retries);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ++out.attempts;
    if (attempt > 0) {
      // Exponential backoff with the shift clamped to 30 and the running
      // total saturated: at max_retries = 64 a naive `base << (attempt-1)`
      // shifts past the width of int (UB) long before the loop ends.
      const int shift = std::min(attempt - 1, 30);
      constexpr auto kMaxTicks =
          static_cast<std::int64_t>(std::numeric_limits<int>::max());
      const std::int64_t step = std::min(
          static_cast<std::int64_t>(opt.backoff_base_ticks) << shift,
          kMaxTicks);
      out.backoff_ticks = static_cast<int>(std::min(
          static_cast<std::int64_t>(out.backoff_ticks) + step, kMaxTicks));
    }

    // Injected worker faults, decided by hash alone so the outcome
    // is identical regardless of which lane runs this submission.
    const auto ui = fault_key;
    const auto ua = static_cast<std::uint64_t>(attempt);
    if (uniform01(opt.fault_seed, ui, ua, 0x7261776bull) <
        opt.transient_fault_rate) {
      ++tally.transients;
      out.status = util::Status::internal("injected transient fault");
      out.diagnostic =
          util::format("worker crashed on attempt %d (injected)", attempt + 1);
      continue;  // retry
    }
    if (uniform01(opt.fault_seed, ui, ua, 0x7374616cull) < opt.stall_rate) {
      ++tally.stalls;
      out.status = util::Status::timeout("injected worker stall");
      out.diagnostic =
          util::format("worker stalled on attempt %d (injected)", attempt + 1);
      continue;  // retry
    }

    util::Budget guard;
    if (opt.step_limit >= 0) guard.set_step_limit(opt.step_limit);
    if (opt.time_limit_ms >= 0) guard.set_deadline_ms(opt.time_limit_ms);
    try {
      const double score = grade(submission, guard);
      if (guard.exhausted()) {
        // Deterministic resource exhaustion: the same submission
        // would exhaust the same budget again, so don't retry.
        out.kind = OutcomeKind::kBudget;
        out.status = guard.status();
        out.diagnostic = "submission exceeded its grading budget";
        return;
      }
      out.kind = OutcomeKind::kGraded;
      out.score = score;
      out.status = util::Status::okay();
      out.diagnostic.clear();
      return;
    } catch (const util::BudgetExceededError& e) {
      out.kind = OutcomeKind::kBudget;
      out.status = e.status();
      out.diagnostic = "submission exceeded its grading budget";
      return;  // deterministic: no retry
    } catch (const std::exception& e) {
      // Poison input: grading threw. Retried (the throw could have
      // been environmental), converted to kFailed when retries run
      // out.
      out.status = util::Status::internal(e.what());
      out.diagnostic = util::format("grader error: %s", e.what());
      continue;
    } catch (...) {
      out.status = util::Status::internal("unknown grader error");
      out.diagnostic = "grader error: unknown";
      continue;
    }
  }
  // All attempts consumed without a graded result.
  out.kind = out.status.code == util::StatusCode::kInternalError &&
                     out.diagnostic.rfind("grader error", 0) == 0
                 ? OutcomeKind::kFailed
                 : OutcomeKind::kExhausted;
}

/// Full-outcome dedup/replay is sound only when this tick's effective
/// options are fault-free and wall-clock-free: injected faults are keyed
/// by submission id, so identical bodies legitimately diverge under them.
bool tick_is_sound(const QueueOptions& q) {
  return q.transient_fault_rate == 0.0 && q.stall_rate == 0.0 &&
         q.time_limit_ms < 0;
}

Disposition to_disposition(OutcomeKind kind, bool degraded) {
  if (kind == OutcomeKind::kRejected) return Disposition::kLintRejected;
  if (degraded) return Disposition::kDegraded;
  switch (kind) {
    case OutcomeKind::kGraded: return Disposition::kGraded;
    case OutcomeKind::kFailed: return Disposition::kFailed;
    case OutcomeKind::kBudget: return Disposition::kBudget;
    case OutcomeKind::kExhausted: return Disposition::kExhausted;
    case OutcomeKind::kRejected: break;  // handled above
  }
  return Disposition::kGraded;
}

}  // namespace

std::string serialize_outcome(const SubmissionOutcome& out) {
  std::string bytes;
  cache::append_i64(bytes, static_cast<std::int64_t>(out.kind));
  cache::append_f64(bytes, out.score);
  cache::append_i64(bytes, out.attempts);
  cache::append_i64(bytes, out.backoff_ticks);
  cache::append_i64(bytes, static_cast<std::int64_t>(out.status.code));
  cache::append_record(bytes, out.status.message);
  cache::append_record(bytes, out.diagnostic);
  return bytes;
}

bool deserialize_outcome(std::string_view bytes, SubmissionOutcome& out) {
  cache::RecordReader in(bytes);
  std::int64_t kind = 0, attempts = 0, backoff = 0, code = 0;
  if (!in.next_i64(kind) || !in.next_f64(out.score) ||
      !in.next_i64(attempts) || !in.next_i64(backoff) || !in.next_i64(code) ||
      !in.next_string(out.status.message) || !in.next_string(out.diagnostic) ||
      !in.complete())
    return false;
  if (kind < 0 || kind > static_cast<std::int64_t>(OutcomeKind::kRejected))
    return false;
  if (code < 0 ||
      code > static_cast<std::int64_t>(util::StatusCode::kInternalError))
    return false;
  out.kind = static_cast<OutcomeKind>(kind);
  out.attempts = static_cast<int>(attempts);
  out.backoff_ticks = static_cast<int>(backoff);
  out.status.code = static_cast<util::StatusCode>(code);
  return true;
}

bool parse_shed_policy(const std::string& text, ShedPolicy& out) {
  if (text == "oldest-deadline") {
    out = ShedPolicy::kOldestDeadline;
    return true;
  }
  if (text == "newest-first") {
    out = ShedPolicy::kNewestFirst;
    return true;
  }
  if (text == "none") {
    out = ShedPolicy::kNone;
    return true;
  }
  return false;
}

const char* shed_policy_name(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kOldestDeadline: return "oldest-deadline";
    case ShedPolicy::kNewestFirst: return "newest-first";
    case ShedPolicy::kNone: return "none";
  }
  return "?";
}

const char* disposition_name(Disposition d) {
  switch (d) {
    case Disposition::kGraded: return "graded";
    case Disposition::kFailed: return "failed";
    case Disposition::kBudget: return "budget";
    case Disposition::kExhausted: return "exhausted";
    case Disposition::kLintRejected: return "lint-rejected";
    case Disposition::kDegraded: return "degraded";
    case Disposition::kRejectedQuota: return "rejected-quota";
    case Disposition::kRejectedFull: return "rejected-full";
    case Disposition::kShed: return "shed";
  }
  return "?";
}

std::int64_t tick_latency_percentile_us(const ServiceResult& res, double pct) {
  if (res.tick_duration_us.empty()) return 0;
  std::vector<std::int64_t> sorted = res.tick_duration_us;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(pct, 0.0, 100.0);
  auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

GradingService::GradingService(ServiceOptions opt, GradeFn grade)
    : opt_(std::move(opt)), grade_(std::move(grade)) {
  opt_.queue_cap = std::max(opt_.queue_cap, 1);
  opt_.admit_quota = std::max(opt_.admit_quota, 0);
  opt_.service_rate = std::max(opt_.service_rate, 1);
  opt_.breaker_threshold = std::max(opt_.breaker_threshold, 1);
  opt_.breaker_probe_interval = std::max(opt_.breaker_probe_interval, 1);
  opt_.num_shards = std::max(opt_.num_shards, 1);
  opt_.shard = std::clamp(opt_.shard, 0, opt_.num_shards - 1);
}

ServiceResult GradingService::run(const SubmissionTrace& trace) const {
  util::Status status;
  return run(trace, RunRequest{}, status);
}

ServiceResult GradingService::run(const SubmissionTrace& trace,
                                  const RunRequest& req,
                                  util::Status& status) const {
  status = util::Status::okay();
  obs::ScopedSpan run_span("mooc.service.run", "mooc");
  ServiceResult res;
  auto& stats = res.stats;
  const auto& events = trace.events;
  const int num_courses = std::max(trace.num_courses, 1);
  if (opt_.record_outcomes) res.outcomes.resize(events.size());

  // Sharding: this process owns only the courses the ring assigns to
  // opt_.shard. Foreign events are skipped before ANY accounting so the
  // trace-wide submission ids (and the fault draws they key) line up
  // with the single-process run.
  const bool sharded = opt_.num_shards > 1;
  const ShardMap shard_map(opt_.num_shards);
  std::vector<bool> owned(static_cast<std::size_t>(num_courses), true);
  if (sharded)
    for (int c = 0; c < num_courses; ++c)
      owned[static_cast<std::size_t>(c)] =
          shard_map.shard_for_course(static_cast<std::uint32_t>(c)) ==
          opt_.shard;

  // Journal setup: on a fresh run open/truncate and write the header; on
  // recovery quarantine the torn tail, verify the header pins THIS
  // (trace, options, shard) triple, take the complete ticks for replay,
  // and reopen for append so the continued drain extends the same log.
  const bool journaling = !req.journal_path.empty();
  JournalWriter writer;
  std::vector<JournalTick> replay_ticks;
  bool journal_run_complete = false;
  if (journaling) {
    JournalHeader header;
    header.trace_digest = trace_digest(trace);
    header.config_digest = service_config_digest(opt_);
    header.num_events = events.size();
    header.shard = static_cast<std::uint32_t>(opt_.shard);
    header.num_shards = static_cast<std::uint32_t>(opt_.num_shards);
    bool append = false;
    if (req.recover) {
      JournalScan scan = recover_journal(req.journal_path);
      if (!scan.status.ok()) {
        status = scan.status;
        return res;
      }
      if (scan.found) {
        if (!(scan.header == header)) {
          status = util::Status::invalid(
              "journal header mismatch: " + req.journal_path +
              " was written for a different trace, config, or shard");
          return res;
        }
        replay_ticks = std::move(scan.ticks);
        journal_run_complete = scan.run_complete;
        append = true;
      }
    }
    if (util::Status st = writer.open(req.journal_path, header, append);
        !st.ok()) {
      status = st;
      return res;
    }
  }
  std::size_t replay_idx = 0;

  // The per-tick effective options: the storm window swaps the fault
  // rates wholesale, everything else rides along unchanged.
  const QueueOptions& base = opt_.queue;
  QueueOptions storm = opt_.queue;
  storm.transient_fault_rate = opt_.storm_transient_rate;
  storm.stall_rate = opt_.storm_stall_rate;

  // Dedup/replay infrastructure, all consulted and updated at sequential
  // program points only. Off entirely under the cache kill switch, which
  // restores the grade-everything service exactly.
  const bool use_cache = cache::enabled();
  std::vector<cache::Digest128> body_digests;
  if (use_cache) {
    body_digests.reserve(trace.bodies.size());
    for (const auto& b : trace.bodies)
      body_digests.push_back(cache::digest_bytes(b));
  }
  cache::Digest128 config{};
  const bool cross_run = use_cache && !opt_.queue.cache_domain.empty();
  if (cross_run) {
    cache::Hasher h;
    h.u64(kServiceFormatVersion)
        .str(opt_.queue.cache_domain)
        .i32(opt_.queue.max_retries)
        .i32(opt_.queue.backoff_base_ticks)
        .i64(opt_.queue.step_limit)
        .u64(opt_.queue.fault_seed)
        .boolean(static_cast<bool>(opt_.queue.lint));
    config = h.finish();
  }
  // Lint verdicts are pure in the submission bytes, so they replay on any
  // tick; full outcomes replay only across sound ticks.
  std::map<cache::Digest128, SubmissionOutcome> lint_rejected_memo;
  std::set<cache::Digest128> lint_clean;
  std::map<cache::Digest128, SubmissionOutcome> full_done;

  auto record = [&](std::uint64_t id, Disposition d, std::uint8_t lane,
                    bool replayed, std::uint32_t tick,
                    const SubmissionOutcome* out) {
    if (!opt_.record_outcomes) return;
    auto& slot = res.outcomes[static_cast<std::size_t>(id)];
    slot.disposition = d;
    slot.lane = lane;
    slot.replayed = replayed;
    slot.final_tick = tick;
    if (out != nullptr) {
      slot.attempts = static_cast<std::uint16_t>(
          std::clamp(out->attempts, 0, 0xffff));
      slot.status = out->status.code;
      slot.backoff_ticks = out->backoff_ticks;
      slot.score = out->score;
      slot.diagnostic = out->diagnostic;
    }
  };

  auto count_serviced = [&](Disposition d, const SubmissionOutcome& out,
                            std::uint32_t tick, std::uint32_t arrival) {
    ++stats.admitted;
    stats.total_attempts += out.attempts;
    switch (d) {
      case Disposition::kGraded: ++stats.graded; break;
      case Disposition::kDegraded: ++stats.degraded; break;
      case Disposition::kFailed: ++stats.failed; break;
      case Disposition::kBudget: ++stats.budget_exceeded; break;
      case Disposition::kExhausted: ++stats.retries_exhausted; break;
      case Disposition::kLintRejected: ++stats.lint_rejected; break;
      default: break;  // rejected/shed never reach here
    }
    obs::observe("mooc.service.wait_ticks",
                 static_cast<std::int64_t>(tick) - arrival);
  };

  std::vector<CourseState> courses(static_cast<std::size_t>(num_courses));
  struct BatchItem {
    Entry e;
    int course = 0;
    bool degraded = false;
    bool probe = false;
  };
  std::vector<BatchItem> batch;
  std::vector<SubmissionOutcome> bouts;
  std::vector<FaultTally> btallies;
  // Per-slot flags the replay-mode workers set when the re-run lint
  // verdict disagrees with the journaled outcome (folded into one
  // divergence error sequentially -- workers never touch `status`).
  std::vector<unsigned char> lint_mismatch;

  std::size_t next_event = 0;
  std::int64_t queued = 0;
  std::uint64_t tick64 = 0;
  while (next_event < events.size() || queued > 0) {
    if (req.halt_after_ticks >= 0 &&
        tick64 >= static_cast<std::uint64_t>(req.halt_after_ticks)) {
      // The crash harness's deterministic SIGKILL: stop cold, queues
      // full, accounting open. Journal frames for finished ticks are
      // already flushed; nothing for this tick ever will be.
      res.halted = true;
      break;
    }
    const std::int64_t t0 = obs::Tracer::global().now_us();
    obs::ScopedSpan tick_span("mooc.service.tick", "mooc");
    const auto tick = static_cast<std::uint32_t>(tick64);
    const QueueOptions& qopt =
        (tick64 >= opt_.storm_begin_tick && tick64 < opt_.storm_end_tick)
            ? storm
            : base;
    const bool sound = tick_is_sound(qopt);

    // Replay vs write mode for this tick. While journaled ticks remain
    // we VERIFY every re-derived decision against them (and substitute
    // what cannot be re-derived); past the journal's end we are the
    // live process again and append.
    const JournalTick* jt =
        replay_idx < replay_ticks.size() ? &replay_ticks[replay_idx] : nullptr;
    const bool replaying = jt != nullptr;
    const bool writing = journaling && !replaying;
    std::size_t jrej = 0, jshed = 0, jrepl = 0, jbrk = 0;
    auto diverge = [&](const char* what) {
      if (status.ok())
        status = util::Status::internal(
            std::string("journal replay diverged (") + what + ") at tick " +
            std::to_string(tick));
    };
    if (replaying && jt->tick != tick) diverge("tick number");
    if (writing) writer.tick_begin(tick);

    auto note_rejected = [&](std::uint64_t id, Disposition d,
                             std::uint8_t lane) {
      if (writing) {
        writer.rejected(id, d, lane);
      } else if (replaying) {
        if (jrej >= jt->rejections.size() || jt->rejections[jrej].id != id ||
            jt->rejections[jrej].disposition != d)
          diverge("admission rejection");
        else
          ++jrej;
      }
    };
    auto note_shed = [&](std::uint64_t id, std::uint8_t lane) {
      if (writing) {
        writer.shed(id, lane);
      } else if (replaying) {
        if (jshed >= jt->sheds.size() || jt->sheds[jshed].id != id)
          diverge("shed victim");
        else
          ++jshed;
      }
    };
    // Memo replays are re-derived; the journal only audits them.
    auto note_memo_replay = [&](std::uint64_t id, ReplaySource src) {
      if (replaying) {
        if (jrepl >= jt->replays.size() || jt->replays[jrepl].id != id ||
            jt->replays[jrepl].source != src)
          diverge("dedup replay");
        else
          ++jrepl;
      }
    };
    auto note_breaker = [&](int ci, BreakerAction action) {
      if (writing) {
        writer.breaker(static_cast<std::uint32_t>(ci), action);
      } else if (replaying) {
        if (jbrk >= jt->breakers.size() ||
            jt->breakers[jbrk].course != static_cast<std::uint32_t>(ci) ||
            jt->breakers[jbrk].action != action)
          diverge("breaker transition");
        else
          ++jbrk;
      }
    };

    // ---- arrivals: admission control and backpressure -------------------
    for (auto& c : courses) c.admitted_this_tick = 0;
    while (next_event < events.size() &&
           events[next_event].arrival_tick <= tick) {
      const auto id = static_cast<std::uint64_t>(next_event);
      const auto& ev = events[next_event];
      ++next_event;
      const auto course_idx =
          static_cast<std::size_t>(ev.course %
                                   static_cast<std::uint32_t>(num_courses));
      if (!owned[course_idx]) continue;  // another shard's course
      ++stats.arrivals;
      auto& course = courses[course_idx];
      if (course.admitted_this_tick >= opt_.admit_quota) {
        ++stats.rejected_quota;
        note_rejected(id, Disposition::kRejectedQuota, ev.lane);
        record(id, Disposition::kRejectedQuota, ev.lane, false, tick, nullptr);
        continue;
      }
      ++course.admitted_this_tick;
      const Entry e{id, ev.body, ev.arrival_tick, ev.deadline_tick, ev.lane};
      if (course.depth() >= static_cast<std::size_t>(opt_.queue_cap)) {
        if (opt_.shed_policy == ShedPolicy::kNone) {
          ++stats.rejected_full;
          note_rejected(id, Disposition::kRejectedFull, ev.lane);
          record(id, Disposition::kRejectedFull, ev.lane, false, tick,
                 nullptr);
          continue;
        }
        // Insert the newcomer first, then evict the policy's victim --
        // which may be the newcomer itself. Either way the eviction is a
        // recorded outcome, never a silent drop.
        course.lanes[e.lane].insert(e);
        const Entry victim = course.evict(opt_.shed_policy);
        ++stats.shed;
        note_shed(victim.id, victim.lane);
        record(victim.id, Disposition::kShed, victim.lane, false, tick,
               nullptr);
        continue;
      }
      course.lanes[e.lane].insert(e);
      ++queued;
    }
    if (!status.ok()) return res;
    for (const auto& c : courses) {
      stats.peak_depth_first = std::max(
          stats.peak_depth_first, static_cast<std::int64_t>(c.lanes[0].size()));
      stats.peak_depth_resubmit =
          std::max(stats.peak_depth_resubmit,
                   static_cast<std::int64_t>(c.lanes[1].size()));
    }

    // ---- sequential scheduling: pops, replays, batch assembly ------------
    batch.clear();
    for (int ci = 0; ci < num_courses; ++ci) {
      auto& course = courses[static_cast<std::size_t>(ci)];
      // Half-open probe: while the breaker is open, the first pop on every
      // probe_interval-th tick after the trip grades for real; replay is
      // disallowed for probes so a cache hit can't fake a recovery.
      bool probe_pending =
          course.open && tick64 > course.opened_tick &&
          (tick64 - course.opened_tick) %
                  static_cast<std::uint64_t>(opt_.breaker_probe_interval) ==
              0;
      for (int served = 0; served < opt_.service_rate && course.depth() > 0;
           ++served) {
        const Entry e = course.pop();
        --queued;
        bool probe = false;
        bool degraded = false;
        if (course.open) {
          if (probe_pending) {
            probe = true;
            probe_pending = false;
          } else {
            degraded = true;
          }
        }
        if (use_cache && !probe) {
          const auto& dig = body_digests[e.body];
          if (const auto it = lint_rejected_memo.find(dig);
              it != lint_rejected_memo.end()) {
            ++stats.dedup_hits;
            if (writing)
              writer.replayed(e.id, ReplaySource::kLintMemo,
                              Disposition::kLintRejected, e.lane, it->second);
            else
              note_memo_replay(e.id, ReplaySource::kLintMemo);
            count_serviced(Disposition::kLintRejected, it->second, tick,
                           e.arrival);
            record(e.id, Disposition::kLintRejected, e.lane, true, tick,
                   &it->second);
            continue;
          }
          if (degraded) {
            if (lint_clean.count(dig) != 0) {
              ++stats.dedup_hits;
              SubmissionOutcome out;  // lint-only pass: no attempts, ok
              if (writing)
                writer.replayed(e.id, ReplaySource::kDegradedMemo,
                                Disposition::kDegraded, e.lane, out);
              else
                note_memo_replay(e.id, ReplaySource::kDegradedMemo);
              count_serviced(Disposition::kDegraded, out, tick, e.arrival);
              record(e.id, Disposition::kDegraded, e.lane, true, tick, &out);
              continue;
            }
          } else if (sound) {
            if (const auto it = full_done.find(dig); it != full_done.end()) {
              ++stats.dedup_hits;
              const Disposition d = to_disposition(it->second.kind, false);
              if (writing)
                writer.replayed(e.id, ReplaySource::kFullMemo, d, e.lane,
                                it->second);
              else
                note_memo_replay(e.id, ReplaySource::kFullMemo);
              count_serviced(d, it->second, tick, e.arrival);
              record(e.id, d, e.lane, true, tick, &it->second);
              continue;
            }
            if (cross_run) {
              if (replaying) {
                // Substitute the journaled cache verdict instead of
                // consulting the live (cold) cache: the original run's
                // hit/miss pattern is part of the history being replayed.
                if (jrepl < jt->replays.size() &&
                    jt->replays[jrepl].id == e.id &&
                    jt->replays[jrepl].source == ReplaySource::kCache) {
                  SubmissionOutcome out = jt->replays[jrepl].outcome;
                  ++jrepl;
                  ++stats.cache_hits;
                  const Disposition d = to_disposition(out.kind, false);
                  count_serviced(d, out, tick, e.arrival);
                  record(e.id, d, e.lane, true, tick, &out);
                  full_done.emplace(dig, std::move(out));
                  continue;
                }
                // No kCache frame for this id: the original run missed
                // here too; fall through to the batch, where the
                // journaled outcome is substituted positionally.
              } else {
                const cache::CacheKey key{"mooc.service", dig, config};
                SubmissionOutcome out;
                if (const auto hit = cache::Cache::global().lookup(key);
                    hit && deserialize_outcome(*hit, out)) {
                  ++stats.cache_hits;
                  const Disposition d = to_disposition(out.kind, false);
                  if (writing)
                    writer.replayed(e.id, ReplaySource::kCache, d, e.lane,
                                    out);
                  count_serviced(d, out, tick, e.arrival);
                  record(e.id, d, e.lane, true, tick, &out);
                  full_done.emplace(dig, std::move(out));
                  continue;
                }
              }
            }
          }
        }
        batch.push_back(BatchItem{e, ci, degraded, probe});
      }
    }
    if (!status.ok()) return res;

    // ---- parallel service of the tick's batch ----------------------------
    // Pre-assigned slots, grain 1; every fault draw is keyed by the
    // submission id, so the slot contents are lane-schedule-independent.
    // During replay the journaled outcomes are substituted into the slots
    // up front (verified positionally) and the workers re-run ONLY the
    // pure lint stage -- its verdict cross-checks the substituted kind,
    // and its per-rule obs counters keep the export byte-identical to
    // the uninterrupted run's.
    obs::observe("mooc.service.batch_size",
                 static_cast<std::int64_t>(batch.size()));
    bouts.assign(batch.size(), SubmissionOutcome{});
    btallies.assign(batch.size(), FaultTally{});
    if (replaying) {
      if (jt->outcomes.size() != batch.size()) {
        diverge("batch size");
      } else {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const JournaledOutcome& jo = jt->outcomes[i];
          if (jo.id != batch[i].e.id || jo.degraded != batch[i].degraded ||
              jo.probe != batch[i].probe) {
            diverge("batch slot");
            break;
          }
          bouts[i] = jo.outcome;
          btallies[i] = jo.tally;
        }
      }
      if (!status.ok()) return res;
      lint_mismatch.assign(batch.size(), 0);
    }
    util::parallel_for(
        0, static_cast<std::int64_t>(batch.size()), 1, [&](std::int64_t s) {
          const auto i = static_cast<std::size_t>(s);
          const BatchItem& item = batch[i];
          const std::string& body = trace.bodies[item.e.body];
          obs::ScopedSpan grade_span("mooc.service.grade", "mooc");
          auto& out = bouts[i];
          if (replaying) {
            SubmissionOutcome probe_out;
            const bool rejects = lint_pre_grade_rejects(body, qopt, probe_out);
            if (rejects != (out.kind == OutcomeKind::kRejected))
              lint_mismatch[i] = 1;
            return;
          }
          if (lint_pre_grade_rejects(body, qopt, out)) return;
          if (item.degraded) {
            out.kind = OutcomeKind::kGraded;  // mapped to kDegraded in fold
            out.status = util::Status::okay();
            return;
          }
          grade_one_submission(item.e.id, body, grade_, qopt, out,
                               btallies[i]);
        });
    if (replaying) {
      for (std::size_t i = 0; i < batch.size(); ++i)
        if (lint_mismatch[i] != 0) {
          diverge("lint verdict");
          break;
        }
      if (!status.ok()) return res;
      obs::count("journal.ticks_replayed");
      if (!batch.empty())
        obs::count("journal.outcomes_replayed",
                   static_cast<std::int64_t>(batch.size()));
    }

    // ---- sequential fold: stats, memoization, breaker transitions --------
    for (std::size_t s = 0; s < batch.size(); ++s) {
      const BatchItem& item = batch[s];
      auto& out = bouts[s];
      auto& course = courses[static_cast<std::size_t>(item.course)];
      stats.injected_transients += btallies[s].transients;
      stats.injected_stalls += btallies[s].stalls;
      const Disposition d = to_disposition(out.kind, item.degraded);
      if (writing)
        writer.outcome(item.e.id, d, item.e.lane, item.degraded, item.probe,
                       out, btallies[s]);
      count_serviced(d, out, tick, item.e.arrival);
      if (use_cache) {
        const auto& dig = body_digests[item.e.body];
        if (out.kind == OutcomeKind::kRejected) {
          lint_rejected_memo.emplace(dig, out);
        } else {
          lint_clean.insert(dig);
          if (!item.degraded && sound) {
            if (cross_run)
              cache::Cache::global().insert({"mooc.service", dig, config},
                                            serialize_outcome(out));
            full_done.emplace(dig, out);
          }
        }
      }
      const bool fault_fail =
          !item.degraded && out.kind == OutcomeKind::kExhausted;
      if (!course.open) {
        if (fault_fail) {
          if (++course.consecutive >= opt_.breaker_threshold) {
            course.open = true;
            course.opened_tick = tick64;
            course.consecutive = 0;
            ++stats.breaker_trips;
            note_breaker(item.course, BreakerAction::kTrip);
          }
        } else if (!item.degraded) {
          course.consecutive = 0;
        }
      } else if (item.probe) {
        ++stats.breaker_probes;
        if (fault_fail) {
          course.opened_tick = tick64;  // probe failed: restart the schedule
          note_breaker(item.course, BreakerAction::kProbeFail);
        } else {
          course.open = false;
          course.consecutive = 0;
          ++stats.breaker_recoveries;
          note_breaker(item.course, BreakerAction::kRecover);
        }
      }
      record(item.e.id, d, item.e.lane, false, tick, &out);
    }
    if (!status.ok()) return res;

    ++stats.ticks;
    const std::uint64_t check = stats_checksum(stats);
    if (writing) {
      if (util::Status st = writer.tick_end(tick, check); !st.ok()) {
        status = st;
        return res;
      }
    } else if (replaying) {
      // The tick must be consumed EXACTLY: leftover frames mean the
      // original run made decisions this replay did not.
      if (jrej != jt->rejections.size()) diverge("unconsumed rejections");
      if (jshed != jt->sheds.size()) diverge("unconsumed sheds");
      if (jrepl != jt->replays.size()) diverge("unconsumed replays");
      if (jbrk != jt->breakers.size()) diverge("unconsumed breakers");
      if (check != jt->stats_check) diverge("stats checksum");
      if (!status.ok()) return res;
      ++replay_idx;
    }
    res.tick_duration_us.push_back(obs::Tracer::global().now_us() - t0);
    ++tick64;
  }

  if (replay_idx < replay_ticks.size() && !res.halted) {
    status = util::Status::internal(
        "journal contains more complete ticks than the drain produced");
    return res;
  }
  if (journaling && !res.halted && !journal_run_complete) {
    if (util::Status st = writer.run_end(stats_checksum(stats)); !st.ok()) {
      status = st;
      return res;
    }
  }

  // Metrics flush, sequential, every name emitted even at zero so the
  // golden export's shape does not depend on which paths a run exercised.
  // A halted (simulated-kill) run skips it, like the real dead process
  // would have -- the recovered process flushes the merged totals.
  if (obs::enabled() && !res.halted) {
    obs::count("mooc.service.runs");
    obs::count("mooc.service.ticks", stats.ticks);
    obs::count("mooc.service.arrivals", stats.arrivals);
    obs::count("mooc.service.admitted", stats.admitted);
    obs::count("mooc.service.rejected.quota", stats.rejected_quota);
    obs::count("mooc.service.rejected.queue_full", stats.rejected_full);
    obs::count("mooc.service.shed", stats.shed);
    obs::count("mooc.service.graded", stats.graded);
    obs::count("mooc.service.degraded", stats.degraded);
    obs::count("mooc.service.failed", stats.failed);
    obs::count("mooc.service.budget_exceeded", stats.budget_exceeded);
    obs::count("mooc.service.retries_exhausted", stats.retries_exhausted);
    obs::count("mooc.service.lint_rejected", stats.lint_rejected);
    obs::count("mooc.service.dedup_hits", stats.dedup_hits);
    obs::count("mooc.service.cache_hits", stats.cache_hits);
    obs::count("mooc.service.breaker.trips", stats.breaker_trips);
    obs::count("mooc.service.breaker.probes", stats.breaker_probes);
    obs::count("mooc.service.breaker.recoveries", stats.breaker_recoveries);
    obs::count("mooc.service.attempts", stats.total_attempts);
    obs::count("mooc.service.transients", stats.injected_transients);
    obs::count("mooc.service.stalls", stats.injected_stalls);
    obs::gauge_set("mooc.service.lane.first.peak_depth",
                   stats.peak_depth_first);
    obs::gauge_set("mooc.service.lane.resubmit.peak_depth",
                   stats.peak_depth_resubmit);
  }
  return res;
}

}  // namespace l2l::mooc
