#pragma once
// The persistent grading service: the planet-scale operational loop the
// paper's "large regression suite for a commercial EDA tool" actually ran
// as. A tick-driven daemon over multi-course sharded bounded queues that
// wraps an arbitrary grading callback with the production failure modes
// and is built to survive what a semester throws at it:
//
//   * grading faults     -- slow submissions hit a deterministic
//                           per-submission budget, poison inputs (the
//                           grader throws) become diagnostic outcomes,
//                           injected worker faults and stalls retry with
//                           bounded exponential backoff;
//   * admission control  -- per-course per-tick arrival quotas; an
//                           arrival past the quota (or past a full queue
//                           under the `none` shed policy) is rejected
//                           with a recorded reason, never dropped;
//   * backpressure       -- per-course queue caps; when arrivals outrun
//                           capacity a deterministic shed policy evicts
//                           lowest-priority, oldest-deadline work first
//                           and records every eviction as an outcome;
//   * priority lanes     -- first submits outrank resubmits; within a
//                           lane the scheduler is earliest-deadline-first
//                           with ties broken by submission id;
//   * circuit breakers   -- per course: K consecutive injected-fault
//                           failures trip the breaker, scheduled work is
//                           degraded to lint-only grading while open, and
//                           half-open probes on a deterministic tick
//                           schedule re-close it when the fault storm
//                           passes;
//   * dedup & replay     -- byte-identical uploads replay the first
//                           outcome (in-run dedup) and, with a
//                           cache_domain, across runs through the
//                           result cache -- both decided sequentially so
//                           hits never depend on the thread schedule.
//
// Determinism contract: scheduling, admission, shedding, breaker
// transitions, dedup, fault draws, and every exported metric are
// bit-identical at any L2L_THREADS. Whether attempt k of a submission
// faults is a pure hash of (fault_seed, submission id, k), so tests can
// assert exact per-submission outcomes. Only the per-tick wall-clock
// latencies (kept out of the obs registry, in
// ServiceResult::tick_duration_us) vary run to run. Workers matter only
// inside one tick's scheduled batch, which is graded via parallel_for
// into pre-assigned slots and folded sequentially in schedule order.
//
// Accounting contract (the "zero silent drops" invariant the tests pin):
//
//   admitted + rejected + shed == arrivals
//
// where `admitted` counts submissions that reached a terminal grading
// outcome (graded / failed / budget / exhausted / lint-rejected /
// degraded), `rejected` counts admission-time refusals, and `shed` counts
// queue evictions. Every trace event owns exactly one ServiceOutcome.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "mooc/cohort.hpp"
#include "util/budget.hpp"
#include "util/status.hpp"

namespace l2l::mooc {

/// Per-submission grading knobs: retries, backoff, budgets, fault
/// injection, the pre-grade lint stage and the cross-run cache domain.
struct QueueOptions {
  /// Retries per submission after the first attempt (injected faults and
  /// grader exceptions retry; deterministic budget exhaustion does not --
  /// a submission that blew its step budget once will blow it again).
  int max_retries = 2;
  /// Simulated backoff before retry r: backoff_base_ticks << (r - 1),
  /// with the shift clamped (and the accumulated total saturated at
  /// INT_MAX) so max_retries = 64 is well-defined, not UB. Recorded in
  /// the outcome, never slept -- the simulator models the schedule, the
  /// test asserts it.
  int backoff_base_ticks = 1;
  /// Per-submission step budget handed to the grading callback (< 0 =
  /// unlimited). Deterministic guard -- see util::Budget.
  std::int64_t step_limit = -1;
  /// Per-submission wall-clock limit in ms (< 0 = none). Nondeterministic;
  /// off by default.
  std::int64_t time_limit_ms = -1;
  /// Fault injection. Rates are per-attempt probabilities in [0, 1],
  /// derived from splitmix64(fault_seed, submission, attempt).
  std::uint64_t fault_seed = 0;
  double transient_fault_rate = 0.0;  ///< worker "crash" before grading
  double stall_rate = 0.0;            ///< worker "stall" (times out, retried)
  /// Optional pre-grade lint stage (e.g. a l2l::lint rule pack bound to
  /// the assignment's format). Runs before the first grading attempt;
  /// any error-severity diagnostic rejects the submission (kRejected)
  /// without spending a grading attempt, and the rendered findings land
  /// in the outcome's diagnostic. Deterministic, so rejection is never
  /// retried -- and with the result cache enabled, a byte-identical
  /// upload scheduled on a later tick replays the verdict without
  /// re-running the lint pack.
  std::function<std::vector<util::Diagnostic>(const std::string&)> lint;
  /// Cross-run outcome replay domain. Empty (default): identical
  /// submissions are deduplicated within one run only. Non-empty: the
  /// caller asserts that this string identifies the grading callback +
  /// lint pack (e.g. "hw7.route-v1"), and finished outcomes are stored
  /// in the global result cache under engine id "mooc.service" so a
  /// later run with the same domain and options replays them without
  /// grading. Only consulted on fault-free ticks -- injected faults are
  /// keyed by submission id, so their outcomes are not
  /// content-addressable.
  std::string cache_domain;
};

enum class OutcomeKind {
  kGraded,        ///< callback returned a score
  kFailed,        ///< callback threw on every attempt (poison input)
  kBudget,        ///< per-submission budget exhausted (not retried)
  kExhausted,     ///< injected faults on every attempt; retries spent
  kRejected,      ///< pre-grade lint found errors; grading never ran
};

struct SubmissionOutcome {
  OutcomeKind kind = OutcomeKind::kGraded;
  double score = 0.0;          ///< valid when kind == kGraded
  int attempts = 0;            ///< attempts actually consumed
  int backoff_ticks = 0;       ///< total simulated backoff before success/giving up
  util::Status status;         ///< non-ok for every kind but kGraded
  std::string diagnostic;      ///< human-readable failure description
};

/// Injected-fault counts observed while grading one submission. Kept
/// separate from SubmissionOutcome so replaying an outcome (dedup, cache)
/// never replays the fault tallies that were not actually incurred.
struct FaultTally {
  int transients = 0;
  int stalls = 0;
};

/// The grading callback: score one submission under the given resource
/// guard. May throw (the service isolates it); may honor the budget (the
/// service checks it afterwards either way).
using GradeFn =
    std::function<double(const std::string& submission, const util::Budget&)>;

/// The wire format for a finished outcome, shared by the result cache
/// (engine id "mooc.service") and the journal's replay and outcome
/// frames. deserialize returns false on any truncated/corrupt/
/// out-of-range payload -- a failed decode is a cache miss, never a
/// trusted outcome.
std::string serialize_outcome(const SubmissionOutcome& out);
bool deserialize_outcome(std::string_view bytes, SubmissionOutcome& out);

enum class ShedPolicy {
  /// Evict lowest-priority lane first; within the lane, the entry with
  /// the oldest (smallest) deadline, ties broken by smallest submission
  /// id. Rationale: past-deadline work is the least useful to finish and
  /// the resubmit lane always outranks losing a first attempt.
  kOldestDeadline,
  /// Evict lowest-priority lane first; within the lane, the newest
  /// arrival (largest submission id). "You joined an overloaded queue
  /// last, you leave it first."
  kNewestFirst,
  /// Never evict: a full queue rejects new arrivals at admission instead.
  kNone,
};

/// Parse "oldest-deadline" / "newest-first" / "none" (the --shed-policy
/// spellings). Returns false on anything else.
bool parse_shed_policy(const std::string& text, ShedPolicy& out);
const char* shed_policy_name(ShedPolicy policy);

struct ServiceOptions {
  /// Per-course bound on queued-but-unserviced submissions (both lanes
  /// together). The knob that turns overload into shed/reject instead of
  /// unbounded memory.
  int queue_cap = 1024;
  /// Per-course per-tick admission quota: arrivals beyond it are
  /// rejected with kRejectedQuota. <= 0 admits nothing.
  int admit_quota = 256;
  /// Per-course submissions scheduled for service each tick (>= 1).
  int service_rate = 64;
  ShedPolicy shed_policy = ShedPolicy::kOldestDeadline;

  /// Circuit breaker: trips after this many consecutive
  /// injected-fault failures (kExhausted outcomes) in one course.
  int breaker_threshold = 8;
  /// While open, a half-open probe (one full-grade submission) runs every
  /// this many ticks; everything else in the course is lint-only.
  int breaker_probe_interval = 16;

  /// Fault storm window [storm_begin_tick, storm_end_tick): during these
  /// ticks the storm rates REPLACE queue.transient_fault_rate /
  /// queue.stall_rate. Deterministic -- the window is tick-defined, the
  /// draws are keyed by submission id.
  std::uint32_t storm_begin_tick = 0;
  std::uint32_t storm_end_tick = 0;
  double storm_transient_rate = 0.0;
  double storm_stall_rate = 0.0;

  /// Retry/backoff/budget/fault/lint/cache_domain knobs applied to every
  /// full grade.
  QueueOptions queue;

  /// Record one ServiceOutcome per trace event (tests, reports). The
  /// stats/counters accounting is identical either way.
  bool record_outcomes = true;

  /// Logical sharding (shard_map.hpp): with num_shards > 1 this process
  /// walks the whole trace but owns only the courses the consistent-hash
  /// ring assigns to `shard` -- foreign events are skipped entirely
  /// (not arrivals, not rejections), preserving trace-wide submission
  /// ids so fault draws match the single-process run. merge_sharded()
  /// reassembles the N partial results into the 1-process result.
  int num_shards = 1;
  int shard = 0;
};

/// Terminal disposition of one arrival. The first six are "admitted"
/// (serviced through the grade or degrade path); the last three never
/// reached a grader.
enum class Disposition : std::uint8_t {
  kGraded = 0,     ///< full grade, callback returned a score
  kFailed,         ///< callback threw on every attempt (poison input)
  kBudget,         ///< per-submission budget exhausted
  kExhausted,      ///< injected faults on every attempt
  kLintRejected,   ///< lint found errors (full or degraded mode)
  kDegraded,       ///< breaker open: serviced lint-only, no score
  kRejectedQuota,  ///< admission: per-tick course quota exceeded
  kRejectedFull,   ///< admission: queue at cap under ShedPolicy::kNone
  kShed,           ///< admitted, then evicted by the shed policy
};

const char* disposition_name(Disposition d);

struct ServiceOutcome {
  Disposition disposition = Disposition::kGraded;
  std::uint8_t lane = 0;
  /// Outcome replayed from the in-run dedup table or the result cache
  /// instead of grading.
  bool replayed = false;
  std::uint16_t attempts = 0;
  util::StatusCode status = util::StatusCode::kOk;
  /// Tick of the terminal decision (service, rejection, or shed).
  std::uint32_t final_tick = 0;
  std::int32_t backoff_ticks = 0;
  double score = 0.0;  ///< valid when disposition == kGraded
  /// Failure description for serviced submissions. Empty for
  /// rejected/shed outcomes -- at planet scale the disposition itself is
  /// the reason, and a million identical strings help nobody.
  std::string diagnostic;

  /// Field-wise equality -- the recovery and shard-merge tests compare
  /// whole outcome vectors against the uninterrupted run's.
  bool operator==(const ServiceOutcome&) const = default;
};

struct ServiceStats {
  std::int64_t ticks = 0;
  std::int64_t arrivals = 0;
  std::int64_t admitted = 0;  ///< serviced to a terminal grading outcome
  std::int64_t rejected_quota = 0;
  std::int64_t rejected_full = 0;
  std::int64_t shed = 0;
  std::int64_t graded = 0;
  std::int64_t degraded = 0;
  std::int64_t failed = 0;
  std::int64_t budget_exceeded = 0;
  std::int64_t retries_exhausted = 0;
  std::int64_t lint_rejected = 0;
  std::int64_t dedup_hits = 0;   ///< in-run duplicate replays
  std::int64_t cache_hits = 0;   ///< cross-run result-cache replays
  std::int64_t breaker_trips = 0;
  std::int64_t breaker_probes = 0;
  std::int64_t breaker_recoveries = 0;
  std::int64_t total_attempts = 0;
  std::int64_t injected_transients = 0;
  std::int64_t injected_stalls = 0;
  std::int64_t peak_depth_first = 0;     ///< max lane-0 depth (any course)
  std::int64_t peak_depth_resubmit = 0;  ///< max lane-1 depth (any course)

  std::int64_t rejected() const { return rejected_quota + rejected_full; }

  bool operator==(const ServiceStats&) const = default;
};

struct ServiceResult {
  /// One outcome per trace event, indexed by submission id. Empty when
  /// ServiceOptions::record_outcomes is false.
  std::vector<ServiceOutcome> outcomes;
  ServiceStats stats;
  /// Wall-clock duration of each tick, microseconds. Nondeterministic by
  /// nature, so it lives here and NEVER in the obs registry (whose export
  /// must stay byte-identical across runs and thread counts).
  std::vector<std::int64_t> tick_duration_us;

  /// The run stopped at RunRequest::halt_after_ticks (the crash
  /// harness's simulated kill) -- queues were NOT drained and the
  /// accounting identity is not expected to hold yet.
  bool halted = false;

  /// The zero-silent-drops invariant.
  bool accounting_ok() const {
    return stats.admitted + stats.rejected() + stats.shed == stats.arrivals;
  }
};

/// Exact percentile (nearest-rank) over tick_duration_us; 0 if empty.
std::int64_t tick_latency_percentile_us(const ServiceResult& res, double pct);

/// Durability controls for one run() invocation -- everything that is
/// about THIS process's lifetime rather than the service's semantics
/// (and so stays out of the journal's config digest).
struct RunRequest {
  /// Non-empty: journal every decision to this file (mooc/journal.hpp),
  /// flushed once per tick.
  std::string journal_path;
  /// Replay an existing journal at journal_path before grading anything:
  /// the torn tail is quarantined, the complete-tick prefix is replayed
  /// to the exact pre-crash state (journaled outcomes substituted, all
  /// re-derived decisions verified), then the drain continues live,
  /// appending. A missing/empty journal degrades to a fresh start; a
  /// journal for a different trace or config is refused.
  bool recover = false;
  /// >= 0: stop before processing tick N -- the deterministic stand-in
  /// for SIGKILL the crash-recovery harness sweeps. The result is
  /// marked halted and the accounting identity is not enforced.
  std::int64_t halt_after_ticks = -1;
};

/// The persistent sharded grading daemon. Construct with options and the
/// grading callback, then run() a trace: the loop ticks from 0 until the
/// last arrival is consumed AND every course queue has drained, so no
/// submission is left behind even when overload pushes service past the
/// trace's nominal semester end.
class GradingService {
 public:
  GradingService(ServiceOptions opt, GradeFn grade);

  /// Drive the service over one trace. May be called repeatedly (e.g. a
  /// warm re-run against the same cache_domain); each run starts with
  /// empty queues and closed breakers.
  ServiceResult run(const SubmissionTrace& trace) const;

  /// The journal-aware form: same loop, plus whatever `req` asks for.
  /// `status` is non-ok when the journal cannot be written, a recovery
  /// header does not match this (trace, options) pair, or replay
  /// diverges from the journaled decisions -- in every case the partial
  /// result must not be trusted.
  ServiceResult run(const SubmissionTrace& trace, const RunRequest& req,
                    util::Status& status) const;

 private:
  ServiceOptions opt_;
  GradeFn grade_;
};

}  // namespace l2l::mooc
