#pragma once
// Test helper: grade a list of uploads through the GradingService as one
// course. Every upload is its own trace event, so submission id == list
// index (the fault-draw key), and the queue bounds are sized so nothing
// is rejected, shed, or degraded by a tripped breaker.

#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "mooc/grading_service.hpp"

namespace l2l::testutil {

/// Run `subs` as a one-course trace graded by `grade` under `queue`.
/// Upload i arrives at tick i * tick_stride (0: all at tick 0, one
/// scheduling round). The service memoizes outcomes in its sequential
/// fold, so identical bodies replay only across ticks: a stride of 1 or
/// more makes every repeat a dedup hit.
inline mooc::ServiceResult run_one_course(
    const std::vector<std::string>& subs, const mooc::GradeFn& grade,
    const mooc::QueueOptions& queue = {}, std::uint32_t tick_stride = 0) {
  const auto n = static_cast<std::uint32_t>(subs.size());
  mooc::SubmissionTrace trace;
  trace.num_courses = 1;
  trace.ticks = n * tick_stride + 1;
  trace.bodies = subs;
  for (std::uint32_t i = 0; i < n; ++i) {
    mooc::SubmissionEvent ev;
    ev.body = i;
    ev.arrival_tick = i * tick_stride;
    ev.deadline_tick = trace.ticks;
    trace.events.push_back(ev);
  }
  mooc::ServiceOptions opt;
  opt.queue_cap = opt.admit_quota = opt.service_rate = static_cast<int>(n) + 1;
  opt.breaker_threshold = INT_MAX;
  opt.queue = queue;
  return mooc::GradingService(opt, grade).run(trace);
}

}  // namespace l2l::testutil
