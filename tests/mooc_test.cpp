#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>

#include "cache/cache.hpp"
#include "mooc/cohort.hpp"
#include "mooc/datasets.hpp"
#include "mooc/grading_service.hpp"
#include "mooc/wordcloud.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace l2l::mooc {
namespace {

TEST(Datasets, FunnelMatchesPaper) {
  const auto& f = participation_funnel();
  ASSERT_EQ(f.size(), 6u);
  EXPECT_EQ(f[0].count, 17500);
  EXPECT_EQ(f[1].count, 7191);
  EXPECT_EQ(f[2].count, 1377);
  EXPECT_EQ(f[3].count, 369);
  EXPECT_EQ(f[4].count, 530);
  EXPECT_EQ(f[5].count, 386);
}

TEST(Datasets, LectureAggregatesMatchPaper) {
  const auto& v = lecture_videos();
  EXPECT_EQ(v.size(), 69u);  // "69 total lecture videos"
  double total = 0;
  for (const auto& video : v) {
    EXPECT_GT(video.minutes, 5.0);
    EXPECT_LT(video.minutes, 25.0);
    total += video.minutes;
  }
  EXPECT_NEAR(total / 69.0, 15.0, 0.01);   // "average length 15 minutes"
  EXPECT_NEAR(total / 60.0, 17.25, 0.05);  // "17 total hours"
  // 8 content weeks + tutorials present.
  std::set<int> weeks;
  for (const auto& video : v) weeks.insert(video.week);
  EXPECT_EQ(weeks.size(), 9u);
}

TEST(Datasets, ConceptMapTotals) {
  const auto totals = concept_map_totals();
  EXPECT_EQ(totals.total_slides_full_course, 948);
  EXPECT_EQ(totals.unique_concepts, 102);
  EXPECT_EQ(totals.mooc_slides, 615);
  // The listed entries' slides sum to the full course total.
  int sum = 0;
  for (const auto& e : concept_map()) sum += e.slides;
  EXPECT_EQ(sum, totals.total_slides_full_course);
  // BDD block matches Fig. 1's roster.
  int bdd_entries = 0;
  for (const auto& e : concept_map())
    if (e.topic == "BDDs") ++bdd_entries;
  EXPECT_EQ(bdd_entries, 6);
}

TEST(Datasets, ViewersDecayWithLandmarks) {
  const auto& v = viewers_per_video();
  ASSERT_EQ(v.size(), 69u);
  EXPECT_NEAR(v.front(), 7000, 300);  // intro ~7000
  EXPECT_NEAR(v.back(), 2000, 300);   // completion ~2000
  // Mid-course near 5000 somewhere in the first third.
  bool mid = false;
  for (std::size_t i = 10; i < 30; ++i) mid |= std::abs(v[i] - 5000) < 400;
  EXPECT_TRUE(mid);
  // Globally decreasing trend (allow ripple): compare thirds.
  const auto third = v.size() / 3;
  auto avg = [&](std::size_t a, std::size_t b) {
    return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(a),
                           v.begin() + static_cast<std::ptrdiff_t>(b), 0.0) /
           static_cast<double>(b - a);
  };
  EXPECT_GT(avg(0, third), avg(third, 2 * third));
  EXPECT_GT(avg(third, 2 * third), avg(2 * third, v.size()));
}

TEST(Datasets, CountrySharesSumTo100) {
  double total = 0;
  for (const auto& c : participation_by_country()) total += c.percent;
  EXPECT_NEAR(total, 100.0, 0.01);
  EXPECT_EQ(participation_by_country()[0].country, "United States");
  EXPECT_EQ(participation_by_country()[1].country, "India");
}

TEST(Cohort, ReproducesPaperFunnelWithin10Percent) {
  util::Rng rng(161);
  const auto res = simulate_cohort({}, rng);
  const auto& ref = participation_funnel();
  ASSERT_EQ(res.funnel.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    EXPECT_LT(relative_error(res.funnel[k], ref[k].count), 0.10)
        << ref[k].name << ": sim " << res.funnel[k] << " vs " << ref[k].count;
}

TEST(Cohort, ViewerCurveMatchesShape) {
  util::Rng rng(162);
  const auto res = simulate_cohort({}, rng);
  const auto& ref = viewers_per_video();
  ASSERT_EQ(res.viewers_per_video.size(), ref.size());
  // First and last videos within 15% of the published numbers.
  EXPECT_LT(relative_error(res.viewers_per_video.front(), ref.front()), 0.15);
  EXPECT_LT(relative_error(res.viewers_per_video.back(), ref.back()), 0.30);
  // Monotone non-increasing by construction.
  for (std::size_t i = 1; i < res.viewers_per_video.size(); ++i)
    EXPECT_LE(res.viewers_per_video[i], res.viewers_per_video[i - 1]);
}

TEST(Cohort, DemographicsMatch) {
  util::Rng rng(163);
  const auto res = simulate_cohort({}, rng);
  const auto demo = demographics();
  EXPECT_NEAR(res.average_age, demo.average_age, 1.0);
  EXPECT_NEAR(res.female_percent, demo.female_percent, 1.5);
  ASSERT_FALSE(res.by_country.empty());
  // US and India lead, as in Fig. 10 ("Other" is an aggregate bucket).
  std::vector<std::string> top;
  for (std::size_t k = 0; k < 3 && k < res.by_country.size(); ++k)
    top.push_back(res.by_country[k].first);
  EXPECT_NE(std::find(top.begin(), top.end(), "United States"), top.end());
  EXPECT_NE(std::find(top.begin(), top.end(), "India"), top.end());
}

TEST(Cohort, DeterministicPerSeed) {
  util::Rng r1(7), r2(7);
  CohortOptions opt;
  opt.registered = 2000;
  const auto a = simulate_cohort(opt, r1);
  const auto b = simulate_cohort(opt, r2);
  EXPECT_EQ(a.funnel, b.funnel);
  EXPECT_EQ(a.viewers_per_video, b.viewers_per_video);
}

TEST(Cohort, MoreVideosLowerCompletion) {
  // The paper chose a shorter course citing retention; the model should
  // show completion (certificates per registrant) fall as videos grow.
  CohortOptions short_course;
  short_course.num_videos = 40;
  CohortOptions long_course;
  long_course.num_videos = 120;
  util::Rng r1(8), r2(8);
  const auto a = simulate_cohort(short_course, r1);
  const auto b = simulate_cohort(long_course, r2);
  // Viewers of the *last* video drop with course length.
  EXPECT_GT(a.viewers_per_video.back(), b.viewers_per_video.back());
}

TEST(SubmissionTrace, DeterministicPerSeedAndSorted) {
  TraceOptions opt;
  opt.num_students = 3000;
  opt.num_courses = 3;
  util::Rng r1(9), r2(9);
  const auto a = generate_submission_trace(opt, r1);
  const auto b = generate_submission_trace(opt, r2);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_FALSE(a.events.empty());
  EXPECT_EQ(a.bodies, b.bodies);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].course, b.events[i].course);
    EXPECT_EQ(a.events[i].student, b.events[i].student);
    EXPECT_EQ(a.events[i].body, b.events[i].body);
    EXPECT_EQ(a.events[i].arrival_tick, b.events[i].arrival_tick);
    EXPECT_EQ(a.events[i].deadline_tick, b.events[i].deadline_tick);
    EXPECT_EQ(a.events[i].lane, b.events[i].lane);
  }
  // Sorted by arrival (the service's sweep is a single pointer walk),
  // every event inside bounds, deadline at or after arrival.
  for (std::size_t i = 1; i < a.events.size(); ++i)
    EXPECT_LE(a.events[i - 1].arrival_tick, a.events[i].arrival_tick);
  for (const auto& ev : a.events) {
    EXPECT_LT(ev.course, 3u);
    EXPECT_LT(ev.arrival_tick, a.ticks);
    EXPECT_GE(ev.deadline_tick, ev.arrival_tick);
    EXPECT_LT(ev.body, a.bodies.size());
    EXPECT_LE(ev.lane, 1);
  }
}

TEST(SubmissionTrace, LanesFollowFirstSubmitThenResubmits) {
  TraceOptions opt;
  opt.num_students = 2000;
  opt.resubmit_rate = 0.7;
  util::Rng rng(4);
  const auto trace = generate_submission_trace(opt, rng);
  // Per student: exactly one lane-0 first submit, everything else lane 1.
  std::map<std::uint32_t, int> firsts;
  int resubmits = 0;
  for (const auto& ev : trace.events) {
    if (ev.lane == 0)
      ++firsts[ev.student];
    else
      ++resubmits;
  }
  for (const auto& [student, n] : firsts) EXPECT_EQ(n, 1) << student;
  EXPECT_GT(resubmits, 0);
  // The pool keeps the trace duplicate-heavy: far more events than
  // distinct bodies.
  EXPECT_GT(trace.events.size(), trace.bodies.size());
}

// ---- outcome wire format (result cache + journal frames) ----------------

/// An outcome of `kind` with every field set to a distinct value.
SubmissionOutcome sample_outcome(OutcomeKind kind) {
  SubmissionOutcome out;
  out.kind = kind;
  out.score = 87.25;
  out.attempts = 3;
  out.backoff_ticks = 6;
  out.status = util::Status::internal("worker crashed");
  out.diagnostic = "grader error: line 4\nbad token";
  return out;
}

/// The serialize_outcome layout written field by field, so a test can put
/// any value in the kind and status-code slots.
std::string raw_outcome(std::int64_t kind, std::int64_t code) {
  std::string bytes;
  cache::append_i64(bytes, kind);
  cache::append_f64(bytes, 1.5);
  cache::append_i64(bytes, 1);
  cache::append_i64(bytes, 0);
  cache::append_i64(bytes, code);
  cache::append_record(bytes, "msg");
  cache::append_record(bytes, "diag");
  return bytes;
}

TEST(OutcomeWireFormat, RoundTripsEveryKind) {
  for (const OutcomeKind kind :
       {OutcomeKind::kGraded, OutcomeKind::kFailed, OutcomeKind::kBudget,
        OutcomeKind::kExhausted, OutcomeKind::kRejected}) {
    const SubmissionOutcome in = sample_outcome(kind);
    SubmissionOutcome out;
    ASSERT_TRUE(deserialize_outcome(serialize_outcome(in), out))
        << static_cast<int>(kind);
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.score, in.score);
    EXPECT_EQ(out.attempts, in.attempts);
    EXPECT_EQ(out.backoff_ticks, in.backoff_ticks);
    EXPECT_EQ(out.status.code, in.status.code);
    EXPECT_EQ(out.status.message, in.status.message);
    EXPECT_EQ(out.diagnostic, in.diagnostic);
  }
}

TEST(OutcomeWireFormat, RejectsEveryTruncatedPrefix) {
  const std::string bytes =
      serialize_outcome(sample_outcome(OutcomeKind::kFailed));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SubmissionOutcome out;
    EXPECT_FALSE(deserialize_outcome(std::string_view(bytes).substr(0, len),
                                     out))
        << "prefix of " << len << " of " << bytes.size() << " bytes";
  }
}

TEST(OutcomeWireFormat, RejectsOutOfRangeKindAndStatusCode) {
  const auto last_kind = static_cast<std::int64_t>(OutcomeKind::kRejected);
  const auto last_code =
      static_cast<std::int64_t>(util::StatusCode::kInternalError);
  SubmissionOutcome out;
  ASSERT_TRUE(deserialize_outcome(raw_outcome(last_kind, last_code), out));
  EXPECT_EQ(out.kind, OutcomeKind::kRejected);
  EXPECT_EQ(out.status.code, util::StatusCode::kInternalError);
  EXPECT_FALSE(deserialize_outcome(raw_outcome(-1, 0), out));
  EXPECT_FALSE(deserialize_outcome(raw_outcome(last_kind + 1, 0), out));
  EXPECT_FALSE(deserialize_outcome(raw_outcome(0, -1), out));
  EXPECT_FALSE(deserialize_outcome(raw_outcome(0, last_code + 1), out));
}

TEST(OutcomeWireFormat, RejectsATrailingByte) {
  std::string bytes = serialize_outcome(sample_outcome(OutcomeKind::kGraded));
  SubmissionOutcome out;
  ASSERT_TRUE(deserialize_outcome(bytes, out));
  bytes.push_back('\0');
  EXPECT_FALSE(deserialize_outcome(bytes, out));
}

TEST(WordCloud, CountsAndFilters) {
  const auto counts = count_words({"More timing please", "timing and SAT",
                                   "the SAT part was great", "more routing"});
  // "timing" and "sat" counted twice; stop words dropped.
  auto find = [&](const std::string& w) {
    for (const auto& [word, n] : counts)
      if (word == w) return n;
    return 0;
  };
  EXPECT_EQ(find("timing"), 2);
  EXPECT_EQ(find("sat"), 2);
  EXPECT_EQ(find("the"), 0);
  EXPECT_EQ(find("and"), 0);
}

TEST(WordCloud, RenderOrdersByWeight) {
  const auto cloud = render_word_cloud({{"verification", 42}, {"drc", 8}});
  EXPECT_LT(cloud.find("VERIFICATION"), cloud.find("drc"));
  EXPECT_NE(cloud.find("(42)"), std::string::npos);
}

TEST(WordCloud, SurveyPipelineRecoversPublishedWeights) {
  const auto responses = synthesize_survey_responses(17);
  const auto counts = count_words(responses);
  // The mined counts must recover each published topic weight exactly
  // (the synthesis embeds each word `weight` times).
  for (const auto& w : survey_topics()) {
    bool found = false;
    for (const auto& [word, n] : counts) {
      if (word == util::to_lower(w.word)) {
        EXPECT_EQ(n, w.weight) << w.word;
        found = true;
      }
    }
    EXPECT_TRUE(found) << w.word;
  }
}

}  // namespace
}  // namespace l2l::mooc
