#include "suite.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>
#include <unordered_map>

#include "eval/metrics.h"
#include "similarity/registry.h"

namespace simsub::suite {

namespace {

constexpr auto kClockPeriod = std::chrono::milliseconds(50);

/// One reading of the clock kernel, in microseconds: the fastest of five
/// runs of a 160 x 160 DTW-style recurrence over fixed inputs. Each cell
/// depends on its left neighbour, so the chain is serial and its time
/// follows the core's clock and how much of the core this thread gets.
double KernelUs() {
  constexpr size_t kN = 160;
  static const std::vector<double> a = [] {
    std::vector<double> v(kN);
    for (size_t i = 0; i < kN; ++i) v[i] = std::sin(0.1 * static_cast<double>(i));
    return v;
  }();
  static const std::vector<double> b = [] {
    std::vector<double> v(kN);
    for (size_t i = 0; i < kN; ++i) v[i] = std::cos(0.13 * static_cast<double>(i));
    return v;
  }();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> prev(kN + 1);
  std::vector<double> cur(kN + 1);
  double best_us = kInf;
  for (int run = 0; run < 5; ++run) {
    const auto start = Clock::now();
    std::fill(prev.begin(), prev.end(), kInf);
    prev[0] = 0.0;
    for (size_t i = 0; i < kN; ++i) {
      cur[0] = kInf;
      for (size_t j = 0; j < kN; ++j) {
        cur[j + 1] = std::abs(a[i] - b[j]) + std::min({prev[j], prev[j + 1], cur[j]});
      }
      std::swap(prev, cur);
    }
    volatile double sink = prev[kN];
    (void)sink;
    best_us = std::min(best_us, Millis(Clock::now() - start) * 1e3);
  }
  return best_us;
}

}  // namespace

ClockSampler::ClockSampler() : thread_([this] { Loop(); }) {}

ClockSampler::~ClockSampler() {
  stop_ = true;
  thread_.join();
}

void ClockSampler::Loop() {
  while (!stop_) {
    const double us = KernelUs();
    {
      std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back({Clock::now(), us});
    }
    std::this_thread::sleep_for(kClockPeriod);
  }
}

double ClockSampler::ToReference(Clock::time_point from, Clock::time_point to) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> inside;
  const std::pair<Clock::time_point, double>* nearest = nullptr;
  for (const auto& sample : samples_) {
    if (sample.first >= from && sample.first <= to) inside.push_back(sample.second);
    if (nearest == nullptr || std::chrono::abs(sample.first - from) <
                                  std::chrono::abs(nearest->first - from)) {
      nearest = &sample;
    }
  }
  if (!inside.empty()) return kReferenceKernelUs / Median(std::move(inside));
  return nearest != nullptr ? kReferenceKernelUs / nearest->second : 1.0;
}

void SetSetup(double to_reference, double measured_s, RunResult* result) {
  result->Set("setup_s", measured_s * to_reference);
  std::printf("set-up: %.6f s measured, machine at %.3f of the reference clock\n",
              measured_s, to_reference);
}

void SetPhaseTimings(double to_reference, double p50_ms, double p99_ms,
                     std::optional<double> closed_loop_qps, RunResult* result) {
  result->Set("p50_ms", p50_ms * to_reference);
  result->Set("p99_ms", p99_ms * to_reference);
  if (closed_loop_qps) result->Set("qps", *closed_loop_qps / to_reference);
  std::printf("phase: p50 %.6f ms, p99 %.6f ms", p50_ms, p99_ms);
  if (closed_loop_qps) std::printf(", %.2f q/s", *closed_loop_qps);
  std::printf(" measured, machine at %.3f of the reference clock\n", to_reference);
}

void SetOkRatio(int64_t attempted, int64_t failed, RunResult* result) {
  result->Set("ok_ratio", attempted > 0 ? static_cast<double>(attempted - failed) /
                                              static_cast<double>(attempted)
                                        : 0.0);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double WindowedPercentile(const std::vector<double>& in_time_order, double q) {
  const size_t windows = in_time_order.size() / kWindowSamples;
  if (windows < 2) return Percentile(in_time_order, q);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    auto first = in_time_order.begin() + static_cast<std::ptrdiff_t>(w * kWindowSamples);
    auto last = w + 1 == windows ? in_time_order.end() : first + kWindowSamples;
    per_window.push_back(Percentile(std::vector<double>(first, last), q));
  }
  return Median(std::move(per_window));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

bool AnotherSetup(size_t done, Clock::time_point first_began) {
  return done < static_cast<size_t>(kMinSetups) ||
         Seconds(Clock::now() - first_began) < kSetupBudgetSeconds;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AnnounceInputs(const RunConfig& config, const Inputs& inputs) {
  const Schedule schedule =
      MakeSchedule(config.def, inputs, config.seed, 0, config.seconds);
  std::printf("inputs: %zu trajectories (%lld points), %zu queries, %zu "
              "requests, %zu pairs, request stream %016llx\n",
              inputs.corpus.trajectories.size(),
              static_cast<long long>(inputs.corpus.TotalPoints()),
              inputs.queries.size(), inputs.items.size(), inputs.pairs.size(),
              static_cast<unsigned long long>(RequestStreamHash(inputs, schedule)));
}

service::QuerySpec MakeSpec(const WorkloadDef& def, const Inputs& inputs,
                            const Item& item, const std::string& policy_path,
                            std::optional<engine::PruningFilter> filter,
                            double deadline_ms) {
  const SpecTemplate& t = def.specs[static_cast<size_t>(item.spec)];
  service::QuerySpec spec;
  spec.points = inputs.queries[static_cast<size_t>(item.query)].View();
  spec.measure = t.measure;
  spec.algorithm = t.algorithm;
  if (t.algorithm == "rls" || t.algorithm == "rls-skip") {
    spec.algorithm_options.rls_policy_path = policy_path;
  }
  spec.k = kTopK;
  spec.filter = filter;
  spec.deadline_ms = deadline_ms;
  return spec;
}

uint64_t HashResults(const engine::QueryReport& report) {
  Fnv fnv;
  for (const engine::TopKEntry& e : report.results) {
    fnv.Value(e.trajectory_id);
    fnv.Value(e.range.start);
    fnv.Value(e.range.end);
    fnv.Value(e.distance);
  }
  return fnv.hash();
}

std::vector<engine::QueryReport> ReferenceAnswers(
    service::QueryService& service, std::vector<service::QuerySpec> specs,
    int threads) {
  std::vector<engine::QueryReport> reports(specs.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next.fetch_add(1); i < specs.size(); i = next.fetch_add(1)) {
      specs[i].deadline_ms = 0.0;  // the reference never expires
      reports[i] = service.RunOne(specs[i]);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return reports;
}

std::string ScratchPath(const RunConfig& config, const char* stem) {
  return config.workdir + "/" + config.def.name + "-" +
         std::to_string(::getpid()) + "-" + stem;
}

void QualityPass(const WorkloadDef& def,
                 const std::vector<ScoredAnswer>& answers,
                 trace::Recorder& recorder, RunResult* result) {
  std::vector<std::unique_ptr<similarity::SimilarityMeasure>> measures;
  for (const SpecTemplate& t : def.specs) {
    auto made = similarity::MakeMeasure(t.measure);
    if (!made.ok()) {
      std::fprintf(stderr, "MakeMeasure(%s): %s\n", t.measure.c_str(),
                   made.status().ToString().c_str());
      std::exit(1);
    }
    measures.push_back(std::move(*made));
  }
  struct CellCost {
    double seconds = 0.0;
    double cells = 0.0;
  };
  std::map<std::string, CellCost> cost;
  std::vector<double> ratios;
  const uint64_t trace_id = recorder.NewId();
  for (const ScoredAnswer& a : answers) {
    const SpecTemplate& t = def.specs[static_cast<size_t>(a.spec)];
    trace::Span span(recorder, "eval::EvaluateRank", trace_id);
    span.Text("algorithm", t.algorithm);
    auto start = Clock::now();
    eval::RankEvaluation rank = eval::EvaluateRank(
        *measures[static_cast<size_t>(a.spec)], a.data, a.query, a.range);
    CellCost& c = cost[t.measure];
    c.seconds += Seconds(Clock::now() - start);
    const double n = static_cast<double>(a.data.size());
    c.cells += (n * (n + 1.0) / 2.0 + static_cast<double>(a.range.size())) *
               static_cast<double>(a.query.size());
    span.Attr("ar", rank.ar());
    ratios.push_back(rank.ar());
    const double tolerance = 1e-9 * std::max(1.0, std::abs(rank.returned_distance));
    if (a.distance_exact &&
        !(std::abs(a.distance - rank.returned_distance) <= tolerance)) {
      ++result->mismatched;
    }
  }
  result->Set("mean_ar", Mean(ratios));
  for (const auto& [measure, c] : cost) {
    if (c.cells > 0) {
      result->Set("similarity.ns_per_cell." + measure, c.seconds * 1e9 / c.cells);
    }
  }
}

std::vector<ScoredAnswer> TopAnswers(
    const WorkloadDef& def, const Inputs& inputs,
    const std::vector<engine::QueryReport>& reports) {
  std::unordered_map<int64_t, size_t> ordinal;
  for (size_t i = 0; i < inputs.corpus.trajectories.size(); ++i) {
    ordinal[inputs.corpus.trajectories[i].id()] = i;
  }
  std::vector<ScoredAnswer> answers;
  for (size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].results.empty()) continue;
    const engine::TopKEntry& top = reports[i].results.front();
    const Item& item = inputs.items[i];
    ScoredAnswer a;
    a.spec = item.spec;
    a.data = inputs.corpus.trajectories[ordinal.at(top.trajectory_id)].View();
    a.query = inputs.queries[static_cast<size_t>(item.query)].View();
    a.range = top.range;
    a.distance = top.distance;
    a.distance_exact =
        def.specs[static_cast<size_t>(item.spec)].algorithm != "rls-skip";
    answers.push_back(a);
  }
  return answers;
}

void ReportCounters(const std::vector<engine::QueryReport>& reports,
                    int64_t corpus_size, RunResult* result) {
  if (reports.empty()) return;
  double scanned = 0.0;
  double skipped = 0.0;
  double abandoned = 0.0;
  double planned = 0.0;
  double selectivity_error = 0.0;
  double by_filter[3] = {0.0, 0.0, 0.0};
  const auto n = static_cast<double>(corpus_size);
  for (const engine::QueryReport& r : reports) {
    scanned += static_cast<double>(r.trajectories_scanned);
    skipped += static_cast<double>(r.lb_skipped);
    abandoned += static_cast<double>(r.dp_abandoned);
    by_filter[static_cast<int>(r.filter_used)] += 1.0;
    if (r.planned_selectivity >= 0.0) {
      planned += 1.0;
      selectivity_error += std::abs(
          r.planned_selectivity - static_cast<double>(r.trajectories_scanned) / n);
    }
  }
  const auto count = static_cast<double>(reports.size());
  result->Set("engine.keep_ratio", scanned / count / n);
  result->Set("engine.lb_skip_ratio", scanned > 0 ? skipped / scanned : 0.0);
  result->Set("engine.dp_abandoned_per_query", abandoned / count);
  result->Set("service.plan_share.none", by_filter[0] / count);
  result->Set("service.plan_share.rtree", by_filter[1] / count);
  result->Set("service.plan_share.grid", by_filter[2] / count);
  if (planned > 0) {
    result->Set("service.selectivity_error", selectivity_error / planned);
  }
}

void ServiceCounters(const service::ServiceStats& before,
                     const service::ServiceStats& after, RunResult* result) {
  const auto hits = static_cast<double>(after.spec_cache_hits - before.spec_cache_hits);
  const auto misses =
      static_cast<double>(after.spec_cache_misses - before.spec_cache_misses);
  const auto reuses =
      static_cast<double>(after.evaluator_reuses - before.evaluator_reuses);
  const auto allocs =
      static_cast<double>(after.evaluator_allocs - before.evaluator_allocs);
  if (hits + misses > 0) {
    result->Set("service.spec_cache_hit_ratio", hits / (hits + misses));
  }
  if (reuses + allocs > 0) {
    result->Set("service.evaluator_reuse_ratio", reuses / (reuses + allocs));
  }
}

}  // namespace simsub::suite
