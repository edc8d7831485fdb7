// pairs_rl: the paper's Section 6.2 experiment 1 — one (data, query) pair
// at a time through SubtrajectorySearch::Search with the learned RLS and
// RLS-Skip policies (trained at set-up), single-threaded, closed loop.
// Engine, service and network are bypassed: RL inference and the
// incremental DP do the work.
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "algo/registry.h"
#include "common.h"
#include "similarity/registry.h"
#include "suite.h"

namespace simsub::suite {
namespace {

// A traced phase records a span for every kSpanStride-th search only: tens of
// thousands run per second. The stride is odd, so coprime to the pool size,
// and every pair gets spans over the phase.
constexpr int64_t kSpanStride = 17;

/// Statistics of one search per pair of the pool, in pool order.
struct PassStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double rate = 0.0;  // answered per second of the pass
  double lag_p50_us = 0.0;
  double lag_p99_us = 0.0;
};

/// The phase runs whole passes over the pair pool and reports, for each
/// timing, the median over passes of that pass's value. Every pass times
/// each pair once, so a pass's p99 is taken over the whole pool (41 of
/// 4,096 searches beyond it). Only the current pass is buffered, so the
/// benchmark's own memory does not grow with throughput.
struct PairsPhase {
  std::vector<PassStats> passes;
  std::map<std::string, std::pair<double, int64_t>> by_algorithm_us;  // sum, n
  double skipped = 0.0;
  double skip_points = 0.0;
  int64_t attempted = 0;
  int64_t answered = 0;
  int64_t mismatched = 0;
  double elapsed_s = 0.0;

  double MedianOverPasses(double PassStats::*field) const {
    std::vector<double> values;
    for (const PassStats& pass : passes) values.push_back(pass.*field);
    return Median(values);
  }
};

uint64_t HashSearch(const algo::SearchResult& r) {
  engine::QueryReport report;
  report.results.push_back({0, r.best, r.distance});
  return HashResults(report);
}

PairsPhase RunPairsPhase(const WorkloadDef& def, const Inputs& inputs,
                         double seconds, const std::vector<const algo::SubtrajectorySearch*>& searches,
                         const std::vector<uint64_t>& reference,
                         trace::Recorder& recorder) {
  PairsPhase phase;
  const auto& corpus = inputs.corpus.trajectories;
  const uint64_t trace_id = recorder.NewId();
  std::vector<double> latency_us;
  std::vector<double> lag_us;  // previous search done -> call
  const auto start = Clock::now();
  // At least one pass; then whole passes until the phase length has passed.
  while (phase.passes.empty() || Seconds(Clock::now() - start) < seconds) {
    latency_us.clear();
    lag_us.clear();
    const auto pass_start = Clock::now();
    auto previous_done = pass_start;
    for (size_t p = 0; p < inputs.pairs.size(); ++p) {
      const PairItem& pair = inputs.pairs[p];
      const std::string& algorithm = def.specs[static_cast<size_t>(pair.spec)].algorithm;
      const geo::Trajectory& data = corpus[static_cast<size_t>(pair.data)];
      const geo::Trajectory& query = corpus[static_cast<size_t>(pair.query)];
      const auto called = Clock::now();
      algo::SearchResult found =
          searches[static_cast<size_t>(pair.spec)]->Search(data, query);
      const auto done = Clock::now();
      if (phase.attempted++ % kSpanStride == 0 && recorder.enabled()) {
        recorder.RecordInterval("SubtrajectorySearch::Search", trace_id, 0, called, done,
                                {trace::Str("algorithm", algorithm),
                                 trace::Num("points_skipped",
                                            static_cast<double>(found.stats.points_skipped))});
      }
      if (HashSearch(found) != reference[p]) {
        ++phase.mismatched;
        continue;
      }
      const double us = Millis(done - called) * 1e3;
      ++phase.answered;
      latency_us.push_back(us);
      lag_us.push_back(Millis(called - previous_done) * 1e3);
      auto& [sum_us, count] = phase.by_algorithm_us[algorithm];
      sum_us += us;
      ++count;
      if (algorithm == "rls-skip") {
        phase.skipped += static_cast<double>(found.stats.points_skipped);
        phase.skip_points += static_cast<double>(data.size());
      }
      previous_done = done;
    }
    PassStats pass;
    pass.p50_us = Percentile(latency_us, 0.5);
    pass.p99_us = Percentile(latency_us, 0.99);
    pass.rate = static_cast<double>(latency_us.size()) /
                Seconds(Clock::now() - pass_start);
    pass.lag_p50_us = Percentile(lag_us, 0.5);
    pass.lag_p99_us = Percentile(lag_us, 0.99);
    phase.passes.push_back(pass);
  }
  phase.elapsed_s = Seconds(Clock::now() - start);
  return phase;
}

void AddPhase(const PairsPhase& phase, RunResult* result) {
  result->attempted += phase.attempted;
  result->failed += phase.attempted - phase.answered;
  result->mismatched += phase.mismatched;
}

}  // namespace

RunResult RunPairs(const RunConfig& config, const ClockSampler& clock,
                   trace::Recorder& recorder) {
  const WorkloadDef& def = config.def;
  RunResult result;
  const Inputs inputs = MakeInputs(def, config.seed);
  AnnounceInputs(config, inputs);
  auto dtw = similarity::MakeMeasure("dtw");
  if (!dtw.ok()) {
    std::fprintf(stderr, "MakeMeasure: %s\n", dtw.status().ToString().c_str());
    std::exit(1);
  }

  // Set-up is policy training: one policy per algorithm of the mix
  // ("rls" without skip actions, "rls-skip" with three), trained
  // concurrently, one thread each, which keeps a run with three set-ups
  // under 30 s.
  std::vector<rl::TrainedPolicy> policies(def.specs.size());
  std::vector<double> setup_s;
  const auto setup_began = Clock::now();
  while (AnotherSetup(setup_s.size(), setup_began)) {
    const uint64_t trace_id = recorder.NewId();
    const auto t0 = Clock::now();
    std::vector<std::thread> trainers;
    for (size_t s = 0; s < def.specs.size(); ++s) {
      trainers.emplace_back([&, s] {
        trace::Span span(recorder, "rl::RlsTrainer::Train", trace_id);
        span.Text("algorithm", def.specs[s].algorithm);
        const int skip_count = def.specs[s].algorithm == "rls-skip" ? 3 : 0;
        policies[s] = bench::TrainPolicy(
            dtw->get(), inputs.corpus, def.train_episodes,
            bench::DefaultEnvOptions("dtw", skip_count), DeriveSeed(kDatasetSeed, 10 + s));
      });
    }
    for (std::thread& t : trainers) t.join();
    setup_s.push_back(Seconds(Clock::now() - t0));
  }
  SetSetup(clock.ToReference(setup_began, Clock::now()), Median(setup_s), &result);
  result.Set("rl.train_s", Median(setup_s));

  std::vector<std::unique_ptr<algo::SubtrajectorySearch>> owned;
  std::vector<const algo::SubtrajectorySearch*> searches;
  for (size_t s = 0; s < def.specs.size(); ++s) {
    algo::SearchOptions options;
    options.rls_policy = &policies[s];
    auto made = algo::MakeSearch(def.specs[s].algorithm, dtw->get(), options);
    if (!made.ok()) {
      std::fprintf(stderr, "MakeSearch: %s\n", made.status().ToString().c_str());
      std::exit(1);
    }
    owned.push_back(std::move(*made));
    searches.push_back(owned.back().get());
  }

  // Reference pass (also the warm-up): one answer per pair.
  const auto& corpus = inputs.corpus.trajectories;
  std::vector<uint64_t> reference;
  std::vector<ScoredAnswer> answers;
  for (const PairItem& pair : inputs.pairs) {
    const geo::Trajectory& data = corpus[static_cast<size_t>(pair.data)];
    const geo::Trajectory& query = corpus[static_cast<size_t>(pair.query)];
    algo::SearchResult found =
        searches[static_cast<size_t>(pair.spec)]->Search(data, query);
    reference.push_back(HashSearch(found));
    answers.push_back({pair.spec, data.View(), query.View(), found.best,
                       found.distance, found.distance_exact});
  }
  if (config.corrupt_reference) reference.front() ^= 1;

  const bool traced = config.traced;
  recorder.set_enabled(false);
  const double measured_s = traced ? config.seconds / 2 : config.seconds;
  const auto phase_began = Clock::now();
  PairsPhase untraced =
      RunPairsPhase(def, inputs, measured_s, searches, reference, recorder);
  AddPhase(untraced, &result);
  SetOkRatio(untraced.attempted, untraced.attempted - untraced.answered, &result);
  std::printf("phase: %lld searches in %zu passes of %zu pairs, every one timed\n",
              static_cast<long long>(untraced.attempted), untraced.passes.size(),
              inputs.pairs.size());
  SetPhaseTimings(clock.ToReference(phase_began, Clock::now()),
                  untraced.MedianOverPasses(&PassStats::p50_us) * 1e-3,
                  untraced.MedianOverPasses(&PassStats::p99_us) * 1e-3,
                  untraced.MedianOverPasses(&PassStats::rate), &result);

  if (traced) {
    recorder.set_enabled(true);
    PairsPhase phase = RunPairsPhase(def, inputs, measured_s, searches, reference, recorder);
    AddPhase(phase, &result);
    result.Set("loadgen.offered_qps",
               static_cast<double>(phase.attempted) / phase.elapsed_s);
    result.Set("loadgen.send_lag_ms.p50",
               phase.MedianOverPasses(&PassStats::lag_p50_us) * 1e-3);
    result.Set("loadgen.send_lag_ms.p99",
               phase.MedianOverPasses(&PassStats::lag_p99_us) * 1e-3);
    for (const auto& [algorithm, sum] : phase.by_algorithm_us) {
      result.Set(algorithm == "rls" ? "rl.search_us.rls" : "rl.search_us.rls_skip",
                 sum.first / static_cast<double>(sum.second));
    }
    if (phase.skip_points > 0) {
      result.Set("rl.skip_ratio", phase.skipped / phase.skip_points);
    }
    const double untraced_p50 = untraced.MedianOverPasses(&PassStats::p50_us);
    if (untraced_p50 > 0) {
      result.Set("trace.overhead_ratio",
                 phase.MedianOverPasses(&PassStats::p50_us) / untraced_p50);
    }
  }

  QualityPass(def, answers, recorder, &result);
  result.Set("peak_rss_mb", PeakRssMb());
  return result;
}

}  // namespace simsub::suite
