// Per-layer replay of a service workload (serve_*, batch_exact), run after
// the traced phase: a sample of the workload's own requests goes straight
// through the public functions of the layers under the service, one span
// per call, so each layer's cost and hit rates are measured where the work
// happens.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "algo/lower_bounds.h"
#include "algo/registry.h"
#include "net/wire.h"
#include "similarity/registry.h"
#include "suite.h"

namespace simsub::suite {
namespace {

// Requests replayed per spec template, and data trajectories per request
// for the per-candidate pass.
constexpr int kEngineSamplesPerSpec = 4;
constexpr int kCandidatesPerRequest = 32;
constexpr int kResolveRepetitions = 8;

template <typename T>
T CheckOk(util::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*result);
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Runs `call`, then records it as a span; returns its duration in µs. The
/// span is recorded after the clock stops, so recording never counts
/// towards the measured call (several of them take well under a µs).
template <typename F>
double Timed(trace::Recorder& recorder, const char* name, uint64_t trace_id,
             F&& call, std::vector<trace::Attr> attrs = {}) {
  const auto start = Clock::now();
  call();
  const auto end = Clock::now();
  recorder.RecordInterval(name, trace_id, 0, start, end, std::move(attrs));
  return Micros(end - start);
}

struct Resolved {
  std::unique_ptr<similarity::SimilarityMeasure> measure;
  std::unique_ptr<algo::SubtrajectorySearch> search;
  std::unique_ptr<algo::SubtrajectorySearch> exact;
};

}  // namespace

void ReplayLayers(const RunConfig& config, const Inputs& inputs,
                  const std::vector<service::QuerySpec>& specs,
                  const std::vector<engine::QueryReport>& reference,
                  const service::QueryService& service,
                  trace::Recorder& recorder, RunResult* result) {
  const WorkloadDef& def = config.def;
  const engine::SimSubEngine& engine = service.engine();
  const size_t spec_count = def.specs.size();

  // Registries: resolve every spec template, as the service does on a
  // resolved-spec cache miss.
  std::vector<size_t> first_of_spec(spec_count);
  for (size_t i = inputs.items.size(); i-- > 0;) {
    first_of_spec[static_cast<size_t>(inputs.items[i].spec)] = i;
  }
  std::vector<Resolved> resolved(spec_count);
  std::vector<double> resolve_us;
  for (int rep = 0; rep < kResolveRepetitions; ++rep) {
    for (size_t s = 0; s < spec_count; ++s) {
      const service::QuerySpec& spec = specs[first_of_spec[s]];
      Resolved& r = resolved[s];
      const uint64_t trace_id = recorder.NewId();
      double us = Timed(recorder, "similarity::MakeMeasure", trace_id, [&] {
        r.measure = CheckOk(similarity::MakeMeasure(spec.measure, spec.measure_options),
                            "MakeMeasure");
      });
      us += Timed(recorder, "algo::MakeSearch", trace_id, [&] {
        r.search = CheckOk(
            algo::MakeSearch(spec.algorithm, r.measure.get(), spec.algorithm_options),
            "MakeSearch");
      });
      resolve_us.push_back(us);
    }
  }
  result->Set("service.resolve_us", Mean(resolve_us));
  for (Resolved& r : resolved) {
    r.exact = CheckOk(algo::MakeSearch("exacts", r.measure.get()), "MakeSearch");
  }

  if (def.loop == LoopKind::kOpen) {
    // Planner and wire codec: the serving path's per-request overheads.
    std::vector<double> plan_us;
    std::vector<double> encode_us;
    std::vector<double> codec_us;
    std::vector<double> report_bytes;
    for (size_t i = 0; i < specs.size(); ++i) {
      const uint64_t trace_id = recorder.NewId();
      plan_us.push_back(Timed(recorder, "QueryPlanner::Plan", trace_id, [&] {
        (void)service.planner().Plan(specs[i].points);
      }));
      encode_us.push_back(Timed(recorder, "wire::EncodeQuery", trace_id, [&] {
        (void)CheckOk(net::EncodeQuery(specs[i], "suite"), "EncodeQuery");
      }));
      std::vector<uint8_t> bytes;
      engine::QueryReport decoded;
      double us = Timed(recorder, "wire::EncodeReport", trace_id,
                        [&] { bytes = net::EncodeReport(reference[i]); });
      us += Timed(recorder, "wire::DecodeReport", trace_id, [&] {
        decoded = CheckOk(net::DecodeReport(bytes), "DecodeReport");
      });
      if (HashResults(decoded) != HashResults(reference[i])) ++result->mismatched;
      codec_us.push_back(us);
      report_bytes.push_back(static_cast<double>(bytes.size()));
    }
    result->Set("service.plan_us", Mean(plan_us));
    result->Set("net.encode_query_us", Mean(encode_us));
    result->Set("net.report_codec_us", Mean(codec_us));
    result->Set("net.report_bytes", Mean(report_bytes));
  }

  // Engine: the sampled requests with the cascade on and off, on the filter
  // the service used. Each answer must equal the reference.
  similarity::EvaluatorCache scratch;
  std::vector<size_t> sample;
  for (size_t s = 0; s < spec_count; ++s) {
    std::vector<size_t> of_spec;
    for (size_t i = 0; i < inputs.items.size(); ++i) {
      if (static_cast<size_t>(inputs.items[i].spec) == s) of_spec.push_back(i);
    }
    for (int j = 0; j < kEngineSamplesPerSpec && !of_spec.empty(); ++j) {
      sample.push_back(of_spec[static_cast<size_t>(j) * of_spec.size() /
                               kEngineSamplesPerSpec]);
    }
  }
  std::vector<double> pruned_ms;
  double pruned_total = 0.0;
  double unpruned_total = 0.0;
  for (size_t i : sample) {
    const Resolved& r = resolved[static_cast<size_t>(inputs.items[i].spec)];
    const uint64_t trace_id = recorder.NewId();
    for (bool prune : {true, false}) {
      engine::QueryOptions options;
      options.k = kTopK;
      options.filter = reference[i].filter_used;
      options.threads = 1;
      options.scratch = &scratch;
      options.prune = prune;
      engine::QueryReport report;
      const double ms = 1e-3 * Timed(
          recorder, "SimSubEngine::Query", trace_id,
          [&] { report = engine.Query(specs[i].points, *r.search, options); },
          {trace::Num("prune", prune ? 1.0 : 0.0)});
      if (HashResults(report) != HashResults(reference[i])) ++result->mismatched;
      (prune ? pruned_total : unpruned_total) += ms;
      if (prune) pruned_ms.push_back(ms);
    }
  }
  result->Set("engine.query_ms.p50", Median(pruned_ms));
  result->Set("engine.prune_speedup",
              pruned_total > 0 ? unpruned_total / pruned_total : 0.0);

  if (def.loop == LoopKind::kClosedBatch) {
    // Multi-query tiling: the first tile of every key as one QueryBatch
    // versus the same queries one Query at a time.
    double sequential_us = 0.0;
    double batched_us = 0.0;
    for (size_t s = 0; s < spec_count; ++s) {
      std::vector<size_t> tile;
      for (int item : inputs.batches.front()) {
        if (static_cast<size_t>(inputs.items[static_cast<size_t>(item)].spec) == s) {
          tile.push_back(static_cast<size_t>(item));
        }
      }
      const uint64_t trace_id = recorder.NewId();
      std::vector<engine::BatchedQueryView> views;
      for (size_t i : tile) {
        engine::QueryOptions options;
        options.k = kTopK;
        options.scratch = &scratch;
        sequential_us += Timed(recorder, "SimSubEngine::Query", trace_id, [&] {
          (void)engine.Query(specs[i].points, *resolved[s].search, options);
        });
        views.push_back({specs[i].points, kTopK});
      }
      engine::BatchQueryOptions options;
      options.scratch = &scratch;
      std::vector<engine::QueryReport> reports;
      batched_us += Timed(recorder, "SimSubEngine::QueryBatch", trace_id, [&] {
        reports = engine.QueryBatch(views, *resolved[s].search, options);
      });
      for (size_t j = 0; j < tile.size(); ++j) {
        if (HashResults(reports[j]) != HashResults(reference[tile[j]])) {
          ++result->mismatched;
        }
      }
    }
    result->Set("engine.batch_speedup",
                batched_us > 0 ? sequential_us / batched_us : 0.0);
  }

  // Per candidate: the two cascade bounds, the bounded search at the final
  // best-kth threshold, and the exact distance the bounds approximate.
  std::vector<double> search_us;
  std::vector<double> lb_us;
  std::vector<double> tightness;
  std::map<std::string, std::vector<double>> rl_us;
  double abandoned = 0.0;
  double starts = 0.0;
  double skipped = 0.0;
  double skip_points = 0.0;
  const size_t corpus = engine.database().size();
  for (size_t i : sample) {
    const Resolved& r = resolved[static_cast<size_t>(inputs.items[i].spec)];
    const std::string& algorithm = specs[i].algorithm;
    const bool rl = algorithm == "rls" || algorithm == "rls-skip";
    const std::span<const geo::Point> query = specs[i].points;
    const auto& entries = reference[i].results;
    const double bailout = entries.size() == static_cast<size_t>(kTopK)
                               ? entries.back().distance
                               : std::numeric_limits<double>::infinity();
    const similarity::DistanceAggregation aggregation =
        r.search->measure() != nullptr ? r.search->measure()->aggregation()
                                       : similarity::DistanceAggregation::kOther;
    const uint64_t trace_id = recorder.NewId();
    for (int c = 0; c < kCandidatesPerRequest; ++c) {
      const auto ordinal = static_cast<int64_t>(
          (static_cast<size_t>(c) * corpus / kCandidatesPerRequest + i) % corpus);
      const std::span<const geo::Point> data =
          engine.database()[static_cast<size_t>(ordinal)].View();
      if (aggregation != similarity::DistanceAggregation::kOther) {
        double bound = 0.0;
        double us = Timed(recorder, "algo::MbrLowerBound", trace_id, [&] {
          (void)algo::MbrLowerBound(aggregation, engine.TrajectoryMbr(ordinal), query);
        });
        us += Timed(recorder, "algo::NearestEndpointLowerBound", trace_id, [&] {
          bound = algo::NearestEndpointLowerBound(
              aggregation, engine.TrajectorySoa(ordinal), query);
        });
        lb_us.push_back(us);
        const double exact = r.exact->Search(data, query, &scratch).distance;
        if (exact > 0.0) tightness.push_back(bound / exact);
      }
      algo::SearchResult found;
      const double us = Timed(
          recorder, "SubtrajectorySearch::Search", trace_id,
          [&] { found = r.search->Search(data, query, &scratch, bailout); },
          {trace::Str("algorithm", algorithm)});
      if (rl) {
        rl_us[algorithm].push_back(us);
        if (algorithm == "rls-skip") {
          skipped += static_cast<double>(found.stats.points_skipped);
          skip_points += static_cast<double>(data.size());
        }
      } else {
        search_us.push_back(us);
        abandoned += static_cast<double>(found.stats.abandoned);
        starts += static_cast<double>(found.stats.start_calls);
      }
    }
  }
  result->Set("algo.search_us_per_candidate", Mean(search_us));
  if (!lb_us.empty()) {
    result->Set("algo.lb_us_per_candidate", Mean(lb_us));
    result->Set("algo.lb_tightness", Mean(tightness));
  }
  result->Set("algo.abandoned_ratio", starts > 0 ? abandoned / starts : 0.0);
  for (const auto& [algorithm, us] : rl_us) {
    result->Set(algorithm == "rls" ? "rl.search_us.rls" : "rl.search_us.rls_skip",
                Mean(us));
  }
  if (skip_points > 0) result->Set("rl.skip_ratio", skipped / skip_points);
}

}  // namespace simsub::suite
