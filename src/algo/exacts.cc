#include "algo/exacts.h"

#include <algorithm>
#include <memory>

#include "util/logging.h"

namespace simsub::algo {

ExactS::ExactS(const similarity::SimilarityMeasure* measure)
    : measure_(measure) {
  SIMSUB_CHECK(measure != nullptr);
}

// The Algorithm 1 scan. With a bailout, the extensions of a start point are
// abandoned once the evaluator's lower bound exceeds min(bailout,
// best-so-far). Candidates skipped that way are strictly worse than the
// best-so-far (so the returned optimum and its first-in-enumeration-order
// range are unchanged) or strictly worse than the bailout (so the caller
// discards them anyway) — see SubtrajectorySearch::Search(.., bailout) for
// the contract.
SearchResult ExactS::DoSearch(std::span<const geo::Point> data,
                              std::span<const geo::Point> query,
                              similarity::EvaluatorCache* scratch,
                              std::optional<double> bailout) const {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  std::unique_ptr<similarity::PrefixEvaluator> owned;
  similarity::PrefixEvaluator& eval =
      *similarity::AcquireEvaluator(*measure_, query, scratch, &owned);
  SearchResult result;
  const int n = static_cast<int>(data.size());
  for (int i = 0; i < n; ++i) {
    double d = eval.Start(data[static_cast<size_t>(i)]);
    ++result.stats.start_calls;
    ++result.stats.candidates;
    if (d < result.distance) {
      result.distance = d;
      result.best = geo::SubRange(i, i);
    }
    for (int j = i + 1; j < n; ++j) {
      if (bailout &&
          eval.ExtensionLowerBound() > std::min(*bailout, result.distance)) {
        ++result.stats.abandoned;
        break;
      }
      d = eval.Extend(data[static_cast<size_t>(j)]);
      ++result.stats.extend_calls;
      ++result.stats.candidates;
      if (d < result.distance) {
        result.distance = d;
        result.best = geo::SubRange(i, j);
      }
    }
  }
  return result;
}

}  // namespace simsub::algo
