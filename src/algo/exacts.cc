#include "algo/exacts.h"

#include "util/logging.h"

namespace simsub::algo {

ExactS::ExactS(const similarity::SimilarityMeasure* measure)
    : measure_(measure) {
  SIMSUB_CHECK(measure != nullptr);
}

// The Algorithm 1 scan over every size. The cut-off is the best-so-far, so
// with a bailout the candidates skipped are strictly worse than the
// best-so-far (the returned optimum and its first-in-enumeration-order range
// are unchanged) or strictly worse than the bailout (the caller discards
// them anyway) — see SubtrajectorySearch::Search(.., bailout) for the
// contract.
SearchResult ExactS::DoSearch(std::span<const geo::Point> data,
                              std::span<const geo::Point> query,
                              similarity::EvaluatorCache& scratch,
                              std::optional<double> bailout) const {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  similarity::PrefixEvaluator& eval = *scratch.Acquire(*measure_, query);
  SearchResult result;
  const int n = static_cast<int>(data.size());
  ScanWindows(eval, data, 1, n, bailout, result.stats,
              [&](geo::SubRange range, double d) {
                if (d < result.distance) {
                  result.distance = d;
                  result.best = range;
                }
                return result.distance;
              });
  return result;
}

}  // namespace simsub::algo
