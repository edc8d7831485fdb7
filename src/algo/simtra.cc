#include "algo/simtra.h"

#include "util/logging.h"

namespace simsub::algo {

SimTraSearch::SimTraSearch(const similarity::SimilarityMeasure* measure)
    : measure_(measure) {
  SIMSUB_CHECK(measure != nullptr);
}

SearchResult SimTraSearch::DoSearch(std::span<const geo::Point> data,
                                    std::span<const geo::Point> query,
                                    similarity::EvaluatorCache&,
                                    std::optional<double>) const {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  SearchResult result;
  result.best = geo::SubRange(0, static_cast<int>(data.size()) - 1);
  result.distance = measure_->Distance(data, query);
  result.stats.candidates = 1;
  result.stats.start_calls = 1;
  result.stats.extend_calls = static_cast<int64_t>(data.size()) - 1;
  return result;
}

}  // namespace simsub::algo
