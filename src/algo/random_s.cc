#include "algo/random_s.h"

#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace simsub::algo {

RandomSSearch::RandomSSearch(const similarity::SimilarityMeasure* measure,
                             int sample_size, uint64_t seed)
    : measure_(measure), sample_size_(sample_size), seed_(seed) {
  SIMSUB_CHECK(measure != nullptr);
  SIMSUB_CHECK_GT(sample_size, 0);
}

SearchResult RandomSSearch::DoSearch(std::span<const geo::Point> data,
                                     std::span<const geo::Point> query,
                                     similarity::EvaluatorCache& scratch,
                                     std::optional<double>) const {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  const int64_t n = static_cast<int64_t>(data.size());
  const int64_t total = n * (n + 1) / 2;
  SearchResult result;
  util::Rng rng(seed_);
  similarity::PrefixEvaluator& eval = *scratch.Acquire(*measure_, query);
  for (int s = 0; s < sample_size_; ++s) {
    // Decode a uniform draw over the triangular range index space: ranges
    // are ordered (0,0), (0,1) ... (0,n-1), (1,1), ... so start row i owns
    // n - i consecutive indices.
    int64_t idx = rng.UniformInt(0, total - 1);
    int64_t i = 0;
    int64_t row_size = n;
    while (idx >= row_size) {
      idx -= row_size;
      ++i;
      --row_size;
    }
    int64_t j = i + idx;
    // Score T[i..j] from scratch.
    double d = eval.Start(data[static_cast<size_t>(i)]);
    ++result.stats.start_calls;
    for (int64_t k = i + 1; k <= j; ++k) {
      d = eval.Extend(data[static_cast<size_t>(k)]);
      ++result.stats.extend_calls;
    }
    ++result.stats.candidates;
    if (d < result.distance) {
      result.distance = d;
      result.best = geo::SubRange(static_cast<int>(i), static_cast<int>(j));
    }
  }
  return result;
}

}  // namespace simsub::algo
