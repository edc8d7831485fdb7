#include "algo/sizes.h"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "util/logging.h"

namespace simsub::algo {

SizeS::SizeS(const similarity::SimilarityMeasure* measure, int xi)
    : measure_(measure), xi_(xi) {
  SIMSUB_CHECK(measure != nullptr);
  SIMSUB_CHECK_GE(xi, 0);
}

// The size-window scan. With a bailout, a start point's window is abandoned
// once the evaluator's lower bound exceeds min(bailout, best-so-far): every
// remaining candidate of the window (admissible or not) extends the current
// state, so all are provably worse (see the Search(.., bailout) contract).
SearchResult SizeS::DoSearch(std::span<const geo::Point> data,
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
  const int m = static_cast<int>(query.size());
  // Clamp the window so at least one candidate is always admissible, even
  // when the data trajectory is shorter than m - xi.
  const int min_size = std::max(1, std::min(m - xi_, n));
  // 64-bit sum clamped to n (no candidate exceeds the data length anyway):
  // xi comes off the wire as a full-range i32, and `m + xi` in int is UB at
  // the top of that range.
  const int max_size =
      static_cast<int>(std::min<int64_t>(n, static_cast<int64_t>(m) + xi_));
  for (int i = 0; i < n; ++i) {
    if (i + min_size > n) break;  // No admissible subtrajectory starts here.
    double d = eval.Start(data[static_cast<size_t>(i)]);
    ++result.stats.start_calls;
    int size = 1;
    if (size >= min_size) {
      ++result.stats.candidates;
      if (d < result.distance) {
        result.distance = d;
        result.best = geo::SubRange(i, i);
      }
    }
    for (int j = i + 1; j < n && size < max_size; ++j) {
      if (bailout &&
          eval.ExtensionLowerBound() > std::min(*bailout, result.distance)) {
        ++result.stats.abandoned;
        break;
      }
      d = eval.Extend(data[static_cast<size_t>(j)]);
      ++result.stats.extend_calls;
      ++size;
      if (size >= min_size) {
        ++result.stats.candidates;
        if (d < result.distance) {
          result.distance = d;
          result.best = geo::SubRange(i, j);
        }
      }
    }
  }
  return result;
}

}  // namespace simsub::algo
