#include "algo/sizes.h"

#include <algorithm>
#include <cstdint>

#include "algo/exacts.h"
#include "util/logging.h"

namespace simsub::algo {

SizeS::SizeS(const similarity::SimilarityMeasure* measure, int xi)
    : measure_(measure), xi_(xi) {
  SIMSUB_CHECK(measure != nullptr);
  SIMSUB_CHECK_GE(xi, 0);
}

// The size-window scan (ScanWindows with the best-so-far as its cut-off).
// With a bailout, a start point's window is abandoned once the evaluator's
// lower bound exceeds min(bailout, best-so-far): every remaining candidate
// of the window (admissible or not) extends the current state, so all are
// provably worse (see the Search(.., bailout) contract).
SearchResult SizeS::DoSearch(std::span<const geo::Point> data,
                             std::span<const geo::Point> query,
                             similarity::EvaluatorCache& scratch,
                             std::optional<double> bailout) const {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  similarity::PrefixEvaluator& eval = *scratch.Acquire(*measure_, query);
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
  ScanWindows(eval, data, min_size, max_size, bailout, result.stats,
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
