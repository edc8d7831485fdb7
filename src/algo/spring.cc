#include "algo/spring.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/logging.h"

namespace simsub::algo {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

SpringSearch::SpringSearch(double band_fraction)
    : band_fraction_(band_fraction) {
  SIMSUB_CHECK_GT(band_fraction, 0.0);
}

SearchResult SpringSearch::DoSearch(std::span<const geo::Point> data,
                                    std::span<const geo::Point> query,
                                    similarity::EvaluatorCache&,
                                    std::optional<double>) const {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  const int n = static_cast<int>(data.size());
  const int m = static_cast<int>(query.size());
  const long long band =
      band_fraction_ >= 1.0
          ? std::numeric_limits<long long>::max()
          : static_cast<long long>(std::ceil(band_fraction_ * n));

  // STWM (subsequence time-warping matrix): d[j] is the DTW cost of the best
  // warping path ending at (current data row, query column j); s[j] is the
  // data index where that path started. The virtual column j = -1 has cost 0
  // with start = current row, which is what lets matches begin anywhere.
  std::vector<double> prev_d(static_cast<size_t>(m), kInf);
  std::vector<double> cur_d(static_cast<size_t>(m), kInf);
  std::vector<int> prev_s(static_cast<size_t>(m), 0);
  std::vector<int> cur_s(static_cast<size_t>(m), 0);

  SearchResult result;
  for (int i = 0; i < n; ++i) {
    std::fill(cur_d.begin(), cur_d.end(), kInf);
    for (int j = 0; j < m; ++j) {
      if (std::llabs(static_cast<long long>(i) - j) > band) continue;
      double dist = geo::Distance(data[static_cast<size_t>(i)],
                                  query[static_cast<size_t>(j)]);
      double best;
      int start;
      if (j == 0) {
        // Column 0 sits next to the virtual star column of cost 0, so the
        // cheapest path always starts fresh at row i (all costs are
        // non-negative, hence min(0, D(i-1, 0)) = 0).
        best = 0.0;
        start = i;
      } else {
        best = cur_d[static_cast<size_t>(j) - 1];
        start = cur_s[static_cast<size_t>(j) - 1];
        if (i > 0) {
          if (prev_d[static_cast<size_t>(j)] < best) {
            best = prev_d[static_cast<size_t>(j)];
            start = prev_s[static_cast<size_t>(j)];
          }
          if (prev_d[static_cast<size_t>(j) - 1] < best) {
            best = prev_d[static_cast<size_t>(j) - 1];
            start = prev_s[static_cast<size_t>(j) - 1];
          }
        }
      }
      if (best == kInf) continue;
      cur_d[static_cast<size_t>(j)] = dist + best;
      cur_s[static_cast<size_t>(j)] = start;
    }
    ++result.stats.extend_calls;
    // A candidate match ends at every data row whose last query column is
    // reachable.
    if (cur_d.back() < result.distance) {
      result.distance = cur_d.back();
      result.best = geo::SubRange(cur_s.back(), i);
      ++result.stats.candidates;
    }
    prev_d.swap(cur_d);
    prev_s.swap(cur_s);
  }
  // With a tight band some (data, query) shapes admit no alignment at all;
  // fall back to the full trajectory so callers always get a valid range.
  if (result.distance == kInf) {
    result.best = geo::SubRange(0, n - 1);
    result.distance_exact = false;
  }
  return result;
}

}  // namespace simsub::algo
