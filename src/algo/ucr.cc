#include "algo/ucr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "algo/lower_bounds.h"
#include "geo/mbr.h"
#include "similarity/dtw.h"
#include "util/logging.h"

namespace simsub::algo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Banded DTW between candidate and query (both length m) that abandons as
// soon as (row minimum + LB_Keogh suffix remainder) exceeds the threshold.
// lb_suffix[l] = sum of per-position envelope distances for positions > l.
double BandedDtwWithCascadeAbandon(std::span<const geo::Point> candidate,
                                   std::span<const geo::Point> query, int w,
                                   const std::vector<double>& lb_suffix,
                                   double threshold) {
  const int m = static_cast<int>(query.size());
  std::vector<double> prev(static_cast<size_t>(m), kInf);
  std::vector<double> cur(static_cast<size_t>(m), kInf);
  for (int l = 0; l < m; ++l) {
    std::fill(cur.begin(), cur.end(), kInf);
    int j_lo = std::max(0, l - w);
    int j_hi = std::min(m - 1, l + w);
    double row_min = kInf;
    for (int j = j_lo; j <= j_hi; ++j) {
      double d = geo::Distance(candidate[static_cast<size_t>(l)],
                               query[static_cast<size_t>(j)]);
      if (l == 0 && j == 0) {
        cur[0] = d;
      } else {
        double best = kInf;
        if (l > 0) best = std::min(best, prev[static_cast<size_t>(j)]);
        if (j > 0) {
          best = std::min(best, cur[static_cast<size_t>(j) - 1]);
          if (l > 0) best = std::min(best, prev[static_cast<size_t>(j) - 1]);
        }
        if (best == kInf) continue;
        cur[static_cast<size_t>(j)] = d + best;
      }
      row_min = std::min(row_min, cur[static_cast<size_t>(j)]);
    }
    // "Earlier early abandoning": the unprocessed candidate suffix will
    // contribute at least lb_suffix[l].
    if (row_min + lb_suffix[static_cast<size_t>(l)] > threshold) return kInf;
    prev.swap(cur);
  }
  return prev.back();
}

}  // namespace

UcrSearch::UcrSearch(double band_fraction) : band_fraction_(band_fraction) {
  SIMSUB_CHECK_GE(band_fraction, 0.0);
}

SearchResult UcrSearch::DoSearch(std::span<const geo::Point> data,
                                 std::span<const geo::Point> query,
                                 similarity::EvaluatorCache&,
                                 std::optional<double>) const {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  const int n = static_cast<int>(data.size());
  const int m = static_cast<int>(query.size());
  SearchResult result;

  if (n < m) {
    // No length-m subsequence exists; return the whole trajectory (the only
    // sensible answer for a fixed-length matcher).
    result.best = geo::SubRange(0, n - 1);
    result.distance = similarity::DtwDistance(data, query);
    return result;
  }

  const int w = std::min(
      m, static_cast<int>(std::floor(band_fraction_ * static_cast<double>(m))));

  // Envelopes around query positions (for LB_Keogh) and around data
  // positions (for the reversed bound). Data envelopes use the global
  // sliding window, a superset of the candidate-local window, so the bound
  // stays valid for every candidate offset.
  std::vector<geo::Mbr> query_env = BuildMbrEnvelopes(query, w);
  std::vector<geo::Mbr> data_env = BuildMbrEnvelopes(data, w);

  // Reordering: positions sorted by descending distance of the query point
  // from the query centroid (see header).
  geo::Point centroid(0.0, 0.0);
  for (const geo::Point& q : query) {
    centroid.x += q.x;
    centroid.y += q.y;
  }
  centroid.x /= m;
  centroid.y /= m;
  std::vector<int> order(static_cast<size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return geo::SquaredDistance(query[static_cast<size_t>(a)], centroid) >
           geo::SquaredDistance(query[static_cast<size_t>(b)], centroid);
  });

  std::vector<double> pos_lb(static_cast<size_t>(m), 0.0);
  std::vector<double> lb_suffix(static_cast<size_t>(m), 0.0);

  double bsf = kInf;
  for (int s = 0; s + m <= n; ++s) {
    ++result.stats.extend_calls;  // start offsets enumerated
    std::span<const geo::Point> cand = data.subspan(static_cast<size_t>(s),
                                                    static_cast<size_t>(m));
    // --- Cascade stage 1: LB_KimFL (O(1)). --------------------------------
    double lb_kim = geo::Distance(cand[0], query[0]) +
                    geo::Distance(cand[static_cast<size_t>(m) - 1],
                                  query[static_cast<size_t>(m) - 1]);
    if (lb_kim > bsf) continue;

    // --- Stage 2: LB_Keogh with reordered early abandoning. ---------------
    std::fill(pos_lb.begin(), pos_lb.end(), 0.0);
    double lb_keogh = 0.0;
    bool pruned = false;
    for (int idx : order) {
      double d = query_env[static_cast<size_t>(idx)].Distance(
          cand[static_cast<size_t>(idx)]);
      pos_lb[static_cast<size_t>(idx)] = d;
      lb_keogh += d;
      if (lb_keogh > bsf) {
        pruned = true;
        break;
      }
    }
    if (pruned) continue;

    // --- Stage 3: reversed LB_Keogh; keep the tighter bound. --------------
    double lb_rev = 0.0;
    for (int i = 0; i < m && lb_rev <= bsf; ++i) {
      lb_rev += data_env[static_cast<size_t>(s + i)].Distance(
          query[static_cast<size_t>(i)]);
    }
    if (lb_rev > bsf) continue;
    // Note: stage 4 folds in the stage-2 per-position decomposition; the
    // reversed bound only serves as an extra pruning test above.

    // --- Stage 4: banded DTW with cascading early abandoning. -------------
    double acc = 0.0;
    for (int l = m - 1; l >= 0; --l) {
      lb_suffix[static_cast<size_t>(l)] = acc;
      acc += pos_lb[static_cast<size_t>(l)];
    }
    double d = BandedDtwWithCascadeAbandon(cand, query, w, lb_suffix, bsf);
    ++result.stats.candidates;
    if (d < bsf) {
      bsf = d;
      result.best = geo::SubRange(s, s + m - 1);
      result.distance = d;
    }
  }

  if (result.distance == kInf) {
    // Pathological: everything pruned by an infinite-band corner case;
    // fall back to the first candidate.
    result.best = geo::SubRange(0, m - 1);
    result.distance = similarity::DtwDistance(
        data.subspan(0, static_cast<size_t>(m)), query);
  }
  return result;
}

}  // namespace simsub::algo
