#include "algo/splitting.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/logging.h"

namespace simsub::algo {

PssSearch::PssSearch(const similarity::SimilarityMeasure* measure)
    : measure_(measure) {
  SIMSUB_CHECK(measure != nullptr);
}

// Algorithm 2. PSS cannot soundly use the caller's bailout value: any
// future candidate below the running best — even one still above the bailout
// — triggers a split that restarts the evaluator chain, whose subsequent
// candidates are not bounded by anything known here. A set bailout therefore
// only turns on the scan's own finality exit below, which is
// bailout-independent and exact.
SearchResult PssSearch::DoSearch(std::span<const geo::Point> data,
                                 std::span<const geo::Point> query,
                                 similarity::EvaluatorCache& scratch,
                                 std::optional<double> bailout) const {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  SearchResult result;
  const int n = static_cast<int>(data.size());

  // Suffix distances dist(T[i..n-1]^R, Tq^R) in one backward pass
  // (Algorithm 2, lines 2-3). The pass borrows the scratch's evaluator, so
  // the forward one is acquired after it.
  std::vector<double> suffix;
  similarity::ComputeSuffixDistances(*measure_, data, query, scratch, suffix);
  similarity::PrefixEvaluator& eval = *scratch.Acquire(*measure_, query);
  result.stats.start_calls += 1;
  result.stats.extend_calls += n - 1;

  // suffix_min_from[i] = min over j >= i of suffix[j]; sentinel +inf past
  // the end. Lets a bounded scan prove that no future suffix candidate can
  // improve the answer.
  std::vector<double> suffix_min_from;
  if (bailout) {
    suffix_min_from.assign(static_cast<size_t>(n) + 1,
                           std::numeric_limits<double>::infinity());
    for (int i = n; i-- > 0;) {
      suffix_min_from[static_cast<size_t>(i)] =
          std::min(suffix[static_cast<size_t>(i)],
                   suffix_min_from[static_cast<size_t>(i) + 1]);
    }
  }

  int h = 0;  // Start of the current segment.
  for (int i = 0; i < n; ++i) {
    double pre = (i == h) ? eval.Start(data[static_cast<size_t>(i)])
                          : eval.Extend(data[static_cast<size_t>(i)]);
    if (i == h) {
      ++result.stats.start_calls;
    } else {
      ++result.stats.extend_calls;
    }
    double suf = suffix[static_cast<size_t>(i)];
    result.stats.candidates += 2;
    // Greater similarity == smaller distance, so the paper's
    // "max similarity > best" test becomes "min distance < best".
    double cand = std::min(pre, suf);
    if (cand < result.distance) {
      result.distance = cand;
      bool prefix_wins = pre <= suf;
      result.best =
          prefix_wins ? geo::SubRange(h, i) : geo::SubRange(i, n - 1);
      // For learned measures the suffix distance is computed in reversed
      // space and is only an approximation of the forward distance
      // (paper Section 4.3).
      result.distance_exact =
          prefix_wins || measure_->ReversalPreservesDistance();
      h = i + 1;
      ++result.stats.splits;
    }
    // Bounded scans exit early when nothing ahead can matter. Only legal
    // while the evaluator state is live (h <= i: no restart pending), so
    // that ExtensionLowerBound() bounds every future prefix candidate;
    // every future suffix candidate is bounded by suffix_min_from. Once
    // neither side can go below the current best, no candidate can win OR
    // trigger a split (both require cand < result.distance), so the result
    // is final. Note the condition must compare against result.distance,
    // NOT the caller's bailout: a future candidate between the bailout and
    // the current best would still split and restart the evaluator, and the
    // post-split chain is unbounded by the current lower bound — it may
    // descend below the bailout, which an exit here would wrongly skip.
    if (bailout && h <= i && i + 1 < n) {
      double future_min =
          std::min(eval.ExtensionLowerBound(),
                   suffix_min_from[static_cast<size_t>(i) + 1]);
      if (future_min >= result.distance) {
        ++result.stats.abandoned;
        break;
      }
    }
  }
  return result;
}

PosDSearch::PosDSearch(const similarity::SimilarityMeasure* measure, int delay)
    : measure_(measure), delay_(delay) {
  SIMSUB_CHECK(measure != nullptr);
  SIMSUB_CHECK_GE(delay, 0);
}

SearchResult PosDSearch::DoSearch(std::span<const geo::Point> data,
                                  std::span<const geo::Point> query,
                                  similarity::EvaluatorCache& scratch,
                                  std::optional<double>) const {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  SearchResult result;
  const int n = static_cast<int>(data.size());
  similarity::PrefixEvaluator& eval = *scratch.Acquire(*measure_, query);
  int h = 0;
  int i = h;
  while (i < n) {
    double pre = (i == h) ? eval.Start(data[static_cast<size_t>(i)])
                          : eval.Extend(data[static_cast<size_t>(i)]);
    if (i == h) {
      ++result.stats.start_calls;
    } else {
      ++result.stats.extend_calls;
    }
    ++result.stats.candidates;
    if (pre < result.distance) {
      // Trigger: look ahead up to `delay_` more points and split where the
      // prefix is the most similar among these D + 1 positions.
      double best_d = pre;
      int best_i = i;
      // 64-bit sum: delay_ is wire-controlled (full-range i32), so
      // `i + delay_` in int is UB at the top of that range.
      int lookahead_end = static_cast<int>(
          std::min<int64_t>(n - 1, static_cast<int64_t>(i) + delay_));
      for (int j = i + 1; j <= lookahead_end; ++j) {
        double d = eval.Extend(data[static_cast<size_t>(j)]);
        ++result.stats.extend_calls;
        ++result.stats.candidates;
        if (d < best_d) {
          best_d = d;
          best_i = j;
        }
      }
      result.distance = best_d;
      result.best = geo::SubRange(h, best_i);
      h = best_i + 1;
      ++result.stats.splits;
      // Points after best_i within the lookahead window are re-scanned as
      // part of the new segment (the paper notes the in-practice cost is
      // "slightly higher" while the asymptotic complexity is unchanged).
      i = h;
    } else {
      ++i;
    }
  }
  return result;
}

}  // namespace simsub::algo
