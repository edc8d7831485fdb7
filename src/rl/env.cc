#include "rl/env.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace simsub::rl {

SplitEnv::SplitEnv(const similarity::SimilarityMeasure* measure,
                   EnvOptions options, similarity::EvaluatorCache& evaluators)
    : measure_(measure), options_(options), evaluators_(&evaluators) {
  SIMSUB_CHECK(measure != nullptr);
  SIMSUB_CHECK_GE(options.skip_count, 0);
}

double SplitEnv::Sim(double distance) const {
  return similarity::ToSimilarity(distance / scale_, options_.transform);
}

void SplitEnv::Reset(std::span<const geo::Point> data,
                     std::span<const geo::Point> query) {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  data_ = data;
  query_ = query;
  start_calls_ = 0;
  extend_calls_ = 0;
  // The suffix pass borrows the cache's evaluator, so it runs before the
  // prefix evaluator is acquired.
  if (options_.use_suffix) {
    similarity::ComputeSuffixDistances(*measure_, data_, query_, *evaluators_,
                                       suffix_dist_);
    start_calls_ += 1;
    extend_calls_ += static_cast<int64_t>(data.size()) - 1;
  } else {
    suffix_dist_.clear();
  }
  prefix_eval_ = evaluators_->Acquire(*measure_, query_);
  t_ = 0;
  h_ = 0;
  segment_has_skips_ = false;
  done_ = false;
  best_similarity_ = 0.0;
  best_distance_ = std::numeric_limits<double>::infinity();
  best_distance_exact_ = true;
  best_range_ = geo::SubRange(0, 0);
  points_scanned_ = 1;
  points_skipped_ = 0;
  splits_ = 0;

  pre_dist_ = prefix_eval_->Start(data_[0]);
  ++start_calls_;
  if (options_.use_suffix) suf_dist_ = suffix_dist_[0];
  // Episode-level normalization keyed off the first Phi_ini distance (see
  // EnvOptions::scale_fraction). Any strictly decreasing transform of the
  // distance preserves candidate comparisons, so search semantics are
  // unchanged — only the numeric range of states and rewards improves.
  scale_ = 1.0;
  if (options_.scale_fraction > 0.0) {
    scale_ = std::max(1e-9, options_.scale_fraction * pre_dist_);
  }
  RefreshState();
}

void SplitEnv::RefreshState() {
  state_[0] = best_similarity_;
  state_[1] = Sim(pre_dist_);
  if (options_.use_suffix) state_[2] = Sim(suf_dist_);
}

void SplitEnv::ConsumeCurrentCandidates() {
  // Algorithm 3 line 14: Θbest <- max{Θbest, Θpre, Θsuf}, with Tbest
  // updated to the winning candidate. Θpre and Θsuf are the state's:
  // RefreshState computed them from the scanned point's distances.
  const double pre_sim = state_[1];
  if (pre_sim > best_similarity_) {
    best_similarity_ = pre_sim;
    best_distance_ = pre_dist_;
    best_distance_exact_ = !segment_has_skips_;
    best_range_ = geo::SubRange(h_, t_);
  }
  if (options_.use_suffix) {
    const double suf_sim = state_[2];
    if (suf_sim > best_similarity_) {
      best_similarity_ = suf_sim;
      best_distance_ = suf_dist_;
      // Reversed-space suffix distances are approximations for learned
      // measures (paper Section 4.3).
      best_distance_exact_ = measure_->ReversalPreservesDistance();
      best_range_ = geo::SubRange(t_, static_cast<int>(data_.size()) - 1);
    }
  }
}

double SplitEnv::Step(int action) {
  SIMSUB_CHECK(!done_) << "Step() on a finished episode";
  SIMSUB_CHECK_GE(action, 0);
  SIMSUB_CHECK_LT(action, action_count());
  const int n = static_cast<int>(data_.size());
  double old_best = best_similarity_;

  // Candidates at the scanned point are consumed regardless of the action.
  ConsumeCurrentCandidates();

  int next = t_ + 1;
  if (action == 1) {
    // Split: the next segment starts right after the scanned point.
    h_ = t_ + 1;
    segment_has_skips_ = false;
    ++splits_;
  } else if (action >= 2) {
    // Skip j = action - 1 points; they are excluded from state maintenance
    // (prefix simplification, Section 5.4).
    int j = action - 1;
    int landing = t_ + j + 1;
    int actually_skipped = std::min(landing, n) - (t_ + 1);
    points_skipped_ += actually_skipped;
    if (actually_skipped > 0) segment_has_skips_ = true;
    next = landing;
  }

  if (next >= n) {
    // No point is scanned: of the state, only Θbest can change.
    done_ = true;
    state_[0] = best_similarity_;
    return best_similarity_ - old_best;
  }

  // Maintain the state at the newly scanned point.
  t_ = next;
  ++points_scanned_;
  if (t_ == h_) {
    pre_dist_ = prefix_eval_->Start(data_[static_cast<size_t>(t_)]);
    ++start_calls_;
  } else {
    pre_dist_ = prefix_eval_->Extend(data_[static_cast<size_t>(t_)]);
    ++extend_calls_;
  }
  if (options_.use_suffix) suf_dist_ = suffix_dist_[static_cast<size_t>(t_)];
  RefreshState();
  return best_similarity_ - old_best;
}

}  // namespace simsub::rl
