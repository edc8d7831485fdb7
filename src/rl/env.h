// The trajectory-splitting Markov decision process of paper Section 5.1,
// including the k skip actions of RLS-Skip (Section 5.4).
//
// State   : (Θbest, Θpre, Θsuf) — similarities in (0, 1]; Θsuf is omitted
//           when use_suffix is false (t2vec configuration and RLS-Skip+).
// Actions : 0 = no-split, 1 = split at the scanned point, 1+j = skip the
//           next j points (j = 1..k) without maintaining state for them.
// Reward  : Θbest(s') - Θbest(s); undiscounted episode return telescopes to
//           the similarity of the best subtrajectory found.
#ifndef SIMSUB_RL_ENV_H_
#define SIMSUB_RL_ENV_H_

#include <array>
#include <span>
#include <vector>

#include "geo/point.h"
#include "geo/trajectory.h"
#include "similarity/measure.h"

namespace simsub::rl {

/// MDP configuration shared by training and inference.
struct EnvOptions {
  /// Number of skip actions k (0 reproduces plain RLS).
  int skip_count = 0;
  /// Whether Θsuf is part of the state. The paper drops it for t2vec
  /// ("based on empirical findings") and for RLS-Skip+ (Figure 8).
  bool use_suffix = true;
  /// Distance -> similarity transform used to build states/rewards.
  similarity::SimilarityTransform transform =
      similarity::SimilarityTransform::kOneOverOnePlus;
  /// Per-episode distance normalization: similarities are computed on
  /// d / (scale_fraction * d_ref), where d_ref is the Phi_ini distance of
  /// the first scanned point. Without this, meter-scale coordinates push
  /// every Θ to ~0 and the Q-network sees degenerate states (the paper's
  /// lat/lon-degree datasets kept Θ in a usable range implicitly).
  /// Set <= 0 to disable normalization.
  double scale_fraction = 0.1;
};

/// One splitting episode over a (data, query) pair.
///
/// Usage: Reset(data, query); while (!done()) Step(action). The environment
/// maintains the prefix evaluator incrementally (skipped points are excluded
/// from it — the prefix simplification of Section 5.4) and tracks the best
/// candidate subtrajectory seen, exactly like Algorithm 3.
class SplitEnv {
 public:
  /// The env's suffix pass and prefix evaluator come from `evaluators`
  /// (RlsSearch passes the caller's scratch, the trainer one cache for all
  /// its episodes). The cache must outlive the env, and nothing else may
  /// acquire from it while an episode runs.
  SplitEnv(const similarity::SimilarityMeasure* measure, EnvOptions options,
           similarity::EvaluatorCache& evaluators);

  int state_dim() const { return options_.use_suffix ? 3 : 2; }
  int action_count() const { return 2 + options_.skip_count; }
  const EnvOptions& options() const { return options_; }

  /// Starts an episode. Spans must stay valid until the episode ends.
  void Reset(std::span<const geo::Point> data,
             std::span<const geo::Point> query);

  /// Current state (size state_dim()): a view of the env's own array,
  /// which Reset() and Step() rewrite in place.
  std::span<const double> state() const {
    return {state_.data(), static_cast<size_t>(state_dim())};
  }

  bool done() const { return done_; }

  /// Applies `action` at the currently scanned point and advances the scan.
  /// Returns the reward Θbest(s') - Θbest(s). Must not be called when done.
  double Step(int action);

  /// Best candidate subtrajectory found during the episode so far.
  geo::SubRange best_range() const { return best_range_; }
  /// Distance of the best candidate. Approximate when the winning prefix
  /// candidate spanned skipped points (see best_distance_exact()).
  double best_distance() const { return best_distance_; }
  bool best_distance_exact() const { return best_distance_exact_; }
  /// Best similarity Θbest (transform of best_distance()).
  double best_similarity() const { return best_similarity_; }

  // --- Instrumentation -----------------------------------------------------
  int64_t points_scanned() const { return points_scanned_; }
  int64_t points_skipped() const { return points_skipped_; }
  int64_t start_calls() const { return start_calls_; }
  int64_t extend_calls() const { return extend_calls_; }
  int64_t splits() const { return splits_; }

 private:
  void ConsumeCurrentCandidates();
  void RefreshState();
  double Sim(double distance) const;

  const similarity::SimilarityMeasure* measure_;
  EnvOptions options_;

  std::span<const geo::Point> data_;
  std::span<const geo::Point> query_;
  /// Serves the suffix pass and then the prefix evaluator.
  similarity::EvaluatorCache* evaluators_;
  similarity::PrefixEvaluator* prefix_eval_ = nullptr;  // from evaluators_
  /// Empty when !use_suffix; otherwise refilled by every Reset() in place,
  /// so episodes share one buffer.
  std::vector<double> suffix_dist_;

  int t_ = 0;  // index of the point being scanned
  int h_ = 0;  // start of the current segment
  double scale_ = 1.0;  // per-episode distance normalizer
  bool segment_has_skips_ = false;
  double pre_dist_ = 0.0;
  double suf_dist_ = 0.0;
  bool done_ = true;

  double best_similarity_ = 0.0;
  double best_distance_ = 0.0;
  bool best_distance_exact_ = true;
  geo::SubRange best_range_;

  /// (Θbest, Θpre, Θsuf), rewritten in place at every step; Θsuf is unused
  /// when !use_suffix.
  std::array<double, 3> state_ = {};

  int64_t points_scanned_ = 0;
  int64_t points_skipped_ = 0;
  int64_t start_calls_ = 0;
  int64_t extend_calls_ = 0;
  int64_t splits_ = 0;
};

}  // namespace simsub::rl

#endif  // SIMSUB_RL_ENV_H_
