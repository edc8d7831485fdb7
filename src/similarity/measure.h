// The abstract trajectory similarity framework of the paper (Section 3.2).
//
// The SimSub algorithms are written against two primitives:
//   * Phi_ini — distance between a single-point subtrajectory and the query,
//     realized by PrefixEvaluator::Start(p);
//   * Phi_inc — distance of T[i..j] given that T[i..j-1] has been evaluated,
//     realized by PrefixEvaluator::Extend(p).
//
// Any measurement exposing these two operations (DTW, Frechet, ERP, EDR,
// LCSS, constrained DTW, learned t2vec embeddings, ...) plugs into every
// search algorithm unchanged, which is exactly the paper's abstract-measure
// claim.
#ifndef SIMSUB_SIMILARITY_MEASURE_H_
#define SIMSUB_SIMILARITY_MEASURE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geo/point.h"
#include "geo/trajectory.h"

namespace simsub::similarity {

/// Incremental distance evaluator for subtrajectories sharing a start point.
///
/// Protocol: call Start(p_i) to begin the subtrajectory <p_i> (Phi_ini),
/// then Extend(p_{i+1}), Extend(p_{i+2}), ... — each call returns the
/// distance between the grown subtrajectory and the query this evaluator was
/// created for (Phi_inc). Start() may be called again at any time to reset
/// to a new start point. Evaluators are single-threaded, cheap to create,
/// and hold a reference to the query passed at creation.
class PrefixEvaluator {
 public:
  virtual ~PrefixEvaluator() = default;

  /// Begins a new subtrajectory at `p`; returns dist(<p>, query). Phi_ini.
  virtual double Start(const geo::Point& p) = 0;

  /// Appends `p` to the current subtrajectory; returns the updated distance.
  /// Phi_inc. Requires a preceding Start().
  virtual double Extend(const geo::Point& p) = 0;

  /// Distance of the current subtrajectory to the query.
  virtual double Current() const = 0;

  /// Number of points in the current subtrajectory (0 before Start()).
  virtual int Length() const = 0;

  /// Rebinds this evaluator to a new query, reusing its allocated scratch
  /// (DP rows etc.) instead of allocating fresh ones — an EvaluatorCache
  /// holds one evaluator and Reset()s it per trajectory while the measure
  /// stays the same.
  /// After a successful Reset the evaluator behaves exactly like a freshly
  /// created one (pre-Start() state). Returns false when the implementation
  /// does not support rebinding (e.g. learned measures with per-query
  /// preprocessing); callers then fall back to NewEvaluator(). The span must
  /// remain valid for as long as the evaluator is used against it.
  virtual bool Reset(std::span<const geo::Point> query) {
    (void)query;
    return false;
  }

  /// A lower bound on Current() and on EVERY future Extend() result from
  /// the current state — the early-abandoning hook. Once this exceeds the
  /// caller's best-so-far threshold, no extension of the current start
  /// point can beat it and the caller may abandon the candidate (DP-row
  /// measures return the running row minimum, which is non-decreasing
  /// across rows). The default 0.0 means "cannot bound extensions" and
  /// disables abandonment (e.g. LCSS, whose normalized distance can shrink
  /// as the subtrajectory grows).
  virtual double ExtensionLowerBound() const { return 0.0; }

  /// Runs Start(data[n-1]), Extend(data[n-2]), ..., Extend(data[0]) and
  /// writes the distance after adding data[k] to out[k], where n =
  /// data.size() = out.size() > 0: the backward pass behind the suffix
  /// distances, with no early exit. The default body is that loop; an
  /// override (DTW fills several rows of its DP matrix at once) must match
  /// it bit for bit. Afterwards the evaluator's state is unspecified until
  /// the next Start() or Reset().
  virtual void BackwardPass(std::span<const geo::Point> data,
                            std::span<double> out);
};

/// How per-point distances aggregate into the measure's value — the trait
/// the engine's lower-bound cascade keys on (see algo/lower_bounds.h).
/// kSum: the distance is a sum of nonnegative point distances along an
/// alignment that visits every query point (DTW, constrained DTW).
/// kMax: the distance is a max over such point distances (Frechet,
/// Hausdorff). kOther: neither holds (edit-count and gap-cost measures,
/// learned embeddings) — no MBR bound applies.
enum class DistanceAggregation { kSum, kMax, kOther };

/// How a raw distance d is inverted into a similarity Θ (paper Section 3.1:
/// "applying some inverse operation such as taking the ratio between 1 and a
/// distance").
enum class SimilarityTransform {
  /// Θ = 1 / (1 + d): bounded to (0, 1], the library default (plays well
  /// with the sigmoid Q-value heads of the DQN).
  kOneOverOnePlus,
  /// Θ = 1 / d (with d clamped away from zero): reproduces the worked
  /// examples in the paper's Tables 3 and 4.
  kReciprocal,
};

/// Applies the chosen transform; both are strictly decreasing in d, so
/// rankings (and therefore AR/MR/RR) are transform-invariant.
double ToSimilarity(double distance, SimilarityTransform transform =
                                         SimilarityTransform::kOneOverOnePlus);

/// A trajectory dissimilarity measurement. Smaller distance = more similar.
class SimilarityMeasure {
 public:
  virtual ~SimilarityMeasure() = default;

  /// Process-unique identity token, minted at construction and never
  /// reissued. EvaluatorCache keys its one slot by this rather than the
  /// object address: an address can be handed to a brand-new measure the
  /// moment this one is freed (ABA), and a slot matched on the reused
  /// address would serve an evaluator built for the *old* measure's
  /// type and parameters. Copies share the source's identity — a copy is
  /// behaviorally identical (measures are immutable after construction), so
  /// evaluators cached under the source remain valid for it.
  uint64_t identity() const { return identity_; }

  /// Short identifier, e.g. "dtw", "frechet", "t2vec".
  virtual std::string name() const = 0;

  /// Creates an incremental evaluator against `query`. The span must remain
  /// valid for the lifetime of the evaluator.
  virtual std::unique_ptr<PrefixEvaluator> NewEvaluator(
      std::span<const geo::Point> query) const = 0;

  /// Distance between two whole trajectories, computed from scratch (Phi).
  /// The default implementation streams `a` through an evaluator on `b`.
  virtual double Distance(std::span<const geo::Point> a,
                          std::span<const geo::Point> b) const;

  /// Whether Θ(T[i,n]^R, Tq^R) equals Θ(T[i,n], Tq) exactly (true for DTW
  /// and Frechet; false for learned measures such as t2vec, where the
  /// reversed distance is only positively correlated — paper Section 4.3).
  virtual bool ReversalPreservesDistance() const { return true; }

  /// Aggregation family for lower-bound pruning; kOther (the safe default)
  /// opts the measure out of the engine's best-first scan.
  virtual DistanceAggregation aggregation() const {
    return DistanceAggregation::kOther;
  }

 private:
  static uint64_t NextIdentity();
  uint64_t identity_ = NextIdentity();
};

/// The one evaluator a scan reuses, so the DP scratch is allocated once per
/// scan instead of once per trajectory.
///
/// Acquire() rebinds the held evaluator via PrefixEvaluator::Reset() when it
/// was built for the same measure, and replaces it with
/// SimilarityMeasure::NewEvaluator() otherwise (first use, a measure that
/// does not support Reset, or a different measure). The slot is keyed by
/// SimilarityMeasure::identity(), never by address, so a measure freed and
/// replaced by a new allocation at the same address (the serving layer's
/// resolved-spec cache does exactly this when flushed) can never match the
/// dead measure's evaluator. NOT thread-safe, counters included, by design
/// rather than omission: one cache has one owner at a time (the serving
/// layer gives each request its own on its stack, the engine each scan
/// participant its own, and rl::SplitEnv borrows its owner's), so the slot
/// deliberately carries no mutex and no SIMSUB_GUARDED_BY (see
/// util/thread_annotations.h for the lock-annotation conventions); adding
/// cross-thread access here is a contract change, not a missing lock.
/// The returned pointer stays valid until the next Acquire() or the cache's
/// destruction, so a search that needs a second evaluator (PSS's reversed
/// suffix pass) finishes with it before acquiring the forward one.
class EvaluatorCache {
 public:
  [[nodiscard]] PrefixEvaluator* Acquire(const SimilarityMeasure& measure,
                                         std::span<const geo::Point> query);

  /// Acquire() against the reverse of `query`, copied into a buffer the
  /// cache keeps: the evaluator's query lives as long as its slot, and the
  /// copy allocates only for a query longer than any the cache has held.
  [[nodiscard]] PrefixEvaluator* AcquireReversed(
      const SimilarityMeasure& measure, std::span<const geo::Point> query);

  /// Successful Reset() reuses vs fresh NewEvaluator() allocations.
  int64_t reuse_count() const { return reuse_count_; }
  int64_t alloc_count() const { return alloc_count_; }

 private:
  /// Identity of the measure `evaluator_` was built by; 0 (never issued)
  /// while the slot is empty.
  uint64_t identity_ = 0;
  std::unique_ptr<PrefixEvaluator> evaluator_;
  std::vector<geo::Point> reversed_query_;  // AcquireReversed's query
  int64_t reuse_count_ = 0;
  int64_t alloc_count_ = 0;
};

/// Computes suffix distances suffix[i] = dist(T[i..n-1]^R, Tq^R) for all i
/// in one O(n * Phi_inc) backward pass (PSS Algorithm 2, lines 2-3; also the
/// Θsuf component of the RL state). `suffix` is resized to n, its capacity
/// kept, so a caller that reuses it allocates nothing for it. The
/// reversed-query evaluator comes from `cache` (AcquireReversed), which
/// invalidates any pointer an earlier Acquire() returned.
void ComputeSuffixDistances(const SimilarityMeasure& measure,
                            std::span<const geo::Point> data,
                            std::span<const geo::Point> query,
                            EvaluatorCache& cache,
                            std::vector<double>& suffix);

}  // namespace simsub::similarity

#endif  // SIMSUB_SIMILARITY_MEASURE_H_
