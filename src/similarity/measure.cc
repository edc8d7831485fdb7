#include "similarity/measure.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace simsub::similarity {

uint64_t SimilarityMeasure::NextIdentity() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

double ToSimilarity(double distance, SimilarityTransform transform) {
  switch (transform) {
    case SimilarityTransform::kOneOverOnePlus:
      return 1.0 / (1.0 + distance);
    case SimilarityTransform::kReciprocal: {
      // Clamp so that identical trajectories (d == 0) map to a large finite
      // similarity instead of dividing by zero.
      constexpr double kMinDistance = 1e-12;
      return 1.0 / std::max(distance, kMinDistance);
    }
  }
  return 0.0;
}

double SimilarityMeasure::Distance(std::span<const geo::Point> a,
                                   std::span<const geo::Point> b) const {
  SIMSUB_CHECK(!a.empty());
  SIMSUB_CHECK(!b.empty());
  auto eval = NewEvaluator(b);
  eval->Start(a[0]);
  for (size_t i = 1; i < a.size(); ++i) eval->Extend(a[i]);
  return eval->Current();
}

void PrefixEvaluator::BackwardPass(std::span<const geo::Point> data,
                                   std::span<double> out) {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK_EQ(out.size(), data.size());
  const size_t n = data.size();
  out[n - 1] = Start(data[n - 1]);
  for (size_t k = n - 1; k-- > 0;) {
    out[k] = Extend(data[k]);
  }
}

PrefixEvaluator* EvaluatorCache::Acquire(const SimilarityMeasure& measure,
                                         std::span<const geo::Point> query) {
  SIMSUB_CHECK(!query.empty());
  if (identity_ == measure.identity() && evaluator_->Reset(query)) {
    ++reuse_count_;
  } else {
    evaluator_ = measure.NewEvaluator(query);
    identity_ = measure.identity();
    ++alloc_count_;
  }
  return evaluator_.get();
}

PrefixEvaluator* EvaluatorCache::AcquireReversed(
    const SimilarityMeasure& measure, std::span<const geo::Point> query) {
  reversed_query_.assign(query.rbegin(), query.rend());
  return Acquire(measure, reversed_query_);
}

void ComputeSuffixDistances(const SimilarityMeasure& measure,
                            std::span<const geo::Point> data,
                            std::span<const geo::Point> query,
                            EvaluatorCache& cache,
                            std::vector<double>& suffix) {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  PrefixEvaluator& eval = *cache.AcquireReversed(measure, query);
  suffix.resize(data.size());
  // T[n-1..n-1]^R is the single last point; extending with p_{n-2}, ...
  // builds T[i..n-1]^R = <p_{n-1}, ..., p_i> one prepended point at a time.
  eval.BackwardPass(data, suffix);
}

}  // namespace simsub::similarity
