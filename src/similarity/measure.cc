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

PrefixEvaluator* EvaluatorCache::Acquire(const SimilarityMeasure& measure,
                                         std::span<const geo::Point> query) {
  SIMSUB_CHECK(!query.empty());
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.identity != measure.identity()) continue;
    // Reset() regrows DP rows but never returns their capacity; once the
    // query shrinks far below the slot's high-water mark, replace the
    // evaluator outright so the cache's footprint tracks its workload.
    bool oversized = query.size() * kShrinkFactor < slot.high_water;
    if (!oversized && slot.evaluator->Reset(query)) {
      ++reuse_count_;
      slot.high_water = std::max(slot.high_water, query.size());
    } else {
      slot.evaluator = measure.NewEvaluator(query);
      slot.high_water = query.size();
      ++alloc_count_;
    }
    // LRU refresh: move the hit to the back so the front — evicted first at
    // the cap — is always the least recently used slot, not merely the
    // oldest-inserted one (a hot measure must survive a parameter sweep).
    std::rotate(slots_.begin() + static_cast<ptrdiff_t>(i),
                slots_.begin() + static_cast<ptrdiff_t>(i) + 1, slots_.end());
    return slots_.back().evaluator.get();
  }
  // Identities are never reissued, so slots for dead measures can only be
  // reclaimed by eviction: at the cap, the least recently used slot (front)
  // goes first — under a parameter sweep that is exactly the dead one.
  if (slots_.size() >= kMaxSlots) slots_.erase(slots_.begin());
  slots_.push_back(
      Slot{measure.identity(), measure.NewEvaluator(query), query.size()});
  ++alloc_count_;
  return slots_.back().evaluator.get();
}

PrefixEvaluator* AcquireEvaluator(const SimilarityMeasure& measure,
                                  std::span<const geo::Point> query,
                                  EvaluatorCache* scratch,
                                  std::unique_ptr<PrefixEvaluator>* owned) {
  if (scratch != nullptr) return scratch->Acquire(measure, query);
  *owned = measure.NewEvaluator(query);
  return owned->get();
}

std::vector<double> ComputeSuffixDistances(const SimilarityMeasure& measure,
                                           std::span<const geo::Point> data,
                                           std::span<const geo::Point> query) {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  const size_t n = data.size();
  std::vector<geo::Point> reversed_query = geo::ReversePoints(query);
  auto eval = measure.NewEvaluator(reversed_query);
  std::vector<double> suffix(n);
  // T[n-1..n-1]^R is the single last point; extending with p_{n-2}, ...
  // builds T[i..n-1]^R = <p_{n-1}, ..., p_i> one prepended point at a time.
  suffix[n - 1] = eval->Start(data[n - 1]);
  for (size_t k = n - 1; k-- > 0;) {
    suffix[k] = eval->Extend(data[k]);
  }
  return suffix;
}

}  // namespace simsub::similarity
