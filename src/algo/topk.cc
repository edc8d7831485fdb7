#include "algo/topk.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace simsub::algo {

namespace {

bool WorseThan(const RankedCandidate& a, const RankedCandidate& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  if (a.range.start != b.range.start) return a.range.start < b.range.start;
  return a.range.end < b.range.end;
}

}  // namespace

TopKCollector::TopKCollector(int k) : k_(k) { SIMSUB_CHECK_GT(k, 0); }

double TopKCollector::worst() const {
  if (!full()) return std::numeric_limits<double>::infinity();
  return heap_.front().distance;
}

void TopKCollector::Offer(geo::SubRange range, double distance) {
  RankedCandidate cand{range, distance};
  if (static_cast<int>(heap_.size()) < k_) {
    heap_.push_back(cand);
    std::push_heap(heap_.begin(), heap_.end(), WorseThan);
    return;
  }
  if (distance >= heap_.front().distance) return;
  std::pop_heap(heap_.begin(), heap_.end(), WorseThan);
  heap_.back() = cand;
  std::push_heap(heap_.begin(), heap_.end(), WorseThan);
}

std::vector<RankedCandidate> TopKCollector::Sorted() const {
  std::vector<RankedCandidate> out = heap_;
  std::sort(out.begin(), out.end(), WorseThan);
  return out;
}

std::vector<RankedCandidate> TopKExact(
    const similarity::SimilarityMeasure& measure,
    std::span<const geo::Point> data, std::span<const geo::Point> query,
    int k, int min_size) {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  SIMSUB_CHECK_GE(min_size, 1);
  const int n = static_cast<int>(data.size());
  TopKCollector collector(k);
  auto eval = measure.NewEvaluator(query);
  for (int i = 0; i < n; ++i) {
    double d = eval->Start(data[static_cast<size_t>(i)]);
    if (min_size <= 1) collector.Offer(geo::SubRange(i, i), d);
    for (int j = i + 1; j < n; ++j) {
      d = eval->Extend(data[static_cast<size_t>(j)]);
      if (j - i + 1 >= min_size) collector.Offer(geo::SubRange(i, j), d);
    }
  }
  return collector.Sorted();
}

}  // namespace simsub::algo
