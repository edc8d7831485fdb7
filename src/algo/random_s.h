// Random-S (paper Section 6.1): samples a fixed number of subtrajectories
// uniformly at random and returns the most similar one. Each sample is
// scored from scratch — the sampled ranges share no common start, so the
// incremental trick of ExactS does not apply (this is exactly why the paper
// finds Random-S slow at useful sample sizes).
#ifndef SIMSUB_ALGO_RANDOM_S_H_
#define SIMSUB_ALGO_RANDOM_S_H_

#include <cstdint>

#include "algo/search.h"
#include "similarity/measure.h"

namespace simsub::algo {

/// Uniform random sampling baseline. Every Search draws the first
/// `sample_size` values of the stream `seed` starts, so a search is a pure
/// function of (data, query): immutable and safe to share across threads,
/// like every other algorithm.
class RandomSSearch : public SubtrajectorySearch {
 public:
  RandomSSearch(const similarity::SimilarityMeasure* measure, int sample_size,
                uint64_t seed);

  std::string name() const override { return "Random-S"; }

  int sample_size() const { return sample_size_; }

 protected:
  // (see SubtrajectorySearch::Search)
  SearchResult DoSearch(std::span<const geo::Point> data,
                        std::span<const geo::Point> query,
                        similarity::EvaluatorCache& scratch,
                        std::optional<double>) const override;

 private:
  const similarity::SimilarityMeasure* measure_;
  int sample_size_;
  uint64_t seed_;
};

}  // namespace simsub::algo

#endif  // SIMSUB_ALGO_RANDOM_S_H_
