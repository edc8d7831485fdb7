// Fixed-capacity experience replay memory (Mnih et al., 2015), the
// decorrelation buffer of Algorithm 3 (paper Section 5.2).
#ifndef SIMSUB_RL_REPLAY_H_
#define SIMSUB_RL_REPLAY_H_

#include <cstddef>
#include <vector>

#include "util/random.h"

namespace simsub::rl {

/// One transition (s, a, r, s', terminal).
struct Experience {
  std::vector<double> state;
  int action = 0;
  double reward = 0.0;
  std::vector<double> next_state;
  bool terminal = false;
};

/// Ring buffer holding the most recent `capacity` experiences with uniform
/// random sampling.
class ReplayMemory {
 public:
  explicit ReplayMemory(size_t capacity);

  /// Copies `e` into the ring. Once the ring is full, the evicted slot's
  /// vectors take the copy, so a steady-state Add allocates nothing.
  void Add(const Experience& e);

  size_t size() const { return buffer_.size(); }
  size_t capacity() const { return capacity_; }

  /// Replaces `*out` with `count` experiences sampled uniformly with
  /// replacement (the classic DQN minibatch); reusing one `out` across calls
  /// keeps sampling allocation-free. The pointers are valid until the next
  /// Add().
  void Sample(size_t count, util::Rng& rng,
              std::vector<const Experience*>* out) const;

 private:
  size_t capacity_;
  size_t next_ = 0;  // ring cursor
  std::vector<Experience> buffer_;
};

}  // namespace simsub::rl

#endif  // SIMSUB_RL_REPLAY_H_
