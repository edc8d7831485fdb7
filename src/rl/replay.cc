#include "rl/replay.h"

#include "util/logging.h"

namespace simsub::rl {

ReplayMemory::ReplayMemory(size_t capacity) : capacity_(capacity) {
  SIMSUB_CHECK_GT(capacity, 0u);
  buffer_.reserve(capacity);
}

void ReplayMemory::Add(const Experience& e) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(e);
  } else {
    buffer_[next_] = e;
  }
  next_ = (next_ + 1) % capacity_;
}

void ReplayMemory::Sample(size_t count, util::Rng& rng,
                          std::vector<const Experience*>* out) const {
  SIMSUB_CHECK(!buffer_.empty());
  out->clear();
  for (size_t i = 0; i < count; ++i) {
    size_t idx = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(buffer_.size()) - 1));
    out->push_back(&buffer_[idx]);
  }
}

}  // namespace simsub::rl
