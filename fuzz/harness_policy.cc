#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "algo/rls.h"
#include "fuzz/harness.h"
#include "geo/point.h"
#include "nn/mlp.h"
#include "rl/policy_io.h"
#include "similarity/dtw.h"

namespace simsub::fuzz {

void FuzzPolicy(const uint8_t* data, size_t size) {
  std::istringstream in(std::string(reinterpret_cast<const char*>(data), size));
  auto policy = rl::LoadPolicy(in);
  if (!policy.ok()) return;
  // An accepted policy must run: rls_policy_path names a server-side file,
  // so whatever LoadPolicy accepts reaches Mlp::Forward and the splitting
  // MDP from the wire.
  const nn::Mlp& net = *policy->net;
  nn::Mlp::Cache cache;
  const std::vector<double> state(static_cast<size_t>(net.input_dim()), 0.5);
  (void)net.Forward(state, &cache);

  static const similarity::DtwMeasure kDtw;
  const algo::RlsSearch search(&kDtw, std::move(policy).value());
  const geo::Point trip[6] = {geo::Point(0.0, 0.0), geo::Point(1.0, 0.5),
                              geo::Point(2.0, 1.5), geo::Point(3.0, 1.0),
                              geo::Point(4.0, 2.5), geo::Point(5.0, 2.0)};
  const geo::Point query[3] = {geo::Point(1.0, 1.0), geo::Point(2.0, 1.0),
                               geo::Point(3.0, 1.5)};
  (void)search.Search(std::span<const geo::Point>(trip, 6),
                      std::span<const geo::Point>(query, 3));
}

}  // namespace simsub::fuzz
