#include "rl/policy_io.h"

#include <cstdint>
#include <fstream>
#include <memory>

namespace simsub::rl {

util::Status SavePolicy(const TrainedPolicy& policy, std::ostream& os) {
  if (policy.net == nullptr) {
    return util::Status::InvalidArgument("policy has no network");
  }
  const EnvOptions& env = policy.env_options;
  os << "simsub-policy-v1 " << env.skip_count << " "
     << (env.use_suffix ? 1 : 0) << " " << static_cast<int>(env.transform)
     << " ";
  os.precision(17);
  os << env.scale_fraction << "\n";
  SIMSUB_RETURN_IF_ERROR(policy.net->Save(os));
  if (!os) return util::Status::IOError("policy serialization failed");
  return util::Status::OK();
}

util::Result<TrainedPolicy> LoadPolicy(std::istream& is) {
  std::string magic;
  TrainedPolicy policy;
  int use_suffix = 0;
  int transform = 0;
  is >> magic >> policy.env_options.skip_count >> use_suffix >> transform >>
      policy.env_options.scale_fraction;
  if (!is || magic != "simsub-policy-v1") {
    return util::Status::IOError("bad policy header");
  }
  if (policy.env_options.skip_count < 0) {
    return util::Status::IOError("corrupt policy: negative skip count");
  }
  if (transform != static_cast<int>(
                       similarity::SimilarityTransform::kOneOverOnePlus) &&
      transform != static_cast<int>(
                       similarity::SimilarityTransform::kReciprocal)) {
    return util::Status::IOError("corrupt policy: unknown similarity transform");
  }
  policy.env_options.use_suffix = use_suffix != 0;
  policy.env_options.transform =
      static_cast<similarity::SimilarityTransform>(transform);
  auto net = nn::Mlp::Load(is);
  if (!net.ok()) return net.status();
  // The network head must cover the action space of the env options. In 64
  // bits: the skip count is read from the file and may be near INT_MAX.
  const int64_t expected_actions =
      2 + static_cast<int64_t>(policy.env_options.skip_count);
  if (net->output_dim() != expected_actions) {
    return util::Status::IOError("policy/network action-count mismatch");
  }
  int expected_state = policy.env_options.use_suffix ? 3 : 2;
  if (net->input_dim() != expected_state) {
    return util::Status::IOError("policy/network state-dim mismatch");
  }
  policy.net = std::make_shared<const nn::Mlp>(std::move(net).value());
  return policy;
}

util::Status SavePolicyToFile(const TrainedPolicy& policy,
                              const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return util::Status::IOError("cannot open for writing: " + path);
  return SavePolicy(policy, out);
}

util::Result<TrainedPolicy> LoadPolicyFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::IOError("cannot open for reading: " + path);
  return LoadPolicy(in);
}

}  // namespace simsub::rl
