#include "rl/policy_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "similarity/dtw.h"

namespace simsub::rl {
namespace {

similarity::DtwMeasure kDtw;

TrainedPolicy MakePolicy(EnvOptions env) {
  data::Dataset dataset =
      data::GenerateDataset(data::DatasetKind::kPorto, 10, 71);
  RlsTrainOptions options;
  options.episodes = 10;
  options.env = env;
  options.seed = 3;
  RlsTrainer trainer(&kDtw, options);
  return trainer.Train(dataset.trajectories, dataset.trajectories);
}

TEST(PolicyIoTest, RoundTripPreservesNetworkAndOptions) {
  EnvOptions env;
  env.skip_count = 3;
  env.use_suffix = true;
  env.scale_fraction = 0.25;
  TrainedPolicy policy = MakePolicy(env);

  std::stringstream ss;
  ASSERT_TRUE(SavePolicy(policy, ss).ok());
  auto loaded = LoadPolicy(ss);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->env_options.skip_count, 3);
  EXPECT_TRUE(loaded->env_options.use_suffix);
  EXPECT_DOUBLE_EQ(loaded->env_options.scale_fraction, 0.25);

  std::vector<double> s = {0.2, 0.5, 0.7};
  auto q1 = policy.net->Forward(s);
  auto q2 = loaded->net->Forward(s);
  ASSERT_EQ(q1.size(), q2.size());
  for (size_t i = 0; i < q1.size(); ++i) EXPECT_DOUBLE_EQ(q1[i], q2[i]);
}

// A policy header for `skip_count`, then "mlp 3 <layer count>" and, per
// {in, out} pair, a layer header followed by in * out + out weights.
std::string PolicyText(long long skip_count, int layer_count,
                       const std::vector<std::pair<int, int>>& layers,
                       int transform = 0) {
  std::ostringstream os;
  os << "simsub-policy-v1 " << skip_count << " 1 " << transform << " 0.1\n";
  os << "mlp 3 " << layer_count << "\n";
  for (const auto& [in, out] : layers) {
    os << in << " " << out << (out == 20 ? " relu\n" : " sigmoid\n");
    for (int k = 0; k < in * out + out; ++k) os << "0.25 ";
    os << "\n";
  }
  return os.str();
}

TEST(PolicyIoTest, RejectsNetworksThatDoNotChainOrMatchTheHeader) {
  const std::vector<std::string> texts = {
      // A second layer that claims 50 inputs behind a 20-unit layer.
      PolicyText(0, 2, {{3, 20}, {50, 2}}),
      // No layer, under a header whose action count (3) equals the width.
      PolicyText(1, 0, {}),
      // A skip count whose action count overflows 32 bits.
      PolicyText(2147483647, 1, {{3, 2}}),
      // A layer that claims 2e9 x 2e9 weights.
      "simsub-policy-v1 0 1 0 0.1\nmlp 3 1\n"
      "2000000000 2000000000 sigmoid\n0.5\n",
      // A similarity transform that does not exist.
      PolicyText(0, 2, {{3, 20}, {20, 2}}, /*transform=*/7),
      // A hidden layer whose activation is misspelt, which would otherwise
      // load and run as a linear layer.
      "simsub-policy-v1 0 1 0 0.1\nmlp 3 1\n3 2 relux\n"
      "0.25 0.25 0.25 0.25 0.25 0.25 0.25 0.25\n",
  };
  for (const std::string& text : texts) {
    std::stringstream ss(text);
    auto loaded = LoadPolicy(ss);
    ASSERT_FALSE(loaded.ok()) << text.substr(0, 60);
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kIOError);
  }
  std::stringstream ok(PolicyText(0, 2, {{3, 20}, {20, 2}}));
  auto loaded = LoadPolicy(ok);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->net->output_dim(), 2);
}

TEST(PolicyIoTest, NoSuffixPolicyRoundTrips) {
  EnvOptions env;
  env.use_suffix = false;
  TrainedPolicy policy = MakePolicy(env);
  std::stringstream ss;
  ASSERT_TRUE(SavePolicy(policy, ss).ok());
  auto loaded = LoadPolicy(ss);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->env_options.use_suffix);
  EXPECT_EQ(loaded->net->input_dim(), 2);
}

TEST(PolicyIoTest, FileRoundTrip) {
  TrainedPolicy policy = MakePolicy(EnvOptions{});
  std::string path =
      (std::filesystem::temp_directory_path() / "simsub_policy_test.txt")
          .string();
  ASSERT_TRUE(SavePolicyToFile(policy, path).ok());
  auto loaded = LoadPolicyFromFile(path);
  ASSERT_TRUE(loaded.ok());
  std::vector<double> s = {0.1, 0.2, 0.3};
  EXPECT_EQ(policy.net->Forward(s), loaded->net->Forward(s));
  std::remove(path.c_str());
}

TEST(PolicyIoTest, RejectsGarbageAndMismatches) {
  std::stringstream bad("not a policy");
  EXPECT_FALSE(LoadPolicy(bad).ok());

  // A valid header whose env options disagree with the network shape.
  TrainedPolicy policy = MakePolicy(EnvOptions{});  // 3 -> 2 net
  std::stringstream ss;
  ASSERT_TRUE(SavePolicy(policy, ss).ok());
  std::string text = ss.str();
  // Claim skip_count 3 (expects 5 action heads) against the 2-head net.
  text.replace(text.find(" 0 1 "), 5, " 3 1 ");
  std::stringstream tampered(text);
  EXPECT_FALSE(LoadPolicy(tampered).ok());
}

TEST(PolicyIoTest, MissingFileFails) {
  EXPECT_FALSE(LoadPolicyFromFile("/no/such/policy.txt").ok());
}

}  // namespace
}  // namespace simsub::rl
