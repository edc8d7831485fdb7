#include "nn/mlp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "nn/adam.h"

namespace simsub::nn {
namespace {

Mlp MakeNet(util::Rng& rng, int in = 3, int hidden = 8, int out = 4) {
  return Mlp(in,
             {{hidden, Activation::kRelu}, {out, Activation::kSigmoid}}, rng);
}

TEST(MlpTest, ShapesAndDeterminism) {
  util::Rng rng1(1), rng2(1);
  Mlp a = MakeNet(rng1);
  Mlp b = MakeNet(rng2);
  std::vector<double> x = {0.1, -0.2, 0.5};
  auto ya = a.Forward(x);
  auto yb = b.Forward(x);
  ASSERT_EQ(ya.size(), 4u);
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_DOUBLE_EQ(ya[i], yb[i]);
}

TEST(MlpTest, SigmoidOutputInUnitInterval) {
  util::Rng rng(2);
  Mlp net = MakeNet(rng);
  std::vector<double> x = {5.0, -3.0, 100.0};
  for (double v : net.Forward(x)) {
    // Saturation to exactly 0/1 is acceptable in double precision.
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(MlpTest, CloneMatchesForward) {
  util::Rng rng(3);
  Mlp net = MakeNet(rng);
  Mlp copy = net.Clone();
  std::vector<double> x = {0.3, 0.1, -0.7};
  auto y1 = net.Forward(x);
  auto y2 = copy.Forward(x);
  for (size_t i = 0; i < y1.size(); ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(MlpTest, CopyFromSyncsWeights) {
  util::Rng rng(4);
  Mlp a = MakeNet(rng);
  Mlp b = MakeNet(rng);  // different init (continued stream)
  std::vector<double> x = {1.0, 0.0, -1.0};
  b.CopyFrom(a);
  auto ya = a.Forward(x);
  auto yb = b.Forward(x);
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_DOUBLE_EQ(ya[i], yb[i]);
}

// Central-difference gradient check on a scalar loss L = sum(y).
TEST(MlpTest, BackwardMatchesNumericalGradient) {
  util::Rng rng(5);
  Mlp net(3, {{5, Activation::kTanh}, {2, Activation::kSigmoid}}, rng);
  std::vector<double> x = {0.4, -0.6, 0.2};

  net.params().ZeroGrad();
  Mlp::Cache cache;
  auto y = net.Forward(x, &cache);
  std::vector<double> dy(y.size(), 1.0);  // dL/dy = 1
  std::vector<double> dx(x.size());
  net.Backward(x, &cache, dy, dx);

  const double eps = 1e-6;
  // Check every parameter gradient.
  for (const auto& view : net.params().views()) {
    for (size_t k = 0; k < view.value->size(); ++k) {
      double saved = (*view.value)[k];
      (*view.value)[k] = saved + eps;
      auto yp = net.Forward(x);
      (*view.value)[k] = saved - eps;
      auto ym = net.Forward(x);
      (*view.value)[k] = saved;
      double num = 0.0;
      for (size_t i = 0; i < yp.size(); ++i) num += (yp[i] - ym[i]);
      num /= 2 * eps;
      EXPECT_NEAR((*view.grad)[k], num, 1e-5);
    }
  }
  // And the input gradient.
  for (size_t k = 0; k < x.size(); ++k) {
    double saved = x[k];
    x[k] = saved + eps;
    auto yp = net.Forward(x);
    x[k] = saved - eps;
    auto ym = net.Forward(x);
    x[k] = saved;
    double num = 0.0;
    for (size_t i = 0; i < yp.size(); ++i) num += (yp[i] - ym[i]);
    num /= 2 * eps;
    EXPECT_NEAR(dx[k], num, 1e-5);
  }
}

TEST(MlpTest, GradientsAccumulateAcrossBackwardCalls) {
  util::Rng rng(6);
  Mlp net(2, {{3, Activation::kRelu}, {1, Activation::kNone}}, rng);
  std::vector<double> x = {1.0, 2.0};
  net.params().ZeroGrad();
  Mlp::Cache cache;
  net.Forward(x, &cache);
  std::vector<double> dy = {1.0};
  net.Backward(x, &cache, dy);
  double g1 = (*net.params().views()[0].grad)[0];
  net.Backward(x, &cache, dy);
  double g2 = (*net.params().views()[0].grad)[0];
  EXPECT_NEAR(g2, 2 * g1, 1e-12);
}

TEST(MlpTest, SaveLoadRoundTrip) {
  util::Rng rng(7);
  Mlp net = MakeNet(rng);
  std::stringstream ss;
  ASSERT_TRUE(net.Save(ss).ok());
  auto loaded = Mlp::Load(ss);
  ASSERT_TRUE(loaded.ok());
  std::vector<double> x = {0.5, 0.25, -0.1};
  auto y1 = net.Forward(x);
  auto y2 = loaded->Forward(x);
  ASSERT_EQ(y1.size(), y2.size());
  for (size_t i = 0; i < y1.size(); ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(MlpTest, LoadRejectsGarbage) {
  std::stringstream ss("not a network");
  EXPECT_FALSE(Mlp::Load(ss).ok());
}

// "mlp <input_dim> <layer count>" and, per {in, out} pair, a layer header
// followed by in * out + out weights.
std::string NetText(int input_dim, int layer_count,
                    const std::vector<std::pair<int, int>>& layers) {
  std::ostringstream os;
  os << "mlp " << input_dim << " " << layer_count << "\n";
  for (const auto& [in, out] : layers) {
    os << in << " " << out << " relu\n";
    for (int k = 0; k < in * out + out; ++k) os << "0.5 ";
    os << "\n";
  }
  return os.str();
}

TEST(MlpTest, LoadRejectsNetworksThatDoNotChain) {
  const std::vector<std::string> texts = {
      // A second layer that claims 50 inputs behind a 20-unit layer.
      NetText(3, 2, {{3, 20}, {50, 2}}),
      // No layer at all.
      "mlp 3 0\n",
      // A first layer that does not take the header's input width.
      NetText(3, 1, {{4, 2}}),
      // A layer that claims 2e9 x 2e9 weights.
      "mlp 3 1\n2000000000 2000000000 sigmoid\n0.5\n",
      // A layer that claims 6e9 weights the stream does not hold.
      "mlp 3 1\n3 2000000000 sigmoid\n0.5 0.5\n",
      // A misspelt activation, which would otherwise run as a linear layer.
      "mlp 2 1\n2 1 relux\n0.5 0.5 0.5\n",
  };
  for (const std::string& text : texts) {
    std::stringstream ss(text);
    auto loaded = Mlp::Load(ss);
    ASSERT_FALSE(loaded.ok()) << text.substr(0, 40);
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kIOError);
  }
  std::stringstream ok(NetText(3, 2, {{3, 20}, {20, 2}}));
  auto loaded = Mlp::Load(ok);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->output_dim(), 2);
}

TEST(MlpTest, SingleUnitForwardFeedsTheSameBackward) {
  // Activating only the unit the loss reads leaves the gradients of a full
  // forward pass unchanged, bit for bit, also when an unread unit's
  // pre-activation is NaN (its row is poisoned either way).
  for (bool poison : {false, true}) {
    util::Rng rng(9);
    Mlp full = MakeNet(rng, 3, 8, 4);
    // Views are w0, b0, w1, b1: poison output unit 2's bias.
    if (poison) (*full.params().views()[3].value)[2] = std::nan("");
    Mlp partial = full.Clone();
    std::vector<double> x = {0.3, -0.4, 0.9};
    std::vector<double> dy = {0.0, 0.25, 0.0, 0.0};
    const int read[] = {1};
    Mlp::Cache full_cache, partial_cache;
    full.params().ZeroGrad();
    partial.params().ZeroGrad();
    double q_full = full.Forward(x, &full_cache)[1];
    double q_partial = partial.Forward(x, &partial_cache, read)[1];
    EXPECT_EQ(std::memcmp(&q_full, &q_partial, sizeof(double)), 0);
    full.Backward(x, &full_cache, dy);
    partial.Backward(x, &partial_cache, dy);
    const auto& a = full.params().views();
    const auto& b = partial.params().views();
    for (size_t v = 0; v < a.size(); ++v) {
      ASSERT_EQ(a[v].grad->size(), b[v].grad->size());
      EXPECT_EQ(std::memcmp(a[v].grad->data(), b[v].grad->data(),
                            a[v].grad->size() * sizeof(double)),
                0)
          << "parameter tensor " << v;
    }
    EXPECT_EQ(std::isnan((*a[2].grad)[2 * 8]), poison);
  }
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(MlpTest, BatchMatchesOneSampleAtATime) {
  // A batch of B samples gives each sample's outputs and dL/dx, and the
  // gradients of one-sample passes accumulated in sample order, bit for bit:
  // for every tile remainder of B, with all units or one unit per sample
  // activated, and with a NaN input component.
  for (int samples : {1, 2, 3, 5, 8, 9, 17, 32}) {
    for (bool read_one : {false, true}) {
      util::Rng rng(static_cast<uint64_t>(20 + samples));
      // Widths 3 -> 5 -> 6 -> 5 leave odd rows and odd column pairs.
      Mlp batched(3, {{5, Activation::kTanh}, {6, Activation::kRelu},
                      {5, Activation::kSigmoid}}, rng);
      Mlp single = batched.Clone();
      const size_t b = static_cast<size_t>(samples);
      std::vector<double> x(3 * b), dy(5 * b, 0.0);
      std::vector<int> read(b);
      for (size_t s = 0; s < b; ++s) {
        for (size_t i = 0; i < 3; ++i) x[i * b + s] = rng.Uniform(-1.0, 1.0);
        read[s] = static_cast<int>(rng.UniformInt(0, 4));
        for (size_t o = 0; o < 5; ++o) {
          const bool live = read_one ? static_cast<int>(o) == read[s]
                                     : rng.Bernoulli(0.6);
          if (live) dy[o * b + s] = rng.Uniform(-1.0, 1.0);
        }
      }
      if (samples > 2) x[1 * b + 2] = std::nan("");
      Mlp::Cache cache;
      batched.params().ZeroGrad();
      std::vector<double> dx(x.size());
      const std::vector<double> y =
          batched.Forward(x, &cache, read_one ? std::span<const int>(read)
                                              : std::span<const int>());
      batched.Backward(x, &cache, dy, dx);

      single.params().ZeroGrad();
      for (size_t s = 0; s < b; ++s) {
        std::vector<double> xs(3), dys(5), dxs(3);
        for (size_t i = 0; i < 3; ++i) xs[i] = x[i * b + s];
        for (size_t o = 0; o < 5; ++o) dys[o] = dy[o * b + s];
        const int unit[] = {read[s]};
        Mlp::Cache one;
        const std::vector<double> ys = single.Forward(
            xs, &one, read_one ? std::span<const int>(unit)
                               : std::span<const int>());
        single.Backward(xs, &one, dys, dxs);
        for (size_t o = 0; o < 5; ++o) {
          if (read_one && static_cast<int>(o) != read[s]) continue;
          EXPECT_EQ(std::memcmp(&ys[o], &y[o * b + s], sizeof(double)), 0)
              << "B=" << samples << " sample " << s << " output " << o;
        }
        for (size_t i = 0; i < 3; ++i) {
          EXPECT_EQ(std::memcmp(&dxs[i], &dx[i * b + s], sizeof(double)), 0)
              << "B=" << samples << " sample " << s << " input " << i;
        }
      }
      const auto& a = batched.params().views();
      const auto& c = single.params().views();
      for (size_t v = 0; v < a.size(); ++v) {
        EXPECT_TRUE(SameBits(*a[v].grad, *c[v].grad))
            << "B=" << samples << " read_one=" << read_one << " tensor " << v;
      }
    }
  }
}

// One layer of NetFromText: its width, activation, and row-major weights
// and biases.
struct TextLayer {
  int out = 0;
  Activation act = Activation::kNone;
  std::vector<double> w;
  std::vector<double> b;
};

// The network these layers make, read from text as a saved one is.
Mlp NetFromText(int input_dim, const std::vector<TextLayer>& layers) {
  std::ostringstream os;
  os.precision(17);
  os << "mlp " << input_dim << " " << layers.size() << "\n";
  int width = input_dim;
  for (const TextLayer& layer : layers) {
    os << width << " " << layer.out << " " << ActivationName(layer.act) << "\n";
    for (double v : layer.w) os << v << " ";
    os << "\n";
    for (double v : layer.b) os << v << " ";
    os << "\n";
    width = layer.out;
  }
  std::istringstream is(os.str());
  auto net = Mlp::Load(is);
  EXPECT_TRUE(net.ok());
  return std::move(net).value();
}

// A layer of `out` units over `in` inputs with normal weights and biases.
TextLayer RandomLayer(int in, int out, Activation act, util::Rng& rng) {
  TextLayer layer{out, act, std::vector<double>(static_cast<size_t>(in) * out),
                  std::vector<double>(static_cast<size_t>(out))};
  for (double& v : layer.w) v = rng.Normal(0.0, 1.0);
  for (double& v : layer.b) v = rng.Normal(0.0, 1.0);
  return layer;
}

// ArgMaxOutput is the unit std::max_element picks from Forward, for the
// shapes it specializes (3 inputs, one tile of 2 output units) and the rest
// (other inputs, wider outputs, layers of more than 64 units, which take
// Forward itself), under every activation. Tied units, sigmoids saturated
// to 1.0 and NaN inputs are where the first maximum differs from another
// one.
TEST(MlpTest, ArgMaxOutputPicksForwardsFirstMaximum) {
  util::Rng rng(41);
  const Activation kActs[] = {Activation::kNone, Activation::kRelu,
                              Activation::kSigmoid, Activation::kTanh};
  int ties = 0;
  for (int in : {1, 2, 3, 5}) {
    for (int out : {1, 2, 3, 5, 8, 9, 70}) {
      for (int hidden : {0, 20, 70}) {
        for (Activation act : kActs) {
          for (bool tie_units : {false, true}) {
            std::vector<TextLayer> layers;
            if (hidden > 0) {
              layers.push_back(RandomLayer(in, hidden, kActs[(in + out) % 4], rng));
            }
            layers.push_back(RandomLayer(hidden > 0 ? hidden : in, out, act, rng));
            if (tie_units) {
              // Every odd output unit repeats unit 0.
              TextLayer& head = layers.back();
              const size_t width = head.w.size() / static_cast<size_t>(out);
              for (int o = 1; o < out; o += 2) {
                std::copy_n(head.w.begin(), width, head.w.begin() + o * width);
                head.b[static_cast<size_t>(o)] = head.b[0];
              }
            }
            const Mlp net = NetFromText(in, layers);
            for (int trial = 0; trial < 8; ++trial) {
              std::vector<double> x(static_cast<size_t>(in));
              for (double& v : x) v = rng.Uniform(-3.0, 3.0);
              if (trial == 1) x[0] = std::nan("");
              if (trial == 2) x[0] = 1e6;  // saturates the sigmoid heads
              const std::vector<double> q = net.Forward(x);
              const auto first = std::max_element(q.begin(), q.end());
              ties += std::count(q.begin(), q.end(), *first) > 1;
              EXPECT_EQ(net.ArgMaxOutput(x), first - q.begin())
                  << "in=" << in << " hidden=" << hidden << " out=" << out
                  << " act=" << ActivationName(act) << " trial=" << trial;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(ties, 0);  // the first maximum was tested, not just a maximum
}

// The hidden layers ArgMaxOutput sums itself (a row at a time for 3 inputs)
// keep Forward's index order bit for bit. A linear head reads
// hidden unit k against c, its value under Forward: units (k, c) tie, and
// the decision is unit 0, only if the two are equal; units (c, k) catch a
// difference the other way.
TEST(MlpTest, ArgMaxOutputSumsHiddenUnitsInForwardsOrder) {
  util::Rng rng(43);
  const int hidden = 6;
  for (int in : {2, 3, 5}) {
    for (Activation act : {Activation::kNone, Activation::kRelu,
                           Activation::kSigmoid, Activation::kTanh}) {
      for (int trial = 0; trial < 10; ++trial) {
        const TextLayer first = RandomLayer(in, hidden, act, rng);
        std::vector<double> x(static_cast<size_t>(in));
        for (double& v : x) v = rng.Uniform(-3.0, 3.0);
        const std::vector<double> h = NetFromText(in, {first}).Forward(x);
        for (int k = 0; k < hidden; ++k) {
          for (int unit_at : {0, 1}) {
            // The head unit `unit_at` passes h[k] through; the other holds
            // h[k] as computed by Forward in its bias.
            TextLayer head{2, Activation::kNone,
                           std::vector<double>(2 * hidden, 0.0),
                           std::vector<double>(2, 0.0)};
            head.w[static_cast<size_t>(unit_at * hidden + k)] = 1.0;
            head.b[static_cast<size_t>(1 - unit_at)] = h[static_cast<size_t>(k)];
            EXPECT_EQ(NetFromText(in, {first, head}).ArgMaxOutput(x), 0)
                << "in=" << in << " act=" << ActivationName(act)
                << " unit " << k << " at " << unit_at;
          }
        }
      }
    }
  }
}

// FirstMax reads every stride-th value and picks the maximum
// std::max_element picks from them: the first of tied values, and a NaN
// only where it comes first.
TEST(MlpTest, FirstMaxPicksTheFirstMaximumAtAStride) {
  util::Rng rng(47);
  const double nan = std::nan("");
  for (size_t stride : {1, 3}) {
    for (int count : {1, 2, 5}) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> v(static_cast<size_t>(count) * stride);
        // Few distinct values, so ties are common.
        for (double& x : v) x = static_cast<double>(rng.UniformInt(0, 2));
        if (trial % 4 == 1) v[stride * static_cast<size_t>(trial % count)] = nan;
        std::vector<double> read;
        for (int o = 0; o < count; ++o) read.push_back(v[static_cast<size_t>(o) * stride]);
        EXPECT_EQ(FirstMax(v.data(), count, stride),
                  std::max_element(read.begin(), read.end()) - read.begin())
            << "stride " << stride << " count " << count << " trial " << trial;
      }
    }
  }
}

TEST(MlpTest, ActivationHelpers) {
  EXPECT_EQ(ActivationFromName("none").value(), Activation::kNone);
  EXPECT_EQ(ActivationFromName("relu").value(), Activation::kRelu);
  EXPECT_EQ(ActivationFromName("sigmoid").value(), Activation::kSigmoid);
  EXPECT_EQ(ActivationFromName("tanh").value(), Activation::kTanh);
  for (const char* bogus : {"bogus", "relux", "", "RELU"}) {
    auto act = ActivationFromName(bogus);
    ASSERT_FALSE(act.ok()) << bogus;
    EXPECT_EQ(act.status().code(), util::StatusCode::kInvalidArgument);
  }
  EXPECT_STREQ(ActivationName(Activation::kRelu), "relu");
  std::vector<double> v = {-1.0, 2.0};
  ApplyActivation(Activation::kRelu, &v);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(MlpTest, TrainsToFitTinyFunction) {
  // Regression sanity: learn y = sigmoid-ish mapping of XOR-style points.
  util::Rng rng(8);
  Mlp net(2, {{8, Activation::kTanh}, {1, Activation::kSigmoid}}, rng);
  Adam adam(&net.params(), {.learning_rate = 0.05,
                            .beta1 = 0.9,
                            .beta2 = 0.999,
                            .epsilon = 1e-8,
                            .clip_norm = 0.0});
  std::vector<std::pair<std::vector<double>, double>> samples = {
      {{0, 0}, 0.0}, {{0, 1}, 1.0}, {{1, 0}, 1.0}, {{1, 1}, 0.0}};
  for (int step = 0; step < 2000; ++step) {
    net.params().ZeroGrad();
    for (const auto& [x, target] : samples) {
      Mlp::Cache cache;
      auto y = net.Forward(x, &cache);
      std::vector<double> dy = {2.0 * (y[0] - target)};
      net.Backward(x, &cache, dy);
    }
    adam.Step();
  }
  for (const auto& [x, target] : samples) {
    EXPECT_NEAR(net.Forward(x)[0], target, 0.2);
  }
}

}  // namespace
}  // namespace simsub::nn
