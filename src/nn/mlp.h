// Small fully-connected network with per-layer activations. This is the
// function approximator behind the DQN (paper Section 6.1: one hidden layer
// of 20 ReLU units, sigmoid output head with 2+k units).
#ifndef SIMSUB_NN_MLP_H_
#define SIMSUB_NN_MLP_H_

#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "nn/param.h"
#include "util/random.h"
#include "util/status.h"

namespace simsub::nn {

enum class Activation { kNone, kRelu, kSigmoid, kTanh };

/// Parses "none|relu|sigmoid|tanh"; fails with InvalidArgument on any other
/// name.
[[nodiscard]] util::Result<Activation> ActivationFromName(
    const std::string& name);
const char* ActivationName(Activation act);

/// Applies the activation elementwise.
void ApplyActivation(Activation act, std::vector<double>* v);

/// d(act)/d(pre) given the *post*-activation value (all supported
/// activations admit this form).
double ActivationGradFromOutput(Activation act, double post);

/// The first of the `count` values v[0], v[stride], ... holding the largest
/// (the one std::max_element picks): a greedy choice among output units,
/// one sample's of a feature-major batch when `stride` is the batch size.
int FirstMax(const double* v, int count, size_t stride = 1);

/// One affine layer y = W x + b with an elementwise activation.
struct DenseLayer {
  int in = 0;
  int out = 0;
  Activation act = Activation::kNone;
  std::vector<double> w;   // row-major, out x in
  std::vector<double> b;   // out
  std::vector<double> gw;  // accumulated dL/dw
  std::vector<double> gb;  // accumulated dL/db
};

/// Multi-layer perceptron over a minibatch of B >= 1 samples. Batches are
/// feature-major: x[i * B + s] is input i of sample s, so one sample is a
/// plain input vector. Each layer runs once over the whole batch, in register
/// tiles of rows x samples whose shape is picked from B (B = 1 uses 4-row
/// tiles); every sample's sums keep the index order of a one-sample pass, so
/// the outputs and gradients of a batch are bit-identical to running its
/// samples one at a time. Both passes work in buffers owned by a Cache, so a
/// caller that keeps its Cache allocates nothing once the cache has seen its
/// largest batch.
class Mlp {
 public:
  struct LayerSpec {
    int out = 0;
    Activation act = Activation::kNone;
  };

  /// Builds input_dim -> specs[0].out -> ... with He/Xavier initialization
  /// appropriate for each activation, using `rng` for reproducibility.
  Mlp(int input_dim, const std::vector<LayerSpec>& specs, util::Rng& rng);

  // The ParameterBag aliases the layer buffers: moving keeps element
  // addresses valid (vector storage moves wholesale), copying would not.
  Mlp(const Mlp&) = delete;
  Mlp& operator=(const Mlp&) = delete;
  Mlp(Mlp&&) = default;
  Mlp& operator=(Mlp&&) = default;

  /// Deep copy that rebuilds the parameter registry (for target networks).
  Mlp Clone() const;

  int input_dim() const { return input_dim_; }
  int output_dim() const { return layers_.empty() ? input_dim_ : layers_.back().out; }

  /// Inference-only forward pass.
  std::vector<double> Forward(std::span<const double> x) const;

  /// The greedy decision for one sample: the first output unit holding the
  /// largest value of Forward(x) (the unit std::max_element picks), bit for
  /// bit, with no Cache and no allocation. Every sum keeps Forward's index
  /// order. A hidden layer over 3 inputs (the splitting MDP's state) is
  /// summed a row at a time, unrolled, and an output layer of 2 units in one
  /// tile, so their chains run side by side. A network with a layer wider
  /// than 64 units decides through Forward instead.
  int ArgMaxOutput(std::span<const double> x) const;

  /// The buffers of one forward/backward pair. Reusing one Cache across
  /// calls keeps hot loops (the DQN learning step) allocation-free.
  struct Cache {
    size_t samples = 0;  // B of the last forward pass
    std::vector<std::vector<double>> post;  // post[l] = output of layer l
    /// The output unit each sample of the last forward pass activated alone,
    /// or empty when every unit was activated. The other output units of
    /// such a sample hold pre-activation values in post.back().
    std::vector<int> read;
    // Backward: dL/d(output), then dL/d(pre-activation), of the layer.
    std::vector<double> grad;
    std::vector<double> dinput;      // Backward: dL/d(input) of the layer
    std::vector<double> transposed;  // Backward: a layer input, sample-major
  };

  /// Forward pass over the B = x.size() / input_dim() samples of `x` into
  /// `cache`; returns a reference to its output_dim() x B output buffer,
  /// valid until the next call with the same cache. Every hidden unit is
  /// activated. Of the output units, all are activated when `read` is
  /// empty; otherwise `read` names one unit per sample, only that unit is
  /// activated, and the sample's other units keep their pre-activation
  /// values (a caller that reads one output per sample skips the others'
  /// activation, and Backward still sees every unit).
  const std::vector<double>& Forward(std::span<const double> x, Cache* cache,
                                     std::span<const int> read = {}) const;

  /// Accumulates parameter gradients for dL/dy = `dy` (output_dim() x B) at
  /// the forward pass held in `cache`, summing the samples in order, and
  /// writes dL/dx (input_dim() x B) into `dx` when `dx` is non-empty; with
  /// `dx` empty the first layer's input gradient is not computed. A unit
  /// whose dL/d(pre-activation) is zero adds nothing. An output unit the
  /// forward pass left unactivated is activated here only where it can
  /// contribute: when its dy is nonzero, or its pre-activation is NaN, which
  /// poisons its gradient row exactly as after a full forward pass. Call
  /// params().ZeroGrad() to reset the accumulators.
  void Backward(std::span<const double> x, Cache* cache,
                std::span<const double> dy, std::span<double> dx = {});

  /// Copies weights from a same-architecture network (target-net sync).
  void CopyFrom(const Mlp& other);

  ParameterBag& params() { return bag_; }
  const std::vector<DenseLayer>& layers() const { return layers_; }

  /// Text (de)serialization of architecture + weights.
  [[nodiscard]] util::Status Save(std::ostream& os) const;
  [[nodiscard]] static util::Result<Mlp> Load(std::istream& is);

 private:
  Mlp() = default;
  void RegisterParams();

  int input_dim_ = 0;
  std::vector<DenseLayer> layers_;
  ParameterBag bag_;
};

}  // namespace simsub::nn

#endif  // SIMSUB_NN_MLP_H_
