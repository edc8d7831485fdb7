#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "util/logging.h"

namespace simsub::nn {

util::Result<Activation> ActivationFromName(const std::string& name) {
  if (name == "none") return Activation::kNone;
  if (name == "relu") return Activation::kRelu;
  if (name == "sigmoid") return Activation::kSigmoid;
  if (name == "tanh") return Activation::kTanh;
  return util::Status::InvalidArgument("unknown activation: " + name);
}

const char* ActivationName(Activation act) {
  switch (act) {
    case Activation::kNone:
      return "none";
    case Activation::kRelu:
      return "relu";
    case Activation::kSigmoid:
      return "sigmoid";
    case Activation::kTanh:
      return "tanh";
  }
  return "none";
}

namespace {

// The activation of one pre-activation value: ApplyActivation's elementwise
// step, also used for the single units Forward and Backward activate.
double Activate(Activation act, double pre) {
  switch (act) {
    case Activation::kNone:
      return pre;
    case Activation::kRelu:
      return pre > 0.0 ? pre : 0.0;
    case Activation::kSigmoid:
      return 1.0 / (1.0 + std::exp(-pre));
    case Activation::kTanh:
      return std::tanh(pre);
  }
  return pre;
}

template <Activation kAct>
void ActivateEach(std::vector<double>* v) {
  for (double& x : *v) x = Activate(kAct, x);
}

// Two doubles in one vector register (a GCC/Clang vector extension; SSE2
// on x86-64). A lane adds and multiplies exactly as a scalar does, so no sum
// changes its bits.
typedef double Pair __attribute__((vector_size(16)));

Pair LoadPair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void StorePair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

// `term` in the lanes `keep` (a Pair comparison) selects and -0.0 in the
// others. Adding -0.0 leaves every value unchanged (-0.0 and NaN included),
// so a masked term is skipped exactly as a branch around its addition would
// skip it.
template <typename Mask>
Pair Kept(Pair term, Mask keep) {
  const Pair neg_zero = {-0.0, -0.0};
  return reinterpret_cast<Pair>((reinterpret_cast<Mask>(term) & keep) |
                                (~keep & reinterpret_cast<Mask>(neg_zero)));
}

// Activate(kRelu, .) of each lane: the lane where it is positive, +0.0
// elsewhere (NaN and -0.0 included).
Pair Relu(Pair v) {
  auto positive = v > Pair{};
  return reinterpret_cast<Pair>(reinterpret_cast<decltype(positive)>(v) & positive);
}

// out[r][s] = b[r] + sum_i w[r][i] * x[i][s] for the kRows rows from `row`
// and the eight samples from `sample` of a feature-major batch of `samples`
// columns, passed through ReLU as it is stored when `relu` is set. Each sum
// runs in index order, as a one-sample pass would: a tile only interleaves
// 8 * kRows independent sums.
template <int kRows>
void AffineTile(const DenseLayer& layer, int row, size_t sample, size_t samples,
                bool relu, const double* x, double* out) {
  constexpr int kPairs = 4;
  const size_t in = static_cast<size_t>(layer.in);
  const double* w = layer.w.data() + static_cast<size_t>(row) * in;
  Pair acc[kRows][kPairs];
  for (int r = 0; r < kRows; ++r) {
    const double b = layer.b[static_cast<size_t>(row + r)];
    for (int p = 0; p < kPairs; ++p) acc[r][p] = Pair{b, b};
  }
  for (size_t i = 0; i < in; ++i) {
    Pair xi[kPairs];
    for (int p = 0; p < kPairs; ++p) xi[p] = LoadPair(x + i * samples + sample + 2 * p);
    for (int r = 0; r < kRows; ++r) {
      const double wi = w[static_cast<size_t>(r) * in + i];
      const Pair wr = {wi, wi};
      for (int p = 0; p < kPairs; ++p) acc[r][p] += wr * xi[p];
    }
  }
  for (int r = 0; r < kRows; ++r) {
    double* o = out + static_cast<size_t>(row + r) * samples + sample;
    for (int p = 0; p < kPairs; ++p) {
      StorePair(o + 2 * p, relu ? Relu(acc[r][p]) : acc[r][p]);
    }
  }
}

// The one-sample tile: kRows sums of sample `sample`.
template <int kRows>
void AffineRows(const DenseLayer& layer, int row, size_t sample, size_t samples,
                bool relu, const double* x, double* out) {
  const size_t in = static_cast<size_t>(layer.in);
  const double* w = layer.w.data() + static_cast<size_t>(row) * in;
  double acc[kRows];
  for (int r = 0; r < kRows; ++r) acc[r] = layer.b[static_cast<size_t>(row + r)];
  for (size_t i = 0; i < in; ++i) {
    const double xi = x[i * samples + sample];
    for (int r = 0; r < kRows; ++r) acc[r] += w[static_cast<size_t>(r) * in + i] * xi;
  }
  for (int r = 0; r < kRows; ++r) {
    out[static_cast<size_t>(row + r) * samples + sample] =
        relu ? Activate(Activation::kRelu, acc[r]) : acc[r];
  }
}

// Every row of the layer for the eight samples from `sample`: two rows a
// tile, and a last odd row alone.
void AffineColumns(const DenseLayer& layer, size_t sample, size_t samples,
                   bool relu, const double* x, double* out) {
  int o = 0;
  for (; o + 2 <= layer.out; o += 2) {
    AffineTile<2>(layer, o, sample, samples, relu, x, out);
  }
  if (o < layer.out) AffineTile<1>(layer, o, sample, samples, relu, x, out);
}

// Every row of the layer for sample `sample` alone, in 4-row tiles.
void AffineSample(const DenseLayer& layer, size_t sample, size_t samples,
                  bool relu, const double* x, double* out) {
  int o = 0;
  for (; o + 4 <= layer.out; o += 4) {
    AffineRows<4>(layer, o, sample, samples, relu, x, out);
  }
  for (; o < layer.out; ++o) AffineRows<1>(layer, o, sample, samples, relu, x, out);
}

// The layer's pre-activations for a feature-major batch, or with `relu` its
// ReLU outputs: tiles of 2 rows x 8 samples while eight samples last, then
// the rest one sample at a time.
void AffineBatch(const DenseLayer& layer, size_t samples, bool relu,
                 const double* x, double* out) {
  size_t s = 0;
  for (; s + 8 <= samples; s += 8) AffineColumns(layer, s, samples, relu, x, out);
  for (; s < samples; ++s) AffineSample(layer, s, samples, relu, x, out);
}

// The widest layer Mlp::ArgMaxOutput keeps on the stack.
constexpr int kDecisionWidth = 64;

// One sample's pre-activations of a layer with kIn inputs, or with `relu`
// its ReLU outputs, a row at a time in index order. A compile-time width
// unrolls each row's sum, so the rows overlap: read at run time, it made a
// 2-head decision over 3 inputs and 20 ReLU units take about twice as long
// in a microbench.
template <int kIn>
void NarrowRows(const DenseLayer& layer, bool relu, const double* x,
                double* out) {
  const double* w = layer.w.data();
  for (int r = 0; r < layer.out; ++r) {
    double acc = layer.b[static_cast<size_t>(r)];
    for (int i = 0; i < kIn; ++i) acc += w[r * kIn + i] * x[i];
    out[r] = relu ? Activate(Activation::kRelu, acc) : acc;
  }
}

// One sample's activated outputs of a layer for Mlp::ArgMaxOutput. A layer
// over the 3 inputs of the splitting MDP's state sums a row at a time.
void DecisionLayer(const DenseLayer& layer, const double* x, double* out) {
  const bool relu = layer.act == Activation::kRelu;
  if (layer.in == 3) {
    NarrowRows<3>(layer, relu, x, out);
  } else {
    AffineSample(layer, 0, 1, relu, x, out);
  }
  if (!relu) {
    for (int k = 0; k < layer.out; ++k) out[k] = Activate(layer.act, out[k]);
  }
}

// The first maximum of an output layer of kUnits units for one sample, its
// sums in one tile.
template <int kUnits>
int TileArgMax(const DenseLayer& layer, const double* x) {
  double q[kUnits];
  AffineRows<kUnits>(layer, 0, 0, 1, false, x, q);
  for (double& v : q) v = Activate(layer.act, v);
  return FirstMax(q, kUnits);
}

// Column c of a layer's parameter gradient row o: gw[o][c] for c < in, the
// bias gradient gb[o] at c == in, and nothing (the padding) past it.
double* GradSlot(DenseLayer& layer, int o, size_t c) {
  const size_t in = static_cast<size_t>(layer.in);
  if (c < in) return &layer.gw[static_cast<size_t>(o) * in + c];
  return c == in ? &layer.gb[static_cast<size_t>(o)] : nullptr;
}

// Adds d[o][s] * t[s][c] to gradient column c of rows row..row+kRows-1, for
// the column pairs from `pair` and the samples in order, a zero d skipped.
// `t` is the layer input sample-major with a column of ones appended (so
// the bias column adds d itself) and `width` columns in all.
template <int kRows, int kColPairs>
void ParamGradTile(DenseLayer& layer, int row, size_t pair, size_t width,
                   size_t samples, const double* d, const double* t) {
  Pair acc[kRows][kColPairs];
  for (int r = 0; r < kRows; ++r) {
    for (int p = 0; p < kColPairs; ++p) {
      const size_t c = 2 * (pair + p);
      const double* lo = GradSlot(layer, row + r, c);
      const double* hi = GradSlot(layer, row + r, c + 1);
      acc[r][p] = Pair{*lo, hi != nullptr ? *hi : 0.0};
    }
  }
  for (size_t s = 0; s < samples; ++s) {
    Pair x[kColPairs];
    for (int p = 0; p < kColPairs; ++p) x[p] = LoadPair(t + s * width + 2 * (pair + p));
    for (int r = 0; r < kRows; ++r) {
      const double dv = d[static_cast<size_t>(row + r) * samples + s];
      const Pair dr = {dv, dv};
      const auto keep = dr != Pair{};
      for (int p = 0; p < kColPairs; ++p) acc[r][p] += Kept(dr * x[p], keep);
    }
  }
  for (int r = 0; r < kRows; ++r) {
    for (int p = 0; p < kColPairs; ++p) {
      const size_t c = 2 * (pair + p);
      *GradSlot(layer, row + r, c) = acc[r][p][0];
      if (double* hi = GradSlot(layer, row + r, c + 1)) *hi = acc[r][p][1];
    }
  }
}

// Every gradient column of rows row..row+kRows-1, two column pairs a tile.
template <int kRows>
void ParamGradRows(DenseLayer& layer, int row, size_t width, size_t samples,
                   const double* d, const double* t) {
  size_t p = 0;
  for (; 2 * p + 4 <= width; p += 2) {
    ParamGradTile<kRows, 2>(layer, row, p, width, samples, d, t);
  }
  for (; 2 * p < width; ++p) {
    ParamGradTile<kRows, 1>(layer, row, p, width, samples, d, t);
  }
}

// The parameter gradients of a layer for dL/d(pre-activation) `d`, in
// register tiles over the layer input transposed to sample-major into `t`,
// with the bias's column of ones and an even width.
void ParamGrads(DenseLayer& layer, size_t samples, const double* d,
                const double* input, std::vector<double>* t) {
  const size_t in = static_cast<size_t>(layer.in);
  const size_t width = (in + 2) & ~size_t{1};
  t->assign(width * samples, 0.0);
  for (size_t s = 0; s < samples; ++s) {
    for (size_t i = 0; i < in; ++i) (*t)[s * width + i] = input[i * samples + s];
    (*t)[s * width + in] = 1.0;
  }
  int o = 0;
  for (; o + 4 <= layer.out; o += 4) {
    ParamGradRows<4>(layer, o, width, samples, d, t->data());
  }
  for (; o < layer.out; ++o) ParamGradRows<1>(layer, o, width, samples, d, t->data());
}

// dinput[i][s] += d * w[o][i]: unit o's share of sample s's input gradient.
void AddInputGrad(const DenseLayer& layer, int o, size_t s, double d,
                  size_t samples, double* dinput) {
  const size_t in = static_cast<size_t>(layer.in);
  const double* w = layer.w.data() + static_cast<size_t>(o) * in;
  for (size_t i = 0; i < in; ++i) dinput[i * samples + s] += d * w[i];
}

// dinput = dL/d(input) for dL/d(pre-activation) `d`: the units in order for
// every sample, a zero d skipped.
void InputGrads(const DenseLayer& layer, size_t samples, const double* d,
                double* dinput) {
  for (int o = 0; o < layer.out; ++o) {
    for (size_t s = 0; s < samples; ++s) {
      const double dv = d[static_cast<size_t>(o) * samples + s];
      if (dv != 0.0) AddInputGrad(layer, o, s, dv, samples, dinput);
    }
  }
}

template <Activation kAct>
void ScaleBySlopeEach(const double* post, std::vector<double>* grad) {
  for (size_t k = 0; k < grad->size(); ++k) {
    (*grad)[k] *= ActivationGradFromOutput(kAct, post[k]);
  }
}

// grad[k] *= d(act)/d(pre) at the post-activation value post[k]; one loop
// per activation, so the ReLU loop vectorizes.
void ScaleBySlope(Activation act, const double* post, std::vector<double>* grad) {
  switch (act) {
    case Activation::kNone:
      return ScaleBySlopeEach<Activation::kNone>(post, grad);
    case Activation::kRelu:
      return ScaleBySlopeEach<Activation::kRelu>(post, grad);
    case Activation::kSigmoid:
      return ScaleBySlopeEach<Activation::kSigmoid>(post, grad);
    case Activation::kTanh:
      return ScaleBySlopeEach<Activation::kTanh>(post, grad);
  }
}

// Every gradient of an output layer whose forward pass activated only unit
// read[s] of each sample s, the others holding pre-activation values: each
// sample's units are visited in order and only those that contribute are
// applied, a unit at a time (about one per sample).
void ReadUnitGrads(DenseLayer& layer, size_t samples, std::span<const int> read,
                   const double* post, const double* input, const double* grad,
                   double* dinput) {
  const size_t in = static_cast<size_t>(layer.in);
  for (size_t s = 0; s < samples; ++s) {
    for (int o = 0; o < layer.out; ++o) {
      const size_t u = static_cast<size_t>(o);
      const size_t k = u * samples + s;
      double out = post[k];
      if (o != read[s]) {
        // Every activation has a finite slope at a non-NaN input, so a zero
        // dy makes d zero and the unit adds nothing.
        if (grad[k] == 0.0 && !std::isnan(out)) continue;
        out = Activate(layer.act, out);
      }
      // Through the activation.
      const double d = grad[k] * ActivationGradFromOutput(layer.act, out);
      if (d == 0.0) continue;
      for (size_t i = 0; i < in; ++i) layer.gw[u * in + i] += d * input[i * samples + s];
      layer.gb[u] += d;
      if (dinput != nullptr) AddInputGrad(layer, o, s, d, samples, dinput);
    }
  }
}

}  // namespace

void ApplyActivation(Activation act, std::vector<double>* v) {
  // One loop per activation, so the ReLU loop vectorizes.
  switch (act) {
    case Activation::kNone:
      return;
    case Activation::kRelu:
      return ActivateEach<Activation::kRelu>(v);
    case Activation::kSigmoid:
      return ActivateEach<Activation::kSigmoid>(v);
    case Activation::kTanh:
      return ActivateEach<Activation::kTanh>(v);
  }
}

double ActivationGradFromOutput(Activation act, double post) {
  switch (act) {
    case Activation::kNone:
      return 1.0;
    case Activation::kRelu:
      return post > 0.0 ? 1.0 : 0.0;
    case Activation::kSigmoid:
      return post * (1.0 - post);
    case Activation::kTanh:
      return 1.0 - post * post;
  }
  return 1.0;
}

int FirstMax(const double* v, int count, size_t stride) {
  int best = 0;
  for (int o = 1; o < count; ++o) {
    const size_t k = static_cast<size_t>(o) * stride;
    if (v[static_cast<size_t>(best) * stride] < v[k]) best = o;
  }
  return best;
}

Mlp::Mlp(int input_dim, const std::vector<LayerSpec>& specs, util::Rng& rng)
    : input_dim_(input_dim) {
  SIMSUB_CHECK_GT(input_dim, 0);
  SIMSUB_CHECK(!specs.empty());
  int in = input_dim;
  for (const LayerSpec& spec : specs) {
    SIMSUB_CHECK_GT(spec.out, 0);
    DenseLayer layer;
    layer.in = in;
    layer.out = spec.out;
    layer.act = spec.act;
    layer.w.resize(static_cast<size_t>(in) * spec.out);
    layer.b.assign(static_cast<size_t>(spec.out), 0.0);
    layer.gw.assign(layer.w.size(), 0.0);
    layer.gb.assign(layer.b.size(), 0.0);
    // He initialization for ReLU, Xavier otherwise.
    double scale = spec.act == Activation::kRelu
                       ? std::sqrt(2.0 / in)
                       : std::sqrt(1.0 / in);
    for (double& w : layer.w) w = rng.Normal(0.0, scale);
    layers_.push_back(std::move(layer));
    in = spec.out;
  }
  RegisterParams();
}

void Mlp::RegisterParams() {
  for (DenseLayer& layer : layers_) {
    bag_.Register(&layer.w, &layer.gw);
    bag_.Register(&layer.b, &layer.gb);
  }
}

std::vector<double> Mlp::Forward(std::span<const double> x) const {
  Cache unused;
  return Forward(x, &unused);
}

int Mlp::ArgMaxOutput(std::span<const double> x) const {
  SIMSUB_CHECK_EQ(x.size(), static_cast<size_t>(input_dim_));
  for (const DenseLayer& layer : layers_) {
    if (layer.out > kDecisionWidth) {
      const std::vector<double> q = Forward(x);
      return FirstMax(q.data(), output_dim());
    }
  }
  // Layer l writes buffers[l % 2]; each reads only what the layer before
  // it wrote.
  double buffers[2][kDecisionWidth];
  const double* cur = x.data();
  const size_t last = layers_.size() - 1;
  for (size_t l = 0; l < last; ++l) {
    DecisionLayer(layers_[l], cur, buffers[l % 2]);
    cur = buffers[l % 2];
  }
  // Two output units sum in one tile, side by side, where the 4-row tiles
  // would take them a row at a time; wider layers keep those tiles (a 5-unit
  // tile ran slower than a 4-row tile and a row).
  const DenseLayer& head = layers_[last];
  if (head.out == 2) return TileArgMax<2>(head, cur);
  double* q = buffers[last % 2];
  DecisionLayer(head, cur, q);
  return FirstMax(q, head.out);
}

const std::vector<double>& Mlp::Forward(std::span<const double> x,
                                        Cache* cache,
                                        std::span<const int> read) const {
  const size_t in = static_cast<size_t>(input_dim_);
  const size_t samples = x.size() / in;
  SIMSUB_CHECK(samples > 0 && samples * in == x.size());
  SIMSUB_CHECK(read.empty() || read.size() == samples);
  for (int unit : read) SIMSUB_CHECK(unit >= 0 && unit < output_dim());
  cache->samples = samples;
  cache->read.assign(read.begin(), read.end());
  cache->post.resize(layers_.size());
  const double* cur = x.data();
  for (size_t l = 0; l < layers_.size(); ++l) {
    const DenseLayer& layer = layers_[l];
    std::vector<double>& out = cache->post[l];
    out.resize(static_cast<size_t>(layer.out) * samples);
    const bool partial = !read.empty() && l + 1 == layers_.size();
    // ReLU is applied as the tiles store their sums; other activations
    // (each an exp or tanh per unit) run after them.
    const bool relu = layer.act == Activation::kRelu && !partial;
    AffineBatch(layer, samples, relu, cur, out.data());
    if (partial) {
      for (size_t s = 0; s < samples; ++s) {
        double& q = out[static_cast<size_t>(read[s]) * samples + s];
        q = Activate(layer.act, q);
      }
    } else if (!relu) {
      ApplyActivation(layer.act, &out);
    }
    cur = out.data();
  }
  return cache->post.back();
}

void Mlp::Backward(std::span<const double> x, Cache* cache,
                   std::span<const double> dy, std::span<double> dx) {
  const size_t samples = cache->samples;
  SIMSUB_CHECK_EQ(cache->post.size(), layers_.size());
  SIMSUB_CHECK_EQ(x.size(), static_cast<size_t>(input_dim_) * samples);
  SIMSUB_CHECK_EQ(dy.size(), static_cast<size_t>(output_dim()) * samples);
  SIMSUB_CHECK(dx.empty() || dx.size() == x.size());
  std::vector<double>& grad = cache->grad;
  std::vector<double>& dinput = cache->dinput;
  // The two buffers trade places at every layer: size both for the widest
  // layer, so that a second call with the same cache allocates nothing.
  size_t widest = static_cast<size_t>(input_dim_);
  for (const DenseLayer& layer : layers_) {
    widest = std::max(widest, static_cast<size_t>(layer.out));
  }
  grad.reserve(widest * samples);
  dinput.reserve(widest * samples);
  grad.assign(dy.begin(), dy.end());
  for (size_t l = layers_.size(); l-- > 0;) {
    DenseLayer& layer = layers_[l];
    const double* post = cache->post[l].data();
    // Input to this layer: previous layer's post, or x for the first layer.
    const double* input = l == 0 ? x.data() : cache->post[l - 1].data();
    double* to_input = nullptr;
    if (l > 0 || !dx.empty()) {
      dinput.assign(static_cast<size_t>(layer.in) * samples, 0.0);
      to_input = dinput.data();
    }
    if (l + 1 == layers_.size() && !cache->read.empty()) {
      ReadUnitGrads(layer, samples, cache->read, post, input, grad.data(), to_input);
    } else {
      // Through the activation: grad becomes dL/d(pre-activation).
      ScaleBySlope(layer.act, post, &grad);
      ParamGrads(layer, samples, grad.data(), input, &cache->transposed);
      if (to_input != nullptr) InputGrads(layer, samples, grad.data(), to_input);
    }
    if (l > 0) std::swap(grad, dinput);
  }
  if (!dx.empty()) std::copy(dinput.begin(), dinput.end(), dx.begin());
}

Mlp Mlp::Clone() const {
  Mlp copy;
  copy.input_dim_ = input_dim_;
  copy.layers_ = layers_;
  copy.RegisterParams();
  return copy;
}

void Mlp::CopyFrom(const Mlp& other) {
  SIMSUB_CHECK_EQ(layers_.size(), other.layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    SIMSUB_CHECK_EQ(layers_[l].w.size(), other.layers_[l].w.size());
    layers_[l].w = other.layers_[l].w;
    layers_[l].b = other.layers_[l].b;
  }
}

util::Status Mlp::Save(std::ostream& os) const {
  os << "mlp " << input_dim_ << " " << layers_.size() << "\n";
  for (const DenseLayer& layer : layers_) {
    os << layer.in << " " << layer.out << " " << ActivationName(layer.act)
       << "\n";
    os.precision(17);
    for (double w : layer.w) os << w << " ";
    os << "\n";
    for (double b : layer.b) os << b << " ";
    os << "\n";
  }
  if (!os) return util::Status::IOError("MLP serialization failed");
  return util::Status::OK();
}

util::Result<Mlp> Mlp::Load(std::istream& is) {
  std::string magic;
  size_t num_layers = 0;
  Mlp mlp;
  is >> magic >> mlp.input_dim_ >> num_layers;
  if (!is || magic != "mlp" || mlp.input_dim_ <= 0) {
    return util::Status::IOError("bad MLP header");
  }
  if (num_layers == 0) return util::Status::IOError("MLP has no layers");
  int width = mlp.input_dim_;  // output width of the layers read so far
  for (size_t l = 0; l < num_layers; ++l) {
    DenseLayer layer;
    std::string act_name;
    is >> layer.in >> layer.out >> act_name;
    if (!is || layer.in <= 0 || layer.out <= 0) {
      return util::Status::IOError("bad MLP layer header");
    }
    if (layer.in != width) {
      return util::Status::IOError(
          "MLP layer input width does not match the previous layer's output");
    }
    util::Result<Activation> act = ActivationFromName(act_name);
    if (!act.ok()) return util::Status::IOError("MLP layer has an unknown activation");
    layer.act = *act;
    // Weights are appended as they are read, so a layer that claims more
    // than the stream holds fails as truncated instead of allocating first.
    const uint64_t weight_count =
        static_cast<uint64_t>(layer.in) * static_cast<uint64_t>(layer.out);
    double value = 0.0;
    for (uint64_t k = 0; k < weight_count && is >> value; ++k) {
      layer.w.push_back(value);
    }
    for (int k = 0; k < layer.out && is >> value; ++k) layer.b.push_back(value);
    if (!is) return util::Status::IOError("truncated MLP weights");
    layer.gw.assign(layer.w.size(), 0.0);
    layer.gb.assign(layer.b.size(), 0.0);
    width = layer.out;
    mlp.layers_.push_back(std::move(layer));
  }
  mlp.RegisterParams();
  return mlp;
}

}  // namespace simsub::nn
