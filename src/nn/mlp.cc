#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/logging.h"

namespace simsub::nn {

Activation ActivationFromName(const std::string& name) {
  if (name == "relu") return Activation::kRelu;
  if (name == "sigmoid") return Activation::kSigmoid;
  if (name == "tanh") return Activation::kTanh;
  return Activation::kNone;
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
// step, also used for the single units ForwardCached and Backward activate.
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

// out[r] = b[r] + sum_i w[r][i] * x[i] for the kRows rows from `first`, each
// row summed in index order as a one-row loop would: more than one row only
// interleaves independent sums, which saves loop overhead at these sizes.
template <int kRows>
void AffineRows(const DenseLayer& layer, int first, const double* x,
                double* out) {
  const size_t in = static_cast<size_t>(layer.in);
  const double* w = layer.w.data() + static_cast<size_t>(first) * in;
  double acc[kRows];
  for (int r = 0; r < kRows; ++r) acc[r] = layer.b[static_cast<size_t>(first + r)];
  for (size_t i = 0; i < in; ++i) {
    const double xi = x[i];
    for (int r = 0; r < kRows; ++r) acc[r] += w[static_cast<size_t>(r) * in + i] * xi;
  }
  for (int r = 0; r < kRows; ++r) out[first + r] = acc[r];
}

// gw_row += d * input and, with dinput set, dinput += d * w_row.
void AccumulateRow(double d, size_t n, const double* __restrict input,
                   double* __restrict gw_row, const double* __restrict w_row,
                   double* __restrict dinput) {
  if (dinput != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      gw_row[i] += d * input[i];
      dinput[i] += d * w_row[i];
    }
  } else {
    for (size_t i = 0; i < n; ++i) gw_row[i] += d * input[i];
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

std::vector<double> Mlp::Forward(std::span<const double> x,
                                 Cache* cache) const {
  return ForwardCached(x, cache);
}

const std::vector<double>& Mlp::ForwardCached(std::span<const double> x,
                                              Cache* cache, int unit) const {
  SIMSUB_CHECK_EQ(static_cast<int>(x.size()), input_dim_);
  SIMSUB_CHECK(unit == kAllUnits || (unit >= 0 && unit < output_dim()));
  cache->post.resize(layers_.size());
  std::span<const double> cur = x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const DenseLayer& layer = layers_[l];
    std::vector<double>& out = cache->post[l];
    out.resize(static_cast<size_t>(layer.out));
    int o = 0;
    for (; o + 4 <= layer.out; o += 4) AffineRows<4>(layer, o, cur.data(), out.data());
    for (; o < layer.out; ++o) AffineRows<1>(layer, o, cur.data(), out.data());
    if (unit != kAllUnits && l + 1 == layers_.size()) {
      out[static_cast<size_t>(unit)] =
          Activate(layer.act, out[static_cast<size_t>(unit)]);
    } else {
      ApplyActivation(layer.act, &out);
    }
    cur = out;
  }
  cache->unit = unit;
  return cache->post.back();
}

void Mlp::Backward(std::span<const double> x, Cache* cache,
                   std::span<const double> dy, std::span<double> dx) {
  SIMSUB_CHECK_EQ(cache->post.size(), layers_.size());
  SIMSUB_CHECK_EQ(static_cast<int>(dy.size()), output_dim());
  SIMSUB_CHECK(dx.empty() || static_cast<int>(dx.size()) == input_dim_);
  std::vector<double>& grad = cache->grad;
  std::vector<double>& dinput = cache->dinput;
  grad.assign(dy.begin(), dy.end());
  for (size_t l = layers_.size(); l-- > 0;) {
    DenseLayer& layer = layers_[l];
    const size_t in = static_cast<size_t>(layer.in);
    const double* post = cache->post[l].data();
    // Input to this layer: previous layer's post, or x for the first layer.
    const double* input = l == 0 ? x.data() : cache->post[l - 1].data();
    double* to_input = nullptr;
    if (l > 0 || !dx.empty()) {
      dinput.assign(in, 0.0);
      to_input = dinput.data();
    }
    const int only = l + 1 == layers_.size() ? cache->unit : kAllUnits;
    for (int o = 0; o < layer.out; ++o) {
      const size_t u = static_cast<size_t>(o);
      double out = post[u];
      if (only != kAllUnits && o != only) {
        // A pre-activation value. Every activation has a finite slope at a
        // non-NaN input, so a zero dy makes d zero and the unit adds nothing.
        if (grad[u] == 0.0 && !std::isnan(out)) continue;
        out = Activate(layer.act, out);
      }
      // Through the activation.
      const double d = grad[u] * ActivationGradFromOutput(layer.act, out);
      if (d == 0.0) continue;
      AccumulateRow(d, in, input, &layer.gw[u * in], &layer.w[u * in], to_input);
      layer.gb[u] += d;
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
    layer.act = ActivationFromName(act_name);
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
