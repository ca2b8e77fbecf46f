#include "nn/optimizer.hpp"

#include <cmath>

#include "runtime/error.hpp"
#include "runtime/thread_pool.hpp"

namespace candle {

namespace {

// The elementwise updates run in fixed-size chunks over the pool's lanes.
// Every element's arithmetic is independent of the others, so neither the
// chunking nor the vector width can change a value: results are
// bit-identical to the serial scalar loop.  Two things let the range loops
// vectorize: they read the hyperparameters as locals (members read through
// `this` may alias the float arrays), and this file is built with
// -fno-math-errno (src/CMakeLists.txt), so std::sqrt is an instruction
// rather than a call that may set errno.
constexpr Index kUpdateChunk = Index{1} << 15;

struct RmsPropArgs {
  float* w;
  const float* g;
  float* s;
  float lr, rho, eps;
};

void rmsprop_range(const RmsPropArgs& a, Index lo, Index hi) {
  float* w = a.w;
  const float* g = a.g;
  float* s = a.s;
  const float lr = a.lr, rho = a.rho, eps = a.eps;
  const float one_minus_rho = 1.0f - rho;
  for (Index i = lo; i < hi; ++i) {
    s[i] = rho * s[i] + one_minus_rho * g[i] * g[i];
    w[i] -= lr * g[i] / (std::sqrt(s[i]) + eps);
  }
}

struct AdamArgs {
  float* w;
  const float* g;
  float* m;
  float* v;
  float lr, beta1, beta2, eps;
  float bc1, bc2;  // bias corrections 1 - beta^t
};

void adam_range(const AdamArgs& a, Index lo, Index hi) {
  float* w = a.w;
  const float* g = a.g;
  float* m = a.m;
  float* v = a.v;
  const float lr = a.lr, beta1 = a.beta1, beta2 = a.beta2, eps = a.eps;
  const float bc1 = a.bc1, bc2 = a.bc2;
  const float one_minus_beta1 = 1.0f - beta1;
  const float one_minus_beta2 = 1.0f - beta2;
  for (Index i = lo; i < hi; ++i) {
    m[i] = beta1 * m[i] + one_minus_beta1 * g[i];
    v[i] = beta2 * v[i] + one_minus_beta2 * g[i] * g[i];
    const float mhat = m[i] / bc1;
    const float vhat = v[i] / bc2;
    w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace

void Optimizer::step(std::span<Tensor* const> params,
                     std::span<Tensor* const> grads) {
  CANDLE_CHECK(params.size() == grads.size(),
               "optimizer params/grads list size mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    CANDLE_CHECK(params[i] != nullptr && grads[i] != nullptr,
                 "null tensor passed to optimizer");
    CANDLE_CHECK(params[i]->same_shape(*grads[i]),
                 "param/grad shape mismatch at slot " + std::to_string(i));
  }
  if (weight_decay_ > 0.0f) apply_weight_decay(params, grads);
  if (clip_norm_ > 0.0f) clip_gradients(grads);
  for (std::size_t i = 0; i < params.size(); ++i) {
    update(i, *params[i], *grads[i]);
  }
  round_params(params);
}

OptimizerSnapshot Optimizer::export_state() const {
  return {name(), {}, {}};
}

void Optimizer::import_state(const OptimizerSnapshot& snapshot) {
  CANDLE_CHECK(snapshot.name == name(),
               "optimizer snapshot is for '" + snapshot.name +
                   "', not '" + name() + "'");
  CANDLE_CHECK(snapshot.tensors.empty() && snapshot.counters.empty(),
               "stateless optimizer given a stateful snapshot");
}

OptimizerSnapshot Momentum::export_state() const {
  return {name(), velocity_, {}};
}

void Momentum::import_state(const OptimizerSnapshot& snapshot) {
  CANDLE_CHECK(snapshot.name == name(),
               "optimizer snapshot is for '" + snapshot.name +
                   "', not '" + name() + "'");
  CANDLE_CHECK(snapshot.counters.empty(), "momentum snapshot has counters");
  velocity_ = snapshot.tensors;
}

OptimizerSnapshot RmsProp::export_state() const { return {name(), sq_, {}}; }

void RmsProp::import_state(const OptimizerSnapshot& snapshot) {
  CANDLE_CHECK(snapshot.name == name(),
               "optimizer snapshot is for '" + snapshot.name +
                   "', not '" + name() + "'");
  CANDLE_CHECK(snapshot.counters.empty(), "rmsprop snapshot has counters");
  sq_ = snapshot.tensors;
}

OptimizerSnapshot Adam::export_state() const {
  // First and second moments interleave as [m0, v0, m1, v1, ...] so the
  // tensor count alone determines the slot count; counters carry t_.
  OptimizerSnapshot s{name(), {}, {}};
  for (std::size_t i = 0; i < m_.size(); ++i) {
    s.tensors.push_back(m_[i]);
    s.tensors.push_back(v_[i]);
  }
  s.counters.assign(t_.begin(), t_.end());
  return s;
}

void Adam::import_state(const OptimizerSnapshot& snapshot) {
  CANDLE_CHECK(snapshot.name == name(),
               "optimizer snapshot is for '" + snapshot.name +
                   "', not '" + name() + "'");
  CANDLE_CHECK(snapshot.tensors.size() % 2 == 0 &&
                   snapshot.counters.size() * 2 == snapshot.tensors.size(),
               "malformed adam snapshot");
  const std::size_t slots = snapshot.counters.size();
  m_.clear();
  v_.clear();
  for (std::size_t i = 0; i < slots; ++i) {
    m_.push_back(snapshot.tensors[2 * i]);
    v_.push_back(snapshot.tensors[2 * i + 1]);
  }
  t_.assign(snapshot.counters.begin(), snapshot.counters.end());
}

void Optimizer::set_weight_decay(float decay) {
  CANDLE_CHECK(decay >= 0.0f, "weight decay must be non-negative");
  weight_decay_ = decay;
}

void Optimizer::set_gradient_clip(float max_norm) {
  CANDLE_CHECK(max_norm >= 0.0f, "clip norm must be non-negative");
  clip_norm_ = max_norm;
}

void Optimizer::apply_weight_decay(std::span<Tensor* const> params,
                                   std::span<Tensor* const> grads) const {
  for (std::size_t i = 0; i < params.size(); ++i) {
    grads[i]->axpy(weight_decay_, *params[i]);
  }
}

void Optimizer::clip_gradients(std::span<Tensor* const> grads) const {
  double sq = 0.0;
  for (Tensor* g : grads) {
    const double n = g->l2_norm();
    sq += n * n;
  }
  const double norm = std::sqrt(sq);
  if (norm > static_cast<double>(clip_norm_) && norm > 0.0) {
    const auto scale = static_cast<float>(clip_norm_ / norm);
    for (Tensor* g : grads) g->scale(scale);
  }
}

void Optimizer::round_params(std::span<Tensor* const> params) {
  const Precision fmt = update_precision_.format;
  if (fmt == Precision::FP32 || fmt == Precision::FP64) return;
  for (Tensor* p : params) {
    if (!update_precision_.stochastic) {
      round_through(fmt, p->flat());
      continue;
    }
    for (float& v : p->flat()) {
      v = fmt == Precision::FP16 ? round_fp16_stochastic(v, round_rng_)
                                 : round_bf16_stochastic(v, round_rng_);
    }
  }
}

void Sgd::update(std::size_t /*slot*/, Tensor& param, const Tensor& grad) {
  param.axpy(-lr_, grad);
}

void Momentum::update(std::size_t slot, Tensor& param, const Tensor& grad) {
  if (velocity_.size() <= slot) velocity_.resize(slot + 1);
  Tensor& v = velocity_[slot];
  if (!v.same_shape(param)) v = Tensor::zeros(param.shape());
  v.scale(mu_).axpy(1.0f, grad);
  param.axpy(-lr_, v);
}

void RmsProp::update(std::size_t slot, Tensor& param, const Tensor& grad) {
  if (sq_.size() <= slot) sq_.resize(slot + 1);
  Tensor& s = sq_[slot];
  if (!s.same_shape(param)) s = Tensor::zeros(param.shape());
  const RmsPropArgs args{param.data(), grad.data(), s.data(), lr_, rho_,
                         eps_};
  parallel_for(0, param.numel(), kUpdateChunk,
               [&args](Index lo, Index hi) { rmsprop_range(args, lo, hi); });
}

void Adam::update(std::size_t slot, Tensor& param, const Tensor& grad) {
  if (m_.size() <= slot) {
    m_.resize(slot + 1);
    v_.resize(slot + 1);
    t_.resize(slot + 1, 0);
  }
  Tensor& m = m_[slot];
  Tensor& v = v_[slot];
  if (!m.same_shape(param)) {
    m = Tensor::zeros(param.shape());
    v = Tensor::zeros(param.shape());
  }
  const long t = ++t_[slot];
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t));
  const AdamArgs args{param.data(), grad.data(), m.data(), v.data(), lr_,
                      beta1_,       beta2_,      eps_,     bc1,      bc2};
  parallel_for(0, param.numel(), kUpdateChunk,
               [&args](Index lo, Index hi) { adam_range(args, lo, hi); });
}

std::unique_ptr<Optimizer> make_sgd(float lr) {
  return std::make_unique<Sgd>(lr);
}
std::unique_ptr<Optimizer> make_momentum(float lr, float mu) {
  return std::make_unique<Momentum>(lr, mu);
}
std::unique_ptr<Optimizer> make_rmsprop(float lr, float rho) {
  return std::make_unique<RmsProp>(lr, rho);
}
std::unique_ptr<Optimizer> make_adam(float lr) {
  return std::make_unique<Adam>(lr);
}

std::unique_ptr<Optimizer> make_optimizer(const std::string& name, float lr) {
  if (name == "sgd") return make_sgd(lr);
  if (name == "momentum") return make_momentum(lr);
  if (name == "rmsprop") return make_rmsprop(lr);
  if (name == "adam") return make_adam(lr);
  throw Error("unknown optimizer: " + name);
}

}  // namespace candle
