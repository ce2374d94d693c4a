#include "nn/optim.hpp"

#include <cmath>

#include "util/check.hpp"

namespace fairdms::nn {

SGD::SGD(Layer& model, double lr, double momentum, double weight_decay)
    : Optimizer(model), momentum_(momentum), weight_decay_(weight_decay) {
  lr_ = lr;
  for (Tensor* p : model.params()) velocity_.emplace_back(p->shape());
}

void SGD::step() {
  auto params = model_->params();
  auto grads = model_->grads();
  FAIRDMS_CHECK(params.size() == grads.size() &&
                    params.size() == velocity_.size(),
                "SGD: param/grad/state count mismatch");
  const auto lr = static_cast<float>(lr_);
  const auto mu = static_cast<float>(momentum_);
  const auto wd = static_cast<float>(weight_decay_);
  for (std::size_t i = 0; i < params.size(); ++i) {
    float* p = params[i]->data();
    const float* g = grads[i]->data();
    float* v = velocity_[i].data();
    for (std::size_t j = 0; j < params[i]->numel(); ++j) {
      const float grad = g[j] + wd * p[j];
      v[j] = mu * v[j] + grad;
      p[j] -= lr * v[j];
    }
  }
}

Adam::Adam(Layer& model, double lr, double beta1, double beta2, double eps,
           double weight_decay)
    : Optimizer(model),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  lr_ = lr;
  for (Tensor* p : model.params()) {
    m_.emplace_back(p->shape());
    v_.emplace_back(p->shape());
  }
}

// Runs in float with every per-step constant hoisted. The library builds
// with -fno-math-errno, so the sqrt does not pin the loop to scalar code.
void Adam::step() {
  auto params = model_->params();
  auto grads = model_->grads();
  FAIRDMS_CHECK(params.size() == grads.size() && params.size() == m_.size(),
                "Adam: param/grad/state count mismatch");
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const auto b1 = static_cast<float>(beta1_);
  const auto b2 = static_cast<float>(beta2_);
  const auto one_minus_b1 = static_cast<float>(1.0 - beta1_);
  const auto one_minus_b2 = static_cast<float>(1.0 - beta2_);
  const auto step_size = static_cast<float>(lr_ / bc1);
  const auto inv_bc2 = static_cast<float>(1.0 / bc2);
  const auto eps = static_cast<float>(eps_);
  const auto wd = static_cast<float>(weight_decay_);
  for (std::size_t i = 0; i < params.size(); ++i) {
    float* p = params[i]->data();
    const float* g = grads[i]->data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const std::size_t count = params[i]->numel();
    for (std::size_t j = 0; j < count; ++j) {
      const float grad = g[j] + wd * p[j];
      m[j] = b1 * m[j] + one_minus_b1 * grad;
      v[j] = b2 * v[j] + one_minus_b2 * grad * grad;
      p[j] -= step_size * m[j] / (std::sqrt(v[j] * inv_bc2) + eps);
    }
  }
}

}  // namespace fairdms::nn
