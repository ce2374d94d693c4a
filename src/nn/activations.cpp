#include "nn/activations.hpp"

#include <cmath>

#include "util/check.hpp"

namespace fairdms::nn {

namespace {

/// Every pointwise backward indexes its cache by the gradient's elements.
void check_grad_shape(const char* layer, const Tensor& grad_out,
                      const Tensor& cached) {
  FAIRDMS_CHECK(grad_out.shape() == cached.shape(), layer,
                "::backward: grad ", grad_out.shape_str(),
                " does not match the forward's ", cached.shape_str());
}

}  // namespace

Tensor ReLU::forward(const Tensor& x, Mode mode) {
  if (mode == Mode::kTrain) cached_input_ = x;
  Tensor y = x;
  for (float& v : y.flat()) v = v > 0.0f ? v : 0.0f;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  FAIRDMS_CHECK(!cached_input_.empty(), "ReLU::backward before forward");
  check_grad_shape("ReLU", grad_out, cached_input_);
  Tensor gx = grad_out;
  const float* in = cached_input_.data();
  float* g = gx.data();
  // A select, not a branch: the sign of `in` is unpredictable data. A NaN
  // input passes its gradient through (NaN <= 0 is false).
  for (std::size_t i = 0; i < gx.numel(); ++i) {
    g[i] = in[i] <= 0.0f ? 0.0f : g[i];
  }
  return gx;
}

Tensor LeakyReLU::forward(const Tensor& x, Mode mode) {
  if (mode == Mode::kTrain) cached_input_ = x;
  Tensor y = x;
  for (float& v : y.flat()) v = v > 0.0f ? v : slope_ * v;
  return y;
}

Tensor LeakyReLU::backward(const Tensor& grad_out) {
  FAIRDMS_CHECK(!cached_input_.empty(), "LeakyReLU::backward before forward");
  check_grad_shape("LeakyReLU", grad_out, cached_input_);
  Tensor gx = grad_out;
  const float* in = cached_input_.data();
  float* g = gx.data();
  const float slope = slope_;
  for (std::size_t i = 0; i < gx.numel(); ++i) {
    // The select picks the factor, not the product: a conditional float
    // multiply is not if-converted under -ftrapping-math. g * 1 is g for
    // every value but a signaling NaN, which no arithmetic produces.
    const float factor = in[i] <= 0.0f ? slope : 1.0f;
    g[i] = g[i] * factor;
  }
  return gx;
}

Tensor Sigmoid::forward(const Tensor& x, Mode mode) {
  Tensor y = x;
  for (float& v : y.flat()) v = 1.0f / (1.0f + std::exp(-v));
  if (mode == Mode::kTrain) cached_output_ = y;
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  FAIRDMS_CHECK(!cached_output_.empty(), "Sigmoid::backward before forward");
  check_grad_shape("Sigmoid", grad_out, cached_output_);
  Tensor gx = grad_out;
  const float* out = cached_output_.data();
  float* g = gx.data();
  for (std::size_t i = 0; i < gx.numel(); ++i) {
    g[i] *= out[i] * (1.0f - out[i]);
  }
  return gx;
}

Tensor Tanh::forward(const Tensor& x, Mode mode) {
  Tensor y = x;
  for (float& v : y.flat()) v = std::tanh(v);
  if (mode == Mode::kTrain) cached_output_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  FAIRDMS_CHECK(!cached_output_.empty(), "Tanh::backward before forward");
  check_grad_shape("Tanh", grad_out, cached_output_);
  Tensor gx = grad_out;
  const float* out = cached_output_.data();
  float* g = gx.data();
  for (std::size_t i = 0; i < gx.numel(); ++i) {
    g[i] *= 1.0f - out[i] * out[i];
  }
  return gx;
}

}  // namespace fairdms::nn
