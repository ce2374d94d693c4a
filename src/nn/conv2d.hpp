// 2-D convolution via im2col + GEMM. Input layout [N, C, H, W].
#pragma once

#include <vector>

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace fairdms::nn {

/// Memory trade: a kTrain forward keeps each sample's im2col columns for
/// backward, which reads them instead of rebuilding them. That is
/// C·K²·OH·OW cached floats per train sample, roughly K²/stride² times the
/// input it replaces (BraggNN's 8→16 layer: 8,712 floats, 34 KB, per sample, 6.4x
/// its input; 1.1 MB for a batch of 32). The buffer is kept across steps and
/// grows only when a batch needs more than any earlier one. kEval and
/// kMcSample forwards build their columns in local scratch and leave the
/// cache, and so the next backward, untouched.
class Conv2d final : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, util::Rng& rng, std::size_t stride = 1,
         std::size_t padding = 0);

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&grad_weight_, &grad_bias_}; }
  [[nodiscard]] std::string name() const override { return "Conv2d"; }

  [[nodiscard]] std::size_t out_size(std::size_t in_size) const {
    return (in_size + 2 * padding_ - kernel_) / stride_ + 1;
  }

 private:
  /// Expands one [C, H, W] image into a [C*K*K, OH*OW] column matrix.
  void im2col(const float* img, std::size_t h, std::size_t w,
              float* cols) const;
  /// Scatter-adds a column matrix back into an image (transpose of im2col).
  void col2im(const float* cols, std::size_t h, std::size_t w,
              float* img) const;

  std::size_t in_c_, out_c_, kernel_, stride_, padding_;
  Tensor weight_;       // [OC, IC*K*K]
  Tensor bias_;         // [OC]
  Tensor grad_weight_;
  Tensor grad_bias_;
  // Shape and per-sample columns of the last kTrain forward.
  std::size_t train_n_ = 0, train_h_ = 0, train_w_ = 0;
  std::vector<float> train_cols_;  // [N, C*K*K, OH*OW]
};

}  // namespace fairdms::nn
