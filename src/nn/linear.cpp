#include "nn/linear.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace fairdms::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               util::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}),
      grad_weight_({out_features, in_features}),
      grad_bias_({out_features}) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features));  // Kaiming-uniform
  weight_ = Tensor::rand_uniform({out_, in_}, rng, -bound, bound);
}

Tensor Linear::forward(const Tensor& x, Mode mode) {
  FAIRDMS_CHECK(x.rank() == 2 && x.dim(1) == in_, "Linear: expected [N, ",
                in_, "], got ", x.shape_str());
  if (mode == Mode::kTrain) cached_input_ = x;
  const std::size_t n = x.dim(0);
  Tensor y({n, out_});
  float* py = y.data();
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(bias_.data(), out_, py + i * out_);
  }
  // y = b + x W^T: the NT form reads W in place, row by row.
  tensor::gemm(n, out_, in_, x.data(), /*trans_a=*/false, weight_.data(),
               /*trans_b=*/true, py, /*accumulate=*/true);
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  FAIRDMS_CHECK(!cached_input_.empty(), "Linear::backward before forward");
  FAIRDMS_CHECK(grad_out.rank() == 2 &&
                    grad_out.dim(0) == cached_input_.dim(0) &&
                    grad_out.dim(1) == out_,
                "Linear: bad grad shape ", grad_out.shape_str(),
                " for input ", cached_input_.shape_str());
  // dW += dY^T X ; db += column-sum(dY) ; dX = dY W
  const std::size_t n = grad_out.dim(0);
  const float* pg = grad_out.data();
  tensor::gemm(out_, in_, n, pg, /*trans_a=*/true, cached_input_.data(),
               /*trans_b=*/false, grad_weight_.data(), /*accumulate=*/true);
  float* pb = grad_bias_.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_; ++j) pb[j] += pg[i * out_ + j];
  }
  Tensor grad_x({n, in_});
  tensor::gemm(n, in_, out_, pg, /*trans_a=*/false, weight_.data(),
               /*trans_b=*/false, grad_x.data(), /*accumulate=*/false);
  return grad_x;
}

}  // namespace fairdms::nn
