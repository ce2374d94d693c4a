#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace fairdms::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, util::Rng& rng, std::size_t stride,
               std::size_t padding)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_({out_channels, in_channels * kernel * kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels * kernel * kernel}),
      grad_bias_({out_channels}) {
  FAIRDMS_CHECK(kernel >= 1 && stride >= 1, "Conv2d: bad kernel/stride");
  const auto fan_in = static_cast<float>(in_channels * kernel * kernel);
  const float bound = std::sqrt(6.0f / fan_in);
  weight_ = Tensor::rand_uniform(weight_.shape(), rng, -bound, bound);
}

namespace {

/// The outputs [lo, hi) along one axis whose input position
/// o * stride + k - pad falls inside [0, size); the rest read padding.
struct ValidRange {
  std::size_t lo, hi;
};

ValidRange valid_range(std::size_t out, std::size_t size, std::size_t k,
                       std::size_t stride, std::size_t pad) {
  const std::size_t hi =
      size + pad <= k ? 0 : std::min(out, (size + pad - k - 1) / stride + 1);
  const std::size_t lo = k >= pad ? 0 : (pad - k + stride - 1) / stride;
  return {std::min(lo, hi), hi};
}

}  // namespace

// Column row (c, ky, kx) holds, at output (oy, ox), the pixel
// (oy * stride + ky - pad, ox * stride + kx - pad) of channel c. Its valid
// output rows and columns depend only on ky and kx, so each row is a zero
// fill of the padding plus one copy (strided when stride > 1) per valid
// output row.
void Conv2d::im2col(const float* img, std::size_t h, std::size_t w,
                    float* cols) const {
  const std::size_t oh = out_size(h);
  const std::size_t ow = out_size(w);
  float* dst = cols;
  for (std::size_t c = 0; c < in_c_; ++c) {
    const float* plane = img + c * h * w;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      const ValidRange ys = valid_range(oh, h, ky, stride_, padding_);
      for (std::size_t kx = 0; kx < kernel_; ++kx, dst += oh * ow) {
        const ValidRange xs = valid_range(ow, w, kx, stride_, padding_);
        const std::size_t len = xs.hi - xs.lo;
        std::fill(dst, dst + ys.lo * ow, 0.0f);
        for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
          float* out = dst + oy * ow;
          std::fill(out, out + xs.lo, 0.0f);
          if (len > 0) {
            const float* in = plane + (oy * stride_ + ky - padding_) * w +
                              xs.lo * stride_ + kx - padding_;
            if (stride_ == 1) {
              std::copy_n(in, len, out + xs.lo);
            } else {
              for (std::size_t j = 0; j < len; ++j) {
                out[xs.lo + j] = in[j * stride_];
              }
            }
          }
          std::fill(out + xs.hi, out + ow, 0.0f);
        }
        std::fill(dst + ys.hi * ow, dst + oh * ow, 0.0f);
      }
    }
  }
}

// Adds in im2col's order (column row, then output row, then output column),
// skipping the padding, so every image element sums its terms in the same
// order as a per-element bounds-tested loop would.
void Conv2d::col2im(const float* cols, std::size_t h, std::size_t w,
                    float* img) const {
  const std::size_t oh = out_size(h);
  const std::size_t ow = out_size(w);
  const float* src = cols;
  for (std::size_t c = 0; c < in_c_; ++c) {
    float* plane = img + c * h * w;
    for (std::size_t ky = 0; ky < kernel_; ++ky) {
      const ValidRange ys = valid_range(oh, h, ky, stride_, padding_);
      for (std::size_t kx = 0; kx < kernel_; ++kx, src += oh * ow) {
        const ValidRange xs = valid_range(ow, w, kx, stride_, padding_);
        const std::size_t len = xs.hi - xs.lo;
        if (len == 0) continue;
        for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
          const float* in = src + oy * ow + xs.lo;
          float* out = plane + (oy * stride_ + ky - padding_) * w +
                       xs.lo * stride_ + kx - padding_;
          if (stride_ == 1) {
            for (std::size_t j = 0; j < len; ++j) out[j] += in[j];
          } else {
            for (std::size_t j = 0; j < len; ++j) out[j * stride_] += in[j];
          }
        }
      }
    }
  }
}

Tensor Conv2d::forward(const Tensor& x, Mode mode) {
  FAIRDMS_CHECK(x.rank() == 4 && x.dim(1) == in_c_,
                "Conv2d: expected [N, ", in_c_, ", H, W], got ", x.shape_str());
  const std::size_t n = x.dim(0);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = out_size(h);
  const std::size_t ow = out_size(w);
  FAIRDMS_CHECK(oh > 0 && ow > 0, "Conv2d: output collapsed to zero for ",
                x.shape_str());

  const std::size_t col_rows = in_c_ * kernel_ * kernel_;
  const std::size_t col_cols = oh * ow;
  const std::size_t col_size = col_rows * col_cols;
  const bool train = mode == Mode::kTrain;
  if (train) {
    train_n_ = n;
    train_h_ = h;
    train_w_ = w;
    train_cols_.resize(n * col_size);
  }
  Tensor y({n, out_c_, oh, ow});
  const float* px = x.data();
  float* py = y.data();
  const float* pb = bias_.data();

  auto samples = [&](std::size_t begin, std::size_t end) {
    std::vector<float> scratch(train ? 0 : col_size);
    for (std::size_t i = begin; i < end; ++i) {
      float* cols = train ? train_cols_.data() + i * col_size : scratch.data();
      im2col(px + i * in_c_ * h * w, h, w, cols);
      // out[oc, :] = b[oc] + W[oc, :] . cols
      float* out = py + i * out_c_ * col_cols;
      for (std::size_t oc = 0; oc < out_c_; ++oc) {
        std::fill_n(out + oc * col_cols, col_cols, pb[oc]);
      }
      tensor::gemm(out_c_, col_cols, col_rows, weight_.data(),
                   /*trans_a=*/false, cols, /*trans_b=*/false, out,
                   /*accumulate=*/true);
    }
  };
  if (tensor::may_fan_out(2 * n * out_c_ * col_size)) {
    util::ThreadPool::global().parallel_for(n, samples, /*min_grain=*/1);
  } else {
    samples(0, n);
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  FAIRDMS_CHECK(!train_cols_.empty(), "Conv2d::backward before forward");
  const std::size_t n = train_n_;
  const std::size_t h = train_h_;
  const std::size_t w = train_w_;
  const std::size_t oh = out_size(h);
  const std::size_t ow = out_size(w);
  FAIRDMS_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                    grad_out.dim(1) == out_c_ && grad_out.dim(2) == oh &&
                    grad_out.dim(3) == ow,
                "Conv2d: bad grad shape ", grad_out.shape_str());

  const std::size_t col_rows = in_c_ * kernel_ * kernel_;
  const std::size_t col_cols = oh * ow;
  const std::size_t col_size = col_rows * col_cols;
  Tensor grad_x({n, in_c_, h, w});
  const float* pcols = train_cols_.data();
  const float* pg = grad_out.data();
  float* pgx = grad_x.data();

  // Weight/bias gradient partials, one per chunk of kSamplesPerChunk
  // samples, summed below in chunk order: the chunking never depends on the
  // pool, so the gradient bits do not either.
  constexpr std::size_t kSamplesPerChunk = 4;
  const std::size_t chunks = (n + kSamplesPerChunk - 1) / kSamplesPerChunk;
  const std::size_t wsize = out_c_ * col_rows;
  std::vector<float> partials(chunks * (wsize + out_c_), 0.0f);

  auto run = [&](std::size_t chunk_begin, std::size_t chunk_end) {
    std::vector<float> gcols(col_size);
    for (std::size_t ch = chunk_begin; ch < chunk_end; ++ch) {
      float* gw = partials.data() + ch * (wsize + out_c_);
      float* gb = gw + wsize;
      const std::size_t end = std::min(n, (ch + 1) * kSamplesPerChunk);
      for (std::size_t i = ch * kSamplesPerChunk; i < end; ++i) {
        const float* cols = pcols + i * col_size;
        const float* gout = pg + i * out_c_ * col_cols;
        // dW += gout . cols^T ; db += row-sum(gout) ; gcols = W^T . gout
        tensor::gemm(out_c_, col_rows, col_cols, gout, /*trans_a=*/false,
                     cols, /*trans_b=*/true, gw, /*accumulate=*/true);
        for (std::size_t oc = 0; oc < out_c_; ++oc) {
          const float* grow = gout + oc * col_cols;
          double bsum = 0.0;
          for (std::size_t j = 0; j < col_cols; ++j) bsum += grow[j];
          gb[oc] += static_cast<float>(bsum);
        }
        tensor::gemm(col_rows, col_cols, out_c_, weight_.data(),
                     /*trans_a=*/true, gout, /*trans_b=*/false, gcols.data(),
                     /*accumulate=*/false);
        col2im(gcols.data(), h, w, pgx + i * in_c_ * h * w);
      }
    }
  };
  if (tensor::may_fan_out(4 * n * out_c_ * col_size)) {
    util::ThreadPool::global().parallel_for(chunks, run, /*min_grain=*/1);
  } else {
    run(0, chunks);
  }
  float* dw = grad_weight_.data();
  float* db = grad_bias_.data();
  for (std::size_t ch = 0; ch < chunks; ++ch) {
    const float* gw = partials.data() + ch * (wsize + out_c_);
    for (std::size_t r = 0; r < wsize; ++r) dw[r] += gw[r];
    for (std::size_t oc = 0; oc < out_c_; ++oc) db[oc] += gw[wsize + oc];
  }
  return grad_x;
}

}  // namespace fairdms::nn
