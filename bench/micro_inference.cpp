// Microbenchmark: BraggNN inference vs conventional pseudo-Voigt fitting,
// per peak — the paper's §III-A claim that BraggNN localizes a center of
// mass ~200x faster than pseudo-Voigt fitting. Also k-means assignment, the
// GEMM kernel on a square product and on the shapes the layers run, one
// BraggNN training step (the unit of a model update) and two of its parts:
// the Adam step and the 8->16 convolution's forward + backward.
#include <benchmark/benchmark.h>

#include "cluster/kmeans.hpp"
#include "datagen/bragg.hpp"
#include "labeling/voigt_fit.hpp"
#include "models/models.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

using namespace fairdms;

/// Reports `flops` per iteration as a GFLOP/s rate (over wall time for the
/// benchmarks registered with UseRealTime).
void report_gflops(benchmark::State& state, double flops) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_BraggNNInferencePerPeak(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  datagen::BraggRegime regime;
  const auto data = datagen::make_bragg_batchset(regime, {}, batch, rng);
  auto model = models::make_braggnn(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.net.forward(data.xs, nn::Mode::kEval).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}

void BM_PseudoVoigtFitPerPeak(benchmark::State& state) {
  util::Rng rng(2);
  datagen::BraggRegime regime;
  const auto data = datagen::make_bragg_batchset(regime, {}, 16, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::span<const float> patch(data.xs.data() + (i++ % 16) * 225,
                                       225);
    benchmark::DoNotOptimize(labeling::fit_peak(patch, 15));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_KMeansAssignBatch(benchmark::State& state) {
  util::Rng rng(3);
  const auto xs = tensor::Tensor::randn({1024, 16}, rng);
  cluster::KMeansConfig config;
  config.k = 15;
  const auto model = cluster::kmeans_fit(xs, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.assign_batch(xs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4);
  const auto a = tensor::Tensor::randn({n, n}, rng);
  const auto b = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}

/// op(A)[m, k] · op(B)[k, n] at the shapes the layers run. Args: m, k, n,
/// trans_a, trans_b.
void BM_MatmulShapes(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const bool ta = state.range(3) != 0;
  const bool tb = state.range(4) != 0;
  util::Rng rng(5);
  const auto a = ta ? tensor::Tensor::randn({k, m}, rng)
                    : tensor::Tensor::randn({m, k}, rng);
  const auto b = tb ? tensor::Tensor::randn({n, k}, rng)
                    : tensor::Tensor::randn({k, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b, ta, tb).data());
  }
  report_gflops(state, 2.0 * static_cast<double>(m * n * k));
}

/// One BraggNN training step on a 32-patch batch: forward, MSE backward and
/// an Adam update.
void BM_BraggNNTrainStep(benchmark::State& state) {
  constexpr std::size_t kBatch = 32;
  util::Rng rng(6);
  datagen::BraggRegime regime;
  const auto data = datagen::make_bragg_batchset(regime, {}, kBatch, rng);
  auto model = models::make_braggnn(7);
  nn::Adam adam(model.net, 1e-3);
  // Forward/backward FLOPs of the two convolutions and three linear layers.
  double flops = 0.0;
  for (const auto& [units, fan_in] :
       {std::pair{8.0 * 13 * 13, 1.0 * 9}, std::pair{16.0 * 11 * 11, 8.0 * 9},
        std::pair{64.0, 1936.0}, std::pair{16.0, 64.0}, std::pair{2.0, 16.0}}) {
    flops += 3 * 2 * kBatch * units * fan_in;
  }
  for (auto _ : state) {
    adam.zero_grad();
    const auto pred = model.net.forward(data.xs, nn::Mode::kTrain);
    const auto loss = nn::mse_loss(pred, data.ys);
    model.net.backward(loss.grad);
    adam.step();
    benchmark::DoNotOptimize(loss.value);
  }
  report_gflops(state, flops);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}

/// One Adam step over BraggNN's 126,290 parameters; items are parameters.
void BM_AdamStep(benchmark::State& state) {
  util::Rng rng(8);
  auto model = models::make_braggnn(7);
  for (tensor::Tensor* g : model.net.grads()) {
    *g = tensor::Tensor::randn(g->shape(), rng, 1e-2f);
  }
  nn::Adam adam(model.net, 1e-3);
  for (auto _ : state) {
    adam.step();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              model.net.parameter_count()));
}

/// BraggNN's Conv2d(8, 16) on a 13x13 map, batch 32: a kTrain forward and
/// the backward that reuses its columns.
void BM_Conv2dTrainStep(benchmark::State& state) {
  constexpr std::size_t kBatch = 32;
  util::Rng rng(9);
  nn::Conv2d conv(8, 16, 3, rng);
  const auto x = tensor::Tensor::randn({kBatch, 8, 13, 13}, rng);
  const auto g = tensor::Tensor::randn({kBatch, 16, 11, 11}, rng);
  for (auto _ : state) {
    conv.zero_grad();
    benchmark::DoNotOptimize(conv.forward(x, nn::Mode::kTrain).data());
    benchmark::DoNotOptimize(conv.backward(g).data());
  }
  // Forward, weight-gradient and input-gradient products.
  report_gflops(state, 3 * 2.0 * kBatch * 16 * 11 * 11 * 72);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}

}  // namespace

BENCHMARK(BM_BraggNNInferencePerPeak)->Arg(64)->Arg(256);
BENCHMARK(BM_PseudoVoigtFitPerPeak);
BENCHMARK(BM_KMeansAssignBatch);
BENCHMARK(BM_Matmul)->Arg(64)->Arg(256);
BENCHMARK(BM_MatmulShapes)
    ->ArgNames({"m", "k", "n", "ta", "tb"})
    ->Args({32, 1936, 64, 0, 1})   // BraggNN Linear(1936, 64) forward, NT
    ->Args({16, 225, 128, 0, 1})   // embedding Linear(225, 128), 16 queries, NT
    ->Args({64, 32, 1936, 1, 0})   // BraggNN Linear(1936, 64) dW, TN
    ->Args({32, 64, 1936, 0, 0})   // BraggNN Linear(1936, 64) dX, NN
    ->Args({16, 72, 121, 0, 0})    // BraggNN Conv2d(8, 16) forward per patch
    ->UseRealTime();
BENCHMARK(BM_BraggNNTrainStep)->UseRealTime();
BENCHMARK(BM_AdamStep);
BENCHMARK(BM_Conv2dTrainStep)->UseRealTime();

BENCHMARK_MAIN();
