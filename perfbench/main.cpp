// perfbench — the repository benchmark.
//
//   perfbench --workload steady_wire|drift_update
//             --seed N --seconds S --trace 0|1
//
// One process per workload. Every input (history, query pools, arrival
// schedules, drifted scans, detector writes) is generated from --seed
// before any timer starts; the library only ever sees the generated
// inputs. The run drives the public APIs of service, net, fairds, fairms
// and core, checks every answer it can (see check_* below), and prints as
// its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 the same timed rounds run with spans recorded around the
// benchmark's calls into each layer, followed by a replay pass through the
// reuse path's public stages, and the metrics are the per-layer ones.
// DESIGN.md in this directory explains the workloads and predictions.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sched.h>
#include <time.h>

#include "bench/bench_common.hpp"
#include "core/fairdms.hpp"
#include "datagen/bragg.hpp"
#include "fairds/fairds.hpp"
#include "fairds/field_codec.hpp"
#include "fairds/snapshot.hpp"
#include "fairms/zoo.hpp"
#include "labeling/voigt_fit.hpp"
#include "models/models.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "service/data_service.hpp"
#include "store/docstore.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace fairdms;
using perfbench::now_ns;
using perfbench::Tracer;
using service::ServeStatus;
using tensor::Tensor;

// --- fixed program configuration (not inputs: the same on every seed) ------

constexpr std::size_t kImage = 15;
constexpr std::size_t kHistoryScans = 4;  ///< scans 1..4 are stored history
constexpr std::size_t kRowsPerHistoryScan = 160;
constexpr std::size_t kDeformationScan = 5;  ///< first drifted scan
constexpr std::size_t kTimelineScans = 64;
constexpr std::size_t kBatchRows = 16;  ///< rows per user-plane request
constexpr std::size_t kPools = 1024;    ///< hot-key space of query batches
constexpr std::size_t kNurandA = 255;   ///< TPC-C NURand A for kPools
constexpr double kThreshold = 0.4;  ///< fixed reuse distance threshold
constexpr std::size_t kWorkers = 4;  ///< service worker threads
constexpr std::size_t kMaxPending = 512;
constexpr std::size_t kClients = 4;          ///< closed-loop clients
constexpr std::size_t kWireConnections = 2;  ///< open-loop connections
constexpr std::size_t kSetupRepeats = 3;
// Offered rates are fractions of capacities measured with this benchmark,
// pinned to one core; DESIGN.md ("Rates") gives the measurements.
/// Closed-loop capacity of steady_wire on one core: 16-row label requests
/// answered per second by 4 connections (the lower of the two transports).
constexpr double kWireCapacity = 1600.0;
constexpr double kSteadyRate = kWireCapacity / 8;  ///< open-loop reads
constexpr double kVictimRate = kSteadyRate / 4;    ///< beside the cycles
/// Mean duration of one update cycle on one core: labelling a scan, its
/// detector writes, a retrain and the update. Paces the traced run's
/// detector writes.
constexpr double kCycleSeconds = 2.0;
/// A run is a number of rounds, each an open-loop slice, a closed-loop
/// slice and one update cycle, so that every metric samples the whole run.
constexpr double kOpenSliceSeconds = 1.0;
constexpr double kClosedSliceSeconds = 0.5;
/// Nominal length of one round: sets the round count from --seconds.
constexpr double kRoundSeconds =
    kOpenSliceSeconds + kClosedSliceSeconds + kCycleSeconds;
/// Detector writes stored per scan, of kIngestRows patches each.
constexpr std::size_t kWritesPerCycle = 16;
/// The traced run sends them beside the cycles at this rate.
constexpr double kWriteRate =
    static_cast<double>(kWritesPerCycle) / kCycleSeconds;
/// The victims' schedule covers this many nominal cycles; it restarts with
/// every cycle and stops when the cycle ends.
constexpr double kVictimHeadroom = 4.0;
/// Percent of label / lookup / rank requests in the steady mix.
constexpr std::array<std::size_t, 3> kMixPct = {80, 10, 10};
constexpr std::size_t kScanRows = 2048;  ///< patches labelled per cycle
constexpr std::size_t kScanBatchRows = 128;  ///< rows per scan request
constexpr std::size_t kUpdateRows = 256;  ///< of those, the update's input
constexpr std::size_t kValRows = 64;
constexpr std::size_t kIngestRows = 8;  ///< patches per detector write
constexpr double kTargetValError = 3e-3;
constexpr std::size_t kUpdateEpochs = 10;  ///< fine-tuning budget per update
constexpr std::size_t kZooEpochs = 10;
constexpr std::uint64_t kProgramSeed = 4242;
/// CPU milliseconds host_reference_ms() took on the reference host (a
/// 4-vCPU Xeon VM in a fast spell); normalised timings are in its units.
constexpr double kReferenceMs = 2.7;
constexpr const char* kArch = "braggnn";
constexpr std::size_t kReplayBatches = 400;

Tracer g_trace;
thread_local std::uint64_t tl_parent_span = 0;

// --- small helpers -----------------------------------------------------------

double pct(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  return util::percentile(xs, p);
}
double median(std::vector<double> xs) { return pct(std::move(xs), 50.0); }
double mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

/// Sleeps until `t`, then yields through the last 200 us: a plain sleep
/// wakes 50-100 us late on a VM, a sizeable share of a sub-ms latency
/// counted from the due time.
void sleep_until_ns(std::int64_t t) {
  constexpr std::int64_t kSpinNs = 200'000;
  const std::int64_t now = now_ns();
  if (t - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t - now - kSpinNs));
  }
  while (now_ns() < t) std::this_thread::yield();
}

std::string proc_status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) return line.substr(n);
  }
  return "";
}
double peak_rss_mb() {
  return std::strtod(proc_status_field("VmHWM:").c_str(), nullptr) / 1024.0;
}
/// Steal and total jiffies of all CPUs, from /proc/stat.
std::pair<double, double> cpu_steal_total() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  in >> cpu;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}
/// CPU seconds used by every thread of the process. The kernel leaves the
/// hypervisor's steal out of it, so on a shared host it still counts the
/// work done, where the wall clock also counts the time the core was taken.
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU milliseconds of a fixed compute kernel that uses nothing from the
/// library: a 96x96 matrix product and an exp/log loop. DESIGN.md ("Host
/// speed") shows that its time moves with the library's compute times.
double host_reference_ms() {
  constexpr std::size_t kN = 96;
  static std::vector<float> a(kN * kN, 1.001f), b(kN * kN, 0.999f),
      c(kN * kN, 0.0f);
  timespec t0{}, t1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t i = 0; i < kN; ++i) {
      for (std::size_t k = 0; k < kN; ++k) {
        const float x = a[i * kN + k];
        for (std::size_t j = 0; j < kN; ++j) c[i * kN + j] += x * b[k * kN + j];
      }
    }
  }
  double acc = 0.0;
  for (int rep = 0; rep < 40; ++rep) {
    for (int i = 0; i < 4096; ++i) {
      const double x = 0.001 * i;
      acc += std::exp(-0.5 * x * x) / (1.0 + x * x) + std::log1p(x);
    }
  }
  bench::do_not_optimize(acc);
  bench::do_not_optimize(c[0]);
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  return static_cast<double>(t1.tv_sec - t0.tv_sec) * 1e3 +
         static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-6;
}

/// Scales work measured between two of its calls to the reference host
/// speed: the factor is kReferenceMs over the mean of the kernel's times
/// just before and just after the work (each the median of three runs).
class HostSpeed {
 public:
  /// The factor for the work done since the previous call (or since
  /// construction); measures the kernel for the next one.
  double factor() {
    const double now = measure();
    const double f = kReferenceMs / (0.5 * (last_ + now));
    last_ = now;
    return f;
  }
  [[nodiscard]] const std::vector<double>& samples() const {
    return samples_;
  }

 private:
  double measure() {
    std::array<double, 3> t{host_reference_ms(), host_reference_ms(),
                            host_reference_ms()};
    std::sort(t.begin(), t.end());
    samples_.push_back(t[1]);
    return t[1];
  }

  std::vector<double> samples_;
  double last_ = measure();
};

/// Pins the process to the last CPU it may run on, before any thread
/// starts, so every thread it creates inherits the one core. Returns that
/// CPU, or -1 when the affinity cannot be set.
int pin_to_one_core() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

double thread_count() {
  return std::strtod(proc_status_field("Threads:").c_str(), nullptr);
}
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string row_key(const float* row, std::size_t n) {
  return std::string(reinterpret_cast<const char*>(row), n * sizeof(float));
}

/// Rows [begin, begin + n) of an [N, 1, S, S] batch.
Tensor rows_of(const Tensor& xs, std::size_t begin, std::size_t n) {
  const std::size_t per = xs.numel() / xs.dim(0);
  Tensor out({n, xs.dim(1), xs.dim(2), xs.dim(3)});
  std::copy_n(xs.data() + begin * per, n * per, out.data());
  return out;
}

bool same_tensor(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// --- arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") args->workload = value;
    else if (key == "--seed") args->seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") args->seconds = std::strtod(value, nullptr);
    else if (key == "--trace") args->trace = std::strcmp(value, "1") == 0;
    else return false;
  }
  return (argc % 2 == 1) && args->seconds > 0 &&
         (args->workload == "steady_wire" || args->workload == "drift_update");
}

// --- the gate ----------------------------------------------------------------

/// Collects correctness violations; any one fails the run.
class Gate {
 public:
  void fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (violations_.size() < 32) violations_.push_back(what);
    ++count_;
  }
  [[nodiscard]] std::size_t count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }
  void print() const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& v : violations_) {
      std::printf("GATE VIOLATION: %s\n", v.c_str());
    }
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> violations_;
  std::size_t count_ = 0;
};

// --- the fallback labeller the benchmark supplies ---------------------------

/// The conventional Voigt labeller, counted: rows, calls, and time spent.
struct Labeler {
  std::atomic<std::uint64_t> rows{0};
  std::atomic<std::int64_t> ns{0};

  Tensor operator()(const Tensor& xs) {
    const std::int64_t t0 = now_ns();
    Tensor ys = labeling::label_patches(xs);
    const std::int64_t t1 = now_ns();
    rows.fetch_add(xs.dim(0), std::memory_order_relaxed);
    ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    g_trace.record("labeling.fallback", t0, t1, tl_parent_span);
    return ys;
  }
  std::function<Tensor(const Tensor&)> fn() {
    return [this](const Tensor& xs) { return (*this)(xs); };
  }
};

// --- inputs ------------------------------------------------------------------

enum Op : std::uint8_t { kLabel = 0, kLookup = 1, kRank = 2, kOpCount = 3 };
const char* op_name(std::size_t op) {
  static const char* kNames[kOpCount] = {"lookup_or_label", "lookup", "rank"};
  return kNames[op];
}

struct Req {
  std::int64_t due_ns = 0;  ///< offset from the slice start
  Op op = kLabel;
  std::uint32_t pool = 0;
  std::uint64_t lookup_seed = 0;
};

struct CycleInput {
  std::size_t scan = 0;
  nn::Batchset scan_data;   ///< kScanRows patches to label
  Tensor update_xs;         ///< the first kUpdateRows of them
  nn::Batchset validation;  ///< held-out patches of the same scan
};

struct Inputs {
  std::vector<nn::Batchset> history;    ///< one per history scan
  std::vector<nn::Batchset> zoo_val;    ///< validation per zoo model
  std::vector<nn::Batchset> pools;      ///< in-distribution query batches
  /// Open-loop arrivals, one slice per round, each timed from its start.
  std::vector<std::vector<Req>> slices;
  std::vector<Req> schedule;  ///< the slices end to end (replay order)
  std::vector<Req> victims;  ///< arrivals beside the update cycles
  std::vector<CycleInput> cycles;
  std::vector<nn::Batchset> writes;  ///< detector writes, in send order
  std::vector<std::size_t> write_scan;  ///< the scan each write comes from
  /// Every (x, y) pair the store can ever hold in this run, keyed by the
  /// image bytes: a reused row must be one of these.
  std::unordered_map<std::string, std::vector<float>> stored_pairs;
  std::size_t drifted_rows = 0;  ///< stored rows from scans >= deformation
};

/// Fixed-rate arrivals over `seconds` with an exact-proportion shuffled op
/// deck and NURand-skewed pools (TPC-C's hot-key construction).
std::vector<Req> make_schedule(util::Rng& rng, double rate, double seconds) {
  const std::size_t n = static_cast<std::size_t>(rate * seconds);
  const std::vector<std::size_t> deck =
      bench::build_deck(rng, n, kMixPct, kLabel);
  const std::size_t c = rng.uniform_index(kPools);
  std::vector<Req> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].due_ns = static_cast<std::int64_t>(static_cast<double>(i) / rate *
                                              1e9);
    out[i].op = static_cast<Op>(deck[i]);
    out[i].pool =
        static_cast<std::uint32_t>(bench::nurand(rng, kNurandA, kPools, c));
    out[i].lookup_seed = rng();
  }
  return out;
}

/// `rounds` sets the open-loop slices and the drifted scans (one each per
/// round) and the detector writes; `victim_seconds` sizes the victims'
/// schedule.
Inputs make_inputs(const Args& args, std::size_t rounds,
                   double victim_seconds) {
  const std::size_t cycles = rounds;
  const auto timeline =
      bench::standard_timeline(kTimelineScans, kDeformationScan);
  util::Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 17);
  Inputs in;
  auto remember = [&in](const nn::Batchset& b) {
    const std::size_t pixels = kImage * kImage;
    const std::size_t w = b.ys.numel() / b.ys.dim(0);
    for (std::size_t i = 0; i < b.xs.dim(0); ++i) {
      in.stored_pairs[row_key(b.xs.data() + i * pixels, pixels)] =
          std::vector<float>(b.ys.data() + i * w, b.ys.data() + (i + 1) * w);
    }
  };
  for (std::size_t s = 1; s <= kHistoryScans; ++s) {
    in.history.push_back(timeline.dataset_at(s, kRowsPerHistoryScan, rng()));
    in.zoo_val.push_back(timeline.dataset_at(s, kValRows, rng()));
    remember(in.history.back());
  }
  for (std::size_t p = 0; p < kPools; ++p) {
    in.pools.push_back(
        timeline.dataset_at(1 + p % kHistoryScans, kBatchRows, rng()));
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    in.slices.push_back(make_schedule(rng, kSteadyRate, kOpenSliceSeconds));
    in.schedule.insert(in.schedule.end(), in.slices.back().begin(),
                       in.slices.back().end());
  }
  in.victims = make_schedule(rng, kVictimRate, victim_seconds);
  for (std::size_t c = 0; c < cycles; ++c) {
    CycleInput cycle;
    cycle.scan = kDeformationScan + c;
    cycle.scan_data = timeline.dataset_at(cycle.scan, kScanRows, rng());
    cycle.validation = timeline.dataset_at(cycle.scan, kValRows, rng());
    cycle.update_xs = rows_of(cycle.scan_data.xs, 0, kUpdateRows);
    in.cycles.push_back(std::move(cycle));
  }
  // Writes follow the timeline: kWritesPerCycle writes from each cycle's scan.
  for (std::size_t i = 0; i < kWritesPerCycle * cycles; ++i) {
    const std::size_t scan = kDeformationScan + i / kWritesPerCycle;
    in.writes.push_back(timeline.dataset_at(scan, kIngestRows, rng()));
    in.write_scan.push_back(scan);
    remember(in.writes.back());
    in.drifted_rows += kIngestRows;
  }
  return in;
}

// --- the world (what setup_s times) -----------------------------------------

struct World {
  std::unique_ptr<store::DocStore> db;
  std::unique_ptr<fairds::FairDS> ds;
  std::unique_ptr<core::FairDMS> system;
  std::string log_dir;
  /// Validation error after each epoch of the latest update.
  std::shared_ptr<std::vector<double>> val_curve =
      std::make_shared<std::vector<double>>();

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World() {
    system.reset();
    ds.reset();
    db.reset();
    if (!log_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(log_dir, ec);
    }
  }
};

/// Updates train a fixed epoch budget (no early stop), so every update does
/// the same work; the gate then requires the target validation error.
core::FairDMSConfig update_config(
    std::shared_ptr<std::vector<double>> val_curve) {
  core::FairDMSConfig config;
  config.architecture = kArch;
  config.patch_size = kImage;
  config.distance_threshold = 1.0;  // always fine-tune the closest model
  config.train.max_epochs = kUpdateEpochs;
  config.train.batch_size = 32;
  config.train.on_epoch = [curve = std::move(val_curve)](
                              std::size_t, double, double val) {
    curve->push_back(val);
  };
  config.fine_tune_lr = 2e-4;
  config.seed = kProgramSeed + 9;
  return config;  // no transfer service: no simulated transfer latency
}

/// History ingest, embedding + clustering training, and a zoo with one
/// trained model per history scan.
std::unique_ptr<World> build_world(const Inputs& in, bool log_engine,
                                   std::size_t rep) {
  auto world = std::make_unique<World>();
  World& w = *world;
  w.db = std::make_unique<store::DocStore>();
  fairds::FairDSConfig config;
  config.embedding_dim = 12;
  config.n_clusters = 8;
  config.embed_train.epochs = 3;
  config.seed = kProgramSeed;
  config.store_shards = 4;
  if (log_engine) {
    w.log_dir = ".bench_build/tmp/log-" + std::to_string(rep);
    std::error_code ec;
    std::filesystem::remove_all(w.log_dir, ec);  // left by a killed run
    config.storage = store::StorageEngineConfig{
        .kind = store::EngineKind::kLog, .directory = w.log_dir};
  }
  w.ds = std::make_unique<fairds::FairDS>(config, *w.db);
  const std::size_t pixels = kImage * kImage;
  Tensor all({kHistoryScans * kRowsPerHistoryScan, 1, kImage, kImage});
  for (std::size_t s = 0; s < kHistoryScans; ++s) {
    std::copy_n(in.history[s].xs.data(), kRowsPerHistoryScan * pixels,
                all.data() + s * kRowsPerHistoryScan * pixels);
  }
  w.ds->train_system(all);
  for (std::size_t s = 0; s < kHistoryScans; ++s) {
    w.ds->ingest(in.history[s].xs, in.history[s].ys,
                 "scan_" + std::to_string(s + 1));
  }
  w.system = std::make_unique<core::FairDMS>(update_config(w.val_curve),
                                             *w.ds, *w.db);
  for (std::size_t s = 0; s < kHistoryScans; ++s) {
    models::TaskModel model =
        models::make_model(kArch, kProgramSeed + 11 * s, kImage);
    util::Rng rng(kProgramSeed + 101 * s);
    nn::Adam opt(model.net, 1e-3);
    nn::TrainConfig train;
    train.max_epochs = kZooEpochs;
    train.batch_size = 32;
    (void)nn::fit(model.net, opt, in.history[s], in.zoo_val[s], train, rng);
    (void)w.system->zoo().publish(kArch, "zoo_scan_" + std::to_string(s + 1),
                                  w.ds->distribution(in.history[s].xs),
                                  nn::save_parameters(model.net));
  }
  return world;
}

// --- per-op accounting -------------------------------------------------------

enum class Outcome : std::uint8_t { kOk, kShed, kUnknownStream, kTransport,
                                    kWrong };

struct Sample {
  Op op = kLabel;
  std::uint32_t pool = 0;
  std::int64_t due_ns = 0;   ///< absolute
  std::int64_t sent_ns = 0;  ///< absolute
  std::int64_t done_ns = 0;  ///< absolute: future/reply ready
  double exec_s = 0.0;       ///< the response's own execution seconds
  std::uint64_t version = 0;  ///< the snapshot that served the request
  /// Published snapshot versions read just before the submit and just
  /// after the answer was ready (victims only).
  std::uint64_t version_before = 0;
  std::uint64_t version_after = 0;
  Outcome outcome = Outcome::kOk;
  std::uint32_t reused = 0;
  std::uint32_t computed = 0;
  bool done = false;
  [[nodiscard]] double latency_ms() const {
    return static_cast<double>(done_ns - due_ns) * 1e-6;
  }
  [[nodiscard]] double client_ms() const {
    return static_cast<double>(done_ns - sent_ns) * 1e-6;
  }
};

struct Ledger {
  std::uint64_t attempted = 0, ok = 0, shed = 0, unknown = 0, transport = 0,
                wrong = 0;
  void add(Outcome o) {
    ++attempted;
    switch (o) {
      case Outcome::kOk: ++ok; break;
      case Outcome::kShed: ++shed; break;
      case Outcome::kUnknownStream: ++unknown; break;
      case Outcome::kTransport: ++transport; break;
      case Outcome::kWrong: ++wrong; break;
    }
  }
  void merge(const Ledger& o) {
    attempted += o.attempted;
    ok += o.ok;
    shed += o.shed;
    unknown += o.unknown;
    transport += o.transport;
    wrong += o.wrong;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return shed + unknown + transport + wrong;
  }
  /// Requests the service answered (a wrong answer was still answered).
  [[nodiscard]] std::uint64_t answered() const { return ok + wrong; }
};

Outcome from_status(ServeStatus s) {
  switch (s) {
    case ServeStatus::kOk: return Outcome::kOk;
    case ServeStatus::kShedOverload: return Outcome::kShed;
    case ServeStatus::kUnknownStream: return Outcome::kUnknownStream;
    default: return Outcome::kTransport;
  }
}

/// Answers kept for the post-run deep checks.
struct Kept {
  std::mutex mutex;
  std::vector<std::pair<std::uint32_t, service::LabelResponse>> labels;
  std::vector<std::pair<Req, service::LookupResponse>> lookups;
  std::vector<std::pair<std::uint32_t, service::RecommendResponse>> ranks;
};

/// Shared, read-only context for checking answers as they arrive.
struct Checker {
  const Inputs* in = nullptr;
  Gate* gate = nullptr;

  /// Every row of a label answer is either the query row (fallback) or a
  /// stored (x, y) pair (reuse), and the counts agree with ReuseStats.
  bool label_rows(const Tensor& query, const service::LabelResponse& r) const {
    const std::size_t n = query.dim(0);
    const std::size_t pixels = kImage * kImage;
    if (r.batch.xs.numel() != query.numel() || r.batch.ys.dim(0) != n ||
        r.reuse.reused + r.reuse.computed != n) {
      gate->fail("label answer has the wrong shape or row counts");
      return false;
    }
    const std::size_t w = r.batch.ys.numel() / n;
    std::size_t reused = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const float* x = r.batch.xs.data() + i * pixels;
      if (std::memcmp(x, query.data() + i * pixels, pixels * 4) == 0) {
        continue;  // fallback row: checked against label_patches post-run
      }
      ++reused;
      const auto it = in->stored_pairs.find(row_key(x, pixels));
      if (it == in->stored_pairs.end() || it->second.size() != w ||
          std::memcmp(it->second.data(), r.batch.ys.data() + i * w,
                      w * 4) != 0) {
        gate->fail("a reused row is not a stored (x, y) pair");
        return false;
      }
    }
    if (reused != r.reuse.reused) {
      gate->fail("reused row count differs from ReuseStats");
      return false;
    }
    return true;
  }
};

/// Fallback rows of a kept answer must carry label_patches' label.
void check_fallback_rows(const Tensor& query, const service::LabelResponse& r,
                         Gate& gate) {
  const std::size_t pixels = kImage * kImage;
  for (std::size_t i = 0; i < query.dim(0); ++i) {
    if (std::memcmp(r.batch.xs.data() + i * pixels,
                    query.data() + i * pixels, pixels * 4) != 0) {
      continue;
    }
    const Tensor want = labeling::label_patches(rows_of(query, i, 1));
    if (std::memcmp(want.data(), r.batch.ys.data() + i * 2, 8) != 0) {
      gate.fail("a fallback row's label differs from label_patches");
      return;
    }
  }
}

// --- open loop ---------------------------------------------------------------

struct OpenLoopResult {
  std::vector<Sample> samples;
  double late_p99_ms = 0.0;
  double wall_s = 0.0;
  double threads = 0.0;  ///< process threads while the slice ran
};

/// Fills a sample from a label answer (shared by both transports).
void record_label(const Checker& checker, const Tensor& query,
                  const service::LabelResponse& r, Sample& s, Kept* kept,
                  std::size_t index) {
  s.outcome = from_status(r.status);
  s.exec_s = r.seconds;
  s.version = r.snapshot_version;
  if (s.outcome != Outcome::kOk) return;
  s.reused = static_cast<std::uint32_t>(r.reuse.reused);
  s.computed = static_cast<std::uint32_t>(r.reuse.computed);
  if (!checker.label_rows(query, r)) s.outcome = Outcome::kWrong;
  if (kept != nullptr && index % 16 == 0) {
    std::lock_guard<std::mutex> lock(kept->mutex);
    kept->labels.emplace_back(s.pool, r);
  }
}

void record_lookup(const service::LookupResponse& r, const Req& req,
                   Sample& s, Kept& kept, std::size_t index) {
  s.outcome = from_status(r.status);
  s.exec_s = r.seconds;
  s.version = r.snapshot_version;
  if (s.outcome == Outcome::kOk && index % 8 == 1) {
    std::lock_guard<std::mutex> lock(kept.mutex);
    kept.lookups.emplace_back(req, r);
  }
}

void record_rank(const service::RecommendResponse& r, Sample& s, Kept& kept,
                 std::size_t index) {
  s.outcome = from_status(r.status);
  s.exec_s = r.seconds;
  s.version = r.snapshot_version;
  if (s.outcome == Outcome::kOk && index % 8 == 2) {
    std::lock_guard<std::mutex> lock(kept.mutex);
    kept.ranks.emplace_back(s.pool, r);
  }
}

double lateness_p99(const std::vector<Sample>& samples) {
  std::vector<double> late;
  late.reserve(samples.size());
  for (const Sample& s : samples) {
    late.push_back(static_cast<double>(s.sent_ns - s.due_ns) * 1e-6);
  }
  return pct(std::move(late), 99.0);
}

/// In-process open loop: one sender submits on schedule; completion
/// stampers block on the futures in submission order. With FIFO dispatch
/// and one more stamper than service workers, a future can only become
/// ready while a stamper already waits on it, so each completion is
/// stamped when it happens, not when an in-order waiter reaches it. With
/// `versions`, each sample also records the published snapshot version
/// before its submit and after its answer. With `stop`, sending ends once
/// it is set, and the result holds only the requests sent.
OpenLoopResult open_loop_inproc(service::DataService& svc, const Inputs& in,
                                const std::vector<Req>& schedule,
                                Labeler& labeler, const Checker& checker,
                                Kept& kept, std::int64_t t0,
                                const fairds::FairDS* versions = nullptr,
                                const std::atomic<bool>* stop = nullptr) {
  struct Pending {
    std::size_t index = 0;
    std::future<service::LabelResponse> label;
    std::future<service::LookupResponse> lookup;
    std::future<service::RecommendResponse> rank;
  };
  OpenLoopResult out;
  out.samples.resize(schedule.size());
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool closed = false;
  const auto fallback = labeler.fn();

  auto stamper = [&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      Sample& s = out.samples[p.index];
      const Req& req = schedule[p.index];
      auto ready = [&] {
        s.done_ns = now_ns();
        if (versions != nullptr) {
          s.version_after = versions->snapshot()->version();
        }
      };
      if (p.label.valid()) {
        p.label.wait();
        ready();
        record_label(checker, in.pools[req.pool].xs, p.label.get(), s, &kept,
                     p.index);
      } else if (p.lookup.valid()) {
        p.lookup.wait();
        ready();
        record_lookup(p.lookup.get(), req, s, kept, p.index);
      } else {
        p.rank.wait();
        ready();
        record_rank(p.rank.get(), s, kept, p.index);
      }
      s.done = true;
      g_trace.record("service.submit", s.sent_ns, s.done_ns, 0, p.index + 1);
    }
  };
  std::vector<std::thread> stampers;
  for (std::size_t i = 0; i < kWorkers + 1; ++i) stampers.emplace_back(stamper);

  std::size_t sent = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Req& req = schedule[i];
    Sample& s = out.samples[i];
    s.op = req.op;
    s.pool = req.pool;
    s.due_ns = t0 + req.due_ns;
    sleep_until_ns(s.due_ns);
    if (stop != nullptr && stop->load()) break;
    ++sent;
    Pending p;
    p.index = i;
    if (versions != nullptr) {
      s.version_before = versions->snapshot()->version();
    }
    s.sent_ns = now_ns();
    const Tensor& xs = in.pools[req.pool].xs;
    switch (req.op) {
      case kLabel:
        p.label = svc.submit(service::LabelRequest{xs, kThreshold, fallback});
        break;
      case kLookup:
        p.lookup = svc.submit(service::LookupRequest{xs, req.lookup_seed});
        break;
      default:
        p.rank = svc.submit(service::RecommendRequest{kArch, xs});
        break;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(std::move(p));
    }
    cv.notify_one();
    if (i == schedule.size() / 2) out.threads = thread_count();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    closed = true;
  }
  cv.notify_all();
  for (auto& t : stampers) t.join();
  out.samples.resize(sent);
  if (out.threads == 0) out.threads = thread_count();
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.late_p99_ms = lateness_p99(out.samples);
  return out;
}

/// Wire open loop: the same schedule split round-robin over a few
/// pipelined connections, each with one sender and one receiver thread.
/// The receiver stamps each reply as it arrives, in completion order.
OpenLoopResult open_loop_wire(std::uint16_t port, const Inputs& in,
                              const std::vector<Req>& schedule,
                              const Checker& checker, Kept& kept,
                              std::int64_t t0, Gate& gate) {
  OpenLoopResult out;
  out.samples.resize(schedule.size());
  std::vector<std::atomic<std::int64_t>> sent(schedule.size());
  for (auto& s : sent) s.store(0);
  std::vector<std::thread> threads;
  std::atomic<bool> threads_sampled{false};
  for (std::size_t k = 0; k < kWireConnections; ++k) {
    auto client = std::make_shared<net::Client>();
    if (!client->connect("127.0.0.1", port)) {
      gate.fail("wire open loop: connect failed");
      for (std::size_t i = k; i < schedule.size(); i += kWireConnections) {
        out.samples[i].outcome = Outcome::kTransport;
        out.samples[i].op = schedule[i].op;
        out.samples[i].due_ns = out.samples[i].sent_ns =
            out.samples[i].done_ns = t0 + schedule[i].due_ns;
        out.samples[i].done = true;
      }
      continue;
    }
    std::size_t count = 0;
    for (std::size_t i = k; i < schedule.size(); i += kWireConnections) ++count;
    // Sender: the hello consumed correlation id 1, so the j-th request on
    // this connection carries id j + 2.
    threads.emplace_back([&, k, client] {
      std::size_t j = 0;
      for (std::size_t i = k; i < schedule.size(); i += kWireConnections, ++j) {
        const Req& req = schedule[i];
        Sample& s = out.samples[i];
        s.op = req.op;
        s.pool = req.pool;
        s.due_ns = t0 + req.due_ns;
        sleep_until_ns(s.due_ns);
        const Tensor& xs = in.pools[req.pool].xs;
        sent[i].store(now_ns(), std::memory_order_release);
        std::uint64_t cid = 0;
        switch (req.op) {
          case kLabel:
            cid = client->send_label(service::LabelRequest{xs, kThreshold, {}});
            break;
          case kLookup:
            cid = client->send_lookup(
                service::LookupRequest{xs, req.lookup_seed});
            break;
          default:
            cid = client->send_recommend(
                service::RecommendRequest{kArch, xs});
            break;
        }
        if (cid != j + 2) {
          gate.fail("wire open loop: send failed");
          return;
        }
        if (k == 0 && i >= schedule.size() / 2 &&
            !threads_sampled.exchange(true)) {
          out.threads = thread_count();
        }
      }
    });
    // Receiver.
    threads.emplace_back([&, k, client, count] {
      for (std::size_t got = 0; got < count; ++got) {
        auto reply = client->recv_reply();
        const std::int64_t done = now_ns();
        if (!reply.has_value() || reply->header.correlation_id < 2 ||
            reply->header.correlation_id - 2 >= count) {
          gate.fail("wire open loop: transport error");
          client->close();
          return;
        }
        const std::size_t i =
            (reply->header.correlation_id - 2) * kWireConnections + k;
        Sample& s = out.samples[i];
        s.sent_ns = sent[i].load(std::memory_order_acquire);
        s.done_ns = done;
        const Req& req = schedule[i];
        const ServeStatus status = reply->header.status;
        bool decoded = true;
        switch (req.op) {
          case kLabel: {
            service::LabelResponse r;
            decoded = status != ServeStatus::kOk ||
                      net::decode_label_response(reply->payload, &r);
            r.status = status;
            record_label(checker, in.pools[req.pool].xs, r, s, &kept, i);
            break;
          }
          case kLookup: {
            service::LookupResponse r;
            decoded = status != ServeStatus::kOk ||
                      net::decode_lookup_response(reply->payload, &r);
            r.status = status;
            record_lookup(r, req, s, kept, i);
            break;
          }
          default: {
            service::RecommendResponse r;
            decoded = status != ServeStatus::kOk ||
                      net::decode_recommend_response(reply->payload, &r);
            r.status = status;
            record_rank(r, s, kept, i);
            break;
          }
        }
        if (!decoded) s.outcome = Outcome::kTransport;
        s.done = true;
        g_trace.record("net.client", s.sent_ns, s.done_ns, 0, i + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < out.samples.size(); ++i) {
    Sample& s = out.samples[i];
    if (!s.done) {  // a reply that never came
      s.outcome = Outcome::kTransport;
      s.op = schedule[i].op;
      s.due_ns = s.sent_ns = s.done_ns = t0 + schedule[i].due_ns;
      s.done = true;
    }
  }
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.late_p99_ms = lateness_p99(out.samples);
  return out;
}

// --- closed loop -------------------------------------------------------------

struct ClosedLoopResult {
  double rows = 0.0;  ///< rows answered
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::vector<Sample> samples;
};

/// kClients clients, each sending its next 16-row label request only after
/// the previous one completes, until `seconds` have passed.
ClosedLoopResult closed_loop(service::DataService& svc, std::uint16_t port,
                             bool wire, const Inputs& in, Labeler& labeler,
                             const Checker& checker, Kept& kept,
                             double seconds, std::uint64_t seed, Gate& gate) {
  ClosedLoopResult out;
  std::vector<std::vector<Sample>> per(kClients);
  const double cpu0 = cpu_s();
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const auto fallback = labeler.fn();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      util::Rng rng(seed * 31 + c);
      net::Client client;
      if (wire && !client.connect("127.0.0.1", port)) {
        gate.fail("closed loop: connect failed");
        return;
      }
      std::size_t n = 0;
      while (now_ns() < deadline) {
        const std::uint32_t pool =
            static_cast<std::uint32_t>(rng.uniform_index(kPools));
        const Tensor& xs = in.pools[pool].xs;
        Sample s;
        s.op = kLabel;
        s.pool = pool;
        s.due_ns = s.sent_ns = now_ns();
        service::LabelResponse r;
        if (wire) {
          auto reply = client.label(service::LabelRequest{xs, kThreshold, {}});
          s.done_ns = now_ns();
          if (reply.has_value()) {
            r = std::move(*reply);
          } else {
            r.status = ServeStatus::kMalformedRequest;
          }
          g_trace.record("net.client", s.sent_ns, s.done_ns);
        } else {
          r = svc.submit(service::LabelRequest{xs, kThreshold, fallback})
                  .get();
          s.done_ns = now_ns();
          g_trace.record("service.submit", s.sent_ns, s.done_ns);
        }
        record_label(checker, xs, r, s, &kept, 1 + n++);
        s.done = true;
        per[c].push_back(s);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double cpu = cpu_s() - cpu0;
  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
  for (auto& v : per) out.samples.insert(out.samples.end(), v.begin(), v.end());
  for (const Sample& s : out.samples) {
    if (s.outcome == Outcome::kOk) out.rows += kBatchRows;
  }
  out.cpu_s = cpu;
  out.wall_s = wall;
  return out;
}

// --- the drift -> retrain -> update cycle -----------------------------------

struct IngestSample {
  double latency_ms = 0.0;  ///< from due time to completion
  double exec_ms = 0.0;     ///< from call to completion
  bool beside_retrain = false;
  std::size_t cycle = 0;
  double speed = 1.0;  ///< HostSpeed factor of the write stage
};

/// Each stage in wall seconds, CPU seconds, and CPU seconds at the
/// reference host speed (`*_norm_s`).
struct CycleResult {
  double label_s = 0.0;
  double label_cpu_s = 0.0;
  double label_norm_s = 0.0;
  bool retrained = false;
  double retrain_s = 0.0;
  double retrain_cpu_s = 0.0;
  double retrain_norm_s = 0.0;
  double update_s = 0.0;
  double update_cpu_s = 0.0;
  double update_norm_s = 0.0;
  core::UpdateReport report;
  std::size_t epochs_to_target = 0;  ///< first epoch at the target
  std::vector<std::pair<std::size_t, service::LabelResponse>> answers;
};

/// The drift -> retrain -> update loop on the cycle world, one cycle per
/// round: label the scan through the service (reuse + Voigt fallback),
/// store the scan's detector writes, force a retrain, then run the
/// fine-tuning model update. Each stage
/// is timed in wall and CPU seconds. With `beside`, the detector writes are
/// not a stage: one writer thread sends them at kWriteRate beside the cycle
/// instead (the traced run's contention probe).
struct CycleLoop {
  CycleLoop(World& world, service::DataService& service, const Inputs& inputs,
            Labeler& fallback, Gate& g, Ledger& scan_ledger, HostSpeed& speed,
            bool writes_beside)
      : w(world), svc(service), in(inputs), labeler(fallback), gate(g),
        label_ledger(scan_ledger), host(speed), beside(writes_beside),
        last_version(world.ds->snapshot()->version()),
        retrains_before(world.ds->retrain_count()) {}

  World& w;
  service::DataService& svc;
  const Inputs& in;
  Labeler& labeler;
  Gate& gate;
  Ledger& label_ledger;
  HostSpeed& host;
  const bool beside;

  std::vector<CycleResult> cycles;
  std::vector<IngestSample> ingests;
  std::size_t retrains_expected = 0;
  double wall_s = 0.0;
  std::uint64_t last_version;
  const std::size_t retrains_before;

  void run(std::size_t c) {
    (void)host.factor();  // the kernel just before the first stage
    const CycleInput& cycle = in.cycles[c];
    const auto fallback = labeler.fn();
    const std::int64_t t0 = now_ns();
    std::atomic<bool> retraining{false};
    std::mutex ingests_mutex;
    CycleResult r;

    // Write i, timed from `due` (its due time beside the cycle, or the call).
    auto write = [&](std::size_t i, std::int64_t due) {
      const bool during = retraining.load();
      const std::int64_t call = now_ns();
      w.ds->ingest(in.writes[i].xs, in.writes[i].ys,
                   "detector_" + std::to_string(in.write_scan[i]));
      const std::int64_t end = now_ns();
      g_trace.record("fairds.ingest", call, end);
      std::lock_guard<std::mutex> lock(ingests_mutex);
      ingests.push_back({static_cast<double>(end - due) * 1e-6,
                         static_cast<double>(end - call) * 1e-6,
                         during || retraining.load(), c});
    };
    const std::size_t first_write = c * kWritesPerCycle;
    const std::size_t end_write =
        std::min(in.writes.size(), first_write + kWritesPerCycle);
    std::thread writer;
    if (beside) {
      writer = std::thread([&] {
        for (std::size_t i = first_write; i < end_write; ++i) {
          const std::int64_t due =
              t0 + static_cast<std::int64_t>(
                       static_cast<double>(i - first_write) / kWriteRate * 1e9);
          sleep_until_ns(due);
          write(i, due);
        }
      });
    }

    // (1) Label the scan: all its requests in flight at once.
    {
      const double cpu0 = cpu_s();
      const std::int64_t start = now_ns();
      std::vector<std::future<service::LabelResponse>> futures;
      std::vector<Tensor> batches;
      for (std::size_t b = 0; b < kScanRows / kScanBatchRows; ++b) {
        Tensor xs = rows_of(cycle.scan_data.xs, b * kScanBatchRows,
                            kScanBatchRows);
        futures.push_back(
            svc.submit(service::LabelRequest{xs, kThreshold, fallback}));
        batches.push_back(std::move(xs));
      }
      std::vector<service::LabelResponse> answers;
      for (auto& f : futures) answers.push_back(f.get());
      r.label_s = static_cast<double>(now_ns() - start) * 1e-9;
      r.label_cpu_s = cpu_s() - cpu0;
      r.label_norm_s = r.label_cpu_s * host.factor();
      g_trace.record("cycle.label_scan", start, now_ns());
      for (std::size_t b = 0; b < answers.size(); ++b) {
        Sample s;
        record_label(Checker{&in, &gate}, batches[b], answers[b], s, nullptr,
                     1);
        label_ledger.add(s.outcome);
        r.answers.emplace_back(b, std::move(answers[b]));
      }
    }

    // (2) The scan's detector writes, one FairDS::ingest each.
    if (!beside) {
      for (std::size_t i = first_write; i < end_write; ++i) write(i, now_ns());
      const double speed = host.factor();
      for (IngestSample& s : ingests) {
        if (s.cycle == c) s.speed = speed;
      }
    }

    // (3) The forced retrain (a threshold above 1 always retrains).
    {
      ++retrains_expected;
      retraining.store(true);
      const double cpu0 = cpu_s();
      const std::int64_t start = now_ns();
      r.retrained = w.ds->maybe_retrain(cycle.update_xs, 2.0);
      const std::int64_t end = now_ns();
      r.retrain_cpu_s = cpu_s() - cpu0;
      r.retrain_norm_s = r.retrain_cpu_s * host.factor();
      retraining.store(false);
      r.retrain_s = static_cast<double>(end - start) * 1e-9;
      g_trace.record("fairds.maybe_retrain", start, end);
      if (!r.retrained) gate.fail("a forced retrain did not retrain");
    }

    // (4) The model update, from drifted scan to published model.
    {
      w.val_curve->clear();
      const double cpu0 = cpu_s();
      const std::int64_t start = now_ns();
      r.report = w.system->update_model(cycle.update_xs, cycle.validation,
                                        core::UpdateStrategy::kFairDMS);
      const std::int64_t end = now_ns();
      r.update_cpu_s = cpu_s() - cpu0;
      r.update_norm_s = r.update_cpu_s * host.factor();
      r.update_s = static_cast<double>(end - start) * 1e-9;
      g_trace.record("core.update_model", start, end);
      const auto& curve = *w.val_curve;
      for (std::size_t e = 0; e < curve.size(); ++e) {
        if (curve[e] <= kTargetValError) {
          r.epochs_to_target = e + 1;
          break;
        }
      }
      if (r.report.final_val_error > kTargetValError) {
        gate.fail("update of scan " + std::to_string(cycle.scan) +
                  " missed the convergence target (val error " +
                  std::to_string(r.report.final_val_error) + ")");
      }
    }
    if (writer.joinable()) writer.join();
    const std::uint64_t version = w.ds->snapshot()->version();
    if (version < last_version) gate.fail("snapshot version went backwards");
    last_version = version;
    cycles.push_back(std::move(r));
    wall_s += static_cast<double>(now_ns() - t0) * 1e-9;
  }

  /// After the last cycle: the retrain count must match the schedule.
  void check_retrains() const {
    if (w.ds->retrain_count() - retrains_before != retrains_expected) {
      gate.fail("retrain count differs from the schedule");
    }
  }
};

/// Post-run checks of the scan answers' fallback rows.
void check_cycle_answers(const Inputs& in, const CycleLoop& loop,
                         Gate& gate) {
  for (std::size_t c = 0; c < loop.cycles.size(); ++c) {
    for (const auto& [b, resp] : loop.cycles[c].answers) {
      if (resp.status != ServeStatus::kOk) continue;
      check_fallback_rows(rows_of(in.cycles[c].scan_data.xs,
                                  b * kScanBatchRows, kScanBatchRows),
                          resp, gate);
    }
  }
}

// --- ledgers against ServiceStats -------------------------------------------

void add_samples(const std::vector<Sample>& samples, Ledger* ledgers) {
  for (const Sample& s : samples) ledgers[s.op].add(s.outcome);
}

void check_ledger(const service::ServiceStats& before,
                  const service::ServiceStats& after, const Ledger* client,
                  Gate& gate) {
  struct Row {
    std::uint64_t requests, answered, shed;
  };
  const Row svc[kOpCount] = {
      {after.label_requests - before.label_requests,
       after.label_answered - before.label_answered,
       after.label_shed - before.label_shed},
      {after.lookup_requests - before.lookup_requests,
       after.lookup_answered - before.lookup_answered,
       after.lookup_shed - before.lookup_shed},
      {after.recommend_requests - before.recommend_requests,
       after.recommend_answered - before.recommend_answered,
       after.recommend_shed - before.recommend_shed}};
  for (std::size_t op = 0; op < kOpCount; ++op) {
    const std::string name = op_name(op);
    if (svc[op].requests != svc[op].answered + svc[op].shed) {
      gate.fail(name + ": requests != answered + shed in ServiceStats");
    }
    if (svc[op].requests != client[op].attempted - client[op].transport ||
        svc[op].answered != client[op].answered() ||
        svc[op].shed != client[op].shed) {
      gate.fail(name + ": client counts do not match the ServiceStats delta");
    }
  }
}

// --- deep checks against the in-process snapshot ----------------------------

/// Every kept label answer's fallback rows carry label_patches' labels, and
/// every kept answer served by `snap` equals what `snap` and `mgr` return
/// for the same input and seed now.
void check_kept(const Inputs& in, Kept& kept,
                const fairds::Snapshot& snap, const fairms::ModelManager& mgr,
                Labeler& labeler, Gate& gate) {
  const auto fallback = labeler.fn();
  for (const auto& [pool, resp] : kept.labels) {
    const Tensor& xs = in.pools[pool].xs;
    check_fallback_rows(xs, resp, gate);
    if (resp.snapshot_version != snap.version()) continue;
    const nn::Batchset want = snap.lookup_or_label(xs, kThreshold, fallback);
    if (!same_tensor(want.xs, resp.batch.xs) ||
        !same_tensor(want.ys, resp.batch.ys)) {
      gate.fail("a label answer differs from the in-process Snapshot answer");
    }
  }
  for (const auto& [req, resp] : kept.lookups) {
    if (resp.snapshot_version != snap.version()) continue;
    const nn::Batchset want = snap.lookup(in.pools[req.pool].xs,
                                          req.lookup_seed);
    if (!same_tensor(want.xs, resp.batch.xs) ||
        !same_tensor(want.ys, resp.batch.ys)) {
      gate.fail("a lookup answer differs from the in-process Snapshot answer");
    }
  }
  for (const auto& [pool, resp] : kept.ranks) {
    if (resp.snapshot_version != snap.version()) continue;
    const auto pdf = snap.distribution(in.pools[pool].xs);
    const auto want = mgr.recommend(kArch, pdf);
    const bool same =
        want.has_value() == resp.pick.has_value() &&
        (!want.has_value() || (want->model_id == resp.pick->model_id &&
                               want->distance == resp.pick->distance));
    if (!same || pdf != resp.pdf) {
      gate.fail("a rank answer differs from the in-process answer");
    }
  }
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::vector<double> latencies(const std::vector<Sample>& samples, Op op) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.op == op && s.outcome == Outcome::kOk) out.push_back(s.latency_ms());
  }
  return out;
}

// --- the replay pass (traced runs) ------------------------------------------

/// Per-batch stage times of the reuse path, in ms.
struct StageTimes {
  std::vector<double> whole, embed, assign, nearest, find_many, labeler,
      certainty, self, docs;
};

/// Feeds the timed label inputs through Snapshot::lookup_or_label and then,
/// separately, through its public stages (embed, k-means assign, reuse
/// index search, batched store read + decode, fallback labeller), timing
/// each. `self` is the whole call minus the sum of its stages.
StageTimes replay_stages(const Inputs& in, const fairds::Snapshot& snap,
                         const store::Collection& samples,
                         const std::vector<Req>& schedule, Labeler& labeler) {
  StageTimes t;
  const auto fallback = labeler.fn();
  const std::size_t pixels = kImage * kImage;
  auto ms = [](std::int64_t a, std::int64_t b) {
    return static_cast<double>(b - a) * 1e-6;
  };
  std::size_t done = 0;
  for (const Req& req : schedule) {
    if (req.op != kLabel) continue;
    if (done++ == kReplayBatches) break;
    const Tensor& xs = in.pools[req.pool].xs;
    const std::uint64_t batch = g_trace.next_id();

    std::int64_t a = now_ns();
    const std::uint64_t whole_span = g_trace.next_id();
    tl_parent_span = whole_span;
    (void)snap.lookup_or_label(xs, kThreshold, fallback);
    tl_parent_span = 0;
    std::int64_t b = now_ns();
    g_trace.record("fairds.lookup_or_label", a, b, 0, batch, whole_span);
    t.whole.push_back(ms(a, b));

    a = now_ns();
    const Tensor emb = snap.embed(xs);
    b = now_ns();
    g_trace.record("embed.forward", a, b, 0, batch);
    t.embed.push_back(ms(a, b));

    a = now_ns();
    const auto assignments = snap.clusters().assign_batch(emb);
    b = now_ns();
    g_trace.record("cluster.assign", a, b, 0, batch);
    t.assign.push_back(ms(a, b));

    a = now_ns();
    const auto neighbors = snap.reuse_index().nearest_batch(
        {emb.data(), emb.numel()}, assignments);
    b = now_ns();
    g_trace.record("index.nearest", a, b, 0, batch);
    t.nearest.push_back(ms(a, b));

    std::vector<store::DocId> ids;
    std::vector<std::size_t> fallback_rows;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i].found() &&
          std::sqrt(neighbors[i].dist2) < kThreshold) {
        if (std::find(ids.begin(), ids.end(), neighbors[i].id) == ids.end()) {
          ids.push_back(neighbors[i].id);
        }
      } else {
        fallback_rows.push_back(i);
      }
    }
    double find_ms = 0.0;
    if (!ids.empty()) {
      a = now_ns();
      const auto docs = samples.find_many(ids, fairds::kXYFields);
      std::size_t decoded = 0;
      for (const auto& doc : docs) {
        if (doc.has_value()) {
          decoded += fairds::decode_floats(doc->at("x").as_binary()).size();
          decoded += fairds::decode_floats(doc->at("y").as_binary()).size();
        }
      }
      b = now_ns();
      g_trace.record("store.find_many", a, b, 0, batch);
      find_ms = ms(a, b);
      bench::do_not_optimize(decoded);
    }
    t.find_many.push_back(find_ms);
    t.docs.push_back(static_cast<double>(ids.size()));

    double label_ms = 0.0;
    if (!fallback_rows.empty()) {
      Tensor pending({fallback_rows.size(), 1, kImage, kImage});
      for (std::size_t j = 0; j < fallback_rows.size(); ++j) {
        std::copy_n(xs.data() + fallback_rows[j] * pixels, pixels,
                    pending.data() + j * pixels);
      }
      a = now_ns();
      (void)labeling::label_patches(pending);
      b = now_ns();
      g_trace.record("labeling.stage", a, b, 0, batch);
      label_ms = ms(a, b);
    }
    t.labeler.push_back(label_ms);
    t.self.push_back(t.whole.back() - t.embed.back() - t.assign.back() -
                     t.nearest.back() - find_ms - label_ms);

    a = now_ns();
    (void)snap.certainty(xs);
    b = now_ns();
    g_trace.record("cluster.certainty", a, b, 0, batch);
    t.certainty.push_back(ms(a, b));
  }
  return t;
}

/// One request at a time, alternating in process and over the wire on the
/// same inputs: the p50 of each and the encoded sizes.
struct NetReplay {
  double inproc_p50_ms = 0.0;
  double wire_p50_ms = 0.0;
  double req_bytes = 0.0;
  double resp_bytes = 0.0;
  std::uint64_t transport_errors = 0;
};

NetReplay replay_net(service::DataService& svc, std::uint16_t port,
                     const Inputs& in, const std::vector<Req>& schedule,
                     Labeler& labeler) {
  NetReplay out;
  net::Client client;
  if (!client.connect("127.0.0.1", port)) {
    out.transport_errors = 1;
    return out;
  }
  const auto fallback = labeler.fn();
  std::vector<double> local, wire, req_bytes, resp_bytes;
  std::size_t done = 0;
  for (const Req& req : schedule) {
    if (req.op != kLabel) continue;
    if (done++ == kReplayBatches) break;
    const Tensor& xs = in.pools[req.pool].xs;
    std::int64_t a = now_ns();
    (void)svc.submit(service::LabelRequest{xs, kThreshold, fallback}).get();
    std::int64_t b = now_ns();
    local.push_back(static_cast<double>(b - a) * 1e-6);
    const service::LabelRequest wire_req{xs, kThreshold, {}};
    a = now_ns();
    const auto resp = client.label(wire_req);
    b = now_ns();
    g_trace.record("net.client", a, b);
    if (!resp.has_value() || resp->status != ServeStatus::kOk) {
      ++out.transport_errors;
      continue;
    }
    wire.push_back(static_cast<double>(b - a) * 1e-6);
    req_bytes.push_back(static_cast<double>(
        net::kHeaderSize + net::encode_label_request(wire_req).size()));
    resp_bytes.push_back(static_cast<double>(
        net::kHeaderSize + net::encode_label_response(*resp).size()));
  }
  out.inproc_p50_ms = median(local);
  out.wire_p50_ms = median(wire);
  out.req_bytes = median(req_bytes);
  out.resp_bytes = median(resp_bytes);
  return out;
}

/// Tracing overhead: sequential label requests with tracing alternately on
/// and off; (mean traced) / (mean untraced) - 1.
double trace_overhead(service::DataService& svc, const Inputs& in,
                      const std::vector<Req>& schedule, Labeler& labeler) {
  const auto fallback = labeler.fn();
  double on = 0.0, off = 0.0;
  std::size_t done = 0;
  for (const Req& req : schedule) {
    if (req.op != kLabel) continue;
    if (done == 2 * kReplayBatches) break;
    const bool traced = done++ % 2 == 0;
    g_trace.set_enabled(traced);
    const std::int64_t a = now_ns();
    (void)svc.submit(service::LabelRequest{in.pools[req.pool].xs, kThreshold,
                                           fallback})
        .get();
    const std::int64_t b = now_ns();
    g_trace.record("service.submit", a, b);
    (traced ? on : off) += static_cast<double>(b - a);
  }
  g_trace.set_enabled(false);
  return off > 0 ? on / off - 1.0 : 0.0;
}

void print_ledgers(const char* phase, const Ledger* ledgers) {
  std::printf("%-14s %-16s %9s %9s %6s %8s %10s %6s\n", phase, "op",
              "attempted", "ok", "shed", "unknown", "transport", "wrong");
  for (std::size_t op = 0; op < kOpCount; ++op) {
    const Ledger& l = ledgers[op];
    std::printf("%-14s %-16s %9llu %9llu %6llu %8llu %10llu %6llu\n", "",
                op_name(op), static_cast<unsigned long long>(l.attempted),
                static_cast<unsigned long long>(l.ok),
                static_cast<unsigned long long>(l.shed),
                static_cast<unsigned long long>(l.unknown),
                static_cast<unsigned long long>(l.transport),
                static_cast<unsigned long long>(l.wrong));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload steady_wire|drift_update "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  // Before any thread exists: every thread the run starts shares one core.
  const int core = pin_to_one_core();
  const bool drift = args.workload == "drift_update";
  const bool wire = args.workload == "steady_wire";
  std::printf("perfbench: workload %s, seed %llu, seconds %g, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: nproc %u, cpu %s, compiler %s, build %s, pinned to "
              "cpu %d\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              __VERSION__, PERFBENCH_BUILD_TYPE, core);

  // --- inputs, from the seed, before any timer -------------------------------
  const std::size_t rounds = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(args.seconds / kRoundSeconds)));
  const double victim_s =
      kCycleSeconds * kVictimHeadroom;  // per cycle; they stop with it
  const Inputs in = make_inputs(args, rounds, victim_s);

  const auto steal0 = cpu_steal_total();

  // --- set-up, several times ----------------------------------------------------
  // Every build is the same world from the same inputs. The last one is the
  // cycle world; steady_wire also keeps the one before as its read world.
  std::vector<double> setup_times, setup_cpu, setup_wall;
  std::vector<std::unique_ptr<World>> built;
  HostSpeed host;
  const std::size_t keep = wire ? 2 : 1;
  const std::size_t reps = args.trace ? keep : kSetupRepeats;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    if (built.size() == keep) built.erase(built.begin());  // release first
    const double cpu0 = cpu_s();
    const std::int64_t a = now_ns();
    built.push_back(build_world(in, drift, rep));
    setup_wall.push_back(static_cast<double>(now_ns() - a) * 1e-9);
    setup_cpu.push_back(cpu_s() - cpu0);
    setup_times.push_back(setup_cpu.back() * host.factor());
  }
  World& cw = *built.back();                 // the cycle world
  World& rw = *built.front();                // the read world
  Gate gate;
  Labeler labeler;
  const Checker checker{&in, &gate};
  fairms::ModelManager& manager = rw.system->manager();
  fairms::ModelZoo& zoo = rw.system->zoo();
  const service::DataServiceConfig svc_config{.workers = kWorkers,
                                              .max_pending = kMaxPending};
  service::DataService cycle_svc(*cw.ds, svc_config,
                                 &cw.system->manager());
  std::optional<service::DataService> read_svc_own;
  if (wire) read_svc_own.emplace(*rw.ds, svc_config, &manager);
  service::DataService& svc = wire ? *read_svc_own : cycle_svc;
  // The loopback server: for steady_wire's reads, and on every workload for
  // the traced run's replay (started after the timed rounds).
  std::optional<net::Server> server;
  auto start_server = [&] {
    server.emplace(svc, net::ServerConfig{.fallback_labeler = labeler.fn()});
    return server->ok() ? server->port() : std::uint16_t{0};
  };
  std::uint16_t port = wire ? start_server() : 0;
  if (wire && port == 0) {
    std::printf("perfbench: cannot listen on loopback\n");
    return 1;
  }
  net::Client control;
  if (wire && !control.connect("127.0.0.1", port)) {
    std::printf("perfbench: cannot connect to the loopback server\n");
    return 1;
  }
  auto stats_now = [&]() -> service::ServiceStats {
    if (!wire) return svc.stats();
    auto s = control.stats();
    if (!s.has_value()) {
      gate.fail("stats over the wire failed");
      return {};
    }
    return *s;
  };

  // Warm-up outside every window and ledger.
  for (auto* warm : {&svc, &cycle_svc}) {
    for (std::size_t p = 0; p < kPools; ++p) {
      (void)warm->submit(service::LabelRequest{in.pools[p].xs, kThreshold,
                                               labeler.fn()})
          .get();
    }
    warm->wait_idle();
    if (!wire) break;  // one service
  }
  labeler.rows = 0;
  labeler.ns = 0;

  const std::uint64_t version0 = cw.ds->snapshot()->version();
  const std::size_t indexed_start = rw.ds->snapshot()->indexed_count();
  const std::size_t zoo_start = cw.system->zoo().size();
  g_trace.set_enabled(args.trace);

  // --- the timed rounds --------------------------------------------------------
  // Each round: an open-loop slice and a closed-loop slice of reads, each
  // read-only on one snapshot, then one update cycle on the cycle world.
  // steady_wire reads its own fixed world over the wire; drift_update reads
  // the cycle world in process, as the cycles leave it.
  Ledger open_ledger[kOpCount], closed_ledger[kOpCount];
  Ledger victim_ledger[kOpCount];
  Ledger scan_ledger;
  std::vector<Sample> open_samples, closed_samples, victim_samples;
  std::vector<double> round_rows_per_cpu_s, round_rows_per_s;
  double closed_rows = 0.0, closed_cpu_s = 0.0;
  double read_wall_s = 0.0, read_busy_s = 0.0, late_p99_ms = 0.0;
  double threads = 0.0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::size_t max_queue_depth = 0;
  const service::ServiceStats svc_before = stats_now();
  const service::ServiceStats cycle_before = cycle_svc.stats();
  CycleLoop loop(cw, cycle_svc, in, labeler, gate, scan_ledger, host,
                 args.trace);
  std::shared_ptr<const fairds::Snapshot> snap_read;

  for (std::size_t round = 0; round < rounds; ++round) {
    // (a) Reads.
    snap_read = rw.ds->snapshot();
    const auto cache0 = zoo.cache().stats();
    const service::ServiceStats before = stats_now();
    Kept kept;
    const std::int64_t t0 = now_ns() + 20'000'000;
    OpenLoopResult open =
        wire ? open_loop_wire(port, in, in.slices[round], checker, kept, t0,
                              gate)
             : open_loop_inproc(svc, in, in.slices[round], labeler, checker,
                                kept, t0);
    svc.wait_idle();
    ClosedLoopResult closed =
        closed_loop(svc, port, wire, in, labeler, checker, kept,
                    kClosedSliceSeconds, args.seed * 131 + round, gate);
    svc.wait_idle();
    const service::ServiceStats after = stats_now();
    const auto cache1 = zoo.cache().stats();
    read_wall_s += open.wall_s + kClosedSliceSeconds;
    read_busy_s += after.busy_seconds - before.busy_seconds;
    max_queue_depth = std::max<std::size_t>(max_queue_depth,
                                            after.max_queue_depth);
    cache_hits += cache1.hits - cache0.hits;
    cache_misses += cache1.misses - cache0.misses;
    late_p99_ms = std::max(late_p99_ms, open.late_p99_ms);
    if (round == 0) threads = open.threads;
    round_rows_per_cpu_s.push_back(closed.rows / std::max(1e-9, closed.cpu_s));
    round_rows_per_s.push_back(closed.rows / std::max(1e-9, closed.wall_s));
    closed_rows += closed.rows;
    closed_cpu_s += closed.cpu_s;
    for (const auto* samples : {&open.samples, &closed.samples}) {
      for (const Sample& s : *samples) {
        if (s.outcome == Outcome::kOk && s.version != snap_read->version()) {
          gate.fail("snapshot version moved during a read slice");
          break;
        }
      }
    }
    if (rw.ds->snapshot()->version() != snap_read->version()) {
      gate.fail("snapshot version moved during a read slice");
    }
    check_kept(in, kept, *snap_read, manager, labeler, gate);
    open_samples.insert(open_samples.end(), open.samples.begin(),
                        open.samples.end());
    closed_samples.insert(closed_samples.end(), closed.samples.begin(),
                          closed.samples.end());

    // (b) One update cycle. The traced run sends victims beside it (and the
    // cycle sends its detector writes beside itself): the contention probe.
    // The untraced run keeps the cycle alone, writes included as a stage, so
    // each stage time counts that stage's work only.
    std::atomic<bool> cycle_done{false};
    std::thread victim_thread;
    Kept victim_kept;
    OpenLoopResult victims;
    const std::int64_t v0 = now_ns() + 1'000'000;
    if (args.trace) {
      victim_thread = std::thread([&] {
        victims = open_loop_inproc(cycle_svc, in, in.victims, labeler, checker,
                                   victim_kept, v0, cw.ds.get(), &cycle_done);
      });
      sleep_until_ns(v0);
    }
    loop.run(round);
    cycle_done.store(true);
    if (victim_thread.joinable()) victim_thread.join();
    // A victim is served by the snapshot a worker loads after dequeuing it:
    // no older than the one published before its submit, no newer than the
    // one published once its answer was ready.
    for (const Sample& s : victims.samples) {
      if (s.outcome != Outcome::kOk) continue;
      if (s.version < s.version_before || s.version > s.version_after) {
        gate.fail("a victim's snapshot version lies outside the versions "
                  "published between its submit and its answer");
        break;
      }
    }
    // Victims met many snapshots and zoo states, so only their fallback
    // rows are checked after the fact (their reused rows were checked as
    // they arrived).
    for (const auto& [pool, resp] : victim_kept.labels) {
      check_fallback_rows(in.pools[pool].xs, resp, gate);
    }
    victim_samples.insert(victim_samples.end(), victims.samples.begin(),
                          victims.samples.end());
  }
  g_trace.set_enabled(false);
  svc.wait_idle();
  cycle_svc.wait_idle();
  loop.check_retrains();
  check_cycle_answers(in, loop, gate);

  // Ledgers: every request the client sent against the services' own
  // counters (steady_wire's read service over the wire).
  add_samples(open_samples, open_ledger);
  add_samples(closed_samples, closed_ledger);
  add_samples(victim_samples, victim_ledger);
  {
    Ledger reads[kOpCount], cycle_side[kOpCount];
    for (std::size_t op = 0; op < kOpCount; ++op) {
      reads[op].merge(open_ledger[op]);
      reads[op].merge(closed_ledger[op]);
      cycle_side[op].merge(victim_ledger[op]);
    }
    cycle_side[kLabel].merge(scan_ledger);
    if (wire) {
      check_ledger(svc_before, stats_now(), reads, gate);
      check_ledger(cycle_before, cycle_svc.stats(), cycle_side, gate);
    } else {
      for (std::size_t op = 0; op < kOpCount; ++op) {
        cycle_side[op].merge(reads[op]);
      }
      check_ledger(cycle_before, cycle_svc.stats(), cycle_side, gate);
    }
  }
  const double labeled_rows = static_cast<double>(labeler.rows.load());
  const double labeled_ns = static_cast<double>(labeler.ns.load());
  const auto snap_final = cw.ds->snapshot();

  // --- input properties ----------------------------------------------------------
  double reused = 0, computed = 0;
  for (const auto* samples : {&open_samples, &closed_samples}) {
    for (const Sample& s : *samples) {
      reused += s.reused;
      computed += s.computed;
    }
  }
  double scan_reused = 0, scan_computed = 0;
  for (const CycleResult& c : loop.cycles) {
    for (const auto& a : c.answers) {
      scan_reused += static_cast<double>(a.second.reuse.reused);
      scan_computed += static_cast<double>(a.second.reuse.computed);
    }
  }
  const double traffic_reuse = reused / std::max(1.0, reused + computed);
  const double scan_reuse =
      scan_reused / std::max(1.0, scan_reused + scan_computed);
  std::printf(
      "inputs: %zu rounds; read reuse share %.4f, fallback share %.4f; "
      "drifted-scan reuse share %.4f, fallback share %.4f; drifted-row "
      "share of the final store %.4f; zoo models %zu -> %zu; indexed rows "
      "%zu -> %zu (read world at the end: %zu)\n",
      rounds, traffic_reuse, 1.0 - traffic_reuse, scan_reuse,
      1.0 - scan_reuse,
      static_cast<double>(in.drifted_rows) /
          static_cast<double>(std::max<std::size_t>(
              1, snap_final->indexed_count())),
      zoo_start, cw.system->zoo().size(), indexed_start,
      snap_final->indexed_count(), snap_read->indexed_count());

  // --- end-to-end figures ------------------------------------------------------
  std::vector<double> drift_label, retrain, update, ingest_lat, ingest_self;
  std::vector<double> up_label, up_rec, up_train;
  std::size_t epochs_total = 0, epochs_to_target = 0, retrains = 0;
  double train_s_total = 0.0;
  for (const CycleResult& c : loop.cycles) {
    drift_label.push_back(c.label_norm_s);
    if (c.retrained) {
      retrain.push_back(c.retrain_norm_s);
      ++retrains;
    }
    update.push_back(c.update_norm_s);
    up_label.push_back(c.report.label_seconds);
    up_rec.push_back(c.report.recommend_seconds);
    up_train.push_back(c.report.train_seconds);
    epochs_total += c.report.epochs;
    epochs_to_target += c.epochs_to_target;
    train_s_total += c.report.train_seconds;
  }
  std::vector<std::vector<double>> cycle_ingest(loop.cycles.size());
  std::vector<double> ingest_speed(loop.cycles.size(), 1.0);
  for (const IngestSample& s : loop.ingests) {
    ingest_lat.push_back(s.latency_ms);
    cycle_ingest[s.cycle].push_back(s.latency_ms);
    ingest_speed[s.cycle] = s.speed;
    if (!s.beside_retrain) ingest_self.push_back(s.exec_ms);
  }
  std::vector<double> ingest_p50, ingest_p50_norm;  // per cycle
  for (std::size_t c = 0; c < cycle_ingest.size(); ++c) {
    ingest_p50.push_back(median(cycle_ingest[c]));
    ingest_p50_norm.push_back(ingest_p50.back() * ingest_speed[c]);
  }
  std::printf("cycles: %zu in %.3f s (%.3f s each), retrains %zu, epochs "
              "to target",
              loop.cycles.size(), loop.wall_s,
              loop.wall_s / static_cast<double>(loop.cycles.size()),
              retrains);
  for (const CycleResult& c : loop.cycles) {
    std::printf(" %zu (%.2e)", c.epochs_to_target, c.report.final_val_error);
  }
  std::printf("\nper cycle, in ms: wall / cpu / cpu at the reference "
              "speed\ncycle fallback_rows  label_scan               "
              "retrain                  update                   "
              "ingest_p50\n");
  for (std::size_t i = 0; i < loop.cycles.size(); ++i) {
    const CycleResult& c = loop.cycles[i];
    std::size_t fallback_rows = 0;
    for (const auto& a : c.answers) fallback_rows += a.second.reuse.computed;
    std::printf("%5zu %13zu  %6.1f / %6.1f / %6.1f  %6.1f / %6.1f / %6.1f  "
                "%6.1f / %6.1f / %6.1f  %.4f / %.4f\n",
                i, fallback_rows, c.label_s * 1e3, c.label_cpu_s * 1e3,
                c.label_norm_s * 1e3, c.retrain_s * 1e3,
                c.retrain_cpu_s * 1e3, c.retrain_norm_s * 1e3,
                c.update_s * 1e3, c.update_cpu_s * 1e3, c.update_norm_s * 1e3,
                ingest_p50[i], ingest_p50_norm[i]);
  }
  std::printf("setup, in s: wall / cpu / cpu at the reference speed:");
  for (std::size_t i = 0; i < setup_wall.size(); ++i) {
    std::printf(" %.3f / %.3f / %.3f", setup_wall[i], setup_cpu[i],
                setup_times[i]);
  }
  std::printf("\n");
  std::printf("closed loop, per round: rows per CPU second");
  for (const double v : round_rows_per_cpu_s) std::printf(" %.0f", v);
  std::printf("; rows per wall second");
  for (const double v : round_rows_per_s) std::printf(" %.0f", v);
  std::printf("\n");

  print_ledgers("open loop", open_ledger);
  print_ledgers("closed loop", closed_ledger);
  print_ledgers("victims", victim_ledger);
  std::printf("%-14s %-16s %9llu %9llu %6llu %8llu %10llu %6llu\n",
              "scan labels", "lookup_or_label",
              static_cast<unsigned long long>(scan_ledger.attempted),
              static_cast<unsigned long long>(scan_ledger.ok),
              static_cast<unsigned long long>(scan_ledger.shed),
              static_cast<unsigned long long>(scan_ledger.unknown),
              static_cast<unsigned long long>(scan_ledger.transport),
              static_cast<unsigned long long>(scan_ledger.wrong));
  std::printf("ingest         detector writes  %9zu %9zu      0        0"
              "          0      0\n",
              ingest_lat.size(), ingest_lat.size());

  Ledger all;
  for (std::size_t op = 0; op < kOpCount; ++op) {
    all.merge(open_ledger[op]);
    all.merge(closed_ledger[op]);
    all.merge(victim_ledger[op]);
  }
  all.merge(scan_ledger);
  const std::uint64_t attempted =
      all.attempted + ingest_lat.size() + retrains + loop.cycles.size();
  const std::uint64_t failed = all.failed();
  const auto open_label = latencies(open_samples, kLabel);
  const auto victim_label = latencies(victim_samples, kLabel);
  std::printf("samples: open-loop label %zu, lookup %zu, rank %zu; "
              "closed-loop label %zu; victims %zu; ingests %zu\n",
              open_label.size(), latencies(open_samples, kLookup).size(),
              latencies(open_samples, kRank).size(), closed_samples.size(),
              victim_samples.size(), ingest_lat.size());
  std::printf("open loop: generator lateness p99 %.3f ms (worst slice), "
              "process threads %.0f\n",
              late_p99_ms, threads);
  const auto steal1 = cpu_steal_total();
  const auto& reference = host.samples();
  std::printf("host: hypervisor steal %.1f%% of CPU time during the run; "
              "reference kernel %.3f ms (min %.3f, max %.3f, %zu times; "
              "%.1f at the reference speed)\n",
              100.0 * (steal1.first - steal0.first) /
                  std::max(1.0, steal1.second - steal0.second),
              mean(reference),
              *std::min_element(reference.begin(), reference.end()),
              *std::max_element(reference.begin(), reference.end()),
              reference.size(), kReferenceMs);

  // --- traced run: per-layer figures ----------------------------------------
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_times), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"label_p50_ms", pct(open_label, 50), "ms"},
        {"lookup_p50_ms", pct(latencies(open_samples, kLookup), 50), "ms"},
        {"rank_p50_ms", pct(latencies(open_samples, kRank), 50), "ms"},
        {"ingest_p50_ms", mean(ingest_p50_norm), "ms"},
        {"drift_label_cpu_s", mean(drift_label), "s"},
        {"retrain_cpu_s", mean(retrain), "s"},
        {"update_cpu_s", mean(update), "s"},
    };
  } else {
    // The replay runs on the snapshot the timed traffic was served from.
    const auto& replay_snap = snap_read;
    store::Collection& samples = rw.db->collection("fairds_samples");
    const StageTimes st =
        replay_stages(in, *replay_snap, samples, in.schedule, labeler);
    if (!server) port = start_server();
    const NetReplay nr = replay_net(svc, port, in, in.schedule, labeler);

    std::vector<double> lookup_ms, rank_ms;
    std::size_t n_lookup = 0, n_rank = 0;
    for (const Req& req : in.schedule) {
      const Tensor& xs = in.pools[req.pool].xs;
      if (req.op == kLookup && n_lookup++ < 100) {
        const std::int64_t a = now_ns();
        (void)replay_snap->lookup(xs, req.lookup_seed);
        lookup_ms.push_back(static_cast<double>(now_ns() - a) * 1e-6);
      } else if (req.op == kRank && n_rank++ < 100) {
        const auto pdf = replay_snap->distribution(xs);
        const std::int64_t a = now_ns();
        (void)manager.rank(kArch, pdf);
        rank_ms.push_back(static_cast<double>(now_ns() - a) * 1e-6);
      }
    }
    std::vector<double> publish_ms;
    {
      fairms::ModelZoo& cycle_zoo = cw.system->zoo();
      const auto record = cycle_zoo.fetch_cached(
          loop.cycles.empty() ? 1 : loop.cycles.back().report.published_model);
      const auto pdf = snap_final->distribution(in.pools[0].xs);
      for (int i = 0; i < 5 && record != nullptr; ++i) {
        const std::int64_t a = now_ns();
        (void)cycle_zoo.publish(kArch, "replay_" + std::to_string(i), pdf,
                          *record->parameters);
        publish_ms.push_back(static_cast<double>(now_ns() - a) * 1e-6);
      }
    }
    const double overhead = trace_overhead(svc, in, in.schedule, labeler);

    std::vector<double> queue_wait, exec;
    for (const Sample& s : open_samples) {
      if (s.op != kLabel || s.outcome != Outcome::kOk) continue;
      queue_wait.push_back(s.client_ms() - s.exec_s * 1e3);
      exec.push_back(s.exec_s * 1e3);
    }
    const double ingest_self_ms = median(ingest_self);
    const auto hits = static_cast<double>(cache_hits);
    const auto misses = static_cast<double>(cache_misses);
    const std::uint64_t transport = nr.transport_errors + all.transport;

    // Stage table: where the open-loop lookup_or_label p50 goes.
    const double e2e = pct(open_label, 50);
    const double qw = median(queue_wait);
    const double stages[] = {median(st.embed), median(st.assign),
                             median(st.nearest), median(st.find_many),
                             median(st.labeler), median(st.self)};
    const char* names[] = {"embed.forward", "cluster.assign",
                           "index.nearest", "store.find_many",
                           "labeling.fallback", "fairds remainder"};
    double sum = qw;
    std::printf("\nstage table: lookup_or_label, %zu rows, medians in ms "
                "(%s open loop)\n",
                kBatchRows, wire ? "wire" : "in-process");
    std::printf("  %-34s %10.4f\n", "end-to-end p50 (from due time)", e2e);
    std::printf("  %-34s %10.4f\n", "generator lateness p50",
                median([&] {
                  std::vector<double> v;
                  for (const Sample& s : open_samples) {
                    v.push_back(static_cast<double>(s.sent_ns - s.due_ns) *
                                1e-6);
                  }
                  return v;
                }()));
    std::printf("  %-34s %10.4f\n",
                wire ? "wire + queue wait (client - exec)"
                     : "queue wait (client - exec)",
                qw);
    for (std::size_t i = 0; i < 6; ++i) {
      std::printf("  %-34s %10.4f\n", names[i], stages[i]);
      sum += stages[i];
    }
    std::printf("  %-34s %10.4f\n", "sum of stages", sum);
    std::printf("  %-34s %10.4f\n", "unaccounted (e2e p50 - sum)", e2e - sum);
    std::printf("sequential replay, same inputs: in-process p50 %.4f ms, "
                "wire p50 %.4f ms, net overhead %.4f ms\n\n",
                nr.inproc_p50_ms, nr.wire_p50_ms,
                nr.wire_p50_ms - nr.inproc_p50_ms);

    const double publishes = static_cast<double>(
        snap_final->version() - version0);
    metrics = {
        {"net.rtt_p50_ms", nr.wire_p50_ms, "ms"},
        {"net.overhead_p50_ms", nr.wire_p50_ms - nr.inproc_p50_ms, "ms"},
        {"net.req_bytes", nr.req_bytes, "bytes"},
        {"net.resp_bytes", nr.resp_bytes, "bytes"},
        {"net.transport_errors", static_cast<double>(transport), "count"},
        {"service.queue_wait_p50_ms", qw, "ms"},
        {"service.queue_wait_p99_ms", pct(queue_wait, 99), "ms"},
        {"service.exec_p50_ms", median(exec), "ms"},
        {"service.busy_share",
         read_busy_s /
             std::max(1e-9, read_wall_s * static_cast<double>(kWorkers)),
         "share"},
        {"service.max_queue_depth", static_cast<double>(max_queue_depth),
         "count"},
        {"service.rows_per_cpu_s", closed_rows / std::max(1e-9, closed_cpu_s),
         "rows/s"},
        {"service.shed", static_cast<double>(all.shed), "count"},
        {"fairds.lookup_or_label_ms", median(st.whole), "ms"},
        {"fairds.self_ms", median(st.self), "ms"},
        {"fairds.lookup_ms", median(lookup_ms), "ms"},
        {"fairds.reuse_share", traffic_reuse, "share"},
        {"embed.forward_ms", median(st.embed), "ms"},
        {"cluster.assign_ms", median(st.assign), "ms"},
        {"cluster.certainty_ms", median(st.certainty), "ms"},
        {"index.nearest_ms", median(st.nearest), "ms"},
        {"index.rows", static_cast<double>(replay_snap->indexed_count()),
         "count"},
        {"store.find_many_ms", median(st.find_many), "ms"},
        {"store.docs_per_req", median(st.docs), "count"},
        {"store.bytes", static_cast<double>(samples.approx_bytes()),
         "bytes"},
        {"fairds.ingest_self_ms", ingest_self_ms, "ms"},
        {"fairds.ingest_wait_p99_ms", pct(ingest_lat, 99) - ingest_self_ms,
         "ms"},
        {"ingest.p50_ms", pct(ingest_lat, 50), "ms"},
        {"ingest.mean_ms", mean(ingest_lat), "ms"},
        {"fairds.publishes", publishes, "count"},
        {"fairds.retrains", static_cast<double>(retrains), "count"},
        {"labeling.fallback_share", 1.0 - traffic_reuse, "share"},
        {"labeling.ms_per_row",
         labeled_rows > 0 ? labeled_ns * 1e-6 / labeled_rows : 0.0, "ms"},
        {"fairms.rank_ms", median(rank_ms), "ms"},
        {"fairms.cache_hit_share", hits / std::max(1.0, hits + misses),
         "share"},
        {"fairms.publish_ms", median(publish_ms), "ms"},
        {"fairms.zoo_models", static_cast<double>(cw.system->zoo().size()),
         "count"},
        {"core.update_label_s", median(up_label), "s"},
        {"core.update_recommend_s", median(up_rec), "s"},
        {"core.update_train_s", median(up_train), "s"},
        {"nn.epochs_total", static_cast<double>(epochs_total), "count"},
        {"nn.epochs_to_target", static_cast<double>(epochs_to_target),
         "count"},
        {"nn.train_ms_per_epoch",
         epochs_total > 0 ? train_s_total * 1e3 /
                                static_cast<double>(epochs_total)
                          : 0.0,
         "ms"},
        {"proc.threads", threads, "count"},
        {"gen.late_p99_ms", late_p99_ms, "ms"},
        {"label.p99_ms", pct(open_label, 99), "ms"},
        {"victim.label_p50_ms", pct(victim_label, 50), "ms"},
        {"victim.label_p99_ms", pct(victim_label, 99), "ms"},
        {"trace.overhead_share", overhead, "share"},
    };
    const std::string dir = ".bench_build/traces";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".tsv";
    if (g_trace.write(path)) {
      std::printf("trace: %zu spans written to %s\n",
                  g_trace.collect().size(), path.c_str());
    }
  }

  server.reset();
  const bool correct = gate.count() == 0 && failed == 0;
  gate.print();
  std::printf("gate: %s\n", correct ? "PASS" : "FAIL");
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
