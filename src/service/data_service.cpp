#include "service/data_service.hpp"

#include <algorithm>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace fairdms::service {

namespace {

std::size_t worker_count_for(std::size_t configured) {
  if (configured != 0) return configured;
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(std::thread::hardware_concurrency()));
}

/// Lock-free monotonic max for the queue-depth high-water marks.
void cas_max(std::atomic<std::uint64_t>& mark, std::uint64_t value) {
  std::uint64_t seen = mark.load(std::memory_order_relaxed);
  while (seen < value &&
         !mark.compare_exchange_weak(seen, value, std::memory_order_acq_rel)) {
  }
}

/// An op's ledger fields in StreamStats.
struct Ledger {
  std::uint64_t StreamStats::*requests;
  std::uint64_t StreamStats::*answered;
  std::uint64_t StreamStats::*shed;
  std::uint64_t StreamStats::*failed;
};

template <typename Request>
constexpr Ledger ledger_of() {
  if constexpr (std::is_same_v<Request, LabelRequest>) {
    return {&StreamStats::label_requests, &StreamStats::label_answered,
            &StreamStats::label_shed, &StreamStats::label_failed};
  } else if constexpr (std::is_same_v<Request, LookupRequest>) {
    return {&StreamStats::lookup_requests, &StreamStats::lookup_answered,
            &StreamStats::lookup_shed, &StreamStats::lookup_failed};
  } else {
    return {&StreamStats::recommend_requests,
            &StreamStats::recommend_answered, &StreamStats::recommend_shed,
            &StreamStats::recommend_failed};
  }
}

/// Answers a request that never reached a worker: default payload, the
/// given status (kShedOverload / kUnknownStream), on the submitter's thread.
template <typename Response>
void reject(const DataService::Done<Response>& done, ServeStatus status) {
  Response response;
  response.status = status;
  done(std::move(response), nullptr);
}

/// The future form of a request: the callback form with a promise as `done`.
template <typename Response, typename Request>
std::future<Response> submit_as_future(DataService& service, Request request) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  service.submit(std::move(request),
                 [promise](Response response, std::exception_ptr error) {
                   if (error != nullptr) {
                     promise->set_exception(std::move(error));
                   } else {
                     promise->set_value(std::move(response));
                   }
                 });
  return future;
}

StreamConfig default_stream_config(const DataServiceConfig& config) {
  StreamConfig out;
  out.retrain.auto_trigger = config.auto_retrain;
  out.store_shards = config.store_shards;
  out.storage_engine = config.storage_engine;
  out.model_cache_bytes = config.model_cache_bytes;
  return out;
}

}  // namespace

DataService::DataService(DataServiceConfig config)
    : config_(std::move(config)),
      workers_(worker_count_for(config_.workers), config_.max_pending) {}

DataService::DataService(fairds::FairDS& ds, DataServiceConfig config,
                         const fairms::ModelManager* manager)
    : DataService(config) {
  const bool added =
      add_stream(kDefaultStreamName, ds, default_stream_config(config_),
                 manager);
  FAIRDMS_CHECK(added, "DataService: default stream registration failed");
}

DataService::~DataService() { wait_idle(); }

bool DataService::add_stream(const std::string& name, fairds::FairDS& ds,
                             StreamConfig config,
                             const fairms::ModelManager* manager) {
  return registry_.add(name, ds, std::move(config), manager);
}

bool DataService::has_stream(const std::string& name) const {
  return registry_.find(name) != nullptr;
}

std::vector<std::string> DataService::stream_names() const {
  std::vector<std::string> out;
  for (const auto& stream : registry_.all()) out.push_back(stream->name);
  return out;
}

std::shared_ptr<const fairds::Snapshot> DataService::snapshot(
    const std::string& stream) const {
  const auto s = registry_.find(stream);
  return s != nullptr ? s->ds->snapshot() : nullptr;
}

bool DataService::has_model_manager(const std::string& stream) const {
  const auto s = registry_.find(stream);
  return s != nullptr && s->manager != nullptr;
}

bool DataService::reserve_pending(Stream& stream) {
  const std::uint64_t bound = stream.config.max_pending;
  std::uint64_t seen = stream.pending.load(std::memory_order_relaxed);
  for (;;) {
    if (bound != 0 && seen >= bound) return false;
    if (stream.pending.compare_exchange_weak(seen, seen + 1,
                                             std::memory_order_acq_rel)) {
      cas_max(stream.max_pending_seen, seen + 1);
      return true;
    }
  }
}

template <typename Request, typename Response>
void DataService::serve(Request request, Done<Response> done) {
  static constexpr Ledger ledger = ledger_of<Request>();
  constexpr bool is_label = std::is_same_v<Request, LabelRequest>;
  auto stream = registry_.find(request.stream);
  if (stream == nullptr) {
    unknown_stream_requests_.fetch_add(1, std::memory_order_relaxed);
    return reject(done, ServeStatus::kUnknownStream);
  }
  if constexpr (std::is_same_v<Request, RecommendRequest>) {
    FAIRDMS_CHECK(stream->manager != nullptr, "RecommendRequest on stream '",
                  stream->name, "' without a ModelManager");
  }
  const bool reserved = reserve_pending(*stream);
  {
    util::MutexLock lock(stream->stats_mutex);
    ++(stream->counters.*ledger.requests);
    if (!reserved) ++(stream->counters.*ledger.shed);
  }
  if (!reserved) return reject(done, ServeStatus::kShedOverload);

  // Shared so a task the pool rejects leaves `done` to answer the shed.
  struct Job {
    Request request;
    Done<Response> done;
  };
  auto job = std::make_shared<Job>(Job{std::move(request), std::move(done)});
  const bool admitted = workers_.try_submit([this, stream, job] {
    stream->pending.fetch_sub(1, std::memory_order_acq_rel);
    util::WallTimer timer;
    const auto snap = stream->ds->snapshot();
    FAIRDMS_CHECK(snap != nullptr, "DataService: stream '", stream->name,
                  "' not trained");
    const Request& req = job->request;
    Response response;
    try {
      if constexpr (is_label) {
        response.batch = snap->lookup_or_label(
            req.xs, req.threshold, req.fallback_labeler, &response.reuse);
      } else if constexpr (std::is_same_v<Request, LookupRequest>) {
        response.batch = snap->lookup(req.xs, req.seed);
      } else {
        response.pdf = snap->distribution(req.xs);
        response.pick =
            stream->manager->recommend(req.architecture, response.pdf);
      }
    } catch (...) {
      {
        util::MutexLock lock(stream->stats_mutex);
        ++(stream->counters.*ledger.failed);
      }
      job->done({}, std::current_exception());
      return;
    }
    response.snapshot_version = snap->version();
    response.seconds = timer.seconds();
    {
      util::MutexLock lock(stream->stats_mutex);
      StreamStats& c = stream->counters;
      ++(c.*ledger.answered);
      if constexpr (is_label) {
        c.samples_labeled += req.xs.dim(0);
        c.labels_reused += response.reuse.reused;
        c.labels_computed += response.reuse.computed;
      }
      c.busy_seconds += response.seconds;
      c.max_request_seconds =
          std::max(c.max_request_seconds, response.seconds);
    }
    if constexpr (is_label) {
      // Serving-side Fig. 16 policy: the data just labeled doubles as the
      // drift probe, gated by this stream's RetrainPolicy.
      maybe_auto_retrain(stream, req.xs);
    }
    job->done(std::move(response), nullptr);
  });
  if (!admitted) {
    stream->pending.fetch_sub(1, std::memory_order_acq_rel);
    {
      util::MutexLock lock(stream->stats_mutex);
      ++(stream->counters.*ledger.shed);
    }
    return reject(job->done, ServeStatus::kShedOverload);
  }
  cas_max(max_queue_depth_, workers_.queue_depth());
}

void DataService::submit(LabelRequest request, Done<LabelResponse> done) {
  FAIRDMS_CHECK(request.fallback_labeler != nullptr,
                "LabelRequest without a fallback labeler");
  serve(std::move(request), std::move(done));
}

void DataService::submit(LookupRequest request, Done<LookupResponse> done) {
  serve(std::move(request), std::move(done));
}

void DataService::submit(RecommendRequest request,
                         Done<RecommendResponse> done) {
  serve(std::move(request), std::move(done));
}

std::future<LabelResponse> DataService::submit(LabelRequest request) {
  return submit_as_future<LabelResponse>(*this, std::move(request));
}

std::future<LookupResponse> DataService::submit(LookupRequest request) {
  return submit_as_future<LookupResponse>(*this, std::move(request));
}

std::future<RecommendResponse> DataService::submit(RecommendRequest request) {
  return submit_as_future<RecommendResponse>(*this, std::move(request));
}

void DataService::maybe_auto_retrain(const std::shared_ptr<Stream>& stream,
                                     const Tensor& xs) {
  const RetrainPolicy& policy = stream->config.retrain;
  if (!policy.auto_trigger) return;
  {
    util::MutexLock lock(stream->stats_mutex);
    stream->samples_since_trigger += xs.dim(0);
    if (stream->samples_since_trigger < policy.min_new_samples) return;
    if (policy.cooldown_seconds > 0.0 && stream->ever_retrained) {
      const double since =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        stream->last_retrain_done)
              .count();
      if (since < policy.cooldown_seconds) {
        ++stream->counters.policy_cooldown_skips;
        return;
      }
    }
  }
  if (request_retrain_on(stream, xs)) {
    // The new-sample budget is spent only when a check actually enqueued;
    // coalesced/capped attempts keep accumulating toward the next one.
    util::MutexLock lock(stream->stats_mutex);
    stream->samples_since_trigger = 0;
  }
}

bool DataService::request_retrain(const std::string& stream_name,
                                  const Tensor& xs) {
  auto stream = registry_.find(stream_name);
  if (stream == nullptr) {
    unknown_stream_requests_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return request_retrain_on(stream, xs);
}

bool DataService::request_retrain_on(const std::shared_ptr<Stream>& stream,
                                     const Tensor& xs) {
  bool expected = false;
  if (!stream->system_busy.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    // One check in flight answers the question; coalesce. Counted so a
    // retrain storm shows up in the stats.
    util::MutexLock lock(stream->stats_mutex);
    ++stream->counters.retrains_coalesced;
    return false;
  }
  if (config_.max_concurrent_retrains != 0) {
    std::size_t seen = retrains_in_flight_.load(std::memory_order_acquire);
    for (;;) {
      if (seen >= config_.max_concurrent_retrains) {
        stream->system_busy.store(false, std::memory_order_release);
        util::MutexLock lock(stream->stats_mutex);
        ++stream->counters.retrains_capped;
        return false;
      }
      if (retrains_in_flight_.compare_exchange_weak(
              seen, seen + 1, std::memory_order_acq_rel)) {
        break;
      }
    }
  }
  // Copy only after winning the coalescing race and the global cap:
  // dropped requests (the steady state during a storm) cost no allocation.
  // Captured as a raw pointer on purpose: a worker destroys its task
  // object *after* signaling idle, so an owning capture could drop the
  // last Stream reference on the stream's own executor thread — ~Stream
  // would then self-join that thread. The raw pointer stays valid because
  // the registry never removes streams and ~Stream joins this executor
  // before anything the task touches is destroyed.
  Stream* const s = stream.get();
  const double threshold = s->config.retrain.certainty_threshold;
  s->retrain_executor.submit([this, s, xs, threshold] {
    const bool retrained = threshold > 0.0
                               ? s->ds->maybe_retrain(xs, threshold)
                               : s->ds->maybe_retrain(xs);
    {
      util::MutexLock lock(s->stats_mutex);
      ++s->counters.retrain_checks;
      if (retrained) {
        ++s->counters.retrains;
        s->ever_retrained = true;
        s->last_retrain_done = std::chrono::steady_clock::now();
      }
    }
    if (config_.max_concurrent_retrains != 0) {
      retrains_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    }
    s->system_busy.store(false, std::memory_order_release);
  });
  return true;
}

bool DataService::retrain_in_flight() const {
  for (const auto& stream : registry_.all()) {
    if (stream->system_busy.load(std::memory_order_acquire)) return true;
  }
  return false;
}

bool DataService::retrain_in_flight(const std::string& stream_name) const {
  const auto stream = registry_.find(stream_name);
  return stream != nullptr &&
         stream->system_busy.load(std::memory_order_acquire);
}

void DataService::wait_idle() {
  // User-plane tasks may enqueue system-plane checks, never the reverse,
  // so draining workers first then every stream's executor reaches a true
  // fixed point.
  workers_.wait_idle();
  for (const auto& stream : registry_.all()) {
    stream->retrain_executor.wait_idle();
  }
}

StreamStats DataService::stream_stats(const std::string& stream_name) const {
  const auto stream = registry_.find(stream_name);
  return stream != nullptr ? stream->stats() : StreamStats{};
}

ServiceStats DataService::stats() const {
  ServiceStats out;
  // Pool gauge before any stats mutex: lock order must stay acyclic.
  out.queue_depth = workers_.queue_depth();
  out.max_queue_depth = max_queue_depth_.load(std::memory_order_acquire);
  out.max_pending = config_.max_pending;
  out.unknown_stream_requests =
      unknown_stream_requests_.load(std::memory_order_relaxed);

  // Per-stream snapshots taken one at a time (never two stats mutexes at
  // once), then summed — the reconciliation invariant is structural.
  std::unordered_set<const fairms::ModelManager*> managers;
  const auto streams = registry_.all();
  out.streams.reserve(streams.size());
  for (const auto& stream : streams) {
    StreamStats s = stream->stats();
    out.label_requests += s.label_requests;
    out.lookup_requests += s.lookup_requests;
    out.recommend_requests += s.recommend_requests;
    out.label_answered += s.label_answered;
    out.lookup_answered += s.lookup_answered;
    out.recommend_answered += s.recommend_answered;
    out.label_shed += s.label_shed;
    out.lookup_shed += s.lookup_shed;
    out.recommend_shed += s.recommend_shed;
    out.label_failed += s.label_failed;
    out.lookup_failed += s.lookup_failed;
    out.recommend_failed += s.recommend_failed;
    out.samples_labeled += s.samples_labeled;
    out.labels_reused += s.labels_reused;
    out.labels_computed += s.labels_computed;
    out.busy_seconds += s.busy_seconds;
    out.max_request_seconds =
        std::max(out.max_request_seconds, s.max_request_seconds);
    out.retrain_checks += s.retrain_checks;
    out.retrains += s.retrains;
    out.retrains_coalesced += s.retrains_coalesced;
    out.retrains_capped += s.retrains_capped;
    out.policy_cooldown_skips += s.policy_cooldown_skips;
    if (stream->name == kDefaultStreamName || streams.size() == 1) {
      out.store_shards = s.store_shards;
    }
    if (stream->manager != nullptr) managers.insert(stream->manager);
    out.streams.push_back(std::move(s));
  }
  // Model-plane cache gauges, deduplicated by manager so tenants sharing
  // one zoo are not double-counted.
  for (const fairms::ModelManager* manager : managers) {
    const auto cache = manager->zoo().cache().stats();
    out.model_cache_hits += cache.hits;
    out.model_cache_misses += cache.misses;
    out.model_cache_evictions += cache.evictions;
    out.model_cache_bytes += cache.resident_bytes;
  }
  return out;
}

}  // namespace fairdms::service
