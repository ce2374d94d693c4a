// DataService — the multi-client, multi-stream serving facade over fairDS
// (the ROADMAP's "heavy traffic from many clients" north star, and the
// serving framing of the FAIR-models follow-up, arXiv:2207.00611).
//
// One service = N named streams (the paper's concurrent instruments:
// tomography, CookieBox, Bragg/HEDM). Each stream is an independent
// tenant — its own FairDS/collection/snapshot chain, ModelManager slice,
// RetrainPolicy, retrain executor, and admission ledger — registered in a
// StreamRegistry whose name->stream route is lock-free (see
// stream_registry.hpp). Every user-plane DTO carries a `stream` id; an
// empty id maps to kDefaultStreamName (what the legacy single-stream
// constructor registers, and what wire-v1 peers resolve to).
//
// Two planes per stream, shared worker pool:
//  * User plane: submit(request, done) routes the request to its stream,
//    enqueues it on the shared worker pool, and calls `done` with the
//    response when the request finishes — the completion callback is the
//    primitive, and submit(request) is a thin std::future adapter over it.
//    Each request loads that stream's current immutable snapshot and runs
//    lock-free against it. Admission is two-level: the per-stream bound
//    (StreamConfig::max_pending) sheds a single saturated tenant without
//    touching the others, then the service-wide bound
//    (DataServiceConfig::max_pending) sheds when the whole facility is
//    full. Both shed with a kShedOverload response delivered before
//    submit() returns — never by blocking the submitter. A request naming
//    an unregistered stream is answered the same way with kUnknownStream
//    (a structured status, not an abort).
//  * System plane: each stream owns a dedicated single-thread retrain
//    executor, so one tenant's retrain storm serializes behind its own
//    executor and never queues in front of another tenant's checks. At
//    most one check per stream is in flight (extras coalesce), and a
//    service-wide cap (max_concurrent_retrains) bounds how many streams
//    may retrain at once on a small host. The fig16 uncertainty trigger
//    runs as a per-stream RetrainPolicy: after a label request completes,
//    the policy's min-new-samples / cooldown gates decide whether to
//    enqueue a certainty check at the policy's threshold.
//
// Lifetime: every registered FairDS (and anything a ModelManager points
// at) must outlive the service. The destructor drains all planes.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "service/dtos.hpp"
#include "service/stream_registry.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace fairdms::service {

struct DataServiceConfig {
  /// User-plane worker threads; 0 => max(2, hardware_concurrency) so even
  /// single-core hosts overlap request execution with client submission.
  std::size_t workers = 0;
  /// Legacy single-stream switch: when true, the one-stream constructor
  /// registers its default stream with RetrainPolicy{.auto_trigger = true}
  /// (threshold/cooldown/min-samples at their permissive defaults, exactly
  /// the pre-policy behavior). Ignored by the multi-stream constructor —
  /// pass per-stream policies through add_stream instead.
  bool auto_retrain = false;
  /// Declared shard count of the default stream's sample collection; 0 =>
  /// don't care. Checked at registration against the FairDS's actual
  /// collection, failing loudly when a deployment assumed ingest
  /// parallelism the store was not built with. (Per-stream analogue:
  /// StreamConfig::store_shards.)
  std::size_t store_shards = 0;
  /// Declared storage engine of the default stream's collection ("mem" |
  /// "log"); empty => don't care. Checked like store_shards.
  std::string storage_engine = "";
  /// Re-budgets the default stream's model-plane cache at registration
  /// (requires a ModelManager). 0 => leave the zoo's budget as configured.
  std::size_t model_cache_bytes = 0;
  /// Service-wide admission bound: user-plane requests admitted (across
  /// all streams) but not yet picked up by a worker. 0 => unbounded.
  /// Requests already executing don't count, so total in-service work is
  /// at most `workers + max_pending`.
  std::size_t max_pending = 0;
  /// Service-wide cap on streams retraining concurrently (each stream
  /// already serializes its own checks). 0 => unbounded. A capped attempt
  /// is counted (StreamStats::retrains_capped) and dropped, exactly like
  /// a coalesced one — the next qualifying trigger retries.
  std::size_t max_concurrent_retrains = 0;
};

class DataService {
 public:
  /// Legacy single-stream service: registers `ds` as kDefaultStreamName
  /// with the config's declared-shards/engine/cache-budget checks and (when
  /// auto_retrain) the permissive-default RetrainPolicy. `manager` is
  /// optional and only needed for RecommendRequest.
  explicit DataService(fairds::FairDS& ds, DataServiceConfig config = {},
                       const fairms::ModelManager* manager = nullptr);
  /// Multi-stream service: starts with an empty registry; add_stream()
  /// tenants before (or while) serving.
  explicit DataService(DataServiceConfig config);
  ~DataService();

  DataService(const DataService&) = delete;
  DataService& operator=(const DataService&) = delete;

  // --- stream registry ------------------------------------------------------
  /// Registers a tenant. False when the name is taken. Thread-safe against
  /// concurrent submits (registration is copy-on-write; routing stays
  /// lock-free).
  bool add_stream(const std::string& name, fairds::FairDS& ds,
                  StreamConfig config = {},
                  const fairms::ModelManager* manager = nullptr);
  /// Empty `name` is the default-stream alias, here and everywhere below.
  [[nodiscard]] bool has_stream(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> stream_names() const;

  // --- user plane -----------------------------------------------------------
  /// Completion callback of the callback-form submit(). Runs exactly once
  /// per request and never under a service lock: on the submitting thread,
  /// before submit() returns, for a shed or unknown-stream request; on a
  /// worker otherwise (after a label request's RetrainPolicy gate).
  /// `error` is set only when the request's own code (a LabelRequest's
  /// fallback_labeler) threw; `response` is then default-constructed and
  /// the request is counted in its op's `*_failed` ledger, neither
  /// answered nor shed. Must not throw.
  template <typename Response>
  using Done =
      std::function<void(Response response, std::exception_ptr error)>;

  void submit(LabelRequest request, Done<LabelResponse> done);
  void submit(LookupRequest request, Done<LookupResponse> done);
  void submit(RecommendRequest request, Done<RecommendResponse> done);

  /// Future adapters over the callback form: a shed or unknown-stream
  /// future is ready at return, and an exception from the request's own
  /// code comes out of get().
  [[nodiscard]] std::future<LabelResponse> submit(LabelRequest request);
  [[nodiscard]] std::future<LookupResponse> submit(LookupRequest request);
  [[nodiscard]] std::future<RecommendResponse> submit(
      RecommendRequest request);

  // --- system plane ---------------------------------------------------------
  /// Enqueues an async certainty check (and retrain, if certainty is below
  /// the stream's policy threshold — or its FairDS threshold when the
  /// policy leaves it 0) on a copy of `xs`, on that stream's own executor.
  /// Returns false when coalesced (a check is already in flight), capped
  /// (max_concurrent_retrains reached), or the stream is unknown; `xs` is
  /// not copied in any of those cases. Never blocks on training.
  bool request_retrain(const std::string& stream, const Tensor& xs);
  /// Default-stream shorthand (the legacy call sites).
  bool request_retrain(const Tensor& xs) { return request_retrain("", xs); }
  [[nodiscard]] bool retrain_in_flight() const;
  [[nodiscard]] bool retrain_in_flight(const std::string& stream) const;

  /// Blocks until all planes are idle (all submitted requests answered,
  /// no retrain in flight on any stream).
  void wait_idle();

  /// Global aggregates (computed as sums over streams at read time, so
  /// global == sum-over-streams holds by construction) plus the
  /// per-stream breakdown in `streams`.
  [[nodiscard]] ServiceStats stats() const;
  /// One stream's counters; default-constructed stats for an unknown name.
  [[nodiscard]] StreamStats stream_stats(const std::string& stream) const;
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// The snapshot `stream`'s queries currently serve against (nullptr for
  /// an unknown stream or before its first train). The wire front-end
  /// validates untrusted batch shapes against the *target stream's*
  /// snapshot before a request can reach an invariant-checked service
  /// path — which is also what lets tenants serve different image sizes.
  [[nodiscard]] std::shared_ptr<const fairds::Snapshot> snapshot(
      const std::string& stream) const;
  [[nodiscard]] std::shared_ptr<const fairds::Snapshot> snapshot() const {
    return snapshot("");
  }
  /// Whether RecommendRequest is servable on `stream` (a ModelManager was
  /// attached at registration).
  [[nodiscard]] bool has_model_manager(const std::string& stream) const;
  [[nodiscard]] bool has_model_manager() const {
    return has_model_manager("");
  }

 private:
  /// The one user-plane request path behind every submit(): route, count,
  /// admit, then on a worker execute, account and call `done`.
  template <typename Request, typename Response>
  void serve(Request request, Done<Response> done);
  /// Two-level admission: reserve a per-stream pending slot (CAS against
  /// the stream bound), false => per-stream shed.
  static bool reserve_pending(Stream& stream);
  /// The fig16 policy gate, evaluated after an answered label request.
  void maybe_auto_retrain(const std::shared_ptr<Stream>& stream,
                          const Tensor& xs);
  bool request_retrain_on(const std::shared_ptr<Stream>& stream,
                          const Tensor& xs);

  DataServiceConfig config_;
  StreamRegistry registry_;

  /// Streams currently running a retrain (the max_concurrent_retrains
  /// ledger) and requests that named an unknown stream.
  std::atomic<std::size_t> retrains_in_flight_{0};
  std::atomic<std::uint64_t> unknown_stream_requests_{0};
  /// Service-wide queue-depth high-water (sampled at each admission, like
  /// the per-stream marks but over the shared pool's queue).
  std::atomic<std::uint64_t> max_queue_depth_{0};

  // Pool last: its destructor runs first and drains queued tasks, which
  // may still touch the members above.
  util::ThreadPool workers_;
};

}  // namespace fairdms::service
