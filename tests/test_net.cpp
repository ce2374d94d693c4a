// Wire serving front-end tests: codec round-trips over randomized DTOs
// (bit-exact floats), frame-header validation, the malformed-frame
// hardening suite driven over real sockets against a live server
// (truncated header, bad magic, oversized declared length, unknown op,
// garbage payload, wrong version, invalid tensor shape — the server
// answers kMalformedRequest or closes cleanly, never crashes), wire-level
// admission shedding (kShedOverload with an empty payload, answered in
// O(1) while the workers are wedged), out-of-order responses matched by
// correlation id, the graceful drain protocol (in-flight requests
// complete, new user-plane frames get kShuttingDown, stats stays up), and
// the completion path's threading (the Server adds one thread; a Server
// destroyed right after a reply outlives the callback that sent it).
// Carries the `service` label: the TSan CI job and the Release
// `--repeat until-fail:3` stress step run exactly this kind of suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "datagen/bragg.hpp"
#include "fairds/fairds.hpp"
#include "fairms/zoo.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/data_service.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

using tensor::Tensor;

Tensor random_tensor(util::Rng& rng, std::vector<std::size_t> shape) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(-10.0, 10.0));
  }
  return t;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.rank() != b.rank() || a.numel() != b.numel()) return false;
  for (std::size_t i = 0; i < a.rank(); ++i) {
    if (a.dim(i) != b.dim(i)) return false;
  }
  return a.numel() == 0 ||
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// --- codec round trips ------------------------------------------------------

TEST(WireCodec, PrimitiveRoundTripIsBitExact) {
  util::Rng rng(7);
  net::WireWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.f32(-0.0f);
  w.f64(1e-308);  // subnormal-adjacent: survives only as a bit pattern
  w.str("fairdms");
  const Tensor t = random_tensor(rng, {2, 1, 3, 3});
  w.tensor(t);
  w.pdf({0.25, 0.5, 0.25});
  const net::Bytes bytes = w.take();

  net::WireReader r(bytes);
  std::uint8_t v8;
  std::uint16_t v16;
  std::uint32_t v32;
  std::uint64_t v64;
  float vf;
  double vd;
  std::string s;
  Tensor t2;
  std::vector<double> pdf;
  ASSERT_TRUE(r.u8(&v8));
  ASSERT_TRUE(r.u16(&v16));
  ASSERT_TRUE(r.u32(&v32));
  ASSERT_TRUE(r.u64(&v64));
  ASSERT_TRUE(r.f32(&vf));
  ASSERT_TRUE(r.f64(&vd));
  ASSERT_TRUE(r.str(&s));
  ASSERT_TRUE(r.tensor(&t2));
  ASSERT_TRUE(r.pdf(&pdf));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(v8, 0xab);
  EXPECT_EQ(v16, 0xbeef);
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefull);
  EXPECT_TRUE(std::signbit(vf) && vf == 0.0f);
  EXPECT_EQ(vd, 1e-308);
  EXPECT_EQ(s, "fairdms");
  EXPECT_TRUE(bit_equal(t, t2));
  EXPECT_EQ(pdf, (std::vector<double>{0.25, 0.5, 0.25}));
}

TEST(WireCodec, RandomizedDtoRoundTrips) {
  util::Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(6);

    service::LabelRequest label_req{random_tensor(rng, {n, 1, 15, 15}),
                                    rng.uniform(0.0, 2.0), nullptr};
    service::LabelRequest label_req2;
    ASSERT_TRUE(net::decode_label_request(net::encode_label_request(label_req),
                                          &label_req2));
    EXPECT_TRUE(bit_equal(label_req.xs, label_req2.xs));
    EXPECT_EQ(label_req.threshold, label_req2.threshold);

    service::LabelResponse label_resp;
    label_resp.batch.xs = random_tensor(rng, {n, 1, 15, 15});
    label_resp.batch.ys = random_tensor(rng, {n, 2});
    label_resp.reuse = {rng.uniform_index(100), rng.uniform_index(100)};
    label_resp.snapshot_version = rng.uniform_index(1000);
    label_resp.seconds = rng.uniform(0.0, 1.0);
    service::LabelResponse label_resp2;
    ASSERT_TRUE(net::decode_label_response(
        net::encode_label_response(label_resp), &label_resp2));
    EXPECT_TRUE(bit_equal(label_resp.batch.xs, label_resp2.batch.xs));
    EXPECT_TRUE(bit_equal(label_resp.batch.ys, label_resp2.batch.ys));
    EXPECT_EQ(label_resp.reuse.reused, label_resp2.reuse.reused);
    EXPECT_EQ(label_resp.reuse.computed, label_resp2.reuse.computed);
    EXPECT_EQ(label_resp.snapshot_version, label_resp2.snapshot_version);
    EXPECT_EQ(label_resp.seconds, label_resp2.seconds);

    service::LookupRequest lookup_req{random_tensor(rng, {n, 1, 15, 15}),
                                      rng.uniform_index(1u << 30)};
    service::LookupRequest lookup_req2;
    ASSERT_TRUE(net::decode_lookup_request(
        net::encode_lookup_request(lookup_req), &lookup_req2));
    EXPECT_TRUE(bit_equal(lookup_req.xs, lookup_req2.xs));
    EXPECT_EQ(lookup_req.seed, lookup_req2.seed);

    service::RecommendRequest rec_req{"braggnn_" + std::to_string(trial),
                                      random_tensor(rng, {n, 1, 15, 15})};
    service::RecommendRequest rec_req2;
    ASSERT_TRUE(net::decode_recommend_request(
        net::encode_recommend_request(rec_req), &rec_req2));
    EXPECT_EQ(rec_req.architecture, rec_req2.architecture);
    EXPECT_TRUE(bit_equal(rec_req.xs, rec_req2.xs));

    service::RecommendResponse rec_resp;
    if (trial % 2 == 0) {
      rec_resp.pick = fairms::Ranked{rng.uniform_index(1u << 20),
                                     rng.uniform(0.0, 1.0)};
    }
    rec_resp.pdf = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    rec_resp.snapshot_version = rng.uniform_index(1000);
    rec_resp.seconds = rng.uniform(0.0, 1.0);
    service::RecommendResponse rec_resp2;
    ASSERT_TRUE(net::decode_recommend_response(
        net::encode_recommend_response(rec_resp), &rec_resp2));
    EXPECT_EQ(rec_resp.pick.has_value(), rec_resp2.pick.has_value());
    if (rec_resp.pick) {
      EXPECT_EQ(rec_resp.pick->model_id, rec_resp2.pick->model_id);
      EXPECT_EQ(rec_resp.pick->distance, rec_resp2.pick->distance);
    }
    EXPECT_EQ(rec_resp.pdf, rec_resp2.pdf);
  }
}

TEST(WireCodec, StatsResponseRoundTripsEveryField) {
  util::Rng rng(9);
  service::ServiceStats s;
  // Fill every counter with a distinct value so a swapped field pair in
  // either codec half cannot cancel out.
  std::uint64_t next = 1000;
  for (std::uint64_t* field :
       {&s.label_requests, &s.lookup_requests, &s.recommend_requests,
        &s.label_answered, &s.lookup_answered, &s.recommend_answered,
        &s.label_shed, &s.lookup_shed, &s.recommend_shed, &s.queue_depth,
        &s.max_queue_depth, &s.max_pending, &s.samples_labeled,
        &s.labels_reused, &s.labels_computed, &s.retrain_checks, &s.retrains,
        &s.retrains_coalesced, &s.store_shards, &s.model_cache_hits,
        &s.model_cache_misses, &s.model_cache_evictions,
        &s.model_cache_bytes, &s.label_failed, &s.lookup_failed,
        &s.recommend_failed}) {
    *field = next++;
  }
  s.busy_seconds = rng.uniform(0.0, 100.0);
  s.max_request_seconds = rng.uniform(0.0, 10.0);

  service::ServiceStats s2;
  ASSERT_TRUE(net::decode_stats_response(net::encode_stats_response(s), &s2));
  EXPECT_EQ(s.label_requests, s2.label_requests);
  EXPECT_EQ(s.lookup_requests, s2.lookup_requests);
  EXPECT_EQ(s.recommend_requests, s2.recommend_requests);
  EXPECT_EQ(s.label_answered, s2.label_answered);
  EXPECT_EQ(s.lookup_answered, s2.lookup_answered);
  EXPECT_EQ(s.recommend_answered, s2.recommend_answered);
  EXPECT_EQ(s.label_shed, s2.label_shed);
  EXPECT_EQ(s.lookup_shed, s2.lookup_shed);
  EXPECT_EQ(s.recommend_shed, s2.recommend_shed);
  EXPECT_EQ(s.queue_depth, s2.queue_depth);
  EXPECT_EQ(s.max_queue_depth, s2.max_queue_depth);
  EXPECT_EQ(s.max_pending, s2.max_pending);
  EXPECT_EQ(s.samples_labeled, s2.samples_labeled);
  EXPECT_EQ(s.labels_reused, s2.labels_reused);
  EXPECT_EQ(s.labels_computed, s2.labels_computed);
  EXPECT_EQ(s.busy_seconds, s2.busy_seconds);
  EXPECT_EQ(s.max_request_seconds, s2.max_request_seconds);
  EXPECT_EQ(s.retrain_checks, s2.retrain_checks);
  EXPECT_EQ(s.retrains, s2.retrains);
  EXPECT_EQ(s.retrains_coalesced, s2.retrains_coalesced);
  EXPECT_EQ(s.store_shards, s2.store_shards);
  EXPECT_EQ(s.model_cache_hits, s2.model_cache_hits);
  EXPECT_EQ(s.model_cache_misses, s2.model_cache_misses);
  EXPECT_EQ(s.model_cache_evictions, s2.model_cache_evictions);
  EXPECT_EQ(s.model_cache_bytes, s2.model_cache_bytes);
  EXPECT_EQ(s.label_failed, s2.label_failed);
  EXPECT_EQ(s.lookup_failed, s2.lookup_failed);
  EXPECT_EQ(s.recommend_failed, s2.recommend_failed);
}

TEST(WireCodec, FrameHeaderRoundTripAndRejection) {
  const net::Bytes payload = {1, 2, 3};
  const net::Bytes frame = net::encode_frame(
      net::Op::kLookup, service::ServeStatus::kShedOverload, 0xfeedface, payload);
  ASSERT_EQ(frame.size(), net::kHeaderSize + payload.size());
  const auto header = net::decode_header(frame);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->version, net::kProtocolVersion);
  EXPECT_EQ(header->op, static_cast<std::uint8_t>(net::Op::kLookup));
  EXPECT_EQ(header->status, service::ServeStatus::kShedOverload);
  EXPECT_EQ(header->correlation_id, 0xfeedfaceu);
  EXPECT_EQ(header->payload_len, payload.size());

  // Too short.
  EXPECT_FALSE(net::decode_header(
                   std::span<const std::uint8_t>(frame.data(), 7))
                   .has_value());
  // Bad magic.
  net::Bytes bad_magic = frame;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(net::decode_header(bad_magic).has_value());
  // Status byte outside the ServeStatus range.
  net::Bytes bad_status = frame;
  bad_status[7] = 200;
  EXPECT_FALSE(net::decode_header(bad_status).has_value());
}

TEST(WireCodec, DecodersRejectTruncationAndTrailingGarbage) {
  util::Rng rng(5);
  const service::LabelRequest req{random_tensor(rng, {2, 1, 15, 15}), 0.5,
                                  nullptr};
  const net::Bytes good = net::encode_label_request(req);
  service::LabelRequest out;
  // Every proper prefix must be rejected (bounds-checked, never crash).
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(net::decode_label_request(
        std::span<const std::uint8_t>(good.data(), len), &out))
        << "prefix length " << len;
  }
  // Full consumption required: one trailing byte is malformed.
  net::Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(net::decode_label_request(trailing, &out));
}

TEST(WireCodec, TensorDecodeRejectsAbsurdShapes) {
  service::RetrainRequest out;
  {
    net::WireWriter w;  // rank over the cap
    w.u32(9);
    EXPECT_FALSE(net::decode_retrain_request(w.take(), &out));
  }
  {
    net::WireWriter w;  // dims whose product overflows / exceeds the payload
    w.u32(2);
    w.u64(0xffffffffffffull);
    w.u64(0xffffffffffffull);
    EXPECT_FALSE(net::decode_retrain_request(w.take(), &out));
  }
  {
    net::WireWriter w;  // declared elements not backed by payload bytes
    w.u32(1);
    w.u64(1000);
    w.f32(1.0f);
    EXPECT_FALSE(net::decode_retrain_request(w.take(), &out));
  }
}

TEST(WireCodec, V2StreamFieldRoundTripsAndV1StaysByteIdentical) {
  util::Rng rng(13);
  service::LabelRequest req{random_tensor(rng, {3, 1, 15, 15}), 0.7, nullptr,
                            "cookiebox"};

  // v2 carries the stream id...
  service::LabelRequest out;
  ASSERT_TRUE(net::decode_label_request(net::encode_label_request(req, 2),
                                        &out, 2));
  EXPECT_EQ(out.stream, "cookiebox");

  // ...v1 encodes without it (and decodes to the default-stream alias), and
  // the v1 body is a byte-identical prefix of the v2 body.
  const net::Bytes v1 = net::encode_label_request(req, 1);
  const net::Bytes v2 = net::encode_label_request(req, 2);
  ASSERT_LT(v1.size(), v2.size());
  EXPECT_EQ(0, std::memcmp(v1.data(), v2.data(), v1.size()));
  ASSERT_TRUE(net::decode_label_request(v1, &out, 1));
  EXPECT_TRUE(out.stream.empty());

  // Version mismatches between codec halves are malformed, not misread:
  // a v1 decoder must not accept the longer v2 body, and a v2 decoder must
  // not accept the stream-less v1 body.
  EXPECT_FALSE(net::decode_label_request(v2, &out, 1));
  EXPECT_FALSE(net::decode_label_request(v1, &out, 2));

  service::LookupRequest lookup{random_tensor(rng, {2, 1, 15, 15}), 9,
                                "tomo"};
  service::LookupRequest lookup_out;
  ASSERT_TRUE(net::decode_lookup_request(
      net::encode_lookup_request(lookup, 2), &lookup_out, 2));
  EXPECT_EQ(lookup_out.stream, "tomo");

  service::RecommendRequest rec{"braggnn", random_tensor(rng, {2, 1, 15, 15}),
                                "bragg"};
  service::RecommendRequest rec_out;
  ASSERT_TRUE(net::decode_recommend_request(
      net::encode_recommend_request(rec, 2), &rec_out, 2));
  EXPECT_EQ(rec_out.architecture, "braggnn");
  EXPECT_EQ(rec_out.stream, "bragg");

  service::RetrainRequest retrain{random_tensor(rng, {2, 1, 15, 15}),
                                  "bragg"};
  service::RetrainRequest retrain_out;
  ASSERT_TRUE(net::decode_retrain_request(
      net::encode_retrain_request(retrain, 2), &retrain_out, 2));
  EXPECT_EQ(retrain_out.stream, "bragg");
}

TEST(WireCodec, StatsV2CarriesPerStreamBlocksV1AggregatesOnly) {
  service::ServiceStats s;
  s.label_requests = 10;
  s.label_answered = 8;
  s.label_shed = 2;
  s.retrains_capped = 3;
  s.policy_cooldown_skips = 4;
  s.unknown_stream_requests = 5;
  for (const char* name : {"bragg", "cookiebox"}) {
    service::StreamStats ss;
    ss.stream = name;
    std::uint64_t next = name[0];  // distinct per stream and field
    for (std::uint64_t* field :
         {&ss.label_requests, &ss.lookup_requests, &ss.recommend_requests,
          &ss.label_answered, &ss.lookup_answered, &ss.recommend_answered,
          &ss.label_shed, &ss.lookup_shed, &ss.recommend_shed,
          &ss.queue_depth, &ss.max_queue_depth, &ss.max_pending,
          &ss.samples_labeled, &ss.labels_reused, &ss.labels_computed,
          &ss.retrain_checks, &ss.retrains, &ss.retrains_coalesced,
          &ss.retrains_capped, &ss.policy_cooldown_skips,
          &ss.snapshot_version, &ss.store_shards, &ss.label_failed,
          &ss.lookup_failed, &ss.recommend_failed}) {
      *field = next++;
    }
    ss.busy_seconds = 1.5;
    ss.max_request_seconds = 0.25;
    s.streams.push_back(std::move(ss));
  }

  service::ServiceStats v2;
  ASSERT_TRUE(net::decode_stats_response(net::encode_stats_response(s, 2),
                                         &v2, 2));
  EXPECT_EQ(v2.retrains_capped, 3u);
  EXPECT_EQ(v2.policy_cooldown_skips, 4u);
  EXPECT_EQ(v2.unknown_stream_requests, 5u);
  ASSERT_EQ(v2.streams.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const service::StreamStats& a = s.streams[i];
    const service::StreamStats& b = v2.streams[i];
    EXPECT_EQ(a.stream, b.stream);
    EXPECT_EQ(a.label_requests, b.label_requests);
    EXPECT_EQ(a.lookup_answered, b.lookup_answered);
    EXPECT_EQ(a.recommend_shed, b.recommend_shed);
    EXPECT_EQ(a.max_pending, b.max_pending);
    EXPECT_EQ(a.labels_computed, b.labels_computed);
    EXPECT_EQ(a.busy_seconds, b.busy_seconds);
    EXPECT_EQ(a.max_request_seconds, b.max_request_seconds);
    EXPECT_EQ(a.retrains_capped, b.retrains_capped);
    EXPECT_EQ(a.policy_cooldown_skips, b.policy_cooldown_skips);
    EXPECT_EQ(a.snapshot_version, b.snapshot_version);
    EXPECT_EQ(a.store_shards, b.store_shards);
    EXPECT_EQ(a.label_failed, b.label_failed);
    EXPECT_EQ(a.lookup_failed, b.lookup_failed);
    EXPECT_EQ(a.recommend_failed, b.recommend_failed);
  }

  // A v1 peer gets the 25-field aggregate body: decodes cleanly, carries no
  // per-stream blocks, and is a byte-identical prefix of the v2 body.
  const net::Bytes v1_bytes = net::encode_stats_response(s, 1);
  const net::Bytes v2_bytes = net::encode_stats_response(s, 2);
  ASSERT_LT(v1_bytes.size(), v2_bytes.size());
  EXPECT_EQ(0, std::memcmp(v1_bytes.data(), v2_bytes.data(), v1_bytes.size()));
  service::ServiceStats v1_stats;
  ASSERT_TRUE(net::decode_stats_response(v1_bytes, &v1_stats, 1));
  EXPECT_EQ(v1_stats.label_requests, 10u);
  EXPECT_TRUE(v1_stats.streams.empty());
  EXPECT_EQ(v1_stats.unknown_stream_requests, 0u);
}

TEST(WireCodec, StatusAndOpNamesAreExhaustive) {
  EXPECT_STREQ(service::to_string(service::ServeStatus::kOk), "ok");
  EXPECT_STREQ(service::to_string(service::ServeStatus::kShedOverload),
               "shed_overload");
  EXPECT_STREQ(service::to_string(service::ServeStatus::kMalformedRequest),
               "malformed_request");
  EXPECT_STREQ(service::to_string(service::ServeStatus::kShuttingDown),
               "shutting_down");
  EXPECT_STREQ(service::to_string(service::ServeStatus::kUnknownStream),
               "unknown_stream");
  EXPECT_STREQ(net::to_string(net::Op::kHello), "hello");
  EXPECT_STREQ(net::to_string(net::Op::kStats), "stats");
  EXPECT_STREQ(net::to_string(static_cast<net::Op>(250)), "unknown");
}

// --- live-server fixture ----------------------------------------------------

fairds::FairDSConfig small_config() {
  fairds::FairDSConfig config;
  config.embedding_algorithm = "byol";
  config.embedding_dim = 8;
  config.image_size = 15;
  config.n_clusters = 4;
  config.embed_train.epochs = 3;
  config.embed_train.batch_size = 24;
  config.certainty_threshold = 0.55;
  config.seed = 91;
  return config;
}

nn::Batchset regime_data(double drift, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  datagen::BraggRegime regime;
  regime.sigma_major_mean *= 1.0 + drift;
  regime.eta_mean = std::min(0.95, regime.eta_mean + drift * 0.5);
  return datagen::make_bragg_batchset(regime, {}, n, rng);
}

Tensor zero_labeler(const Tensor& xs) { return Tensor({xs.dim(0), 2}); }

/// Wedges the service's fallback-labeler path until released, so tests can
/// hold a worker busy deterministically (the WorkerGate idiom, applied to
/// the server-side labeler policy).
struct LabelerGate {
  std::promise<void> release;
  std::shared_future<void> opened = release.get_future().share();
  std::atomic<int> entered{0};

  std::function<Tensor(const Tensor&)> labeler() {
    return [this](const Tensor& xs) {
      ++entered;
      opened.wait();
      return Tensor({xs.dim(0), 2});
    };
  }
  void wait_entered(int n = 1) {
    while (entered.load() < n) std::this_thread::yield();
  }
  void open() { release.set_value(); }
};

class NetFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    history_ = regime_data(0.0, 96, 101);
    ds_ = std::make_unique<fairds::FairDS>(small_config(), db_);
    ds_->train_system(history_.xs);
    ds_->ingest(history_.xs, history_.ys, "history_0");
    zoo_ = std::make_unique<fairms::ModelZoo>(db_);
    for (int m = 0; m < 2; ++m) {
      zoo_->publish("braggnn", "seed_" + std::to_string(m),
                    ds_->distribution(regime_data(0.0, 16, 200 + m).xs),
                    std::vector<std::uint8_t>(64, 0x42));
    }
    manager_ = std::make_unique<fairms::ModelManager>(*zoo_, 1.0);
  }

  /// A served DataService + Server pair. Small max_payload so the
  /// oversized-frame test does not need to ship megabytes.
  struct Served {
    std::unique_ptr<service::DataService> service;
    std::unique_ptr<net::Server> server;
  };
  Served serve(service::DataServiceConfig config,
               std::function<Tensor(const Tensor&)> labeler = zero_labeler) {
    Served s;
    s.service = std::make_unique<service::DataService>(*ds_, config,
                                                       manager_.get());
    net::ServerConfig server_config;
    server_config.max_payload = 1u << 20;
    server_config.fallback_labeler = std::move(labeler);
    s.server = std::make_unique<net::Server>(*s.service, server_config);
    EXPECT_TRUE(s.server->ok());
    EXPECT_NE(s.server->port(), 0);
    return s;
  }

  store::DocStore db_;
  nn::Batchset history_;
  std::unique_ptr<fairds::FairDS> ds_;
  std::unique_ptr<fairms::ModelZoo> zoo_;
  std::unique_ptr<fairms::ModelManager> manager_;
};

TEST_F(NetFixture, EndToEndRoundTripsMatchInProcessResults) {
  auto served = serve({.workers = 2});
  net::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", served.server->port()));
  EXPECT_EQ(client.server_limits().version, net::kProtocolVersion);

  const nn::Batchset query = regime_data(0.0, 8, 102);

  const auto label = client.label({query.xs, 1e9, nullptr});
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(label->status, service::ServeStatus::kOk);
  fairds::ReuseStats direct_stats;
  (void)ds_->lookup_or_label(query.xs, 1e9, zero_labeler, &direct_stats);
  EXPECT_EQ(label->reuse.reused, direct_stats.reused);
  EXPECT_EQ(label->reuse.computed, direct_stats.computed);
  EXPECT_EQ(label->snapshot_version, ds_->snapshot()->version());
  EXPECT_EQ(label->batch.ys.dim(0), query.xs.dim(0));

  const auto lookup = client.lookup({query.xs, 7});
  ASSERT_TRUE(lookup.has_value());
  EXPECT_EQ(lookup->status, service::ServeStatus::kOk);
  EXPECT_EQ(lookup->batch.xs.dim(0), query.xs.dim(0));

  const auto recommend = client.recommend({"braggnn", query.xs});
  ASSERT_TRUE(recommend.has_value());
  EXPECT_EQ(recommend->status, service::ServeStatus::kOk);
  EXPECT_FALSE(recommend->pdf.empty());

  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->label_requests, 1u);
  EXPECT_EQ(stats->lookup_requests, 1u);
  EXPECT_EQ(stats->recommend_requests, 1u);
  EXPECT_EQ(stats->label_answered, 1u);

  // request_retrain over the wire: accepted, then observable in stats.
  const auto accepted = client.request_retrain(query.xs);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_TRUE(*accepted);
  served.service->wait_idle();
  const auto stats2 = client.stats();
  ASSERT_TRUE(stats2.has_value());
  EXPECT_EQ(stats2->retrain_checks, 1u);

  const auto counters = served.server->counters();
  EXPECT_GE(counters.accepted_connections, 1u);
  EXPECT_EQ(counters.malformed_frames, 0u);
  EXPECT_EQ(counters.frames_in, counters.frames_out);
}

TEST_F(NetFixture, MalformedFramesAreAnsweredOrClosedNeverFatal) {
  auto served = serve({.workers = 2});
  const std::uint16_t port = served.server->port();

  const auto expect_server_alive = [&] {
    net::Client probe;
    ASSERT_TRUE(probe.connect("127.0.0.1", port));
    EXPECT_TRUE(probe.stats().has_value());
  };

  {  // Truncated header, then EOF: connection dropped, server unharmed.
    const int fd = net::connect_to("127.0.0.1", port);
    ASSERT_GE(fd, 0);
    const std::uint8_t partial[7] = {0x46, 0x44, 0x4d, 0x53, 1, 0, 0};
    EXPECT_TRUE(net::write_all(fd, partial, sizeof(partial)));
    ::close(fd);
    expect_server_alive();
  }

  {  // Bad magic: the stream is unsynced — server closes the connection.
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    net::Bytes junk(net::kHeaderSize, 0x5a);
    ASSERT_TRUE(client.send_raw(junk));
    EXPECT_FALSE(client.recv_reply().has_value());  // clean EOF, no reply
    expect_server_alive();
  }

  {  // Declared payload over the server's cap: error reply, then close —
     // the server never buffers a byte of it.
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    net::WireWriter w;
    w.u32(net::kMagic);
    w.u16(net::kProtocolVersion);
    w.u8(static_cast<std::uint8_t>(net::Op::kLabel));
    w.u8(0);
    w.u64(77);
    w.u32((1u << 20) + 1);
    ASSERT_TRUE(client.send_raw(w.take()));
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.status, service::ServeStatus::kMalformedRequest);
    EXPECT_EQ(reply->header.correlation_id, 77u);
    EXPECT_EQ(reply->payload.size(), 0u);
    EXPECT_FALSE(client.recv_reply().has_value());  // then EOF
    expect_server_alive();
  }

  {  // Wrong protocol version: error reply, then close.
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    net::WireWriter w;
    w.u32(net::kMagic);
    w.u16(net::kProtocolVersion + 1);
    w.u8(static_cast<std::uint8_t>(net::Op::kStats));
    w.u8(0);
    w.u64(78);
    w.u32(0);
    ASSERT_TRUE(client.send_raw(w.take()));
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.status, service::ServeStatus::kMalformedRequest);
    EXPECT_FALSE(client.recv_reply().has_value());
    expect_server_alive();
  }

  {  // Unknown op with intact framing: answered, connection stays usable.
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    ASSERT_TRUE(client.send_raw(net::encode_frame(
        static_cast<net::Op>(99), service::ServeStatus::kOk, 79, {})));
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.status, service::ServeStatus::kMalformedRequest);
    EXPECT_EQ(reply->header.op, 99);
    EXPECT_EQ(reply->header.correlation_id, 79u);
    EXPECT_TRUE(client.stats().has_value());  // same connection still works
  }

  {  // Garbage payload on a known op: answered, connection stays usable.
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    const net::Bytes garbage = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x11};
    ASSERT_TRUE(client.send_raw(net::encode_frame(
        net::Op::kLabel, service::ServeStatus::kOk, 80, garbage)));
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.status, service::ServeStatus::kMalformedRequest);
    EXPECT_TRUE(client.stats().has_value());
  }

  {  // Well-encoded tensor with a shape the service must never see
     // (rank 2, not [N,1,S,S]): rejected before dispatch.
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    util::Rng rng(3);
    const auto reply =
        client.request_retrain(random_tensor(rng, {4, 4}));
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(*reply);
    EXPECT_TRUE(client.stats().has_value());
  }

  const auto counters = served.server->counters();
  EXPECT_GE(counters.malformed_frames, 6u);
  // Nothing malformed ever reached the service.
  const auto stats = served.service->stats();
  EXPECT_EQ(stats.label_requests, 0u);
  EXPECT_EQ(stats.recommend_requests, 0u);
}

TEST_F(NetFixture, AdmissionShedMapsToWireStatusInO1) {
  LabelerGate gate;
  auto served = serve({.workers = 1, .max_pending = 1}, gate.labeler());
  net::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", served.server->port()));

  const nn::Batchset query = regime_data(0.0, 4, 103);
  // threshold < 0: nothing can reuse, every request runs the gated labeler.
  const std::uint64_t wedge_cid =
      client.send_label({query.xs, -1.0, nullptr});
  ASSERT_NE(wedge_cid, 0u);
  gate.wait_entered();  // the only worker is now wedged

  // One more fits the pending queue; the rest must shed at the wire level
  // with an immediately-ready empty response.
  const std::uint64_t queued_cid =
      client.send_label({query.xs, -1.0, nullptr});
  std::vector<std::uint64_t> shed_cids;
  for (int i = 0; i < 5; ++i) {
    shed_cids.push_back(client.send_label({query.xs, -1.0, nullptr}));
  }
  for (int i = 0; i < 5; ++i) {
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.status, service::ServeStatus::kShedOverload);
    // Shed responses ship a default (empty-batch) body — cheap to encode.
    service::LabelResponse body;
    ASSERT_TRUE(net::decode_label_response(reply->payload, &body));
    EXPECT_EQ(body.batch.xs.numel(), 0u);
    EXPECT_TRUE(std::find(shed_cids.begin(), shed_cids.end(),
                          reply->header.correlation_id) != shed_cids.end());
  }

  gate.open();
  // The wedged and the queued request now complete with kOk.
  std::vector<std::uint64_t> ok_cids;
  for (int i = 0; i < 2; ++i) {
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.status, service::ServeStatus::kOk);
    ok_cids.push_back(reply->header.correlation_id);
  }
  EXPECT_TRUE(std::find(ok_cids.begin(), ok_cids.end(), wedge_cid) !=
              ok_cids.end());
  EXPECT_TRUE(std::find(ok_cids.begin(), ok_cids.end(), queued_cid) !=
              ok_cids.end());

  served.service->wait_idle();
  const auto stats = served.service->stats();
  EXPECT_EQ(stats.label_requests, 7u);
  EXPECT_EQ(stats.label_answered, 2u);
  EXPECT_EQ(stats.label_shed, 5u);
  EXPECT_EQ(served.server->counters().shed_responses, 5u);
}

TEST_F(NetFixture, ResponsesReturnOutOfOrderMatchedByCorrelationId) {
  LabelerGate gate;
  auto served = serve({.workers = 1}, gate.labeler());
  net::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", served.server->port()));

  const nn::Batchset query = regime_data(0.0, 4, 104);
  const std::uint64_t slow_cid =
      client.send_label({query.xs, -1.0, nullptr});
  ASSERT_NE(slow_cid, 0u);
  gate.wait_entered();

  // Pipelined behind the wedged label: stats is served inline by the event
  // loop and must overtake it.
  const std::uint64_t fast_cid = client.send_stats();
  const auto first = client.recv_reply();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.correlation_id, fast_cid);
  EXPECT_EQ(first->header.op, static_cast<std::uint8_t>(net::Op::kStats));

  gate.open();
  const auto second = client.recv_reply();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->header.correlation_id, slow_cid);
  EXPECT_EQ(second->header.status, service::ServeStatus::kOk);
}

TEST_F(NetFixture, GracefulDrainCompletesInFlightAndRefusesNewWork) {
  LabelerGate gate;
  auto served = serve({.workers = 1}, gate.labeler());
  net::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", served.server->port()));

  const nn::Batchset query = regime_data(0.0, 4, 105);
  const std::uint64_t inflight_cid =
      client.send_label({query.xs, -1.0, nullptr});
  ASSERT_NE(inflight_cid, 0u);
  gate.wait_entered();

  served.server->begin_drain();

  // New user-plane work is refused with an explicit status...
  const auto refused = client.label({query.xs, 1e9, nullptr});
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->status, service::ServeStatus::kShuttingDown);
  // ...while observability stays up...
  EXPECT_TRUE(client.stats().has_value());
  EXPECT_GE(served.server->counters().shutdown_responses, 1u);

  // ...and the in-flight request still completes and is flushed.
  gate.open();
  const auto reply = client.recv_reply();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->header.correlation_id, inflight_cid);
  EXPECT_EQ(reply->header.status, service::ServeStatus::kOk);

  served.server->stop();  // idempotent with the destructor
  served.server->stop();
}

TEST_F(NetFixture, ConcurrentClientsStressTheFrontEnd) {
  auto served = serve({.workers = 2});
  const std::uint16_t port = served.server->port();
  constexpr int kClients = 4;
  constexpr int kRequests = 8;

  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::Client client;
      if (!client.connect("127.0.0.1", port)) return;
      const nn::Batchset query = regime_data(0.0, 4, 300 + c);
      for (int i = 0; i < kRequests; ++i) {
        const auto label = client.label({query.xs, 1e9, nullptr});
        if (label && label->status == service::ServeStatus::kOk) ++ok;
        const auto lookup = client.lookup({query.xs, 11});
        if (lookup && lookup->status == service::ServeStatus::kOk) ++ok;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequests * 2);

  served.service->wait_idle();
  const auto stats = served.service->stats();
  EXPECT_EQ(stats.label_requests, stats.label_answered + stats.label_shed);
  EXPECT_EQ(stats.lookup_requests,
            stats.lookup_answered + stats.lookup_shed);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// --- protocol v2: version negotiation + stream routing ----------------------

TEST_F(NetFixture, V1ClientInteroperatesWithV2Server) {
  auto served = serve({.workers = 2});
  net::Client v1_client(/*version=*/1);
  ASSERT_TRUE(v1_client.connect("127.0.0.1", served.server->port()));
  // The hello ack is min(client, server): the server committed to v1.
  EXPECT_EQ(v1_client.server_limits().version, 1u);

  // Every op round-trips in the v1 layout; stream-less frames route to the
  // default stream, exactly like an in-process request with an empty id.
  const nn::Batchset query = regime_data(0.0, 6, 401);
  const auto label = v1_client.label({query.xs, 1e9, nullptr});
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(label->status, service::ServeStatus::kOk);
  EXPECT_EQ(label->batch.ys.dim(0), query.xs.dim(0));

  const auto lookup = v1_client.lookup({query.xs, 5});
  ASSERT_TRUE(lookup.has_value());
  EXPECT_EQ(lookup->status, service::ServeStatus::kOk);

  const auto recommend = v1_client.recommend({"braggnn", query.xs});
  ASSERT_TRUE(recommend.has_value());
  EXPECT_EQ(recommend->status, service::ServeStatus::kOk);

  const auto accepted = v1_client.request_retrain(query.xs);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_TRUE(*accepted);
  served.service->wait_idle();

  // The v1 stats body carries the aggregates only — and they reflect the
  // work this client just did, proving the requests hit the real service.
  const auto stats = v1_client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->label_requests, 1u);
  EXPECT_EQ(stats->lookup_requests, 1u);
  EXPECT_EQ(stats->recommend_requests, 1u);
  EXPECT_EQ(stats->retrain_checks, 1u);
  EXPECT_TRUE(stats->streams.empty());

  // A v2 client on the same server sees the same ledger with the
  // per-stream breakdown attached (the default stream owns all of it).
  net::Client v2_client;
  ASSERT_TRUE(v2_client.connect("127.0.0.1", served.server->port()));
  const auto stats2 = v2_client.stats();
  ASSERT_TRUE(stats2.has_value());
  ASSERT_EQ(stats2->streams.size(), 1u);
  EXPECT_EQ(stats2->streams[0].stream, service::kDefaultStreamName);
  EXPECT_EQ(stats2->streams[0].label_requests, stats->label_requests);
  EXPECT_EQ(stats2->streams[0].retrain_checks, stats->retrain_checks);
}

TEST_F(NetFixture, UnknownStreamAnsweredStructurallyConnectionUsable) {
  auto served = serve({.workers = 2});
  net::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", served.server->port()));
  const nn::Batchset query = regime_data(0.0, 4, 402);

  // A hostile/stale stream id on every user-plane op: answered with the
  // structured status, never an abort or a dropped connection.
  const auto label = client.label({query.xs, 1e9, nullptr, "no-such"});
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(label->status, service::ServeStatus::kUnknownStream);

  const auto lookup = client.lookup({query.xs, 3, "no-such"});
  ASSERT_TRUE(lookup.has_value());
  EXPECT_EQ(lookup->status, service::ServeStatus::kUnknownStream);

  const auto recommend = client.recommend({"braggnn", query.xs, "no-such"});
  ASSERT_TRUE(recommend.has_value());
  EXPECT_EQ(recommend->status, service::ServeStatus::kUnknownStream);

  service::ServeStatus retrain_status = service::ServeStatus::kOk;
  const auto accepted = client.request_retrain(
      service::RetrainRequest{query.xs, "no-such"}, &retrain_status);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_FALSE(*accepted);
  EXPECT_EQ(retrain_status, service::ServeStatus::kUnknownStream);

  // The same connection keeps serving: stats, then a valid request. The
  // wire front-end resolves the stream before the service ever sees the
  // request, so the unknown-stream ledger lives in the server counters
  // (below), not in ServiceStats (that one counts in-process submits).
  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->unknown_stream_requests, 0u);
  const auto ok = client.label({query.xs, 1e9, nullptr});
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, service::ServeStatus::kOk);

  EXPECT_GE(served.server->counters().unknown_stream_responses, 4u);
  EXPECT_EQ(served.server->counters().malformed_frames, 0u);
}

// --- completion threading --------------------------------------------------

std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// Responses complete by callback on the service's own workers, so the
// front-end's only thread is its event loop — whatever the worker count.
TEST_F(NetFixture, ServerAddsExactlyOneThread) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  service::DataService service(*ds_, {.workers = 4}, manager_.get());
  net::ServerConfig config;
  config.fallback_labeler = zero_labeler;
  const std::size_t before = process_threads();
  net::Server server(service, config);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(process_threads(), before + 1);
}

// The completion callback runs on a service worker, not a Server thread,
// and may still be running when the client already holds the reply. The
// Server is destroyed at that moment, fifty times over, under the ASan and
// TSan jobs too. A callback that touched Server state after the
// outstanding_ decrement that releases stop() would be a use after free;
// that window is a few instructions wide, so this exercises the teardown
// path rather than forcing the bad interleaving.
TEST_F(NetFixture, ServerDestroyedRightAfterAReplyOutlivesItsCallbacks) {
  service::DataService service(*ds_, {.workers = 2}, manager_.get());
  net::ServerConfig config;
  config.fallback_labeler = zero_labeler;
  const nn::Batchset query = regime_data(0.0, 2, 106);
  for (int i = 0; i < 50; ++i) {
    auto server = std::make_unique<net::Server>(service, config);
    ASSERT_TRUE(server->ok());
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server->port()));
    const std::uint64_t cid = client.send_lookup({query.xs, 3});
    ASSERT_NE(cid, 0u);
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.correlation_id, cid);
    EXPECT_EQ(reply->header.status, service::ServeStatus::kOk);
    server.reset();
  }
  service.wait_idle();
  EXPECT_EQ(service.stats().lookup_answered, 50u);
}

// A server-side labeler that throws is a failed request, not a failed
// server: the peer gets a structured answer on its correlation id and the
// connection keeps serving.
TEST_F(NetFixture, ThrowingFallbackLabelerIsAnsweredNotFatal) {
  auto served = serve({.workers = 1}, [](const Tensor&) -> Tensor {
    throw std::runtime_error("labeler down");
  });
  net::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", served.server->port()));
  const nn::Batchset query = regime_data(0.0, 4, 107);
  const auto failed = client.label({query.xs, -1.0, nullptr});
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->status, service::ServeStatus::kMalformedRequest);
  const auto lookup = client.lookup({query.xs, 3});
  ASSERT_TRUE(lookup.has_value());
  EXPECT_EQ(lookup->status, service::ServeStatus::kOk);
}

}  // namespace
}  // namespace fairdms
