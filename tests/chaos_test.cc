// Chaos and fault-tolerance tests: the deterministic fault injector
// replays by seed, circuit breakers walk their state machine, the
// router survives resets/stalls/blackouts with bit-exact answers (fresh
// or stale), hedging beats a stalled replica, partial frame delivery at
// every byte boundary parses cleanly, a peer RST mid-response doesn't
// take the server down, and graceful shutdown drains in-flight work.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dssddi_system.h"
#include "gtest/gtest.h"
#include "io/inference_bundle.h"
#include "net/fault.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/replica_client.h"
#include "net/router.h"
#include "net/suggest_frontend.h"
#include "net/wire.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "tensor/kernels/gemm_backend.h"
#include "test_support.h"

namespace dssddi {
namespace {

namespace wire = net::wire;

using net::fault::FaultAction;
using net::fault::FaultInjector;
using net::fault::FaultOp;
using net::fault::FaultSpec;

// ---------------------------------------------------------------------
// Fault spec + injector
// ---------------------------------------------------------------------

TEST(FaultSpecTest, ParsesFullGrammar) {
  FaultSpec spec;
  ASSERT_TRUE(FaultSpec::Parse(
                  " seed=42; reset=0.05 ;stall=0.10:50-200;truncate=0.01;"
                  "corrupt=0.02;blackout=1",
                  &spec)
                  .ok);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.reset, 0.05);
  EXPECT_DOUBLE_EQ(spec.stall, 0.10);
  EXPECT_EQ(spec.stall_min_ms, 50);
  EXPECT_EQ(spec.stall_max_ms, 200);
  EXPECT_DOUBLE_EQ(spec.truncate, 0.01);
  EXPECT_DOUBLE_EQ(spec.corrupt, 0.02);
  EXPECT_TRUE(spec.blackout);
  EXPECT_FALSE(spec.inert());
}

TEST(FaultSpecTest, EmptyIsInertAndErrorsAreLoud) {
  FaultSpec spec;
  ASSERT_TRUE(FaultSpec::Parse("", &spec).ok);
  EXPECT_TRUE(spec.inert());

  EXPECT_FALSE(FaultSpec::Parse("reset=1.5", &spec).ok);   // P > 1
  EXPECT_FALSE(FaultSpec::Parse("reset=-0.1", &spec).ok);  // P < 0
  EXPECT_FALSE(FaultSpec::Parse("bogus=1", &spec).ok);     // unknown clause
  EXPECT_FALSE(FaultSpec::Parse("stall=0.5:200-50", &spec).ok);  // max < min
  EXPECT_FALSE(FaultSpec::Parse("reset", &spec).ok);       // no '='
}

TEST(FaultInjectorTest, SameSeedReplaysSameSchedule) {
  const char* kSpec = "seed=7;reset=0.2;stall=0.2:1-3;truncate=0.1;corrupt=0.1";
  FaultInjector injector;
  ASSERT_TRUE(injector.Install(kSpec).ok);
  constexpr int kOps = 400;
  std::vector<FaultAction::Kind> first;
  std::vector<int> first_stalls;
  for (int i = 0; i < kOps; ++i) {
    const FaultAction action = injector.Decide(FaultOp::kWrite);
    first.push_back(action.kind);
    first_stalls.push_back(action.stall_ms);
  }
  // Re-install: the op ticket restarts, so the schedule replays exactly.
  ASSERT_TRUE(injector.Install(kSpec).ok);
  for (int i = 0; i < kOps; ++i) {
    const FaultAction action = injector.Decide(FaultOp::kWrite);
    EXPECT_EQ(action.kind, first[i]) << "op " << i;
    EXPECT_EQ(action.stall_ms, first_stalls[i]) << "op " << i;
  }
  // A different seed draws a different schedule.
  ASSERT_TRUE(injector.Install("seed=8;reset=0.2;stall=0.2:1-3;truncate=0.1;"
                               "corrupt=0.1")
                  .ok);
  int diffs = 0;
  for (int i = 0; i < kOps; ++i) {
    if (injector.Decide(FaultOp::kWrite).kind != first[i]) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjectorTest, RatesLandNearTheSpec) {
  FaultInjector injector;
  ASSERT_TRUE(injector.Install("seed=3;reset=0.25").ok);
  constexpr int kOps = 4000;
  int resets = 0;
  for (int i = 0; i < kOps; ++i) {
    if (injector.Decide(FaultOp::kRead).kind == FaultAction::Kind::kReset) {
      ++resets;
    }
  }
  EXPECT_NEAR(static_cast<double>(resets) / kOps, 0.25, 0.05);
  const auto counters = injector.counters();
  EXPECT_EQ(counters.resets, static_cast<uint64_t>(resets));
  EXPECT_EQ(counters.decisions, static_cast<uint64_t>(kOps));
}

TEST(FaultInjectorTest, BlackoutAbortsEveryOpAndClearDisarms) {
  FaultInjector injector;
  ASSERT_TRUE(injector.Install("blackout=1;reset=0.01").ok);
  for (const FaultOp op : {FaultOp::kAccept, FaultOp::kRead, FaultOp::kWrite}) {
    EXPECT_EQ(injector.Decide(op).kind, FaultAction::Kind::kBlackout);
  }
  injector.Clear();
  EXPECT_FALSE(injector.active());
  // Probe is the call sites' guard: disarmed injector yields kNone
  // without consulting Decide.
  EXPECT_EQ(net::fault::Probe(&injector, FaultOp::kRead).kind,
            FaultAction::Kind::kNone);
  EXPECT_EQ(net::fault::Probe(nullptr, FaultOp::kRead).kind,
            FaultAction::Kind::kNone);
}

// ---------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------

TEST(BackoffTest, DeterministicCappedAndJittered) {
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const int a = net::Router::BackoffMs(attempt, 5, 100, 0x5eed, 17);
    const int b = net::Router::BackoffMs(attempt, 5, 100, 0x5eed, 17);
    EXPECT_EQ(a, b) << "attempt " << attempt;
    const double ceiling = std::min(5.0 * (1 << (attempt - 1)), 100.0);
    EXPECT_GE(a, static_cast<int>(ceiling * 0.5) - 1) << "attempt " << attempt;
    EXPECT_LE(a, static_cast<int>(ceiling)) << "attempt " << attempt;
  }
  // Different nonces jitter differently somewhere in the schedule.
  bool any_diff = false;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    if (net::Router::BackoffMs(attempt, 5, 100, 0x5eed, 1) !=
        net::Router::BackoffMs(attempt, 5, 100, 0x5eed, 2)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

TEST(CircuitBreakerTest, WalksTheStateMachine) {
  net::CircuitBreakerOptions options;
  options.window = 8;
  options.min_volume = 4;
  options.failure_threshold = 0.5;
  options.open_cooldown_ms = 30;
  net::CircuitBreaker breaker(options);
  std::vector<std::pair<net::BreakerState, net::BreakerState>> transitions;
  breaker.set_transition_hook([&](net::BreakerState from, net::BreakerState to) {
    transitions.emplace_back(from, to);
  });

  // Below min_volume nothing trips, however bad the rate.
  uint64_t token = 0;
  ASSERT_NE(token = breaker.Admit(), 0u);
  breaker.RecordFailure(token);
  ASSERT_NE(token = breaker.Admit(), 0u);
  breaker.RecordFailure(token);
  ASSERT_NE(token = breaker.Admit(), 0u);
  breaker.RecordFailure(token);
  EXPECT_EQ(breaker.state(), net::BreakerState::kClosed);

  // Fourth failure: volume reached, rate 4/4 >= 0.5 -> open.
  ASSERT_NE(token = breaker.Admit(), 0u);
  breaker.RecordFailure(token);
  EXPECT_EQ(breaker.state(), net::BreakerState::kOpen);
  EXPECT_EQ(breaker.Admit(), 0u);

  // Cooldown elapses: one probe is admitted (half-open), a second is not.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_NE(token = breaker.Admit(), 0u);
  EXPECT_EQ(breaker.state(), net::BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.Admit(), 0u);

  // Probe fails -> straight back to open.
  breaker.RecordFailure(token);
  EXPECT_EQ(breaker.state(), net::BreakerState::kOpen);

  // Next probe succeeds -> closed, with history forgiven: a single new
  // failure must not re-trip.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_NE(token = breaker.Admit(), 0u);
  breaker.RecordSuccess(token);
  EXPECT_EQ(breaker.state(), net::BreakerState::kClosed);
  ASSERT_NE(token = breaker.Admit(), 0u);
  breaker.RecordFailure(token);
  EXPECT_EQ(breaker.state(), net::BreakerState::kClosed);

  ASSERT_EQ(transitions.size(), 5u);
  EXPECT_EQ(transitions[0].second, net::BreakerState::kOpen);
  EXPECT_EQ(transitions[1].second, net::BreakerState::kHalfOpen);
  EXPECT_EQ(transitions[2].second, net::BreakerState::kOpen);
  EXPECT_EQ(transitions[3].second, net::BreakerState::kHalfOpen);
  EXPECT_EQ(transitions[4].second, net::BreakerState::kClosed);
}

TEST(CircuitBreakerTest, AbandonFreesTheProbeSlot) {
  net::CircuitBreakerOptions options;
  options.window = 4;
  options.min_volume = 2;
  options.failure_threshold = 0.5;
  options.open_cooldown_ms = 10;
  net::CircuitBreaker breaker(options);

  uint64_t token = 0;
  ASSERT_NE(token = breaker.Admit(), 0u);
  breaker.RecordFailure(token);
  ASSERT_NE(token = breaker.Admit(), 0u);
  breaker.RecordFailure(token);
  ASSERT_EQ(breaker.state(), net::BreakerState::kOpen);

  // A probe admitted but never executed (e.g. hedge budget exhausted,
  // pool rejecting at shutdown, try cancelled) must not wedge the
  // breaker: abandoning it frees the slot for the next probe.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t probe = breaker.Admit();
  ASSERT_NE(probe, 0u);
  ASSERT_EQ(breaker.state(), net::BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.Admit(), 0u);
  breaker.Abandon(probe);
  EXPECT_EQ(breaker.state(), net::BreakerState::kHalfOpen);

  const uint64_t next = breaker.Admit();
  ASSERT_NE(next, 0u);
  breaker.RecordSuccess(next);
  EXPECT_EQ(breaker.state(), net::BreakerState::kClosed);

  // Abandoning in the closed state is outcome-free noise: no window
  // entry, no state change.
  const uint64_t closed_token = breaker.Admit();
  ASSERT_NE(closed_token, 0u);
  breaker.Abandon(closed_token);
  EXPECT_EQ(breaker.state(), net::BreakerState::kClosed);
}

TEST(CircuitBreakerTest, StragglersFromAnEarlierEraAreIgnored) {
  net::CircuitBreakerOptions options;
  options.window = 4;
  options.min_volume = 2;
  options.failure_threshold = 0.5;
  options.open_cooldown_ms = 10;
  net::CircuitBreaker breaker(options);

  // A try admitted while closed, still in flight...
  const uint64_t straggler = breaker.Admit();
  ASSERT_NE(straggler, 0u);

  // ...while other tries trip the breaker and the cooldown elapses.
  uint64_t token = 0;
  ASSERT_NE(token = breaker.Admit(), 0u);
  breaker.RecordFailure(token);
  ASSERT_NE(token = breaker.Admit(), 0u);
  breaker.RecordFailure(token);
  ASSERT_EQ(breaker.state(), net::BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t probe = breaker.Admit();
  ASSERT_NE(probe, 0u);
  ASSERT_EQ(breaker.state(), net::BreakerState::kHalfOpen);

  // The closed-era straggler now fails: it must not masquerade as the
  // probe (flip half-open back to open and strand the real probe).
  breaker.RecordFailure(straggler);
  EXPECT_EQ(breaker.state(), net::BreakerState::kHalfOpen);

  // The real probe's success still closes the breaker.
  breaker.RecordSuccess(probe);
  EXPECT_EQ(breaker.state(), net::BreakerState::kClosed);

  // A stale success is equally inert: it must not seed the fresh
  // window nor double-settle anything.
  breaker.RecordSuccess(straggler);
  EXPECT_EQ(breaker.state(), net::BreakerState::kClosed);
}

// ---------------------------------------------------------------------
// End-to-end fixture: replicas + router over loopback
// ---------------------------------------------------------------------

class ChaosEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SuggestionDataset(testing::TinyDataset());
    core::DssddiConfig config;
    config.ddi.epochs = 60;
    config.md.epochs = 80;
    config.md.hidden_dim = 16;
    system_ = new core::DssddiSystem(config);
    system_->Fit(*dataset_);
    bundle_ = new io::InferenceBundle(
        io::ExtractInferenceBundle(*system_, *dataset_));
    // Bit-identity against the float oracle, regardless of DSSDDI_QUANTIZE.
    bundle_->quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  }
  static void TearDownTestSuite() {
    delete bundle_;
    delete system_;
    delete dataset_;
    bundle_ = nullptr;
    system_ = nullptr;
    dataset_ = nullptr;
  }

  /// One in-process replica: service + frontend + injector + server.
  struct Replica {
    std::unique_ptr<serve::SuggestionService> service;
    std::shared_ptr<FaultInjector> injector;
    std::unique_ptr<net::SuggestFrontend> frontend;
    std::unique_ptr<net::HttpServer> server;

    int port() const { return server->port(); }
  };

  static std::unique_ptr<Replica> StartReplica() {
    auto replica = std::make_unique<Replica>();
    serve::ServiceOptions service_options;
    service_options.num_threads = 2;
    replica->service =
        std::make_unique<serve::SuggestionService>(*bundle_, service_options);
    replica->injector = std::make_shared<FaultInjector>();
    net::SuggestFrontendOptions frontend_options;
    frontend_options.fault_injector = replica->injector;
    replica->frontend = std::make_unique<net::SuggestFrontend>(
        replica->service.get(), frontend_options);
    net::HttpServerOptions server_options;
    server_options.port = 0;
    server_options.fault = replica->injector;
    server_options.drain_timeout_ms = 2000;
    replica->server = std::make_unique<net::HttpServer>(
        server_options, replica->frontend->AsHandler());
    replica->frontend->AttachServer(replica->server.get());
    EXPECT_TRUE(replica->server->Start().ok);
    return replica;
  }

  static std::string SuggestBody(int patient, int k) {
    const auto& features = dataset_->patient_features;
    net::JsonWriter json;
    json.BeginObject().Key("patient_id").Int(patient);
    json.Key("features").BeginArray();
    for (int j = 0; j < features.cols(); ++j) {
      json.Float(features.At(patient, j));
    }
    json.EndArray();
    json.Key("k").Int(k).EndObject();
    return json.str();
  }

  /// True when `body` matches the oracle bit-for-bit on drugs + scores.
  static bool MatchesOracle(const std::string& body,
                            const core::Suggestion& expected) {
    net::JsonValue document;
    std::string error;
    if (!net::ParseJson(body, &document, &error)) return false;
    const net::JsonValue* drugs = document.Find("drugs");
    const net::JsonValue* scores = document.Find("scores");
    if (drugs == nullptr || scores == nullptr) return false;
    if (drugs->Items().size() != expected.drugs.size()) return false;
    for (size_t i = 0; i < expected.drugs.size(); ++i) {
      if (drugs->Items()[i].AsInt() != expected.drugs[i]) return false;
      const float score = static_cast<float>(scores->Items()[i].AsDouble());
      if (std::memcmp(&score, &expected.scores[i], sizeof(float)) != 0) {
        return false;
      }
    }
    return true;
  }

  static data::SuggestionDataset* dataset_;
  static core::DssddiSystem* system_;
  static io::InferenceBundle* bundle_;
};

data::SuggestionDataset* ChaosEndToEndTest::dataset_ = nullptr;
core::DssddiSystem* ChaosEndToEndTest::system_ = nullptr;
io::InferenceBundle* ChaosEndToEndTest::bundle_ = nullptr;

// The chaos gate: resets + stalls on one replica, a full blackout on
// another, three replicas total. Every request must still be answered
// in-deadline with a payload bit-exact to the single-process oracle.
TEST_F(ChaosEndToEndTest, RouterSurvivesChaosWithBitExactAnswers) {
  auto r0 = StartReplica();
  auto r1 = StartReplica();
  auto r2 = StartReplica();
  const char* kSeed = ::getenv("DSSDDI_CHAOS_SEED");
  const std::string seed = kSeed != nullptr ? kSeed : "11";
  // 5% resets + 10% stalled reads (5-20 ms to keep CI wall-clock sane)
  // on replica 0; replica 1 fully dark; replica 2 healthy.
  ASSERT_TRUE(
      r0->injector->Install("seed=" + seed + ";reset=0.05;stall=0.10:5-20").ok);
  ASSERT_TRUE(r1->injector->Install("blackout=1").ok);

  std::vector<net::ReplicaClientOptions> endpoints(3);
  endpoints[0].port = r0->port();
  endpoints[1].port = r1->port();
  endpoints[2].port = r2->port();
  for (auto& endpoint : endpoints) endpoint.breaker.open_cooldown_ms = 200;

  net::RouterOptions router_options;
  router_options.per_try_timeout_ms = 500;
  router_options.backoff_base_ms = 1;
  router_options.backoff_max_ms = 10;
  router_options.hedge_min_delay_ms = 30;
  auto registry = std::make_shared<obs::Registry>();
  auto recorder = std::make_shared<obs::FlightRecorder>();
  net::Router router(endpoints, router_options, registry, recorder);

  const std::vector<int>& patients = dataset_->split.test;
  constexpr int kRequests = 200;
  int answered = 0;
  int wrong = 0;
  for (int i = 0; i < kRequests; ++i) {
    const int patient = patients[i % patients.size()];
    net::RouterResult result;
    ASSERT_TRUE(router
                    .Exchange("/v1/suggest", SuggestBody(patient, 3),
                              "application/json", /*deadline_ms=*/3000, &result)
                    .ok);
    if (result.status != 200) continue;
    ++answered;
    if (!MatchesOracle(result.body, system_->Suggest(*dataset_, patient, 3))) {
      ++wrong;
    }
  }
  // >= 99.9% answered (with 200 requests that means all of them) and
  // zero incorrect payloads.
  EXPECT_EQ(answered, kRequests);
  EXPECT_EQ(wrong, 0);

  // The blacked-out replica's breaker opened, and the transition is in
  // the flight recorder.
  EXPECT_EQ(router.replica(1).breaker().state(), net::BreakerState::kOpen);
  const std::string logz = recorder->RenderLogzJson();
  EXPECT_NE(logz.find("replica_state"), std::string::npos);
  EXPECT_NE(logz.find("circuit breaker opened"), std::string::npos);

  r2->server->Stop();
  r1->server->Stop();
  r0->server->Stop();
}

// All breakers open -> warm keys answer stale (200 + stale flag), cold
// keys synthesize 503, and AvailableReplicas hits zero (what /readyz
// reports). Clearing the faults recovers through half-open probes.
TEST_F(ChaosEndToEndTest, StaleServeWhenAllReplicasDarkThenRecovers) {
  auto r0 = StartReplica();
  auto r1 = StartReplica();

  std::vector<net::ReplicaClientOptions> endpoints(2);
  endpoints[0].port = r0->port();
  endpoints[1].port = r1->port();
  for (auto& endpoint : endpoints) {
    endpoint.breaker.window = 4;
    endpoint.breaker.min_volume = 2;
    endpoint.breaker.open_cooldown_ms = 100;
  }
  net::RouterOptions router_options;
  router_options.per_try_timeout_ms = 300;
  router_options.backoff_base_ms = 1;
  router_options.backoff_max_ms = 5;
  router_options.hedging = false;
  auto registry = std::make_shared<obs::Registry>();
  auto recorder = std::make_shared<obs::FlightRecorder>();
  net::Router router(endpoints, router_options, registry, recorder);

  const int patient = dataset_->split.test[0];
  const std::string body = SuggestBody(patient, 3);

  // Warm the stale cache with a fresh answer.
  net::RouterResult fresh;
  ASSERT_TRUE(
      router.Exchange("/v1/suggest", body, "application/json", 3000, &fresh).ok);
  ASSERT_EQ(fresh.status, 200);
  ASSERT_FALSE(fresh.stale);

  // Lights out. Drive requests until both breakers open.
  ASSERT_TRUE(r0->injector->Install("blackout=1").ok);
  ASSERT_TRUE(r1->injector->Install("blackout=1").ok);
  for (int i = 0; i < 8 && router.AvailableReplicas() > 0; ++i) {
    net::RouterResult result;
    router.Exchange("/v1/suggest", body, "application/json", 2000, &result);
  }
  EXPECT_EQ(router.AvailableReplicas(), 0);

  // Warm key: stale 200. The cached payload is still oracle-exact.
  net::RouterResult stale;
  ASSERT_TRUE(
      router.Exchange("/v1/suggest", body, "application/json", 2000, &stale).ok);
  EXPECT_EQ(stale.status, 200);
  EXPECT_TRUE(stale.stale);
  EXPECT_TRUE(MatchesOracle(stale.body, system_->Suggest(*dataset_, patient, 3)));
  EXPECT_NE(recorder->RenderLogzJson().find("stale_serve"), std::string::npos);

  // Cold key: nothing cached -> synthesized 503.
  net::RouterResult cold;
  const std::string other = SuggestBody(dataset_->split.test[1], 3);
  ASSERT_TRUE(
      router.Exchange("/v1/suggest", other, "application/json", 2000, &cold).ok);
  EXPECT_EQ(cold.status, 503);
  EXPECT_FALSE(cold.stale);

  // Recovery: clear the faults, wait out the cooldown, and the next
  // requests probe half-open and close the breakers again.
  r0->injector->Clear();
  r1->injector->Clear();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  for (int i = 0; i < 6; ++i) {
    net::RouterResult result;
    ASSERT_TRUE(
        router.Exchange("/v1/suggest", body, "application/json", 3000, &result)
            .ok);
    EXPECT_EQ(result.status, 200);
    EXPECT_FALSE(result.stale);
  }
  EXPECT_EQ(router.AvailableReplicas(), 2);

  r1->server->Stop();
  r0->server->Stop();
}

// A replica that stalls every read long past the hedge trigger: the
// hedge fires on the healthy replica and wins well before the stalled
// primary would have answered.
TEST_F(ChaosEndToEndTest, HedgingBeatsAStalledReplica) {
  auto r0 = StartReplica();
  auto r1 = StartReplica();
  ASSERT_TRUE(r0->injector->Install("seed=1;stall=1.0:400-400").ok);

  std::vector<net::ReplicaClientOptions> endpoints(2);
  endpoints[0].port = r0->port();  // round-robin starts here
  endpoints[1].port = r1->port();
  net::RouterOptions router_options;
  router_options.per_try_timeout_ms = 2000;
  router_options.hedge_min_delay_ms = 20;
  auto registry = std::make_shared<obs::Registry>();
  net::Router router(endpoints, router_options, registry, nullptr);

  const int patient = dataset_->split.test[0];
  const auto start = std::chrono::steady_clock::now();
  net::RouterResult result;
  ASSERT_TRUE(router
                  .Exchange("/v1/suggest", SuggestBody(patient, 3),
                            "application/json", 3000, &result)
                  .ok);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(result.status, 200);
  EXPECT_TRUE(result.hedged);
  EXPECT_EQ(result.replica, 1);  // the hedge won
  EXPECT_TRUE(MatchesOracle(result.body, system_->Suggest(*dataset_, patient, 3)));
  // Far sooner than the 400 ms stall (generous bound for slow CI).
  EXPECT_LT(elapsed_ms, 350.0);

  r1->server->Stop();
  r0->server->Stop();
}

// ---------------------------------------------------------------------
// Partial delivery: every split point of a binary frame (satellite:
// wire-codec partial-delivery)
// ---------------------------------------------------------------------

// Raw client delivering the request in two TCP segments with a pause in
// between, so the server's parser sees a genuinely split frame.
std::string SplitSendAndReceive(int port, const std::string& request,
                                size_t split) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  (void)::send(fd, request.data(), split, MSG_NOSIGNAL);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  (void)::send(fd, request.data() + split, request.size() - split, MSG_NOSIGNAL);
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
    // Connection: close responses end at EOF; but stop early once the
    // declared body is complete to keep the sweep fast.
    const size_t head_end = response.find("\r\n\r\n");
    if (head_end == std::string::npos) continue;
    const size_t cl = response.find("Content-Length: ");
    if (cl == std::string::npos || cl > head_end) continue;
    const size_t length = std::strtoull(response.c_str() + cl + 16, nullptr, 10);
    if (response.size() >= head_end + 4 + length) break;
  }
  ::close(fd);
  return response;
}

TEST_F(ChaosEndToEndTest, BinaryFrameParsesAtEverySplitBoundary) {
  auto replica = StartReplica();
  const int patient = dataset_->split.test[0];
  const core::Suggestion expected = system_->Suggest(*dataset_, patient, 3);

  wire::SuggestRequestFrame frame;
  frame.patient_id = patient;
  frame.k = 3;
  const auto& features = dataset_->patient_features;
  for (int j = 0; j < features.cols(); ++j) {
    frame.features.push_back(features.At(patient, j));
  }
  const std::string payload = wire::EncodeSuggestRequest(frame);
  std::string request =
      "POST /v1/suggest HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
      "Content-Type: " +
      std::string(wire::kContentType) +
      "\r\nContent-Length: " + std::to_string(payload.size()) + "\r\n\r\n";
  const size_t body_begin = request.size();
  request += payload;

  // Every byte boundary of the frame (plus a handful inside the HTTP
  // head), each on a fresh connection.
  std::vector<size_t> splits = {1, body_begin / 2, body_begin - 1};
  for (size_t offset = 0; offset <= payload.size(); ++offset) {
    splits.push_back(body_begin + offset);
  }
  for (const size_t split : splits) {
    SCOPED_TRACE("split at byte " + std::to_string(split));
    const std::string response =
        SplitSendAndReceive(replica->port(), request, split);
    ASSERT_NE(response.find("HTTP/1.1 200"), std::string::npos)
        << response.substr(0, 200);
    const size_t head_end = response.find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos);
    wire::SuggestResponseFrame decoded;
    std::string error;
    ASSERT_TRUE(wire::DecodeSuggestResponse(response.substr(head_end + 4),
                                            &decoded, &error))
        << error;
    ASSERT_EQ(decoded.drugs.size(), expected.drugs.size());
    for (size_t i = 0; i < expected.drugs.size(); ++i) {
      EXPECT_EQ(decoded.drugs[i], expected.drugs[i]);
      EXPECT_EQ(std::memcmp(&decoded.scores[i], &expected.scores[i],
                            sizeof(float)),
                0);
    }
  }
  replica->server->Stop();
}

// ---------------------------------------------------------------------
// Peer reset during a large response (satellite: socket hardening)
// ---------------------------------------------------------------------

TEST_F(ChaosEndToEndTest, PeerResetDuringLargeResponseDoesNotKillServer) {
  auto replica = StartReplica();
  const int patient = dataset_->split.test[0];
  const std::string body = SuggestBody(patient, 8);

  // A client that sends a request and slams the door with an RST before
  // reading the (explained, sizable) response. MSG_NOSIGNAL hardening is
  // what keeps the server from dying on SIGPIPE/EPIPE here.
  for (int i = 0; i < 16; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    struct sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(replica->port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string request =
        "POST /v1/suggest HTTP/1.1\r\nHost: t\r\n"
        "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    // SO_LINGER {on, 0}: close() sends RST instead of FIN.
    struct linger hard {};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd);
  }

  // The server survives and keeps serving well-behaved clients.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", replica->port()).ok);
  net::ClientResponse response;
  ASSERT_TRUE(client.Request("POST", "/v1/suggest", body, &response).ok);
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(MatchesOracle(response.body,
                            system_->Suggest(*dataset_, patient, 8)));
  replica->server->Stop();
}

// ---------------------------------------------------------------------
// Graceful shutdown drain (satellite: shutdown under load)
// ---------------------------------------------------------------------

TEST_F(ChaosEndToEndTest, StopDrainsInFlightRequests) {
  auto replica = StartReplica();
  const std::vector<int>& patients = dataset_->split.test;

  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::atomic<int> completed{0};
  std::atomic<int> torn{0};  // started but undrained responses
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      net::HttpClient client;
      if (!client.Connect("127.0.0.1", replica->port()).ok) return;
      for (int i = 0; i < kPerClient; ++i) {
        const int patient = patients[(t * 7 + i) % patients.size()];
        net::ClientResponse response;
        const io::Status status = client.Request(
            "POST", "/v1/suggest", SuggestBody(patient, 3), &response);
        if (!status.ok) {
          // Refused/severed between exchanges is a clean drain; a torn
          // response mid-read is not.
          if (status.message.find("mid-response") != std::string::npos ||
              status.message.find("mid-body") != std::string::npos) {
            torn.fetch_add(1);
          }
          return;
        }
        if (response.status == 200 &&
            MatchesOracle(response.body,
                          system_->Suggest(*dataset_, patient, 3))) {
          completed.fetch_add(1);
        }
      }
    });
  }

  // Let the herd get in flight, then stop mid-load: Stop() must close
  // the listeners, wait for dispatched work, and flush buffered
  // responses before tearing connections down.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  replica->server->Stop();
  for (auto& client : clients) client.join();

  EXPECT_GT(completed.load(), 0);
  EXPECT_EQ(torn.load(), 0);
}

/// One POST /v1/suggest over a fresh loopback connection with a raw
/// X-Deadline-Ms value (HttpClient only sends int deadlines). Returns
/// the reply's status code, or 0 when none arrived; `reply_body` gets
/// the bytes after the reply's head.
int PostWithDeadlineHeader(int port, const std::string& deadline,
                           const std::string& content_type,
                           const std::string& body,
                           std::string* reply_body = nullptr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return 0;
  }
  const std::string request =
      "POST /v1/suggest HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
      "Content-Type: " + content_type + "\r\nX-Deadline-Ms: " + deadline +
      "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  if (reply.compare(0, 9, "HTTP/1.1 ") != 0 || reply.size() < 12) return 0;
  const size_t head_end = reply.find("\r\n\r\n");
  if (reply_body != nullptr && head_end != std::string::npos) {
    *reply_body = reply.substr(head_end + 4);
  }
  return std::atoi(reply.substr(9, 3).c_str());
}

// The router reads X-Deadline-Ms by the replica's rule. It used to cast
// strtol's long to int: 2147483648 became a negative deadline (no
// deadline, past the max_deadline_ms cap) and 4294967297 became 1 ms.
// The 400 comes in the request's codec, as a replica's does.
TEST_F(ChaosEndToEndTest, RouterRejectsDeadlinesOutsideInt32With400) {
  auto replica = StartReplica();
  std::vector<net::ReplicaClientOptions> endpoints(1);
  endpoints[0].port = replica->port();
  auto registry = std::make_shared<obs::Registry>();
  auto recorder = std::make_shared<obs::FlightRecorder>();
  net::Router router(endpoints, net::RouterOptions{}, registry, recorder);
  net::RouterFrontend frontend(&router);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  frontend.AttachServer(&server);
  ASSERT_TRUE(server.Start().ok);

  const int patient = dataset_->split.test.front();
  const std::string json = "application/json";
  const std::string body = SuggestBody(patient, 3);
  for (const char* bad : {"2147483648", "4294967297", "0", "-5", "12ms", "",
                          "99999999999999999999999"}) {
    std::string reply;
    EXPECT_EQ(PostWithDeadlineHeader(server.port(), bad, json, body, &reply),
              400)
        << "X-Deadline-Ms: " << bad;
    net::JsonValue error;
    std::string parse_error;
    EXPECT_TRUE(net::ParseJson(reply, &error, &parse_error)) << reply;
    EXPECT_NE(error.Find("error"), nullptr) << reply;
  }
  EXPECT_EQ(PostWithDeadlineHeader(server.port(), "2147483647", json, body), 200);
  EXPECT_EQ(PostWithDeadlineHeader(server.port(), "3000", json, body), 200);

  wire::SuggestRequestFrame frame;
  frame.patient_id = patient;
  frame.k = 3;
  const auto& features = dataset_->patient_features;
  for (int j = 0; j < features.cols(); ++j) {
    frame.features.push_back(features.At(patient, j));
  }
  const std::string binary = wire::kContentType;
  const std::string payload = wire::EncodeSuggestRequest(frame);
  for (const char* bad : {"2147483648", "4294967297", "0"}) {
    std::string reply;
    EXPECT_EQ(
        PostWithDeadlineHeader(server.port(), bad, binary, payload, &reply),
        400)
        << "X-Deadline-Ms: " << bad;
    wire::ErrorFrame error;
    std::string decode_error;
    ASSERT_TRUE(wire::DecodeError(reply, &error, &decode_error))
        << "X-Deadline-Ms: " << bad << ": " << decode_error;
    EXPECT_EQ(error.status, 400u);
    EXPECT_EQ(error.message, "X-Deadline-Ms must be a positive integer");
  }
  std::string reply;
  ASSERT_EQ(
      PostWithDeadlineHeader(server.port(), "3000", binary, payload, &reply),
      200);
  wire::SuggestResponseFrame answer;
  std::string decode_error;
  EXPECT_TRUE(wire::DecodeSuggestResponse(reply, &answer, &decode_error))
      << decode_error;

  server.Stop();
  replica->server->Stop();
}

}  // namespace
}  // namespace dssddi
