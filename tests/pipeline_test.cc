// Tests for the pipelined multiplexed wire protocol: the incremental
// frame extractor survives every byte split, frame-mode connections
// reject contract violations with structured error frames (duplicate
// in-flight ids keep the connection, stream garbage closes it),
// out-of-order pipelined completion is byte-for-byte identical to the
// serial oracle, queued response frames coalesce into fewer write
// syscalls than frames, the PipelinedClient multiplexes concurrent
// exchanges over one socket with deadline/cancel abandonment that never
// kills neighbors (and settles each started exchange exactly once under
// Start/Abandon/Close races), the router keeps more binary tries in
// flight than it has worker threads, and the SLO hedge kill-switch
// halts hedges while plain retries keep working.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <memory>
#include <random>
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
#include "net/pipelined_client.h"
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
namespace fault = net::fault;

// ---------------------------------------------------------------------
// Stream parser
// ---------------------------------------------------------------------

TEST(PipelineWireTest, ExtractFrameSurvivesEveryByteSplit) {
  // An interleaved stream of all three frame types, delivered one byte
  // at a time: every prefix short of a boundary must be kNeedMore, and
  // each boundary must yield exactly the next frame.
  wire::SuggestRequestFrame request;
  request.patient_id = 11;
  request.k = 3;
  request.request_id = 42;
  request.features = {0.5f, -1.25f, 3.0f};
  wire::SuggestResponseFrame response;
  response.model_version = 9;
  response.trace_id = 77;
  response.request_id = 43;
  response.drugs = {1, 2, 3};
  response.scores = {0.5f, 0.25f, 0.125f};
  wire::ErrorFrame error_frame;
  error_frame.status = 429;
  error_frame.message = "shed";
  error_frame.trace_id = 5;
  error_frame.request_id = 44;

  const std::string stream = wire::EncodeSuggestRequest(request) +
                             wire::EncodeSuggestResponse(response) +
                             wire::EncodeError(error_frame);
  struct Expected {
    wire::FrameType type;
    uint64_t id;
  };
  const std::vector<Expected> expected = {
      {wire::FrameType::kSuggestRequest, 42},
      {wire::FrameType::kSuggestResponse, 43},
      {wire::FrameType::kError, 44},
  };

  std::string pending;
  size_t next = 0;
  for (const char byte : stream) {
    pending.push_back(byte);
    for (;;) {
      wire::FrameView view;
      std::string error;
      const wire::ExtractResult result = wire::ExtractFrame(
          pending.data(), pending.size(), 1 << 20, &view, &error);
      if (result == wire::ExtractResult::kNeedMore) break;
      ASSERT_EQ(result, wire::ExtractResult::kFrame) << error;
      ASSERT_LT(next, expected.size());
      EXPECT_EQ(view.type, expected[next].type);
      EXPECT_EQ(view.request_id, expected[next].id);
      pending.erase(0, view.frame_bytes);
      ++next;
    }
  }
  EXPECT_EQ(next, expected.size());
  EXPECT_TRUE(pending.empty());
}

TEST(PipelineWireTest, ExtractFrameFailsFastOnGarbageAndHostileLength) {
  // HTTP on a frame parser is unrecoverable the moment the magic check
  // can run.
  const std::string http = "GET /v1/suggest HTTP/1.1\r\n\r\n";
  wire::FrameView view;
  std::string error;
  EXPECT_EQ(wire::ExtractFrame(http.data(), http.size(), 1 << 20, &view,
                               &error),
            wire::ExtractResult::kError);
  EXPECT_FALSE(wire::LooksLikeFramePrefix(http.data(), 2));

  // A forged length prefix over the cap fails before any payload byte
  // arrives — the header alone convicts it.
  wire::SuggestRequestFrame request;
  request.features = {1.0f};
  std::string forged = wire::EncodeSuggestRequest(request);
  const uint32_t hostile = 2000;
  std::memcpy(&forged[4], &hostile, sizeof(hostile));
  error.clear();
  EXPECT_EQ(wire::ExtractFrame(forged.data(), wire::kHeaderBytes, 1024, &view,
                               &error),
            wire::ExtractResult::kError);
  EXPECT_NE(error.find("payload"), std::string::npos) << error;
}

TEST(PipelineWireTest, RequestIdPeekPatchRoundTrip) {
  wire::SuggestRequestFrame request;
  request.request_id = 7;
  request.features = {0.25f};
  std::string frame = wire::EncodeSuggestRequest(request);

  uint64_t id = 0;
  ASSERT_TRUE(wire::PeekRequestId(frame, &id));
  EXPECT_EQ(id, 7u);
  ASSERT_TRUE(wire::PatchRequestId(&frame, 0xDEADBEEFull));
  ASSERT_TRUE(wire::PeekRequestId(frame, &id));
  EXPECT_EQ(id, 0xDEADBEEFull);

  // The patch rewrites only the header field; the frame still decodes.
  wire::SuggestRequestFrame decoded;
  std::string error;
  ASSERT_TRUE(wire::DecodeSuggestRequest(frame, &decoded, &error)) << error;
  EXPECT_EQ(decoded.request_id, 0xDEADBEEFull);

  std::string stub = frame.substr(0, wire::kHeaderBytes - 1);
  EXPECT_FALSE(wire::PeekRequestId(stub, &id));
  EXPECT_FALSE(wire::PatchRequestId(&stub, 1));

  // Prefix sniffing: the magic bytes spell "SD"; no HTTP method does.
  EXPECT_TRUE(wire::LooksLikeFramePrefix(frame.data(), 1));
  EXPECT_TRUE(wire::LooksLikeFramePrefix(frame.data(), 2));
  EXPECT_FALSE(wire::LooksLikeFramePrefix("GE", 2));
  EXPECT_FALSE(wire::LooksLikeFramePrefix("SX", 2));
}

// ---------------------------------------------------------------------
// End-to-end fixture
// ---------------------------------------------------------------------

class PipelineEndToEndTest : public ::testing::Test {
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
    // These tests assert bit-identity against the float training stack.
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

  /// One frame-speaking server: service + frontend + injector.
  struct FrameServer {
    std::unique_ptr<serve::SuggestionService> service;
    std::shared_ptr<fault::FaultInjector> injector;
    std::unique_ptr<net::SuggestFrontend> frontend;
    std::unique_ptr<net::HttpServer> server;

    int port() const { return server->port(); }
  };

  static std::unique_ptr<FrameServer> StartFrameServer(int port = 0,
                                                       int threads = 4) {
    auto fs = std::make_unique<FrameServer>();
    serve::ServiceOptions service_options;
    service_options.num_threads = threads;
    fs->service =
        std::make_unique<serve::SuggestionService>(*bundle_, service_options);
    fs->injector = std::make_shared<fault::FaultInjector>();
    net::SuggestFrontendOptions frontend_options;
    frontend_options.fault_injector = fs->injector;
    fs->frontend = std::make_unique<net::SuggestFrontend>(fs->service.get(),
                                                          frontend_options);
    net::HttpServerOptions server_options;
    server_options.port = port;
    server_options.fault = fs->injector;
    fs->server = std::make_unique<net::HttpServer>(server_options,
                                                   fs->frontend->AsHandler());
    EXPECT_TRUE(fs->server->Start().ok);
    fs->frontend->AttachServer(fs->server.get());
    return fs;
  }

  static std::string EncodeRequest(int patient, uint64_t request_id,
                                   uint64_t trace_id = 0) {
    const auto& features = dataset_->patient_features;
    wire::SuggestRequestFrame frame;
    frame.patient_id = patient;
    frame.k = 3;
    frame.trace_id = trace_id;
    frame.request_id = request_id;
    frame.features.resize(static_cast<size_t>(features.cols()));
    for (int j = 0; j < features.cols(); ++j) {
      frame.features[static_cast<size_t>(j)] = features.At(patient, j);
    }
    return wire::EncodeSuggestRequest(frame);
  }

  /// Asserts a raw response frame carries exactly the oracle's
  /// drugs + scores (bit-identical floats).
  static void ExpectFrameMatchesOracle(const std::string& body, int patient) {
    const core::Suggestion expected = system_->Suggest(*dataset_, patient, 3);
    wire::SuggestResponseFrame frame;
    std::string error;
    ASSERT_TRUE(wire::DecodeSuggestResponse(body, &frame, &error)) << error;
    ASSERT_EQ(frame.drugs.size(), expected.drugs.size());
    for (size_t i = 0; i < expected.drugs.size(); ++i) {
      EXPECT_EQ(frame.drugs[i], static_cast<int32_t>(expected.drugs[i]));
      EXPECT_EQ(std::memcmp(&frame.scores[i], &expected.scores[i],
                            sizeof(float)),
                0);
    }
  }

  /// Blocking raw frame socket — the protocol exercised without any
  /// client library in the way.
  struct RawConn {
    int fd = -1;
    std::string buffer;

    ~RawConn() { Close(); }

    void Close() {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }

    bool Connect(int port) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return false;
      struct timeval timeout = {10, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
      struct sockaddr_in addr {};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      return ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                       sizeof(addr)) == 0;
    }

    bool Send(const std::string& bytes) {
      size_t sent = 0;
      while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0) return false;
        sent += static_cast<size_t>(n);
      }
      return true;
    }

    /// Next complete frame off the stream; empty on close/timeout.
    std::string ReadFrame() {
      for (;;) {
        if (!buffer.empty()) {
          wire::FrameView view;
          std::string error;
          const wire::ExtractResult result = wire::ExtractFrame(
              buffer.data(), buffer.size(), 1 << 20, &view, &error);
          if (result == wire::ExtractResult::kError) return "";
          if (result == wire::ExtractResult::kFrame) {
            std::string frame = buffer.substr(0, view.frame_bytes);
            buffer.erase(0, view.frame_bytes);
            return frame;
          }
        }
        char chunk[4096];
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) return "";
        buffer.append(chunk, static_cast<size_t>(n));
      }
    }

    /// True once the peer has closed (after any buffered frames).
    bool ReadEof() {
      char byte;
      return ::recv(fd, &byte, 1, 0) == 0;
    }
  };

  static data::SuggestionDataset* dataset_;
  static core::DssddiSystem* system_;
  static io::InferenceBundle* bundle_;
};

data::SuggestionDataset* PipelineEndToEndTest::dataset_ = nullptr;
core::DssddiSystem* PipelineEndToEndTest::system_ = nullptr;
io::InferenceBundle* PipelineEndToEndTest::bundle_ = nullptr;

// ---------------------------------------------------------------------
// Frame-mode server contract
// ---------------------------------------------------------------------

TEST_F(PipelineEndToEndTest, DuplicateInFlightIdRejectedConnectionSurvives) {
  auto fs = StartFrameServer();
  RawConn conn;
  ASSERT_TRUE(conn.Connect(fs->port()));

  // Two frames with the same id in one burst: the duplicate must be
  // rejected with an error frame echoing the id while the original
  // request still completes on the same connection.
  ASSERT_TRUE(conn.Send(EncodeRequest(3, 7) + EncodeRequest(3, 7)));

  bool saw_error = false;
  bool saw_response = false;
  for (int i = 0; i < 2; ++i) {
    const std::string frame = conn.ReadFrame();
    ASSERT_FALSE(frame.empty());
    wire::FrameType type;
    std::string error;
    ASSERT_TRUE(wire::PeekFrameType(frame, &type, &error)) << error;
    if (type == wire::FrameType::kError) {
      wire::ErrorFrame reject;
      ASSERT_TRUE(wire::DecodeError(frame, &reject, &error)) << error;
      EXPECT_EQ(reject.status, 400u);
      EXPECT_EQ(reject.request_id, 7u);
      EXPECT_NE(reject.message.find("duplicate"), std::string::npos);
      saw_error = true;
    } else {
      ASSERT_EQ(type, wire::FrameType::kSuggestResponse);
      uint64_t id = 0;
      ASSERT_TRUE(wire::PeekRequestId(frame, &id));
      EXPECT_EQ(id, 7u);
      ExpectFrameMatchesOracle(frame, 3);
      saw_response = true;
    }
  }
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(saw_response);

  // The connection is still a working pipeline: the id is reusable once
  // the original completed, and fresh ids flow as before.
  ASSERT_TRUE(conn.Send(EncodeRequest(5, 8)));
  const std::string next = conn.ReadFrame();
  ASSERT_FALSE(next.empty());
  uint64_t id = 0;
  ASSERT_TRUE(wire::PeekRequestId(next, &id));
  EXPECT_EQ(id, 8u);
  ExpectFrameMatchesOracle(next, 5);
  fs->server->Stop();
}

TEST_F(PipelineEndToEndTest, NonRequestFrameGetsErrorAndClose) {
  auto fs = StartFrameServer();
  RawConn conn;
  ASSERT_TRUE(conn.Connect(fs->port()));

  // A client pushing a *response* frame at the server broke the
  // protocol: structured rejection echoing the id, then hang up.
  wire::SuggestResponseFrame bogus;
  bogus.request_id = 21;
  bogus.drugs = {1};
  bogus.scores = {1.0f};
  ASSERT_TRUE(conn.Send(wire::EncodeSuggestResponse(bogus)));

  const std::string frame = conn.ReadFrame();
  ASSERT_FALSE(frame.empty());
  wire::ErrorFrame reject;
  std::string error;
  ASSERT_TRUE(wire::DecodeError(frame, &reject, &error)) << error;
  EXPECT_EQ(reject.status, 400u);
  EXPECT_EQ(reject.request_id, 21u);
  EXPECT_TRUE(conn.ReadEof());
  fs->server->Stop();
}

TEST_F(PipelineEndToEndTest, StreamGarbageGetsConnectionErrorFrameAndClose) {
  auto fs = StartFrameServer();
  RawConn conn;
  ASSERT_TRUE(conn.Connect(fs->port()));

  // Valid magic + version, unknown frame type: the stream has no
  // recoverable boundary, so the error frame carries request_id 0 (a
  // connection-level verdict, not a per-request one) and the server
  // hangs up.
  std::string garbage;
  garbage.push_back(0x53);  // 'S'
  garbage.push_back(0x44);  // 'D'
  garbage.push_back(static_cast<char>(wire::kVersion));
  garbage.push_back(static_cast<char>(9));  // no such frame type
  garbage.append(12, '\0');
  ASSERT_TRUE(conn.Send(garbage));

  const std::string frame = conn.ReadFrame();
  ASSERT_FALSE(frame.empty());
  wire::ErrorFrame reject;
  std::string error;
  ASSERT_TRUE(wire::DecodeError(frame, &reject, &error)) << error;
  EXPECT_EQ(reject.status, 400u);
  EXPECT_EQ(reject.request_id, 0u);
  EXPECT_TRUE(conn.ReadEof());
  EXPECT_GE(fs->server->counters().parse_errors, 1u);
  fs->server->Stop();
}

TEST_F(PipelineEndToEndTest, ScrambledCompletionBitExactVsSerialOracle) {
  auto fs = StartFrameServer();
  constexpr int kPatients = 24;

  // Serial oracle: one request at a time, each answered before the next
  // is sent. Fixed trace ids make whole response frames comparable;
  // request_id is normalized to 0 on both sides since it is the one
  // header field that legitimately differs.
  std::vector<std::string> oracle(kPatients);
  {
    RawConn serial;
    ASSERT_TRUE(serial.Connect(fs->port()));
    for (int p = 0; p < kPatients; ++p) {
      ASSERT_TRUE(serial.Send(EncodeRequest(p, 500 + p, 5000 + p)));
      std::string frame = serial.ReadFrame();
      ASSERT_FALSE(frame.empty());
      uint64_t id = 0;
      ASSERT_TRUE(wire::PeekRequestId(frame, &id));
      EXPECT_EQ(id, static_cast<uint64_t>(500 + p));
      ASSERT_TRUE(wire::PatchRequestId(&frame, 0));
      ExpectFrameMatchesOracle(frame, p);
      oracle[static_cast<size_t>(p)] = std::move(frame);
    }
  }

  // Pipelined pass: the same requests blasted in one shuffled burst on
  // one connection, completions collected in whatever order the server
  // finishes them.
  std::vector<int> order(kPatients);
  for (int p = 0; p < kPatients; ++p) order[static_cast<size_t>(p)] = p;
  std::mt19937 rng(1234);
  std::shuffle(order.begin(), order.end(), rng);

  RawConn pipelined;
  ASSERT_TRUE(pipelined.Connect(fs->port()));
  std::string burst;
  for (const int p : order) burst += EncodeRequest(p, 900 + p, 5000 + p);
  ASSERT_TRUE(pipelined.Send(burst));

  std::map<uint64_t, std::string> by_id;
  for (int i = 0; i < kPatients; ++i) {
    std::string frame = pipelined.ReadFrame();
    ASSERT_FALSE(frame.empty());
    uint64_t id = 0;
    ASSERT_TRUE(wire::PeekRequestId(frame, &id));
    ASSERT_TRUE(wire::PatchRequestId(&frame, 0));
    EXPECT_TRUE(by_id.emplace(id, std::move(frame)).second)
        << "duplicate response id " << id;
  }

  ASSERT_EQ(by_id.size(), static_cast<size_t>(kPatients));
  for (int p = 0; p < kPatients; ++p) {
    const auto it = by_id.find(static_cast<uint64_t>(900 + p));
    ASSERT_NE(it, by_id.end()) << "no response for patient " << p;
    EXPECT_EQ(it->second, oracle[static_cast<size_t>(p)])
        << "pipelined response for patient " << p
        << " is not byte-identical to the serial oracle";
  }
  fs->server->Stop();
}

TEST_F(PipelineEndToEndTest, BurstResponsesCoalesceIntoFewerWriteSyscalls) {
  // The disarmed injector's op hook counts one kWrite probe per
  // vectored flush, so "frames per syscall" is directly observable.
  auto fs = StartFrameServer();
  RawConn conn;
  ASSERT_TRUE(conn.Connect(fs->port()));

  constexpr int kDuplicates = 7;
  const std::string valid = EncodeRequest(2, 1);
  std::string burst = valid;
  for (int i = 0; i < kDuplicates; ++i) burst += valid;

  const uint64_t writes_before = fs->injector->op_count(fault::FaultOp::kWrite);
  ASSERT_TRUE(conn.Send(burst));

  // 8 frames come back: 7 duplicate-id rejections synthesized
  // synchronously in one dispatch pass (queued, then flushed in a
  // single vectored write) plus the original's response.
  int errors = 0;
  int responses = 0;
  for (int i = 0; i < kDuplicates + 1; ++i) {
    const std::string frame = conn.ReadFrame();
    ASSERT_FALSE(frame.empty());
    wire::FrameType type;
    std::string error;
    ASSERT_TRUE(wire::PeekFrameType(frame, &type, &error)) << error;
    uint64_t id = 0;
    ASSERT_TRUE(wire::PeekRequestId(frame, &id));
    EXPECT_EQ(id, 1u);
    if (type == wire::FrameType::kError) {
      ++errors;
    } else {
      ExpectFrameMatchesOracle(frame, 2);
      ++responses;
    }
  }
  EXPECT_EQ(errors, kDuplicates);
  EXPECT_EQ(responses, 1);

  const uint64_t writes =
      fs->injector->op_count(fault::FaultOp::kWrite) - writes_before;
  // Without coalescing this would be one syscall per frame (8). The
  // expected schedule is 2 (one flush for the rejection batch, one for
  // the late response); <= 4 leaves slack for a split read of the burst.
  EXPECT_GE(writes, 1u);
  EXPECT_LE(writes, 4u) << "8 frames took " << writes
                        << " write syscalls; coalescing is not happening";
  fs->server->Stop();
}

// ---------------------------------------------------------------------
// PipelinedClient
// ---------------------------------------------------------------------

TEST_F(PipelineEndToEndTest, PipelinedClientMultiplexesAndRestoresCallerIds) {
  auto fs = StartFrameServer();
  net::PipelinedClientOptions client_options;
  client_options.port = fs->port();
  net::PipelinedClient client(client_options);

  constexpr int kThreads = 6;
  constexpr int kPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int patient = (t * kPerThread + i) % 30;
        const uint64_t caller_id = 0xA000u + static_cast<uint64_t>(t) * 100 + i;
        net::ClientRequestOptions options;
        options.content_type = wire::kContentType;
        options.deadline_ms = 10000;
        net::ClientResponse response;
        const io::Status status =
            client.Exchange(EncodeRequest(patient, caller_id), options,
                            &response);
        uint64_t echoed = 0;
        if (!status.ok || response.status != 200 ||
            !wire::PeekRequestId(response.body, &echoed) ||
            echoed != caller_id) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ExpectFrameMatchesOracle(response.body, patient);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Every exchange got its own answer back under its own id, over one
  // shared socket and one connect.
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(client.in_flight(), 0u);
  EXPECT_EQ(client.generation(), 1u);
  EXPECT_TRUE(client.connected());
  fs->server->Stop();
}

TEST_F(PipelineEndToEndTest, DeadlineAndCancelAbandonWithoutKillingConnection) {
  auto fs = StartFrameServer();
  net::PipelinedClientOptions client_options;
  client_options.port = fs->port();
  net::PipelinedClient client(client_options);

  net::ClientRequestOptions options;
  options.content_type = wire::kContentType;
  options.deadline_ms = 5000;
  net::ClientResponse response;
  ASSERT_TRUE(client.Exchange(EncodeRequest(1, 11), options, &response).ok);
  const uint64_t generation = client.generation();

  // Stall every server op well past the client deadline: the exchange
  // must fail with a "deadline" verdict (what the breaker machinery
  // keys on), and the eventually-arriving late response must be
  // recognized by id and dropped instead of poisoning the stream.
  ASSERT_TRUE(fs->injector->Install("stall=1.0:400-500").ok);
  net::ClientRequestOptions tight = options;
  tight.deadline_ms = 100;
  io::Status status = client.Exchange(EncodeRequest(2, 12), tight, &response);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("deadline"), std::string::npos)
      << status.message;
  EXPECT_EQ(client.in_flight(), 0u);
  fs->injector->Clear();

  // A pre-cancelled exchange (a hedge loser) aborts with "cancelled".
  std::atomic<bool> cancelled{true};
  net::ClientRequestOptions hedge_loser = options;
  hedge_loser.cancel = &cancelled;
  status = client.Exchange(EncodeRequest(3, 13), hedge_loser, &response);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("cancelled"), std::string::npos)
      << status.message;

  // Neither abandonment hurt the neighbors: the same connection (same
  // generation — never reconnected) still serves.
  ASSERT_TRUE(client.Exchange(EncodeRequest(4, 14), options, &response).ok);
  EXPECT_EQ(response.status, 200);
  ExpectFrameMatchesOracle(response.body, 4);
  EXPECT_EQ(client.generation(), generation);
  fs->server->Stop();
}

TEST_F(PipelineEndToEndTest, ClientReconnectsAfterServerRestart) {
  auto fs = StartFrameServer();
  const int port = fs->port();
  net::PipelinedClientOptions client_options;
  client_options.port = port;
  net::PipelinedClient client(client_options);

  net::ClientRequestOptions options;
  options.content_type = wire::kContentType;
  options.deadline_ms = 5000;
  net::ClientResponse response;
  ASSERT_TRUE(client.Exchange(EncodeRequest(6, 31), options, &response).ok);
  const uint64_t old_generation = client.generation();

  fs->server->Stop();
  fs = StartFrameServer(port);

  // The first exchange after the restart may land on the dead socket;
  // the client fails it, reaps the reader and reconnects on the next.
  bool recovered = false;
  for (int attempt = 0; attempt < 40 && !recovered; ++attempt) {
    if (client.Exchange(EncodeRequest(7, 32), options, &response).ok) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(recovered);
  EXPECT_EQ(response.status, 200);
  ExpectFrameMatchesOracle(response.body, 7);
  EXPECT_GT(client.generation(), old_generation);
  fs->server->Stop();
}

// Start, Abandon and Close race from many threads against a live
// server. Every started exchange ends exactly one way: its callback runs
// once, or Abandon returned true for it — never both, never neither. An
// exchange that did not start never calls back.
TEST_F(PipelineEndToEndTest, StartAbandonCloseRaceSettlesEachExchangeOnce) {
  auto fs = StartFrameServer();
  net::PipelinedClientOptions client_options;
  client_options.port = fs->port();
  net::PipelinedClient client(client_options);

  constexpr int kThreads = 6;
  constexpr int kPerThread = 400;
  constexpr int kTotal = kThreads * kPerThread;
  std::vector<std::atomic<int>> callbacks(kTotal);
  std::vector<std::atomic<int>> abandons(kTotal);
  std::vector<uint64_t> tickets(kTotal, 0);  // written by the starter only
  std::mutex shared_mutex;
  std::vector<std::pair<uint64_t, int>> shared;  // left for the abandoner
  std::atomic<bool> storm_over{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        const int index = t * kPerThread + i;
        const net::PipelinedClient::Started started = client.Start(
            EncodeRequest(index % 30, static_cast<uint64_t>(index)),
            [&callbacks, index](io::Status, net::ClientResponse) {
              callbacks[static_cast<size_t>(index)].fetch_add(1);
            },
            /*may_dial=*/true);
        tickets[static_cast<size_t>(index)] = started.ticket;
        if (started.ticket == 0) continue;
        switch (rng() % 3) {
          case 0:  // abandon at once, racing the answer
            if (client.Abandon(started.ticket)) {
              abandons[static_cast<size_t>(index)].fetch_add(1);
            }
            break;
          case 1: {  // leave it to the other thread
            std::lock_guard<std::mutex> lock(shared_mutex);
            shared.emplace_back(started.ticket, index);
            break;
          }
          default:  // let it run
            break;
        }
      }
    });
  }
  std::thread abandoner([&] {
    while (!storm_over.load()) {
      std::vector<std::pair<uint64_t, int>> batch;
      {
        std::lock_guard<std::mutex> lock(shared_mutex);
        batch.swap(shared);
      }
      for (const auto& [ticket, index] : batch) {
        if (client.Abandon(ticket)) {
          abandons[static_cast<size_t>(index)].fetch_add(1);
        }
        // A second Abandon of the same ticket never succeeds.
        EXPECT_FALSE(client.Abandon(ticket));
      }
      std::this_thread::yield();
    }
  });
  std::atomic<int> closes{0};
  std::thread closer([&] {
    while (!storm_over.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      client.Close();  // fails whatever is in flight; Starts redial
      closes.fetch_add(1);
    }
  });
  for (auto& thread : threads) thread.join();
  storm_over.store(true);
  closer.join();
  abandoner.join();
  client.Close();  // fails the stragglers: every callback has run now
  EXPECT_EQ(client.in_flight(), 0u);

  int started = 0;
  int abandoned = 0;
  for (int i = 0; i < kTotal; ++i) {
    const size_t at = static_cast<size_t>(i);
    if (tickets[at] == 0) {
      EXPECT_EQ(callbacks[at].load(), 0) << "exchange " << i
                                         << " never started but called back";
      continue;
    }
    ++started;
    abandoned += abandons[at].load();
    EXPECT_EQ(callbacks[at].load() + abandons[at].load(), 1)
        << "exchange " << i << ": " << callbacks[at].load()
        << " callbacks, " << abandons[at].load() << " successful abandons";
  }
  EXPECT_GT(started, kTotal / 2);
  EXPECT_GT(abandoned, 0);
  EXPECT_GT(closes.load(), 0);
  EXPECT_GT(client.generation(), 1u) << "no Start redialed after a Close";
  fs->server->Stop();
}

// Binary tries in flight are bounded by the replica's pipelined
// connection, not by the router's worker threads: sixteen concurrent
// binary exchanges against a replica that holds every answer 50 ms
// (without serializing them) finish in about one hold with two workers,
// not eight holds.
TEST_F(PipelineEndToEndTest, BinaryTriesInFlightAreNotCappedByWorkerThreads) {
  using Clock = std::chrono::steady_clock;
  constexpr auto kHold = std::chrono::milliseconds(50);
  struct Held {
    Clock::time_point due;
    net::ResponseWriter writer;
  };
  std::mutex held_mutex;
  std::condition_variable held_cv;
  std::deque<Held> held;
  bool stop = false;
  std::thread releaser([&] {
    std::unique_lock<std::mutex> lock(held_mutex);
    while (!stop || !held.empty()) {
      if (held.empty()) {
        held_cv.wait(lock);
        continue;
      }
      if (Clock::now() < held.front().due) {
        held_cv.wait_until(lock, held.front().due);
        continue;
      }
      net::ResponseWriter writer = held.front().writer;
      held.pop_front();
      lock.unlock();
      wire::SuggestResponseFrame frame;
      frame.model_version = 1;
      frame.drugs = {3};
      frame.scores = {0.5f};
      net::HttpResponse response;
      response.content_type = wire::kContentType;
      response.body = wire::EncodeSuggestResponse(frame);
      writer.Send(std::move(response));
      lock.lock();
    }
  });
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(
      server_options,
      [&](const net::HttpRequest&, net::ResponseWriter writer) {
        std::lock_guard<std::mutex> lock(held_mutex);
        held.push_back({Clock::now() + kHold, writer});
        held_cv.notify_all();
      });
  ASSERT_TRUE(server.Start().ok);

  std::vector<net::ReplicaClientOptions> endpoints(1);
  endpoints[0].port = server.port();
  net::RouterOptions router_options;
  router_options.worker_threads = 2;
  router_options.per_try_timeout_ms = 5000;
  auto registry = std::make_shared<obs::Registry>();
  {
    net::Router router(endpoints, router_options, registry, nullptr);
    net::RouterResult warm;
    ASSERT_TRUE(router.Exchange("/v1/suggest", EncodeRequest(0, 1),
                                wire::kContentType, 10000, &warm)
                    .ok);
    ASSERT_EQ(warm.status, 200);

    constexpr int kConcurrent = 16;
    std::vector<net::RouterResult> results(kConcurrent);
    std::vector<std::thread> callers;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kConcurrent; ++i) {
      callers.emplace_back([&, i] {
        router.Exchange("/v1/suggest",
                        EncodeRequest(i % 30, static_cast<uint64_t>(100 + i)),
                        wire::kContentType, 10000,
                        &results[static_cast<size_t>(i)]);
      });
    }
    for (auto& caller : callers) caller.join();
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    for (int i = 0; i < kConcurrent; ++i) {
      const net::RouterResult& result = results[static_cast<size_t>(i)];
      EXPECT_EQ(result.status, 200) << "exchange " << i;
      EXPECT_EQ(result.tries, 1) << "exchange " << i;
      uint64_t echoed = 0;
      ASSERT_TRUE(wire::PeekRequestId(result.body, &echoed));
      EXPECT_EQ(echoed, static_cast<uint64_t>(100 + i));
    }
    // Capped at two tries in flight this takes eight holds (400 ms).
    EXPECT_LT(elapsed_ms, 4.0 * 50.0)
        << "16 held exchanges took " << elapsed_ms << " ms";
  }
  server.Stop();
  {
    std::lock_guard<std::mutex> lock(held_mutex);
    stop = true;
    held_cv.notify_all();
  }
  releaser.join();
}

// ---------------------------------------------------------------------
// Hedge kill-switch (the /sloz burn signal wired into the router)
// ---------------------------------------------------------------------

TEST_F(PipelineEndToEndTest, HedgeInhibitHaltsHedgesWhileRetriesContinue) {
  auto slow = StartFrameServer(0, /*threads=*/2);
  auto fast = StartFrameServer(0, /*threads=*/2);
  // Every op on the slow replica stalls past the hedge trigger but well
  // inside the per-try budget: without the kill-switch these requests
  // hedge, with it they must simply wait the stall out.
  ASSERT_TRUE(slow->injector->Install("stall=1.0:150-150").ok);

  std::vector<net::ReplicaClientOptions> endpoints(2);
  endpoints[0].host = "127.0.0.1";
  endpoints[0].port = slow->port();
  endpoints[1].host = "127.0.0.1";
  endpoints[1].port = fast->port();

  std::atomic<bool> inhibit{true};
  net::RouterOptions router_options;
  router_options.max_tries = 3;
  router_options.per_try_timeout_ms = 2000;
  router_options.hedging = true;
  router_options.hedge_min_delay_ms = 10;
  router_options.hedge_inhibit = [&inhibit] {
    return inhibit.load(std::memory_order_relaxed);
  };
  auto registry = std::make_shared<obs::Registry>();
  auto recorder = std::make_shared<obs::FlightRecorder>();
  net::Router router(endpoints, router_options, registry, recorder);

  const auto& features = dataset_->patient_features;
  const auto body = [&](int patient) {
    net::JsonWriter json;
    json.BeginObject().Key("patient_id").Int(patient);
    json.Key("features").BeginArray();
    for (int j = 0; j < features.cols(); ++j) {
      json.Float(features.At(patient, j));
    }
    json.EndArray().Key("k").Int(3).EndObject();
    return json.str();
  };

  // Inhibited: no exchange may hedge, however long the slow primary
  // stalls.
  for (int i = 0; i < 6; ++i) {
    net::RouterResult result;
    ASSERT_TRUE(router.Exchange("/v1/suggest", body(i), "application/json",
                                3000, &result)
                    .ok);
    EXPECT_EQ(result.status, 200);
    EXPECT_FALSE(result.hedged) << "hedged while inhibited (request " << i
                                << ")";
  }

  // Switch cleared: a stalled primary now hedges to the fast replica.
  inhibit.store(false, std::memory_order_relaxed);
  bool hedged = false;
  for (int i = 0; i < 20 && !hedged; ++i) {
    net::RouterResult result;
    ASSERT_TRUE(router.Exchange("/v1/suggest", body(i % 10),
                                "application/json", 3000, &result)
                    .ok);
    EXPECT_EQ(result.status, 200);
    hedged = hedged || result.hedged;
  }
  EXPECT_TRUE(hedged) << "hedging never resumed after the inhibit cleared";

  // Re-inhibited with the slow replica fully dead: plain retries must
  // still fail over (the switch kills hedges, not fault tolerance).
  inhibit.store(true, std::memory_order_relaxed);
  ASSERT_TRUE(slow->injector->Install("blackout=1").ok);
  bool failed_over = false;
  for (int i = 0; i < 6; ++i) {
    net::RouterResult result;
    ASSERT_TRUE(router.Exchange("/v1/suggest", body(i), "application/json",
                                3000, &result)
                    .ok);
    EXPECT_EQ(result.status, 200);
    EXPECT_FALSE(result.hedged);
    failed_over = failed_over || result.tries > 1 || result.replica == 1;
  }
  EXPECT_TRUE(failed_over);

  slow->server->Stop();
  fast->server->Stop();
}

}  // namespace
}  // namespace dssddi
