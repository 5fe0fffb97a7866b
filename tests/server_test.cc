// Spatial query server tests: wire round-trips, gathered frame writes,
// concurrent coalesced serving bit-identical to direct index queries
// (results AND QueryContext counters), admission deadlines, atomic
// reload under load, malformed-frame handling, graceful drain, and
// call-reply latency free of the Nagle/delayed-ACK stall. Server tests
// run against an in-process SpatialServer on an ephemeral loopback
// port.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "baselines/factory.h"
#include "baselines/kdb_tree.h"
#include "data/generators.h"
#include "exec/batch_query_engine.h"
#include "exec/request.h"
#include "io/index_container.h"
#include "server/client.h"
#include "server/loadgen.h"
#include "server/spatial_server.h"
#include "server/wire.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

IndexBuildConfig SpecConfig() {
  IndexBuildConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 40;
  cfg.train.batch_size = 128;
  cfg.internal_sample_cap = 2048;
  return cfg;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Builds a small learned index over `data` and saves it; returns the
/// path.
std::string BuildAndSave(const std::vector<Point>& data,
                         const std::string& name,
                         const std::string& spec = "sharded<2>:rsmi") {
  auto index = MakeIndexFromSpec(spec, data, SpecConfig());
  EXPECT_NE(index, nullptr);
  const std::string path = TempPath(name);
  std::string err;
  EXPECT_TRUE(SaveIndex(*index, path, &err)) << err;
  return path;
}

bool SameEntry(const std::optional<PointEntry>& a,
               const std::optional<PointEntry>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->pt.x == b->pt.x && a->pt.y == b->pt.y && a->id == b->id;
}

bool SamePoints(const std::vector<Point>& a, const std::vector<Point>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].x != b[i].x || a[i].y != b[i].y) return false;
  }
  return true;
}

bool SameContext(const QueryContext& a, const QueryContext& b) {
  return a.block_accesses == b.block_accesses &&
         a.model_invocations == b.model_invocations &&
         a.descents == b.descents && a.nodes_visited == b.nodes_visited;
}

/// Response equality down to the QueryContext counters.
bool SameResponse(const Response& a, const Response& b) {
  return a.id == b.id && a.status == b.status &&
         SameEntry(a.hit, b.hit) && SamePoints(a.points, b.points) &&
         SameContext(a.cost, b.cost);
}

TEST(WireTest, RequestRoundTrip) {
  Request req = Request::KnnLookup({0.25, 0.75}, 9, 4242);
  req.deadline_us = 1500;
  req.window = Rect{{0.1, 0.2}, {0.3, 0.4}};
  req.path = "some/index.rsmi";
  const std::vector<uint8_t> payload = EncodeRequest(req);
  Request back;
  ASSERT_TRUE(DecodeRequest(payload.data(), payload.size(), &back));
  EXPECT_EQ(back.type, Request::Type::kKnn);
  EXPECT_EQ(back.id, 4242u);
  EXPECT_EQ(back.deadline_us, 1500u);
  EXPECT_EQ(back.pt.x, 0.25);
  EXPECT_EQ(back.pt.y, 0.75);
  EXPECT_EQ(back.k, 9u);
  EXPECT_EQ(back.window.lo.x, 0.1);
  EXPECT_EQ(back.window.hi.y, 0.4);
  EXPECT_EQ(back.path, "some/index.rsmi");
}

TEST(WireTest, ResponseRoundTrip) {
  Response resp;
  resp.id = 77;
  resp.status = StatusCode::kOk;
  resp.hit = PointEntry{{0.5, 0.25}, 123};
  resp.points = {{0.1, 0.2}, {0.3, 0.4}};
  resp.cost.block_accesses = 3;
  resp.cost.model_invocations = 4;
  resp.cost.descents = 1;
  resp.cost.nodes_visited = 2;
  resp.message = "hello";
  const std::vector<uint8_t> payload = EncodeResponse(resp);
  Response back;
  ASSERT_TRUE(DecodeResponse(payload.data(), payload.size(), &back));
  EXPECT_TRUE(SameResponse(resp, back));
  EXPECT_EQ(back.message, "hello");
}

TEST(WireTest, RejectsMalformedPayloads) {
  // Truncated payload.
  const std::vector<uint8_t> payload = EncodeRequest(Request::PointLookup(
      {0.5, 0.5}, 1));
  Request out;
  ASSERT_TRUE(DecodeRequest(payload.data(), payload.size(), &out));
  EXPECT_FALSE(DecodeRequest(payload.data(), payload.size() - 1, &out));
  // Unknown type byte.
  std::vector<uint8_t> bad = payload;
  bad[0] = 99;
  EXPECT_FALSE(DecodeRequest(bad.data(), bad.size(), &out));
  // Trailing garbage after a complete request.
  bad = payload;
  bad.push_back(0);
  EXPECT_FALSE(DecodeRequest(bad.data(), bad.size(), &out));
}

/// A connected AF_UNIX stream pair, closed on destruction.
struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~SocketPair() {
    for (int f : fd) {
      if (f >= 0) ::close(f);
    }
  }
};

std::vector<uint8_t> PatternBytes(size_t n, uint8_t salt) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(i * 31 + (i >> 8) + salt);
  }
  return v;
}

void NoopHandler(int) {}

TEST(WireTest, WriteFrameRefusesPayloadsOverTheLengthPrefix) {
  SocketPair sp;
  // The payload is never touched: the bound is checked before any byte
  // is written, so a one-byte buffer stands in for 4 GiB.
  const uint8_t byte = 0;
  const size_t too_big = size_t{UINT32_MAX} + 1;
  EXPECT_FALSE(WriteFrame(sp.fd[0], &byte, too_big));
  uint8_t probe = 0;
  EXPECT_EQ(::recv(sp.fd[1], &probe, 1, MSG_DONTWAIT), -1);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
}

TEST(WireTest, GatheredFrameWritesReadBackByteIdenticalThroughShortWrites) {
  SocketPair sp;
  // A tiny send buffer makes the writes block over and over; a signal
  // without SA_RESTART interrupting a blocked sendmsg returns a short
  // count (or EINTR when nothing went out yet), so the resume path runs
  // at many offsets. (A short count inside the 4-byte prefix itself
  // cannot be provoked here: the kernel takes the first 2 KiB or more of
  // a write at once. The resume code does not tell the iovecs apart.)
  const int sndbuf = 4096;
  ASSERT_EQ(::setsockopt(sp.fd[0], SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);
  struct sigaction sa {};
  struct sigaction old_sa {};
  sa.sa_handler = NoopHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old_sa), 0);

  std::vector<std::vector<uint8_t>> frames;
  for (size_t n : {size_t{0}, size_t{1}, size_t{4096}, size_t{8} << 20}) {
    frames.push_back(PatternBytes(n, static_cast<uint8_t>(frames.size())));
  }
  // A run of small frames of odd sizes, empty ones included: they fill
  // the buffer behind each other, so many block and see EINTR.
  for (size_t i = 0; i < 1500; ++i) {
    frames.push_back(PatternBytes((i * 37) % 211, static_cast<uint8_t>(i)));
  }
  std::vector<std::vector<uint8_t>> received;
  std::thread reader([&] {
    std::vector<uint8_t> payload;
    while (ReadFrame(sp.fd[1], 16u << 20, &payload) == FrameReadResult::kOk) {
      received.push_back(payload);
    }
    // Drain whatever a corrupted stream left, so the writer never
    // blocks on a full socket.
    uint8_t sink[4096];
    while (::read(sp.fd[1], sink, sizeof(sink)) > 0) {
    }
  });
  std::atomic<bool> writing{true};
  const pthread_t writer = ::pthread_self();
  std::thread interrupter([&] {
    while (writing.load()) {
      ::pthread_kill(writer, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  for (const auto& p : frames) {
    EXPECT_TRUE(WriteFrame(sp.fd[0], p.data(), p.size()));
  }
  writing.store(false);
  // EOF ends the reader, also when a corrupted prefix left it waiting
  // for bytes that never come.
  ::shutdown(sp.fd[0], SHUT_WR);
  interrupter.join();
  reader.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &old_sa, nullptr), 0);

  ASSERT_EQ(received.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(received[i], frames[i]) << "frame " << i;
  }
}

TEST(WireTest, WritingToAClosedPeerFailsWithoutSigpipe) {
  SocketPair sp;
  ::close(sp.fd[1]);
  sp.fd[1] = -1;
  // SIGPIPE's default action would kill the test binary here.
  const std::vector<uint8_t> payload = PatternBytes(64, 1);
  EXPECT_FALSE(WriteFrame(sp.fd[0], payload.data(), payload.size()));
  EXPECT_FALSE(WriteAll(sp.fd[0], payload.data(), payload.size()));
}

class ServerTest : public ::testing::Test {
 protected:
  /// Data with stable ids: GenerateDataset is deterministic, so a file
  /// saved from it and a locally loaded copy answer identically.
  std::vector<Point> MakeData(size_t n, uint64_t seed) {
    return GenerateDataset(Distribution::kSkewed, n, seed);
  }

  std::unique_ptr<SpatialServer> StartServer(const std::string& path,
                                             int threads,
                                             size_t max_batch = 16) {
    ServerOptions opts;
    opts.index_path = path;
    opts.threads = threads;
    opts.max_batch = max_batch;
    std::string err;
    auto server = SpatialServer::Start(opts, &err);
    EXPECT_NE(server, nullptr) << err;
    return server;
  }

  std::unique_ptr<ServerClient> Connect(const SpatialServer& server) {
    std::string err;
    auto client = ServerClient::Connect("127.0.0.1", server.port(), &err);
    EXPECT_NE(client, nullptr) << err;
    return client;
  }
};

TEST_F(ServerTest, ConcurrentCoalescedServingBitIdenticalToDirectQueries) {
  const auto data = MakeData(3000, 42);
  const std::string path = BuildAndSave(data, "serve_parity.idx");
  auto server = StartServer(path, /*threads=*/3);

  // The ground truth: a locally loaded copy of the same file, queried
  // directly through the same executor the server uses.
  auto local = LoadIndex(path);
  ASSERT_NE(local, nullptr);

  constexpr int kClients = 8;
  constexpr size_t kPerClient = 120;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Connect(*server);
      if (client == nullptr) {
        ++failures;
        return;
      }
      WorkloadMix mix;
      mix.point_frac = 0.7;
      mix.window_frac = 0.2;
      mix.window_area = 0.001;
      mix.k = 5;
      auto reqs = BuildMixedWorkload(data, kPerClient, mix,
                                     /*seed=*/100 + static_cast<uint64_t>(c));
      // Pipeline everything: many point requests in flight across all
      // clients is exactly what feeds the coalescing admission path.
      for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].id = static_cast<uint64_t>(c) * 1000000 + i;
        if (!client->Send(reqs[i])) {
          ++failures;
          return;
        }
      }
      for (size_t i = 0; i < reqs.size(); ++i) {
        Response resp;
        if (!client->Receive(&resp)) {
          ++failures;
          return;
        }
        // Responses may arrive out of order; match by id.
        const Request& req = reqs[resp.id % 1000000];
        const Response direct = ExecuteReadRequest(*local, req);
        Response expected = direct;
        expected.id = req.id;
        if (!SameResponse(resp, expected)) ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  const ServerStats st = server->stats();
  EXPECT_EQ(st.requests_admitted, kClients * kPerClient);
  // The point of the design: requests from unrelated clients ran in
  // shared PointQueryBatch groups — and were still bit-identical.
  EXPECT_GT(st.coalesced_batches, 0u);
  EXPECT_GT(st.coalesced_requests, st.coalesced_batches);
  server->Stop();
}

TEST_F(ServerTest, DeadlineExpiredRequestsGetDistinctResponse) {
  const auto data = MakeData(2000, 7);
  const std::string path = BuildAndSave(data, "serve_deadline.idx");
  // One worker: queued requests wait for the slow ones ahead of them.
  auto server = StartServer(path, /*threads=*/1);
  auto client = Connect(*server);
  ASSERT_NE(client, nullptr);

  // A stack of full-space window scans keeps the single worker busy...
  constexpr int kSlow = 6;
  for (int i = 0; i < kSlow; ++i) {
    Request slow = Request::WindowLookup(Rect::UnitSquare(), 1000 + i);
    ASSERT_TRUE(client->Send(slow));
  }
  // ...so this point request's 1us admission budget is long gone when a
  // worker finally dequeues it.
  Request late = Request::PointLookup(data[0], 2000);
  late.deadline_us = 1;
  ASSERT_TRUE(client->Send(late));

  int deadline_hits = 0;
  for (int i = 0; i < kSlow + 1; ++i) {
    Response resp;
    ASSERT_TRUE(client->Receive(&resp));
    if (resp.id == 2000) {
      EXPECT_EQ(resp.status, StatusCode::kDeadlineExceeded);
      EXPECT_FALSE(resp.hit.has_value());
      ++deadline_hits;
    } else {
      EXPECT_EQ(resp.status, StatusCode::kOk);
    }
  }
  EXPECT_EQ(deadline_hits, 1);
  EXPECT_EQ(server->stats().deadline_expired, 1u);

  // No deadline: the same request simply succeeds.
  Response ok;
  ASSERT_TRUE(client->Call(Request::PointLookup(data[0], 2001), &ok));
  EXPECT_EQ(ok.status, StatusCode::kOk);
  server->Stop();
}

TEST_F(ServerTest, ReloadUnderLoadServesOneConsistentSnapshotPerRequest) {
  const auto data_a = MakeData(2000, 11);
  auto data_b = data_a;
  const auto extra = GenerateDataset(Distribution::kUniform, 200, 999);
  data_b.insert(data_b.end(), extra.begin(), extra.end());

  const std::string path_a = BuildAndSave(data_a, "serve_reload_a.idx");
  const std::string path_b = BuildAndSave(data_b, "serve_reload_b.idx");
  auto server = StartServer(path_a, /*threads=*/3);

  auto local_a = LoadIndex(path_a);
  auto local_b = LoadIndex(path_b);
  ASSERT_NE(local_a, nullptr);
  ASSERT_NE(local_b, nullptr);

  // Hammer point lookups for points only index B contains while the
  // reload swaps snapshots mid-stream. Every response must be exactly
  // the A answer or exactly the B answer — counters included.
  std::atomic<int> failures{0};
  std::atomic<bool> saw_b{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> hammers;
  for (int c = 0; c < 4; ++c) {
    hammers.emplace_back([&, c] {
      auto client = Connect(*server);
      if (client == nullptr) {
        ++failures;
        return;
      }
      uint64_t id = static_cast<uint64_t>(c) * 1000000;
      while (!stop.load(std::memory_order_relaxed)) {
        const Point& q = extra[id % extra.size()];
        Request req = Request::PointLookup(q, id++);
        Response resp;
        if (!client->Call(req, &resp)) {
          ++failures;
          return;
        }
        Response expect_a = ExecuteReadRequest(*local_a, req);
        Response expect_b = ExecuteReadRequest(*local_b, req);
        expect_a.id = expect_b.id = req.id;
        const bool is_a = SameResponse(resp, expect_a);
        const bool is_b = SameResponse(resp, expect_b);
        if (is_b) saw_b.store(true, std::memory_order_relaxed);
        if (!is_a && !is_b) ++failures;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto admin = Connect(*server);
  ASSERT_NE(admin, nullptr);
  Request reload;
  reload.type = Request::Type::kReload;
  reload.id = 31337;
  reload.path = path_b;
  Response resp;
  ASSERT_TRUE(admin->Call(reload, &resp));
  EXPECT_EQ(resp.status, StatusCode::kOk) << resp.message;

  // After the reload response, new requests must see snapshot B.
  Request probe = Request::PointLookup(extra[0], 31338);
  Response after;
  ASSERT_TRUE(admin->Call(probe, &after));
  Response expect_b = ExecuteReadRequest(*local_b, probe);
  expect_b.id = probe.id;
  EXPECT_TRUE(SameResponse(after, expect_b));

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (std::thread& t : hammers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(saw_b.load());
  EXPECT_EQ(server->stats().reloads, 1u);

  // A reload of a nonexistent file fails without dropping the snapshot.
  Request bad_reload;
  bad_reload.type = Request::Type::kReload;
  bad_reload.id = 31339;
  bad_reload.path = TempPath("no_such_index.idx");
  ASSERT_TRUE(admin->Call(bad_reload, &resp));
  EXPECT_EQ(resp.status, StatusCode::kInternal);
  ASSERT_TRUE(admin->Call(probe, &after));
  EXPECT_TRUE(SameResponse(after, expect_b));
  server->Stop();
}

TEST_F(ServerTest, MalformedFramesAreRejectedWithoutKillingTheConnection) {
  const auto data = MakeData(1500, 5);
  const std::string path = BuildAndSave(data, "serve_malformed.idx");
  auto server = StartServer(path, /*threads=*/2);
  auto client = Connect(*server);
  ASSERT_NE(client, nullptr);

  // A well-framed but undecodable payload: per-request error, the
  // connection keeps serving.
  const uint8_t garbage[] = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(WriteFrame(client->fd(), garbage, sizeof(garbage)));
  Response resp;
  ASSERT_TRUE(client->Receive(&resp));
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);

  Response ok;
  ASSERT_TRUE(client->Call(Request::PointLookup(data[0], 5), &ok));
  EXPECT_EQ(ok.status, StatusCode::kOk);

  // An oversized length prefix cannot be resynchronized: one error
  // response, then that connection (and only it) is closed.
  const uint32_t huge = kMaxRequestFrameBytes + 1;
  ASSERT_TRUE(WriteAll(client->fd(), &huge, sizeof(huge)));
  ASSERT_TRUE(client->Receive(&resp));
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);
  client->SetReceiveTimeout(2000);
  EXPECT_FALSE(client->Receive(&resp));

  // The server survived: a fresh connection works.
  auto client2 = Connect(*server);
  ASSERT_NE(client2, nullptr);
  ASSERT_TRUE(client2->Call(Request::PointLookup(data[0], 6), &ok));
  EXPECT_EQ(ok.status, StatusCode::kOk);

  // A connection dropped mid-frame doesn't wedge the reader loop.
  auto client3 = Connect(*server);
  ASSERT_NE(client3, nullptr);
  const uint32_t claimed = 100;  // promise 100 bytes, deliver 2, hang up
  ASSERT_TRUE(WriteAll(client3->fd(), &claimed, sizeof(claimed)));
  const uint8_t partial[] = {1, 2};
  ASSERT_TRUE(WriteAll(client3->fd(), partial, sizeof(partial)));
  client3.reset();
  ASSERT_TRUE(client2->Call(Request::PointLookup(data[1], 7), &ok));
  server->Stop();
}

TEST_F(ServerTest, SmallRepliesDoNotWaitForDelayedAck) {
  const auto data = MakeData(1500, 17);
  const std::string path = BuildAndSave(data, "serve_nodelay.idx");
  auto server = StartServer(path, /*threads=*/2);
  auto client = Connect(*server);
  ASSERT_NE(client, nullptr);

  // Strict call-reply: the client only sends once the previous reply is
  // in, so a reply held back for a delayed ACK (~40 ms each) would take
  // this loop to ~8 s; microsecond round trips finish far below 2 s.
  constexpr size_t kCalls = 200;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < kCalls; ++i) {
    Response resp;
    ASSERT_TRUE(client->Call(Request::PointLookup(data[i], i), &resp));
    ASSERT_EQ(resp.status, StatusCode::kOk);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2))
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count()
      << " ms for " << kCalls << " sequential calls";
  server->Stop();
}

TEST_F(ServerTest, OversizeRequestFailsOnTheClientAndKeepsTheConnection) {
  const auto data = MakeData(1500, 19);
  const std::string path = BuildAndSave(data, "serve_oversize.idx");
  auto server = StartServer(path, /*threads=*/2);
  auto client = Connect(*server);
  ASSERT_NE(client, nullptr);

  // 17 bytes an op: 70,000 ops encode past the 1 MiB request cap.
  UpdateBatch batch;
  for (size_t i = 0; i < 70000; ++i) batch.Insert({0.5, 0.5});
  const Request big = Request::Updates(std::move(batch));
  ASSERT_GT(EncodeRequest(big).size(), kMaxRequestFrameBytes);
  EXPECT_FALSE(client->Send(big));

  // Nothing was written, so the connection is still in frame sync.
  Response ok;
  ASSERT_TRUE(client->Call(Request::PointLookup(data[0], 9), &ok));
  EXPECT_EQ(ok.status, StatusCode::kOk);
  EXPECT_EQ(server->stats().requests_rejected, 0u);
  server->Stop();
}

TEST_F(ServerTest, GracefulStopAnswersEverythingAdmitted) {
  const auto data = MakeData(1500, 3);
  const std::string path = BuildAndSave(data, "serve_drain.idx");
  auto server = StartServer(path, /*threads=*/2);
  auto client = Connect(*server);
  ASSERT_NE(client, nullptr);

  constexpr size_t kInFlight = 64;
  for (size_t i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(client->Send(Request::PointLookup(data[i], i)));
  }
  // Give the reader a moment to admit them, then shut down under load.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server->Stop();

  // Every admitted request was answered before the workers exited.
  size_t received = 0;
  Response resp;
  client->SetReceiveTimeout(2000);
  while (received < kInFlight && client->Receive(&resp)) ++received;
  EXPECT_EQ(received, kInFlight);
  EXPECT_EQ(server->stats().responses_sent,
            server->stats().requests_admitted);

  // And the listener is gone.
  std::string err;
  auto late = ServerClient::Connect("127.0.0.1", server->port(), &err);
  if (late != nullptr) {
    // A connect may still succeed transiently (TIME_WAIT reuse by
    // another process is unlikely but possible); it must at least not
    // be served.
    late->SetReceiveTimeout(500);
    Response r;
    late->Send(Request::PointLookup(data[0], 1));
    EXPECT_FALSE(late->Receive(&r));
  }
}

TEST(AtomicSaveTest, FailedSaveNeverClobbersTheExistingFile) {
  const auto data =
      GenerateDataset(Distribution::kUniform, 1200, 21);
  auto good = MakeIndexFromSpec("grid", data, SpecConfig());
  ASSERT_NE(good, nullptr);
  const std::string path =
      ::testing::TempDir() + "/atomic_save_target.idx";
  std::string err;
  ASSERT_TRUE(SaveIndex(*good, path, &err)) << err;

  // Every shipped kind persists now, so model a third-party index with
  // no persistence spec (KindSpec() empty): the save must fail cleanly...
  class SpeclessKdb : public KdbTree {
   public:
    using KdbTree::KdbTree;
    std::string KindSpec() const override { return ""; }
  };
  SpeclessKdb unsavable(data, KdbConfig{});
  EXPECT_FALSE(SaveIndex(unsavable, path, &err));

  // ...and the original file still loads, untouched.
  auto back = LoadIndex(path, &err);
  ASSERT_NE(back, nullptr) << err;
  EXPECT_EQ(back->KindSpec(), "grid");

  // A successful re-save replaces atomically and leaves no temp files.
  ASSERT_TRUE(SaveIndex(*good, path, &err)) << err;
  auto again = LoadIndex(path, &err);
  ASSERT_NE(again, nullptr) << err;
  const std::string tmp_probe =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp_probe.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST_F(ServerTest, LoadgenDrivesTrafficAndReportsPercentiles) {
  const auto data = MakeData(1500, 13);
  const std::string path = BuildAndSave(data, "serve_loadgen.idx");
  auto server = StartServer(path, /*threads=*/2);

  LoadgenOptions opts;
  opts.port = server->port();
  opts.target_qps = 2000;
  opts.duration_s = 0.5;
  opts.connections = 2;
  opts.data = data;
  LoadgenReport report;
  std::string err;
  ASSERT_TRUE(RunLoadgen(opts, &report, &err)) << err;
  EXPECT_EQ(report.sent, report.received);
  EXPECT_GT(report.ok, 0u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GE(report.p99_us, report.p50_us);
  EXPECT_GE(report.p999_us, report.p99_us);
  EXPECT_GT(report.achieved_qps, 0.0);

  const std::string json = LoadgenReportJson(report);
  EXPECT_NE(json.find("\"achieved_qps\""), std::string::npos);
  EXPECT_NE(json.find("\"p999_us\""), std::string::npos);
  server->Stop();
}

}  // namespace
}  // namespace rsmi
