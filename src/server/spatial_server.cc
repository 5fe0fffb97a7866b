#include "server/spatial_server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "io/index_container.h"
#include "obs/trace.h"
#include "server/wire.h"

namespace rsmi {

namespace {

Response ErrorResponse(uint64_t id, StatusCode status, std::string message) {
  Response resp;
  resp.id = id;
  resp.status = status;
  resp.message = std::move(message);
  return resp;
}

/// Encodes `resp` for the wire. A reply over the client's frame cap
/// (a huge window) would be refused by the client and fail the call, so
/// it is answered with a kInternal error instead.
std::vector<uint8_t> EncodeReply(const Response& resp) {
  std::vector<uint8_t> payload = EncodeResponse(resp);
  if (payload.size() > kMaxResponseFrameBytes) {
    payload = EncodeResponse(
        ErrorResponse(resp.id, StatusCode::kInternal,
                      "response exceeds the 256 MiB frame cap"));
  }
  return payload;
}

uint64_t ToUs(std::chrono::steady_clock::duration d) {
  const int64_t us =
      std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  return us < 0 ? 0 : static_cast<uint64_t>(us);
}

}  // namespace

SpatialServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

std::unique_ptr<SpatialServer> SpatialServer::Start(const ServerOptions& opts,
                                                    std::string* error) {
  auto fail = [&](const std::string& why) -> std::unique_ptr<SpatialServer> {
    if (error != nullptr) *error = why;
    return nullptr;
  };

  auto snapshot = std::make_shared<Snapshot>();
  std::string load_error;
  snapshot->index = LoadIndex(opts.index_path, &load_error);
  if (snapshot->index == nullptr) {
    return fail("cannot load " + opts.index_path + ": " + load_error);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    return fail("bind: " + why);
  }
  if (::listen(fd, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    return fail("listen: " + why);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    return fail("getsockname: " + why);
  }

  std::unique_ptr<SpatialServer> server(new SpatialServer());
  server->default_path_ = opts.index_path;
  server->snapshot_ = std::move(snapshot);
  server->listen_fd_ = fd;
  server->port_ = ntohs(bound.sin_port);
  server->max_batch_ = std::max<size_t>(1, opts.max_batch);
  server->slow_query_us_ = opts.slow_query_us;

  // Resolve every instrumentation site once; from here on recording is a
  // relaxed fetch_add through a stable pointer.
  MetricsRegistry& reg = server->registry_;
  server->admitted_ = &reg.GetCounter("server.requests_admitted");
  server->rejected_ = &reg.GetCounter("server.requests_rejected");
  server->responses_ = &reg.GetCounter("server.responses_sent");
  server->coalesced_batches_ = &reg.GetCounter("server.coalesced_batches");
  server->coalesced_requests_ = &reg.GetCounter("server.coalesced_requests");
  server->deadline_expired_ = &reg.GetCounter("server.deadline_exceeded");
  server->reloads_ = &reg.GetCounter("server.reloads");
  server->stats_requests_ = &reg.GetCounter("server.stats_requests");
  server->slow_queries_ = &reg.GetCounter("server.slow_queries");
  server->batch_size_ = &reg.GetHistogram("server.batch_size");
  static const char* kOpNames[4] = {"point", "window", "knn", "other"};
  for (size_t i = 0; i < 4; ++i) {
    server->op_timers_[i].queue_us =
        &reg.GetHistogram(std::string("server.queue_us.") + kOpNames[i]);
    server->op_timers_[i].exec_us =
        &reg.GetHistogram(std::string("server.exec_us.") + kOpNames[i]);
  }
  reg.GetGauge("server.workers").Set(std::max(1, opts.threads));
  reg.GetGauge("server.max_batch")
      .Set(static_cast<int64_t>(server->max_batch_));

  const int n_workers = std::max(1, opts.threads);
  server->workers_.reserve(static_cast<size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

SpatialServer::~SpatialServer() { Stop(); }

void SpatialServer::Stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true, std::memory_order_release);

    // 1. Stop accepting: shutdown unblocks the acceptor's accept().
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;

    // 2. Unblock every connection reader. Frames already read keep
    // flowing into the admission queue; no new ones arrive.
    std::vector<std::thread> readers;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RD);
      readers.swap(readers_);
    }
    for (std::thread& t : readers) t.join();

    // 3. Everything admitted is now in the queues. Let the workers
    // drain them (they answer every request, deadlines included), then
    // exit.
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      workers_stop_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& t : workers_) t.join();

    // 4. Drop the connections (the destructor closes each fd).
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  });
}

ServerStats SpatialServer::stats() const {
  ServerStats s;
  s.requests_admitted = admitted_->Value();
  s.responses_sent = responses_->Value();
  s.coalesced_batches = coalesced_batches_->Value();
  s.coalesced_requests = coalesced_requests_->Value();
  s.deadline_expired = deadline_expired_->Value();
  s.reloads = reloads_->Value();
  s.requests_rejected = rejected_->Value();
  s.stats_requests = stats_requests_->Value();
  s.slow_queries = slow_queries_->Value();
  return s;
}

MetricsSnapshot SpatialServer::Metrics() const {
  MetricsSnapshot snap = registry_.Snapshot();
  snap.MergeFrom(MetricsRegistry::Global().Snapshot());
  return snap;
}

const SpatialServer::OpTimers& SpatialServer::TimersFor(
    Request::Type type) const {
  switch (type) {
    case Request::Type::kPoint:
      return op_timers_[0];
    case Request::Type::kWindow:
      return op_timers_[1];
    case Request::Type::kKnn:
      return op_timers_[2];
    default:
      return op_timers_[3];
  }
}

std::shared_ptr<SpatialServer::Snapshot> SpatialServer::CurrentSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void SpatialServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (Stop) or fatal accept error
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    // Replies are small and each goes out in one write: Nagle would only
    // hold one back until the client's delayed ACK (~40 ms).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    readers_.emplace_back(
        [this, conn = std::move(conn)] { ReaderLoop(conn); });
  }
}

void SpatialServer::ForgetConnection(
    const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
               conns_.end());
}

void SpatialServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  std::vector<uint8_t> payload;
  for (;;) {
    const FrameReadResult r =
        ReadFrame(conn->fd, kMaxRequestFrameBytes, &payload);
    if (r == FrameReadResult::kEof || r == FrameReadResult::kError) {
      // Queued requests still hold the connection (their responses go
      // out first); dropping the registry reference lets the fd close
      // right after the last one, so a done client sees prompt EOF.
      ForgetConnection(conn);
      return;
    }
    if (r == FrameReadResult::kTooLarge) {
      // The stream cannot be resynchronized past an oversized frame:
      // answer once, then drop this connection (others are unaffected).
      rejected_->Add();
      SendResponse(*conn,
                   ErrorResponse(0, StatusCode::kInvalidArgument,
                                 "request frame exceeds limit"));
      ::shutdown(conn->fd, SHUT_RDWR);
      ForgetConnection(conn);
      return;
    }
    Request req;
    if (!DecodeRequest(payload.data(), payload.size(), &req)) {
      // A well-framed but undecodable payload is a per-request error;
      // the frame boundary is intact, so the connection loop survives.
      rejected_->Add();
      SendResponse(*conn,
                   ErrorResponse(0, StatusCode::kInvalidArgument,
                                 "undecodable request payload"));
      continue;
    }
    Pending p;
    p.req = std::move(req);
    p.conn = conn;
    // The frame-decode moment is the trace origin, the start of the
    // queue-wait measurement, and the start of the deadline budget.
    p.admit_tp = std::chrono::steady_clock::now();
    if (p.req.deadline_us > 0) {
      p.has_deadline = true;
      p.deadline =
          p.admit_tp + std::chrono::microseconds(p.req.deadline_us);
    }
    if (p.req.trace) {
      p.admit_end_us = ToUs(std::chrono::steady_clock::now() - p.admit_tp);
    }
    Enqueue(std::move(p));
  }
}

void SpatialServer::Enqueue(Pending p) {
  // kStats is control plane: it gets its own counter so admitted
  // reconciles exactly with the data requests a load generator sent.
  Counter* admit_counter = p.req.type == Request::Type::kStats
                               ? stats_requests_
                               : admitted_;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    p.seq = next_seq_++;
    if (p.req.type == Request::Type::kPoint) {
      point_queue_.push_back(std::move(p));
    } else {
      other_queue_.push_back(std::move(p));
    }
  }
  admit_counter->Add();
  queue_cv_.notify_one();
}

void SpatialServer::WorkerLoop() {
  std::vector<Pending> group;
  for (;;) {
    group.clear();
    Pending single;
    bool have_single = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return workers_stop_ || !point_queue_.empty() ||
               !other_queue_.empty();
      });
      if (point_queue_.empty() && other_queue_.empty()) {
        if (workers_stop_) return;
        continue;
      }
      // Rough global FIFO across the two queues: serve whichever head
      // was admitted first. A point head pulls its whole coalescible
      // group along.
      const bool take_points =
          !point_queue_.empty() &&
          (other_queue_.empty() ||
           point_queue_.front().seq < other_queue_.front().seq);
      if (take_points) {
        const size_t take = std::min(max_batch_, point_queue_.size());
        group.reserve(take);
        for (size_t i = 0; i < take; ++i) {
          group.push_back(std::move(point_queue_.front()));
          point_queue_.pop_front();
        }
      } else {
        single = std::move(other_queue_.front());
        other_queue_.pop_front();
        have_single = true;
      }
    }
    if (have_single) {
      ExecuteSingle(single);
    } else {
      ExecutePointGroup(group);
    }
  }
}

void SpatialServer::SendResponse(Connection& conn, const Response& resp) {
  const std::vector<uint8_t> payload = EncodeReply(resp);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (WriteFrame(conn.fd, payload.data(), payload.size())) {
    responses_->Add();
  }
}

void SpatialServer::FinishRequest(const Pending& p, uint64_t queue_us,
                                  uint64_t group_us, uint64_t exec_end_us,
                                  Response* resp) {
  const OpTimers& t = TimersFor(p.req.type);
  const uint64_t exec_us =
      exec_end_us > queue_us ? exec_end_us - queue_us : 0;
  t.queue_us->Observe(queue_us);
  t.exec_us->Observe(exec_us);
  if (slow_query_us_ > 0 && exec_end_us >= slow_query_us_) {
    SlowQueryEntry e;
    e.op = static_cast<uint8_t>(p.req.type);
    e.status = static_cast<uint8_t>(resp->status);
    e.id = p.req.id;
    e.queue_us = queue_us;
    e.exec_us = exec_us;
    e.total_us = exec_end_us;
    e.cost = resp->cost;
    slow_log_.Record(e);
    slow_queries_->Add();
  }
  if (!p.req.trace) return;
  // Spans share the request's trace origin (admit_tp); each phase starts
  // where the previous one ended, so offsets are monotone by
  // construction (clamped against the rare non-monotone clock read).
  const uint64_t queue_end = std::max(queue_us, p.admit_end_us);
  resp->trace.push_back({"admission", 0, p.admit_end_us});
  resp->trace.push_back({"queue", p.admit_end_us, queue_end});
  uint64_t descent_start = queue_end;
  if (group_us != 0) {
    const uint64_t group_end = std::max(group_us, queue_end);
    resp->trace.push_back({"batch_group", queue_end, group_end});
    descent_start = group_end;
  }
  const uint64_t descent_end = std::max(exec_end_us, descent_start);
  resp->trace.push_back({"descent", descent_start, descent_end});
  resp->trace.push_back(
      {"reply", descent_end,
       std::max(ToUs(std::chrono::steady_clock::now() - p.admit_tp),
                descent_end)});
}

void SpatialServer::ExecuteSingle(const Pending& p) {
  const auto deq = std::chrono::steady_clock::now();
  const uint64_t queue_us = ToUs(deq - p.admit_tp);
  if (p.has_deadline && deq > p.deadline) {
    deadline_expired_->Add();
    TimersFor(p.req.type).queue_us->Observe(queue_us);
    SendResponse(*p.conn,
                 ErrorResponse(p.req.id, StatusCode::kDeadlineExceeded,
                               "deadline expired before execution"));
    return;
  }
  Response resp;
  if (p.req.type == Request::Type::kStats) {
    resp = DoStats(p.req);
  } else if (p.req.type == Request::Type::kReload) {
    resp = DoReload(p.req);
  } else {
    const std::shared_ptr<Snapshot> snap = CurrentSnapshot();
    if (p.req.type == Request::Type::kInsert ||
        p.req.type == Request::Type::kDelete ||
        p.req.type == Request::Type::kUpdateBatch) {
      // Writes no longer stop the world when the index buffers them:
      // buffered requests on a concurrent-update index take the shared
      // lock (the delta-buffer/epoch machinery handles writer-writer and
      // writer-reader interleaving), so reads keep flowing. Everything
      // else keeps the exclusive writer lock.
      if (p.req.write_opts.buffered &&
          snap->index->SupportsConcurrentUpdates()) {
        std::shared_lock<std::shared_mutex> lock(snap->rw);
        resp = ExecuteRequest(*snap->index, p.req);
      } else {
        std::unique_lock<std::shared_mutex> lock(snap->rw);
        resp = ExecuteRequest(*snap->index, p.req);
      }
    } else {
      std::shared_lock<std::shared_mutex> lock(snap->rw);
      resp = ExecuteReadRequest(*snap->index, p.req);
    }
  }
  const uint64_t exec_end_us =
      ToUs(std::chrono::steady_clock::now() - p.admit_tp);
  FinishRequest(p, queue_us, 0, exec_end_us, &resp);
  SendResponse(*p.conn, resp);
}

void SpatialServer::ExecutePointGroup(const std::vector<Pending>& group) {
  // Deadlines are checked here, at dequeue: an expired request is
  // answered without ever touching the index or a batch slot.
  std::vector<const Pending*> live;
  live.reserve(group.size());
  const auto now = std::chrono::steady_clock::now();
  for (const Pending& p : group) {
    if (p.has_deadline && now > p.deadline) {
      deadline_expired_->Add();
      op_timers_[0].queue_us->Observe(ToUs(now - p.admit_tp));
      SendResponse(*p.conn,
                   ErrorResponse(p.req.id, StatusCode::kDeadlineExceeded,
                                 "deadline expired before execution"));
    } else {
      live.push_back(&p);
    }
  }
  if (live.empty()) return;
  if (live.size() == 1) {
    ExecuteSingle(*live[0]);
    return;
  }

  // The coalescing hot path: one per-op-attributed PointQueryBatch over
  // requests from any number of connections. Each response's counters
  // are exactly what a standalone PointQuery would have charged.
  const size_t n = live.size();
  std::vector<Point> pts(n);
  std::vector<QueryContext> ctxs(n);
  std::vector<std::optional<PointEntry>> hits(n);
  for (size_t i = 0; i < n; ++i) pts[i] = live[i]->req.pt;
  const auto batch_start = std::chrono::steady_clock::now();
  {
    const std::shared_ptr<Snapshot> snap = CurrentSnapshot();
    std::shared_lock<std::shared_mutex> lock(snap->rw);
    snap->index->PointQueryBatch(pts.data(), n, ctxs.data(), hits.data());
  }
  const auto batch_end = std::chrono::steady_clock::now();
  coalesced_batches_->Add();
  coalesced_requests_->Add(n);
  batch_size_->Observe(n);
  for (size_t i = 0; i < n; ++i) {
    Response resp;
    resp.id = live[i]->req.id;
    resp.hit = hits[i];
    resp.cost = ctxs[i];
    if (!resp.hit.has_value()) resp.status = StatusCode::kNotFound;
    // Per-request offsets against each request's own admission time:
    // queue ends at dequeue, the batch_group span covers group assembly,
    // descent is the shared batched call.
    FinishRequest(*live[i], ToUs(now - live[i]->admit_tp),
                  ToUs(batch_start - live[i]->admit_tp),
                  ToUs(batch_end - live[i]->admit_tp), &resp);
    SendResponse(*live[i]->conn, resp);
  }
}

Response SpatialServer::DoReload(const Request& req) {
  const std::string path = req.path.empty() ? default_path_ : req.path;
  auto next = std::make_shared<Snapshot>();
  std::string load_error;
  next->index = LoadIndex(path, &load_error);
  if (next->index == nullptr) {
    // The old snapshot keeps serving; a broken file on disk never takes
    // the server down.
    return ErrorResponse(req.id, StatusCode::kInternal,
                         "reload failed: " + load_error);
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(next);
  }
  reloads_->Add();
  Response resp;
  resp.id = req.id;
  resp.message = "reloaded " + path;
  return resp;
}

Response SpatialServer::DoStats(const Request& req) {
  Response resp;
  resp.id = req.id;
  resp.stats = Metrics();
  // req.k bounds the slow-query entries returned; 0 means none (the
  // snapshot alone), matching Request::Stats's default.
  if (req.k > 0) resp.slow = slow_log_.Latest(req.k);
  return resp;
}

}  // namespace rsmi
