// End-to-end tests of the binary-RPC placement server over real loopback
// sockets: every RPC type, packing-hash parity against an in-process
// ShardedDispatcher fed the identical sequence, deterministic backpressure
// (RETRY_LATER) via a deliberately slow policy, duplicate-id rejection,
// the malformed-bytes -> close-connection path, and the graceful-drain
// guarantee that every accepted request gets exactly one response and the
// final hash matches the in-process run.
#include "net/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/sharded_dispatcher.hpp"
#include "core/packing_hash.hpp"
#include "core/policies/registry.hpp"
#include "net/client.hpp"
#include "obs/metrics.hpp"

namespace dvbp::net {
namespace {

using namespace std::chrono_literals;

cloud::ShardedOptions service_options(std::size_t shards,
                                      obs::MetricRegistry* metrics = nullptr,
                                      std::size_t queue_capacity = 4096) {
  cloud::ShardedOptions opts;
  opts.shards = shards;
  opts.router = cloud::RouterKind::kRoundRobin;
  opts.queue_capacity = queue_capacity;
  opts.metrics = metrics;
  return opts;
}

cloud::ShardedDispatcher::PolicyFactory first_fit_factory() {
  return [](std::size_t) { return make_policy("FirstFit"); };
}

/// Delegating policy that sleeps inside every placement decision: makes
/// shard queues back up on demand so the RETRY_LATER paths are exercised
/// deterministically instead of by racing the (fast) real policies.
class SlowPolicy final : public Policy {
 public:
  SlowPolicy(PolicyPtr inner, std::chrono::milliseconds delay)
      : inner_(std::move(inner)), delay_(delay) {}

  std::string_view name() const noexcept override { return "SlowFirstFit"; }
  bool is_clairvoyant() const noexcept override {
    return inner_->is_clairvoyant();
  }
  BinId select_bin(Time now, const Item& item,
                   const OpenBinTable& open_bins) override {
    std::this_thread::sleep_for(delay_);
    return inner_->select_bin(now, item, open_bins);
  }
  void on_open(Time now, BinId bin, const Item& first) override {
    inner_->on_open(now, bin, first);
  }
  void on_pack(Time now, BinId bin, const Item& item) override {
    inner_->on_pack(now, bin, item);
  }
  void on_depart(Time now, BinId bin, const Item& item,
                 bool closed) override {
    inner_->on_depart(now, bin, item, closed);
  }
  void reset() override { inner_->reset(); }
  void save_state(serial::Writer& out) const override {
    inner_->save_state(out);
  }
  void restore_state(serial::Reader& in) override {
    inner_->restore_state(in);
  }

 private:
  PolicyPtr inner_;
  std::chrono::milliseconds delay_;
};

RVec size2(double a, double b) {
  RVec v(2);
  v[0] = a;
  v[1] = b;
  return v;
}

/// Snapshot needs quiescence; the window between the last completion and
/// the applied-ops counter is tiny but real, so retry briefly.
Response snapshot_retry(Client& client) {
  for (int i = 0; i < 400; ++i) {
    const Response resp = client.snapshot();
    if (resp.status != Status::kNotQuiescent) return resp;
    std::this_thread::sleep_for(2ms);
  }
  ADD_FAILURE() << "snapshot never became quiescent";
  return Response{};
}

/// Raw loopback socket for tests that need to send bytes the Client
/// refuses to produce (duplicate ids, garbage).
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw NetError("raw socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      ::close(fd_);
      fd_ = -1;
      throw NetError("raw connect() failed");
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  /// Blocks for one response frame.
  Response recv_one() {
    std::uint8_t chunk[4096];
    while (true) {
      if (auto payload = decoder_.next()) {
        return decode_response(payload->data(), payload->size());
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        throw NetError("raw connection closed");
      }
      decoder_.feed(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the server closed the connection (EOF) within ~2s.
  bool closed_by_peer() {
    std::uint8_t chunk[256];
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (std::chrono::steady_clock::now() < deadline) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n == 0) return true;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        std::this_thread::sleep_for(5ms);
        continue;
      }
      if (n < 0) return true;  // RST counts as closed
      // Data (late responses) is fine; keep reading until EOF.
    }
    return false;
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

TEST(NetServer, AllRpcTypesOverLoopback) {
  obs::MetricRegistry metrics;
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(2, &metrics));
  ServerOptions opts;
  opts.metrics = &metrics;
  PlacementServer server(service, opts);
  ASSERT_GT(server.port(), 0);

  Client client("127.0.0.1", server.port());

  const Response pong = client.ping();
  EXPECT_EQ(pong.status, Status::kOk);
  EXPECT_EQ(pong.type, MsgType::kPing);

  const Response placed = client.arrive(1.0, size2(0.4, 0.3), 10.0);
  ASSERT_EQ(placed.status, Status::kOk);
  EXPECT_EQ(placed.type, MsgType::kArrive);

  // The completion fired before the response, so the op is applied and the
  // query must see it.
  const Response q1 = client.query(1.5);
  ASSERT_EQ(q1.status, Status::kOk);
  EXPECT_EQ(q1.jobs_active, 1u);
  EXPECT_EQ(q1.jobs_admitted, 1u);
  EXPECT_EQ(q1.open_bins, 1u);

  // Departing an unknown job is a typed error, not a closed connection.
  const Response bad = client.depart(2.0, placed.job + 999);
  EXPECT_EQ(bad.status, Status::kUnknownJob);

  const Response departed = client.depart(2.0, placed.job);
  ASSERT_EQ(departed.status, Status::kOk);
  const Response q2 = client.query(2.5);
  ASSERT_EQ(q2.status, Status::kOk);
  EXPECT_EQ(q2.jobs_active, 0u);

  // Double-depart: the job is gone now.
  const Response dd = client.depart(3.0, placed.job);
  EXPECT_EQ(dd.status, Status::kUnknownJob);

  const Response snap = snapshot_retry(client);
  ASSERT_EQ(snap.status, Status::kOk);
  EXPECT_EQ(snap.type, MsgType::kSnapshot);
  EXPECT_EQ(snap.num_bins, 1u);  // one bin was opened over the run
  EXPECT_NE(snap.packing_hash, 0u);

  // Oversized arrive -> BAD_REQUEST, connection stays usable.
  const Response too_big = client.arrive(4.0, size2(1.5, 0.1));
  EXPECT_EQ(too_big.status, Status::kBadRequest);
  EXPECT_EQ(client.ping().status, Status::kOk);

  client.close();
  server.stop();

  EXPECT_GE(metrics.counter("dvbp.net.connections_total").value(), 1u);
  EXPECT_GE(metrics.counter("dvbp.net.requests_total").value(), 8u);
  EXPECT_GT(metrics.counter("dvbp.net.frames_in_total").value(), 0u);
  EXPECT_GT(metrics.counter("dvbp.net.frames_out_total").value(), 0u);
  EXPECT_GT(metrics.counter("dvbp.net.bytes_in_total").value(), 0u);
  EXPECT_GT(metrics.counter("dvbp.net.bytes_out_total").value(), 0u);
}

// The wire adds nothing and loses nothing: the same arrive/depart sequence
// through a socket and through an in-process ShardedDispatcher must end in
// bit-identical packings.
TEST(NetServer, PackingHashParityWithInProcessService) {
  constexpr std::size_t kShards = 2;
  constexpr int kOps = 300;

  // Generate one deterministic mixed sequence.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> coord(0.05, 0.6);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  struct OpSpec {
    bool depart;
    double a, b;        // arrive size
    std::size_t victim;  // index into live jobs at execution time
  };
  std::vector<OpSpec> script;
  int live_estimate = 0;
  for (int i = 0; i < kOps; ++i) {
    const bool depart = coin(rng) < 0.35 && live_estimate > 0;
    OpSpec spec{depart, coord(rng), coord(rng), 0};
    if (depart) {
      spec.victim = static_cast<std::size_t>(rng() %
                                             static_cast<std::uint64_t>(
                                                 live_estimate));
      --live_estimate;
    } else {
      ++live_estimate;
    }
    script.push_back(spec);
  }

  // Over the wire.
  std::uint64_t wire_hash = 0, wire_bins = 0;
  double wire_cost = 0.0;
  {
    cloud::ShardedDispatcher service(2, first_fit_factory(),
                                     service_options(kShards));
    PlacementServer server(service);
    Client client("127.0.0.1", server.port());
    std::vector<std::uint64_t> live;
    double t = 0.0;
    for (const OpSpec& spec : script) {
      t += 0.01;
      if (spec.depart) {
        const std::uint64_t job = live[spec.victim];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(spec.victim));
        ASSERT_EQ(client.depart(t, job).status, Status::kOk);
      } else {
        const Response resp = client.arrive(t, size2(spec.a, spec.b));
        ASSERT_EQ(resp.status, Status::kOk);
        live.push_back(resp.job);
      }
    }
    const Response drained = client.drain();
    ASSERT_EQ(drained.status, Status::kOk);
    wire_hash = drained.packing_hash;
    wire_bins = drained.num_bins;
    wire_cost = drained.cost;
    server.wait();  // drain closes everything down
  }

  // In process.
  cloud::ShardedDispatcher local(2, first_fit_factory(),
                                 service_options(kShards));
  std::vector<JobId> live;
  double t = 0.0;
  for (const OpSpec& spec : script) {
    t += 0.01;
    if (spec.depart) {
      const JobId job = live[spec.victim];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(spec.victim));
      local.depart(t, job);
    } else {
      live.push_back(local.arrive(t, size2(spec.a, spec.b)));
    }
  }
  local.drain();
  const Packing packing = local.snapshot();

  EXPECT_EQ(wire_hash, packing_hash(packing));
  EXPECT_EQ(wire_bins, packing.num_bins());
  EXPECT_DOUBLE_EQ(wire_cost, packing.cost());
}

// Backpressure: a slow policy plus a tiny shard queue and in-flight window
// forces RETRY_LATER. Every request still gets exactly one response, and
// accepted + rejected adds up.
TEST(NetServer, BackpressureYieldsRetryLater) {
  obs::MetricRegistry metrics;
  cloud::ShardedOptions sopts =
      service_options(1, &metrics, /*queue_capacity=*/2);
  cloud::ShardedDispatcher service(
      2,
      [](std::size_t) {
        return PolicyPtr(new SlowPolicy(make_policy("FirstFit"), 15ms));
      },
      sopts);
  ServerOptions opts;
  opts.metrics = &metrics;
  opts.max_inflight_per_conn = 4;
  PlacementServer server(service, opts);
  Client client("127.0.0.1", server.port());

  constexpr int kBurst = 20;
  std::map<std::uint64_t, int> responses;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    ids.push_back(client.send_arrive(1.0 + i * 0.001, size2(0.1, 0.1)));
  }
  client.flush();

  std::uint64_t ok = 0, retry = 0;
  for (int i = 0; i < kBurst; ++i) {
    const Response resp = client.recv_response();
    ++responses[resp.id];
    if (resp.status == Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(resp.status, Status::kRetryLater);
      ++retry;
    }
  }
  EXPECT_EQ(ok + retry, static_cast<std::uint64_t>(kBurst));
  EXPECT_GE(retry, 1u) << "tiny queue + slow policy must reject something";
  EXPECT_GE(ok, 1u);
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(responses[id], 1) << "request " << id;
  }
  EXPECT_GE(metrics.counter("dvbp.net.backpressure_rejections_total").value(),
            retry);

  client.close();
  server.stop();
}

// Two in-flight requests sharing an id are indistinguishable to the
// response matcher, so the second is refused outright.
TEST(NetServer, DuplicateRequestIdIsBadRequest) {
  cloud::ShardedDispatcher service(
      2,
      [](std::size_t) {
        return PolicyPtr(new SlowPolicy(make_policy("FirstFit"), 50ms));
      },
      service_options(1));
  PlacementServer server(service);

  RawConn raw(server.port());
  Request req;
  req.id = 7;
  req.type = MsgType::kArrive;
  req.time = 1.0;
  req.size = size2(0.2, 0.2);
  std::vector<std::uint8_t> bytes;
  encode_request(req, bytes);   // id 7, once
  encode_request(req, bytes);   // id 7, again, while the first is pending
  raw.send_bytes(bytes);

  const Response r1 = raw.recv_one();
  const Response r2 = raw.recv_one();
  EXPECT_EQ(r1.id, 7u);
  EXPECT_EQ(r2.id, 7u);
  // The duplicate bounces immediately; the original still applies.
  const bool dup_then_ok = r1.status == Status::kBadRequest &&
                           r2.status == Status::kOk;
  const bool ok_then_dup = r1.status == Status::kOk &&
                           r2.status == Status::kBadRequest;
  EXPECT_TRUE(dup_then_ok || ok_then_dup)
      << status_name(r1.status) << " / " << status_name(r2.status);

  server.stop();
}

// Corrupt bytes sever exactly the offending connection; the server keeps
// serving fresh ones and counts the decode error.
TEST(NetServer, MalformedBytesCloseOnlyThatConnection) {
  obs::MetricRegistry metrics;
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(1, &metrics));
  ServerOptions opts;
  opts.metrics = &metrics;
  PlacementServer server(service, opts);

  // An implausible length header: rejected before any payload arrives.
  {
    RawConn raw(server.port());
    raw.send_bytes({0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00});
    EXPECT_TRUE(raw.closed_by_peer());
  }
  // A CRC-corrupt ping.
  {
    RawConn raw(server.port());
    Request ping;
    ping.id = 1;
    ping.type = MsgType::kPing;
    std::vector<std::uint8_t> bytes;
    encode_request(ping, bytes);
    bytes.back() ^= 0x40;
    raw.send_bytes(bytes);
    EXPECT_TRUE(raw.closed_by_peer());
  }
  EXPECT_GE(metrics.counter("dvbp.net.decode_errors_total").value(), 2u);

  // The server is still alive for well-behaved clients.
  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.ping().status, Status::kOk);
  EXPECT_EQ(client.arrive(1.0, size2(0.3, 0.3)).status, Status::kOk);

  client.close();
  server.stop();
}

// Graceful drain under a pipelined backlog: every accepted request gets
// exactly one response, the Drain answer carries the final packing hash,
// and that hash matches an in-process run of the same accepted sequence.
TEST(NetServer, GracefulDrainAnswersEverythingWithFinalHash) {
  constexpr std::size_t kShards = 2;
  constexpr int kArrives = 250;

  std::vector<std::pair<double, double>> sizes;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> coord(0.05, 0.5);
  for (int i = 0; i < kArrives; ++i) {
    sizes.emplace_back(coord(rng), coord(rng));
  }

  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(kShards));
  PlacementServer server(service);
  Client client("127.0.0.1", server.port());

  // Pipeline the whole backlog, then the drain, in one burst.
  std::map<std::uint64_t, int> responses;
  std::vector<std::uint64_t> ids;
  double t = 0.0;
  for (const auto& [a, b] : sizes) {
    t += 0.01;
    ids.push_back(client.send_arrive(t, size2(a, b)));
  }
  const std::uint64_t drain_id = client.send_drain();
  ids.push_back(drain_id);
  client.flush();

  std::uint64_t drain_hash = 0, drain_bins = 0;
  int ok_arrives = 0;
  for (int i = 0; i < kArrives + 1; ++i) {
    const Response resp = client.recv_response();
    ++responses[resp.id];
    if (resp.id == drain_id) {
      ASSERT_EQ(resp.status, Status::kOk);
      drain_hash = resp.packing_hash;
      drain_bins = resp.num_bins;
    } else {
      // Everything was submitted before the Drain on the same connection,
      // so it all got in ahead of the shutdown gate.
      ASSERT_EQ(resp.status, Status::kOk);
      ++ok_arrives;
    }
  }
  EXPECT_EQ(ok_arrives, kArrives);
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(responses[id], 1) << "request " << id;
  }
  // After the drain response the server closes the connection.
  EXPECT_THROW(client.recv_response(), NetError);
  server.wait();
  EXPECT_TRUE(server.draining());

  // The same arrivals in process must reproduce the hash.
  cloud::ShardedDispatcher local(2, first_fit_factory(),
                                 service_options(kShards));
  double lt = 0.0;
  for (const auto& [a, b] : sizes) {
    lt += 0.01;
    local.arrive(lt, size2(a, b));
  }
  local.drain();
  const Packing packing = local.snapshot();
  EXPECT_EQ(drain_hash, packing_hash(packing));
  EXPECT_EQ(drain_bins, packing.num_bins());
}

// request_drain() is the signal-handler entry point; route a real SIGTERM
// through install_signal_drain and watch the server wind itself down.
TEST(NetServer, SignalTriggersGracefulDrain) {
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(2));
  PlacementServer server(service);
  server.install_signal_drain(SIGTERM);

  Client client("127.0.0.1", server.port());
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(client.arrive(1.0 + i, size2(0.2, 0.2)).status, Status::kOk);
  }

  ASSERT_EQ(std::raise(SIGTERM), 0);
  server.wait();
  EXPECT_TRUE(server.draining());

  // Post-drain the service is quiescent with all five jobs applied:
  // round-robin puts 3 jobs on shard 0 and 2 on shard 1, one bin each.
  EXPECT_EQ(service.jobs_admitted(), 5u);
  EXPECT_EQ(service.snapshot().num_bins(), 2u);
}

// New connections arriving while draining are refused (accept stops), and
// in-flight connections get SHUTTING_DOWN for new work.
TEST(NetServer, DrainingRefusesNewWork) {
  cloud::ShardedDispatcher service(2, first_fit_factory(),
                                   service_options(1));
  PlacementServer server(service);
  Client client("127.0.0.1", server.port());
  ASSERT_EQ(client.arrive(1.0, size2(0.2, 0.2)).status, Status::kOk);

  server.request_drain();
  // The drain races our next request; keep sending until the gate is seen
  // or the server closes the connection (both are acceptable ends).
  bool saw_shutting_down = false;
  try {
    for (int i = 0; i < 200; ++i) {
      const Response resp = client.arrive(2.0 + i * 0.01, size2(0.1, 0.1));
      if (resp.status == Status::kShuttingDown) {
        saw_shutting_down = true;
        break;
      }
      ASSERT_EQ(resp.status, Status::kOk);
      std::this_thread::sleep_for(1ms);
    }
  } catch (const NetError&) {
    // Connection closed by the graceful sweep before we saw the status:
    // equally a refusal of new work.
    saw_shutting_down = true;
  }
  EXPECT_TRUE(saw_shutting_down);
  server.wait();
}

}  // namespace
}  // namespace dvbp::net
