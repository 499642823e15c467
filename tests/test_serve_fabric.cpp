/// \file test_serve_fabric.cpp
/// \brief The distributed worker fabric end to end: a real remote worker
///        (run_remote_worker on a thread) completing campaigns fingerprint-
///        identically, lease-deadline expiry requeueing cells uncharged,
///        cross-worker poison quarantine under the `net` taxonomy,
///        duplicate-result idempotence, the remote worker's failure taxonomy
///        and lease validation, and socket-level fuzz of the registration +
///        lease handshake (malformed JSON, every-prefix shard truncation,
///        oversized headers) that must 4xx, never crash.
///
/// Like test_serve.cpp, every test binds an ephemeral loopback port and
/// talks to the reactor through real sockets — no mocked transport.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/remote_worker.hpp"
#include "serve/server.hpp"
#include "supervise/supervisor.hpp"
#include "util/json.hpp"
#include "util/net.hpp"

namespace feast {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Fresh per-test scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              (tag + "-" + std::to_string(::getpid()))) {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

std::string test_spec_text() {
  return "name = fabric-test\n"
         "samples = 3\n"
         "seed = 99\n"
         "strategies = pure, ud\n"
         "sizes = 2, 4\n";
}

CampaignSpec parse_spec(const std::string& text) {
  std::istringstream in(text);
  return CampaignSpec::parse(in);
}

std::string fingerprint_of(const Manifest& manifest) {
  return hash_hex(fnv1a64(manifest_fingerprint(manifest)));
}

bool wait_until(const std::function<bool()>& pred, double timeout_s = 20.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

/// A server on an ephemeral loopback port, reactor on a background thread.
class TestServer {
 public:
  explicit TestServer(serve::ServeOptions options)
      : server_(std::move(options)) {
    server_.start();
    thread_ = std::thread([this] { rc_ = server_.run(); });
  }

  ~TestServer() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }

  serve::Server& server() noexcept { return server_; }
  std::uint16_t port() const noexcept { return server_.port(); }

  int stop() {
    server_.request_stop();
    thread_.join();
    return rc_;
  }

 private:
  serve::Server server_;
  std::thread thread_;
  int rc_ = -1;
};

/// A remote-only daemon: no local pool, every cell waits for a peer.
serve::ServeOptions fabric_options(const ScratchDir& dir) {
  serve::ServeOptions options;
  options.work_dir = (dir.path() / "serve-work").string();
  options.cache_dir = (dir.path() / "serve-cache").string();
  options.feastc_path = FEAST_FEASTC_PATH;
  options.workers = 0;
  options.drain_grace_s = 20.0;
  return options;
}

serve::HttpReply post(std::uint16_t port, const std::string& target,
                      const std::string& body, const std::string& client = "") {
  return serve::http_request("127.0.0.1", port, "POST", target, body, client,
                             120.0);
}

/// A real `feastc worker` loop on a test-owned thread.
class TestWorker {
 public:
  TestWorker(const ScratchDir& dir, std::uint16_t port, const std::string& name,
             const std::string& work_dir = "") {
    serve::RemoteWorkerOptions options;
    options.port = port;
    options.name = name;
    options.work_dir =
        work_dir.empty() ? (dir.path() / (name + "-work")).string() : work_dir;
    options.no_cache = true;
    options.feastc_path = FEAST_FEASTC_PATH;
    options.poll_ms = 10;
    options.backoff.base_ms = 20.0;
    options.backoff.cap_ms = 200.0;
    thread_ = std::thread(
        [this, options] { rc_ = run_remote_worker(options, &stop_, &stats_); });
  }

  ~TestWorker() { stop(); }

  int stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return rc_;
  }

  const serve::RemoteWorkerStats& stats() const noexcept { return stats_; }

 private:
  std::atomic<bool> stop_{false};
  serve::RemoteWorkerStats stats_;
  std::thread thread_;
  int rc_ = -1;
};

/// Registers a scripted fake worker over the real client and returns its id.
std::string register_fake(std::uint16_t port, const std::string& name) {
  const serve::HttpReply reply = post(
      port, "/v1/worker/register", "{\"name\": \"" + name + "\"}");
  EXPECT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.status, 200) << reply.body;
  const JsonValue root = parse_json(reply.body);
  EXPECT_NE(root.find("worker"), nullptr) << reply.body;
  return root.find("worker")->string;
}

/// Leases one cell for a fake worker; returns the lease token ("" if idle).
std::string lease_cell(std::uint16_t port, const std::string& worker_id,
                       long long* cell = nullptr) {
  const serve::HttpReply reply = post(port, "/v1/worker/lease",
                                      "{\"worker\": \"" + worker_id + "\"}");
  EXPECT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.status, 200) << reply.body;
  const JsonValue root = parse_json(reply.body);
  if (root.find("lease") == nullptr) return "";
  if (cell != nullptr && root.find("cell") != nullptr) {
    *cell = static_cast<long long>(root.find("cell")->number);
  }
  return root.find("lease")->string;
}

supervise::ShardResult sample_shard(int cell_index) {
  supervise::ShardResult result;
  result.cell_index = cell_index;
  result.from_cache = false;
  result.wall_ms = 12.5;
  result.stats.max_lateness = {3, -1.25, 0.5, -2.0, -0.75, 0.57};
  result.stats.end_to_end = {3, 10.0, 1.0, 9.0, 11.0, 1.13};
  result.stats.makespan = {3, 100.5, 2.5, 98.0, 103.0, 2.83};
  result.stats.min_laxity = {3, 7.75, 0.25, 7.5, 8.0, 0.28};
  result.stats.infeasible_runs = 0;
  return result;
}

std::string result_body(const std::string& worker_id, const std::string& lease,
                        const std::string& shard_frame) {
  return "{\"worker\": \"" + worker_id + "\", \"lease\": \"" + lease +
         "\", \"ok\": true, \"shard\": \"" + json_escape(shard_frame) + "\"}";
}

// ------------------------------------------------------------ happy fabric

TEST(ServeFabric, RemoteWorkerRunsACampaignFingerprintIdenticalToInProcess) {
  ScratchDir dir("feast-fabric-differential");
  const std::string spec_text = test_spec_text();

  // Ground truth: the same spec through run_campaign in this process.
  CampaignOptions options;
  options.manifest_path = (dir.path() / "base.manifest.json").string();
  const CampaignResult base = run_campaign(parse_spec(spec_text), options);
  ASSERT_TRUE(base.ok());
  const std::string expected =
      fingerprint_of(read_manifest_file(options.manifest_path));

  // The same spec through the daemon with NO local pool: every cell crosses
  // the wire twice (lease out, shard frame back) through a real worker loop.
  TestServer server(fabric_options(dir));
  TestWorker worker(dir, server.port(), "fabric-w0");
  const serve::HttpReply reply = post(
      server.port(), "/v1/campaign",
      "{\"spec\": \"" + json_escape(spec_text) + "\"}");
  ASSERT_TRUE(reply.ok()) << reply.error;
  ASSERT_EQ(reply.status, 200) << reply.body;
  const JsonValue root = parse_json(reply.body);
  ASSERT_NE(root.find("fingerprint"), nullptr);
  EXPECT_EQ(root.find("fingerprint")->string, expected);
  EXPECT_DOUBLE_EQ(root.find("totals")->find("computed")->number, 4.0);
  EXPECT_DOUBLE_EQ(root.find("totals")->find("failed")->number, 0.0);

  // /v1/status names the worker with its lease + taxonomy bookkeeping.
  const serve::HttpReply status =
      serve::http_request("127.0.0.1", server.port(), "GET", "/v1/status");
  ASSERT_EQ(status.status, 200);
  const JsonValue status_root = parse_json(status.body);
  const JsonValue* workers = status_root.find("workers");
  ASSERT_NE(workers, nullptr) << status.body;
  ASSERT_EQ(workers->array.size(), 1u);
  const JsonValue& entry = workers->array[0];
  EXPECT_EQ(entry.find("name")->string, "fabric-w0");
  EXPECT_EQ(entry.find("kind")->string, "remote");
  EXPECT_DOUBLE_EQ(entry.find("completed")->number, 4.0);
  EXPECT_DOUBLE_EQ(entry.find("errors")->find("net")->number, 0.0);
  EXPECT_DOUBLE_EQ(
      status_root.find("server")->find("remote_workers")->number, 1.0);

  worker.stop();
  EXPECT_EQ(worker.stats().cells_ok, 4u);
  EXPECT_EQ(server.stop(), 0);
}

// ------------------------------------------------------- failure detection

TEST(ServeFabric, WorkersSharingAWorkDirKeepTheirAttemptsApart) {
  // Two workers under one name and one work dir, each serving its own
  // daemon, run the same cell indices of two different specs side by side.
  // Each must ship its own shards: a shared attempt path would let one
  // worker delete or overwrite the other's shard before it is harvested.
  ScratchDir dir("feast-fabric-shared-work");
  const std::string shared_work = (dir.path() / "shared-work").string();
  const std::string spec_a = test_spec_text();
  std::string spec_b = spec_a;
  spec_b.replace(spec_b.find("seed = 99"), 9, "seed = 17");

  std::vector<std::string> expected;
  for (const std::string& text : {spec_a, spec_b}) {
    CampaignOptions options;
    options.manifest_path =
        (dir.path() / ("base-" + std::to_string(expected.size()) + ".json")).string();
    ASSERT_TRUE(run_campaign(parse_spec(text), options).ok());
    expected.push_back(fingerprint_of(read_manifest_file(options.manifest_path)));
  }
  ASSERT_NE(expected[0], expected[1]);

  serve::ServeOptions options_a = fabric_options(dir);
  options_a.work_dir = (dir.path() / "serve-a").string();
  serve::ServeOptions options_b = fabric_options(dir);
  options_b.work_dir = (dir.path() / "serve-b").string();
  TestServer server_a(options_a);
  TestServer server_b(options_b);
  TestWorker worker_a(dir, server_a.port(), "twin", shared_work);
  TestWorker worker_b(dir, server_b.port(), "twin", shared_work);

  serve::HttpReply reply_b;
  std::thread submit_b([&] {
    reply_b = post(server_b.port(), "/v1/campaign",
                   "{\"spec\": \"" + json_escape(spec_b) + "\"}");
  });
  const serve::HttpReply reply_a = post(
      server_a.port(), "/v1/campaign", "{\"spec\": \"" + json_escape(spec_a) + "\"}");
  submit_b.join();
  const serve::HttpReply* replies[] = {&reply_a, &reply_b};
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(replies[i]->ok()) << replies[i]->error;
    ASSERT_EQ(replies[i]->status, 200) << replies[i]->body;
    EXPECT_EQ(parse_json(replies[i]->body).find("fingerprint")->string, expected[i]);
  }
  worker_a.stop();
  worker_b.stop();
  EXPECT_EQ(worker_a.stats().cells_failed, 0u);
  EXPECT_EQ(worker_b.stats().cells_failed, 0u);
  EXPECT_EQ(worker_a.stats().cells_ok + worker_b.stats().cells_ok, 8u);
  // Each attempt directory is removed once its lease leaves it empty.
  EXPECT_EQ(std::distance(fs::directory_iterator(shared_work), {}), 2)
      << "only the two spec files should remain";
  EXPECT_EQ(server_a.stop(), 0);
  EXPECT_EQ(server_b.stop(), 0);
}

TEST(ServeFabric, LeaseDeadlineExpiryRequeuesTheCellUncharged) {
  ScratchDir dir("feast-fabric-lease-expiry");
  serve::ServeOptions options = fabric_options(dir);
  options.lease_timeout_s = 0.6;
  options.heartbeat_timeout_s = 60.0;  // Only the lease deadline may fire.
  TestServer server(options);

  // A scripted worker leases the cell and then goes silent.
  const std::string ghost = register_fake(server.port(), "ghost");
  serve::HttpReply cell_reply;
  std::thread submitter([&] {
    cell_reply = post(server.port(), "/v1/cell",
                      "{\"spec\": \"" + json_escape(test_spec_text()) +
                          "\", \"cell\": 0}");
  });
  ASSERT_TRUE(wait_until(
      [&] { return !lease_cell(server.port(), ghost).empty(); }, 10.0));

  // The sweep must declare the worker lost and requeue the cell uncharged.
  ASSERT_TRUE(wait_until([&] {
    const serve::ServeStatsSnapshot stats = server.server().stats();
    return stats.workers_lost >= 1 && stats.requeued >= 1;
  }, 10.0));

  // A healthy worker picks the cell up; "attempts": 1 proves the lost
  // lease was not charged against the retry budget.
  TestWorker worker(dir, server.port(), "healthy");
  submitter.join();
  ASSERT_TRUE(cell_reply.ok()) << cell_reply.error;
  ASSERT_EQ(cell_reply.status, 200) << cell_reply.body;
  const JsonValue root = parse_json(cell_reply.body);
  EXPECT_DOUBLE_EQ(root.find("attempts")->number, 1.0);
  EXPECT_EQ(root.find("state")->string, "computed");
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeFabric, CrossWorkerPoisonQuarantinesUnderTheNetTaxonomy) {
  ScratchDir dir("feast-fabric-poison");
  serve::ServeOptions options = fabric_options(dir);
  options.lease_timeout_s = 0.4;
  options.heartbeat_timeout_s = 60.0;
  options.poison_worker_deaths = 2;
  options.max_attempts = 10;  // Poison must trip first: deaths are uncharged.
  TestServer server(options);

  serve::HttpReply cell_reply;
  std::thread submitter([&] {
    cell_reply = post(server.port(), "/v1/cell",
                      "{\"spec\": \"" + json_escape(test_spec_text()) +
                          "\", \"cell\": 0}");
  });

  // Two distinct workers lease the cell and die holding it.
  for (const char* name : {"victim-a", "victim-b"}) {
    const std::string id = register_fake(server.port(), name);
    ASSERT_TRUE(wait_until(
        [&] { return !lease_cell(server.port(), id).empty(); }, 10.0))
        << name;
    ASSERT_TRUE(wait_until([&] {
      return server.server().stats().workers_lost >=
             (std::string(name) == "victim-a" ? 1u : 2u);
    }, 10.0)) << name;
  }

  submitter.join();
  ASSERT_TRUE(cell_reply.ok()) << cell_reply.error;
  EXPECT_EQ(cell_reply.status, 500) << cell_reply.body;
  const JsonValue root = parse_json(cell_reply.body);
  const JsonValue* kind = root.find("error_kind");
  ASSERT_NE(kind, nullptr) << cell_reply.body;
  EXPECT_EQ(kind->string, "net");
  const JsonValue* error = root.find("error");
  ASSERT_NE(error, nullptr) << cell_reply.body;
  EXPECT_NE(error->string.find("cross-worker poison"), std::string::npos)
      << cell_reply.body;
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeFabric, ReRegistrationRequeuesThePreviousIncarnationsLease) {
  // A returning name drops its previous registration and requeues the
  // lease it held, uncharged.  The dropped id lives in the name → id map
  // the drop erases; under ASan this test catches any use of it after the
  // erase (the held lease makes the drop compare it against every job).
  ScratchDir dir("feast-fabric-reregister");
  TestServer server(fabric_options(dir));
  serve::HttpReply cell_reply;
  std::thread submitter([&] {
    cell_reply = post(server.port(), "/v1/cell",
                      "{\"spec\": \"" + json_escape(test_spec_text()) +
                          "\", \"cell\": 0}");
  });
  const std::string first = register_fake(server.port(), "phoenix");
  ASSERT_TRUE(wait_until([&] { return !lease_cell(server.port(), first).empty(); }));

  const std::string second = register_fake(server.port(), "phoenix");
  EXPECT_NE(first, second);
  EXPECT_EQ(server.server().stats().workers_lost, 1u);
  std::string lease;
  ASSERT_TRUE(wait_until([&] {
    lease = lease_cell(server.port(), second);
    return !lease.empty();
  }));
  const std::string frame =
      supervise::render_shard_result(sample_shard(0), "fabric-reregister");
  EXPECT_EQ(post(server.port(), "/v1/worker/result", result_body(second, lease, frame))
                .status,
            200);
  submitter.join();
  ASSERT_EQ(cell_reply.status, 200) << cell_reply.body;
  EXPECT_DOUBLE_EQ(parse_json(cell_reply.body).find("attempts")->number, 1.0);
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeFabric, RemoteCrashQuarantinesWithTheWorkerLogTail) {
  // The remote worker runs leases through the same WorkerPool as the local
  // workers, so its failure reports carry the worker log's tail too.
  ScratchDir dir("feast-fabric-crash");
  serve::ServeOptions options = fabric_options(dir);
  options.max_attempts = 1;
  TestServer server(options);
  TestWorker worker(dir, server.port(), "crash-w0");

  const serve::HttpReply reply =
      post(server.port(), "/v1/cell",
           "{\"spec\": \"" + json_escape(test_spec_text()) +
               "\", \"cell\": 0, \"inject\": \"crash\"}");
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.status, 500) << reply.body;
  const JsonValue root = parse_json(reply.body);
  ASSERT_NE(root.find("error_kind"), nullptr) << reply.body;
  EXPECT_EQ(root.find("error_kind")->string, "crash");
  ASSERT_NE(root.find("error"), nullptr) << reply.body;
  EXPECT_NE(root.find("error")->string.find("injected crash"), std::string::npos)
      << reply.body;
  worker.stop();
  EXPECT_EQ(worker.stats().cells_failed, 1u);
  EXPECT_EQ(server.stop(), 0);
}

/// A scripted daemon on a loopback listener: accepts any registration,
/// hands out \p leases in order (then idles) and records every result body.
class FakeDaemon {
 public:
  explicit FakeDaemon(std::vector<std::string> leases)
      : listener_(net::TcpListener::bind_and_listen("127.0.0.1", 0)),
        leases_(std::move(leases)) {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        net::Socket conn = listener_.accept();
        if (conn.valid()) {
          answer(conn);
        } else {
          std::this_thread::sleep_for(1ms);
        }
      }
    });
  }
  ~FakeDaemon() {
    stop_.store(true);
    thread_.join();
  }

  std::uint16_t port() const noexcept { return listener_.port(); }

  std::vector<std::string> results() {
    std::lock_guard<std::mutex> lock(mutex_);
    return results_;
  }

 private:
  void answer(net::Socket& conn) {
    serve::HttpRequestParser parser;
    auto status = serve::HttpRequestParser::Status::NeedMore;
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (status == serve::HttpRequestParser::Status::NeedMore &&
           std::chrono::steady_clock::now() < deadline) {
      std::string chunk;
      const int n = net::read_available(conn.fd(), chunk);
      if (n > 0) {
        status = parser.feed(chunk);
      } else if (n == -1) {
        std::this_thread::sleep_for(1ms);
      } else {
        return;
      }
    }
    if (status != serve::HttpRequestParser::Status::Done) return;
    const serve::HttpRequest& request = parser.request();
    std::string body = "{}";
    if (request.path() == "/v1/worker/register") {
      body = "{\"worker\": \"w1\", \"poll_ms\": 5}";
    } else if (request.path() == "/v1/worker/lease") {
      body = next_ < leases_.size() ? leases_[next_++] : "{\"idle\": true}";
    } else if (request.path() == "/v1/worker/result") {
      std::lock_guard<std::mutex> lock(mutex_);
      results_.push_back(request.body);
    }
    net::write_all(conn.fd(),
                   serve::render_http_response(200, "application/json", body,
                                               /*keep_alive=*/false),
                   5.0);
  }

  net::TcpListener listener_;
  std::vector<std::string> leases_;
  std::size_t next_ = 0;
  std::mutex mutex_;
  std::vector<std::string> results_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(ServeFabric, MalformedLeaseIsReportedAsIoNotCast) {
  // Out-of-range numbers must be rejected before any double→integer cast
  // (undefined behaviour) and reported, so a daemon charges the attempt
  // instead of waiting for the lease to expire.
  const std::string spec = "\"spec\": \"" + json_escape(test_spec_text()) + "\"";
  FakeDaemon daemon({
      "{\"lease\": \"L1\", \"cell\": -1, " + spec + ", \"threads\": 1}",
      "{\"lease\": \"L2\", \"cell\": 0, " + spec + ", \"threads\": 1e300}",
  });
  ScratchDir dir("feast-fabric-malformed-lease");
  serve::RemoteWorkerOptions options;
  options.port = daemon.port();
  options.name = "validator";
  options.work_dir = (dir.path() / "work").string();
  options.no_cache = true;
  options.feastc_path = FEAST_FEASTC_PATH;
  options.poll_ms = 5;
  options.max_cells = 2;
  std::atomic<bool> stop{false};
  serve::RemoteWorkerStats stats;
  int rc = -1;
  std::thread worker([&] { rc = run_remote_worker(options, &stop, &stats); });
  const bool reported = wait_until([&] { return daemon.results().size() >= 2; });
  stop.store(true);
  worker.join();
  ASSERT_TRUE(reported);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(stats.cells_failed, 2u);
  EXPECT_EQ(stats.cells_ok, 0u);

  const std::vector<std::string> results = daemon.results();
  const char* leases[] = {"L1", "L2"};
  for (std::size_t i = 0; i < 2; ++i) {
    const JsonValue root = parse_json(results[i]);
    EXPECT_EQ(root.find("lease")->string, leases[i]);
    EXPECT_FALSE(root.find("ok")->boolean) << results[i];
    EXPECT_EQ(root.find("kind")->string, "io") << results[i];
    EXPECT_NE(root.find("error")->string.find("malformed lease"), std::string::npos)
        << results[i];
  }
}

// ----------------------------------------------------- delivery idempotence

TEST(ServeFabric, DuplicateResultDeliveryIsSettledExactlyOnce) {
  ScratchDir dir("feast-fabric-dup");
  TestServer server(fabric_options(dir));

  const std::string courier = register_fake(server.port(), "courier");
  serve::HttpReply cell_reply;
  std::thread submitter([&] {
    cell_reply = post(server.port(), "/v1/cell",
                      "{\"spec\": \"" + json_escape(test_spec_text()) +
                          "\", \"cell\": 0}");
  });
  long long cell = -1;
  std::string lease;
  ASSERT_TRUE(wait_until([&] {
    lease = lease_cell(server.port(), courier, &cell);
    return !lease.empty();
  }, 10.0));
  ASSERT_EQ(cell, 0);

  const std::string frame = supervise::render_shard_result(
      sample_shard(static_cast<int>(cell)), "fabric-dup");
  const std::string body = result_body(courier, lease, frame);

  const serve::HttpReply first =
      post(server.port(), "/v1/worker/result", body);
  ASSERT_EQ(first.status, 200) << first.body;
  // The retransmit finds the lease settled: 410, not a double settle.
  const serve::HttpReply second =
      post(server.port(), "/v1/worker/result", body);
  EXPECT_EQ(second.status, 410) << second.body;

  submitter.join();
  ASSERT_EQ(cell_reply.status, 200) << cell_reply.body;
  EXPECT_DOUBLE_EQ(
      parse_json(cell_reply.body).find("attempts")->number, 1.0);
  EXPECT_EQ(server.stop(), 0);
}

// -------------------------------------------------------------------- fuzz

TEST(ServeFabric, HandshakeRejectsMalformedRequestsWithoutCrashing) {
  ScratchDir dir("feast-fabric-fuzz");
  TestServer server(fabric_options(dir));
  const std::uint16_t port = server.port();

  const std::string long_name(65, 'n');
  struct Case {
    const char* target;
    std::string body;
    int expect;
  };
  const Case cases[] = {
      {"/v1/worker/register", "", 400},
      {"/v1/worker/register", "not json at all", 400},
      {"/v1/worker/register", "{\"name\": \"trunc", 400},
      {"/v1/worker/register", "{}", 400},
      {"/v1/worker/register", "{\"name\": 3}", 400},
      {"/v1/worker/register", "{\"name\": \"\"}", 400},
      {"/v1/worker/register", "{\"name\": \"" + long_name + "\"}", 400},
      {"/v1/worker/register", "{\"name\": \"x\", \"slots\": 0}", 400},
      {"/v1/worker/register", "{\"name\": \"x\", \"slots\": 65}", 400},
      {"/v1/worker/register", "{\"name\": \"x\", \"slots\": 1.5}", 400},
      {"/v1/worker/register", "{\"name\": \"x\", \"slots\": \"two\"}", 400},
      {"/v1/worker/lease", "{}", 400},
      {"/v1/worker/lease", "{\"worker\": 7}", 400},
      {"/v1/worker/lease", "{\"worker\": \"w999\"}", 404},
      {"/v1/worker/result", "{}", 400},
      {"/v1/worker/result", "{\"worker\": \"w1\", \"lease\": \"L1\"}", 400},
      {"/v1/worker/result",
       "{\"worker\": \"w999\", \"lease\": \"L1\", \"ok\": true}", 404},
  };
  for (const Case& c : cases) {
    const serve::HttpReply reply = post(port, c.target, c.body);
    ASSERT_TRUE(reply.ok()) << c.target << " " << c.body << ": " << reply.error;
    EXPECT_EQ(reply.status, c.expect) << c.target << " " << c.body;
  }

  // A registered worker delivering against a bogus lease, and an ok result
  // with a missing / non-string shard.
  const std::string id = register_fake(port, "fuzzer");
  EXPECT_EQ(post(port, "/v1/worker/result",
                 "{\"worker\": \"" + id +
                     "\", \"lease\": \"L404\", \"ok\": true}")
                .status,
            410);
  EXPECT_EQ(post(port, "/v1/worker/result",
                 "{\"worker\": \"" + id +
                     "\", \"lease\": \"L404\", \"ok\": false}")
                .status,
            410);

  // Oversized registration headers die at the HTTP layer with 431.
  net::Socket raw = net::tcp_connect("127.0.0.1", port, 5.0, nullptr);
  ASSERT_TRUE(raw.valid());
  std::string huge = "POST /v1/worker/register HTTP/1.1\r\nX-Pad: ";
  huge.append(64 * 1024, 'a');  // Far beyond HttpLimits.max_header_bytes.
  huge += "\r\n\r\n";
  ASSERT_TRUE(net::write_all(raw.fd(), huge, 5.0, nullptr));
  std::string response;
  net::read_until_eof(raw.fd(), response, 10.0, nullptr);
  EXPECT_NE(response.find("431"), std::string::npos) << response;
  raw.close();

  // The daemon survived all of it.
  const serve::HttpReply health =
      serve::http_request("127.0.0.1", port, "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeFabric, EveryShardPrefixTruncationIsRejectedAsNet) {
  ScratchDir dir("feast-fabric-truncation");
  serve::ServeOptions options = fabric_options(dir);
  options.max_attempts = 1000;  // Each torn frame charges one attempt.
  TestServer server(options);

  const std::string courier = register_fake(server.port(), "torn-courier");
  serve::HttpReply cell_reply;
  std::thread submitter([&] {
    cell_reply = post(server.port(), "/v1/cell",
                      "{\"spec\": \"" + json_escape(test_spec_text()) +
                          "\", \"cell\": 0}");
  });

  const std::string frame =
      supervise::render_shard_result(sample_shard(0), "fabric-torn");
  std::size_t torn = 0;
  for (std::size_t cut = 0; cut < frame.size(); cut += 17) {
    std::string lease;
    ASSERT_TRUE(wait_until([&] {
      lease = lease_cell(server.port(), courier);
      return !lease.empty();
    }, 10.0)) << "at cut " << cut;
    const serve::HttpReply reply =
        post(server.port(), "/v1/worker/result",
             result_body(courier, lease, frame.substr(0, cut)));
    ASSERT_TRUE(reply.ok()) << reply.error;
    EXPECT_EQ(reply.status, 400) << "cut " << cut << ": " << reply.body;
    EXPECT_NE(reply.body.find("net"), std::string::npos) << reply.body;
    ++torn;
  }

  // The intact frame finally lands and the cell settles exactly once.
  std::string lease;
  ASSERT_TRUE(wait_until([&] {
    lease = lease_cell(server.port(), courier);
    return !lease.empty();
  }, 10.0));
  EXPECT_EQ(post(server.port(), "/v1/worker/result",
                 result_body(courier, lease, frame))
                .status,
            200);
  submitter.join();
  ASSERT_EQ(cell_reply.status, 200) << cell_reply.body;
  EXPECT_DOUBLE_EQ(parse_json(cell_reply.body).find("attempts")->number,
                   static_cast<double>(torn + 1));
  EXPECT_EQ(server.stop(), 0);
}

}  // namespace
}  // namespace feast
