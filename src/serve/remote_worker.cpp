#include "serve/remote_worker.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

#include "campaign/cache.hpp"
#include "check/fault.hpp"
#include "serve/client.hpp"
#include "supervise/worker_pool.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace feast::serve {

namespace fs = std::filesystem;

namespace {

/// Sleeps \p ms in small slices so a stop request lands promptly.
void stoppable_sleep(double ms, const std::atomic<bool>* stop) {
  using namespace std::chrono;
  auto remaining = duration<double, std::milli>(ms);
  while (remaining.count() > 0.0) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) return;
    const auto slice = remaining.count() > 50.0
                           ? duration<double, std::milli>(50.0)
                           : remaining;
    std::this_thread::sleep_for(slice);
    remaining -= slice;
  }
}

bool stopped(const std::atomic<bool>* stop) {
  return stop != nullptr && stop->load(std::memory_order_acquire);
}

std::string json_str(const JsonValue& root, const char* key) {
  const JsonValue* v = root.find(key);
  return (v != nullptr && v->type == JsonValue::Type::String) ? v->string : "";
}

double json_num(const JsonValue& root, const char* key, double fallback) {
  const JsonValue* v = root.find(key);
  return (v != nullptr && v->type == JsonValue::Type::Number) ? v->number
                                                              : fallback;
}

/// One leased cell as handed out by /v1/worker/lease.
struct Lease {
  std::string token;
  std::size_t cell = 0;
  std::string spec;
  std::string inject;
  double timeout_s = 0.0;
  unsigned threads = 1;
};

/// True when \p v is a number holding an integer in [lo, hi].  Checked in
/// double space, before any cast: a double→integer conversion out of range
/// is undefined behaviour, and a fractional one silently truncates.
bool integral_in(const JsonValue* v, double lo, double hi) {
  return v != nullptr && v->type == JsonValue::Type::Number &&
         std::isfinite(v->number) && v->number >= lo && v->number <= hi &&
         v->number == std::floor(v->number);
}

/// Reads the numeric lease fields into \p lease: `cell` (required), and
/// `threads` / `timeout_s` when present.  Returns why the body is
/// malformed, or "" when every field is acceptable.
std::string read_lease_numbers(const JsonValue& root, Lease& lease) {
  const JsonValue* cell = root.find("cell");
  if (!integral_in(cell, 0.0, 0x1p53)) return "cell wants a non-negative integer";
  lease.cell = static_cast<std::size_t>(cell->number);
  if (const JsonValue* threads = root.find("threads")) {
    if (!integral_in(threads, 1.0, std::numeric_limits<unsigned>::max())) {
      return "threads wants an integer in 1.." +
             std::to_string(std::numeric_limits<unsigned>::max());
    }
    lease.threads = static_cast<unsigned>(threads->number);
  }
  if (const JsonValue* timeout = root.find("timeout_s")) {
    if (timeout->type != JsonValue::Type::Number ||
        !std::isfinite(timeout->number) || timeout->number < 0.0) {
      return "timeout_s wants a finite number >= 0";
    }
    lease.timeout_s = timeout->number;
  }
  return "";
}

/// The directory this run_remote_worker call spawns its attempts in, under
/// \p work_dir.  The pool names attempt files by a per-pool ticket, so every
/// lease writes `lease-1.cell-N.*`; the pid and a per-process sequence keep
/// two workers that share a work dir (even under one name) apart.  It
/// exists only while a lease runs or after a failed attempt left its log.
fs::path attempt_dir(const std::string& work_dir) {
  static std::atomic<unsigned> sequence{0};
  return fs::path(work_dir) / ("attempts-" + std::to_string(::getpid()) + "-" +
                               std::to_string(sequence.fetch_add(1)));
}

}  // namespace

int run_remote_worker(const RemoteWorkerOptions& options,
                      const std::atomic<bool>* stop,
                      RemoteWorkerStats* stats) {
  RemoteWorkerStats local_stats;
  RemoteWorkerStats& st = (stats != nullptr) ? *stats : local_stats;
  const std::string name =
      options.name.empty() ? "worker-" + std::to_string(::getpid())
                           : options.name;
  if (options.work_dir.empty()) {
    if (options.log != nullptr) *options.log << "worker: --work-dir required\n";
    return 1;
  }
  fs::create_directories(options.work_dir);
  const fs::path attempts = attempt_dir(options.work_dir);
  const auto log_line = [&](const std::string& line) {
    if (options.log != nullptr) {
      *options.log << "worker " << name << ": " << line << std::endl;
    }
  };

  std::string worker_id;
  int registrations = 0;
  double poll_ms = static_cast<double>(options.poll_ms);

  // Registers (or re-registers) with a deterministic backoff between
  // attempts; returns false when the reconnect budget is spent.
  const auto register_self = [&]() -> bool {
    for (int attempt = 1;; ++attempt) {
      if (stopped(stop)) return false;
      if (options.max_reconnects > 0 && registrations > 0 &&
          static_cast<int>(st.reconnects) >= options.max_reconnects) {
        log_line("reconnect budget spent, giving up");
        return false;
      }
      const std::string body = "{\"name\": \"" + json_escape(name) + "\"}";
      const HttpReply reply =
          http_request(options.host, options.port, "POST",
                       "/v1/worker/register", body, name,
                       options.request_timeout_s);
      if (reply.status == 200) {
        try {
          const JsonValue root = parse_json(reply.body);
          worker_id = json_str(root, "worker");
          poll_ms = json_num(root, "poll_ms", poll_ms);
        } catch (const std::exception&) {
          worker_id.clear();
        }
        if (!worker_id.empty()) {
          if (registrations > 0) ++st.reconnects;
          ++registrations;
          log_line("registered as " + worker_id);
          return true;
        }
      }
      if (reply.status == 503 || reply.status == 429) {
        // Draining or overloaded: honor the hint, keep trying.
        stoppable_sleep(reply.retry_after_s > 0 ? reply.retry_after_s * 1000.0
                                                : poll_ms,
                        stop);
        continue;
      }
      if (reply.status >= 400) {
        log_line("registration rejected (" + std::to_string(reply.status) +
                 "), giving up");
        return false;
      }
      // Transport failure: the daemon is down or partitioned away.  The
      // delay is replayable — same (seed, attempt) → same sleep.
      const double delay =
          supervise::backoff_delay_ms(options.backoff, /*cell_index=*/0,
                                      attempt);
      log_line("connect failed (" + reply.error + "), retrying in " +
               std::to_string(static_cast<int>(delay)) + " ms");
      stoppable_sleep(delay, stop);
      if (options.max_reconnects > 0 &&
          attempt >= options.max_reconnects && registrations == 0) {
        log_line("daemon unreachable, giving up");
        return false;
      }
    }
  };

  // Executes one leased cell through a one-slot WorkerPool, which owns the
  // exec-cell argv, the watchdog and the harvest taxonomy.
  const auto execute = [&](const Lease& lease) -> supervise::WorkerOutcome {
    supervise::WorkerOutcome outcome;
    outcome.kind = supervise::ErrorKind::Io;
    const fs::path spec_path = fs::path(options.work_dir) /
                               (hash_hex(fnv1a64(lease.spec)) + ".spec");
    std::string error;
    if (!atomic_write_file(spec_path, lease.spec, &error)) {
      outcome.error = "cannot write spec file: " + error;
      return outcome;
    }
    supervise::WorkerPoolOptions pool_options;
    pool_options.slots = 1;
    pool_options.cell_timeout_s = lease.timeout_s;
    if (options.subprocess_timeout_s > 0.0 &&
        (lease.timeout_s <= 0.0 || options.subprocess_timeout_s < lease.timeout_s)) {
      pool_options.cell_timeout_s = options.subprocess_timeout_s;
    }
    pool_options.term_grace_s = 2.0;
    pool_options.worker_threads = lease.threads;
    pool_options.feastc_path = options.feastc_path;
    pool_options.cache_dir = options.cache_dir;
    pool_options.no_cache = options.no_cache;
    pool_options.work_dir = attempts.string();
    supervise::WorkerPool pool(pool_options);
    try {
      pool.submit(spec_path.string(), lease.cell, lease.inject);
    } catch (const std::exception& e) {
      outcome.error = std::string("spawn failed: ") + e.what();
    }
    while (pool.running() > 0) {
      std::vector<supervise::WorkerOutcome> done = pool.poll();
      if (done.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      } else {
        outcome = std::move(done.front());
      }
    }
    // Only removable when empty: a failed attempt keeps its log.
    std::error_code ec;
    fs::remove(attempts, ec);
    return outcome;
  };

  if (!register_self()) return stopped(stop) ? 0 : 1;

  while (!stopped(stop)) {
    if (check::fire(check::FaultSite::WorkerReconnect)) {
      // Injected registration loss: forget who we are mid-loop, exactly as
      // if the daemon restarted under us.
      log_line("injected fault (worker-reconnect): dropping registration");
      worker_id.clear();
      if (!register_self()) return stopped(stop) ? 0 : 1;
      continue;
    }
    const HttpReply reply = http_request(
        options.host, options.port, "POST", "/v1/worker/lease",
        "{\"worker\": \"" + json_escape(worker_id) + "\"}", name,
        options.request_timeout_s);
    if (!reply.ok()) {
      log_line("lease poll failed (" + reply.error + "), reconnecting");
      if (!register_self()) return stopped(stop) ? 0 : 1;
      continue;
    }
    if (reply.status == 404) {
      // The daemon forgot us (restart, heartbeat sweep): new incarnation.
      if (!register_self()) return stopped(stop) ? 0 : 1;
      continue;
    }
    if (reply.status == 503 || reply.status == 429) {
      stoppable_sleep(reply.retry_after_s > 0 ? reply.retry_after_s * 1000.0
                                              : poll_ms,
                      stop);
      continue;
    }
    if (reply.status != 200) {
      log_line("lease poll rejected (" + std::to_string(reply.status) + ")");
      stoppable_sleep(poll_ms, stop);
      continue;
    }
    Lease lease;
    lease.threads = options.threads;
    std::string malformed;
    try {
      const JsonValue root = parse_json(reply.body);
      if (const JsonValue* idle = root.find("idle");
          idle != nullptr && idle->type == JsonValue::Type::Bool &&
          idle->boolean) {
        stoppable_sleep(poll_ms, stop);
        continue;
      }
      lease.token = json_str(root, "lease");
      lease.spec = json_str(root, "spec");
      lease.inject = json_str(root, "inject");
      malformed = read_lease_numbers(root, lease);
    } catch (const std::exception& e) {
      log_line(std::string("malformed lease body: ") + e.what());
      stoppable_sleep(poll_ms, stop);
      continue;
    }
    if (lease.token.empty() || lease.spec.empty()) {
      stoppable_sleep(poll_ms, stop);
      continue;
    }
    ++st.leases;

    supervise::WorkerOutcome outcome;
    if (!malformed.empty()) {
      // Report instead of dropping: the daemon charges the attempt now
      // rather than waiting out the lease deadline.
      outcome.kind = supervise::ErrorKind::Io;
      outcome.error = "malformed lease: " + malformed;
    } else if (lease.inject == "worker-die" ||
               lease.inject.rfind("worker-die@", 0) == 0) {
      // The poison mechanism: this worker dies *holding* the lease, so the
      // daemon's failure detector — not a polite error report — must notice.
      log_line("injected worker-die on cell " + std::to_string(lease.cell));
      if (options.allow_process_exit) std::_Exit(check::kFaultExitCode);
      return check::kFaultExitCode;
    } else {
      outcome = execute(lease);
    }
    const std::string kind = supervise::to_string(outcome.kind);
    std::string body = "{\"worker\": \"" + json_escape(worker_id) +
                       "\", \"lease\": \"" + json_escape(lease.token) + "\"";
    if (outcome.ok) {
      body += ", \"ok\": true, \"shard\": \"" + json_escape(outcome.frame) + "\"";
      ++st.cells_ok;
    } else {
      body += ", \"ok\": false, \"kind\": \"" + kind + "\", \"error\": \"" +
              json_escape(outcome.error) + "\"";
      ++st.cells_failed;
      log_line("cell " + std::to_string(lease.cell) + " failed [" + kind + "] " +
               outcome.error);
    }
    body += "}";
    const int posts = check::fire(check::FaultSite::WorkerResultDup) ? 2 : 1;
    bool delivered = false;
    for (int i = 0; i < posts; ++i) {
      const HttpReply post = http_request(options.host, options.port, "POST",
                                          "/v1/worker/result", body, name,
                                          options.request_timeout_s);
      if (post.ok()) {
        delivered = true;
        // 410 means the daemon expired the lease and moved on — the duplicate
        // or late result is dropped by design, nothing to do here.
      }
    }
    if (!delivered) {
      // The daemon will requeue the cell when the lease deadline passes;
      // all we can do is come back with a fresh registration.
      log_line("result delivery failed, reconnecting");
      if (!register_self()) return stopped(stop) ? 0 : 1;
    }
    if (options.max_cells > 0 &&
        st.cells_ok + st.cells_failed >= options.max_cells) {
      log_line("max-cells reached, exiting");
      return 0;
    }
  }
  return 0;
}

}  // namespace feast::serve
