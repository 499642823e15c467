#include "supervise/worker_pool.hpp"

#include <csignal>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "obs/obs.hpp"
#include "supervise/subprocess.hpp"
#include "util/strings.hpp"

namespace feast::supervise {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct WorkerPool::Lease {
  Subprocess proc;
  std::uint64_t ticket = 0;
  std::size_t cell = 0;
  Clock::time_point started;
  fs::path result_path;
  fs::path log_path;
  obs::Sink* sink = nullptr;  ///< Installed sink at spawn, for the span.
  std::uint64_t span_start_ns = 0;
};

namespace {

/// The last few lines of a worker log, squeezed onto one line for the
/// error detail ("" when the log is missing or empty).
std::string log_tail(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  while (!data.empty() && (data.back() == '\n' || data.back() == '\r')) {
    data.pop_back();
  }
  if (data.empty()) return {};
  constexpr std::size_t kMaxBytes = 320;
  if (data.size() > kMaxBytes) data.erase(0, data.size() - kMaxBytes);
  std::string tail;
  tail.reserve(data.size());
  for (const char c : data) tail += (c == '\n' || c == '\r') ? ' ' : c;
  return tail;
}

}  // namespace

WorkerPool::WorkerPool(WorkerPoolOptions options) : options_(std::move(options)) {
  if (options_.slots < 1) throw std::invalid_argument("worker pool: slots < 1");
  if (options_.work_dir.empty()) {
    throw std::invalid_argument("worker pool: work_dir required");
  }
  fs::create_directories(options_.work_dir);
  feastc_ = options_.feastc_path.empty() ? self_exe_path() : options_.feastc_path;
  leases_.reserve(static_cast<std::size_t>(options_.slots));
}

WorkerPool::~WorkerPool() {
  // Never leak an unsupervised process: a pool owner unwinding through an
  // exception (or just exiting) takes its leases down with it.
  kill_all(/*grace_s=*/1.0);
}

std::size_t WorkerPool::capacity() const noexcept {
  return static_cast<std::size_t>(options_.slots);
}

std::size_t WorkerPool::running() const noexcept { return leases_.size(); }

std::size_t WorkerPool::free_slots() const noexcept {
  return capacity() - running();
}

std::uint64_t WorkerPool::submit(const std::string& spec_path,
                                 std::size_t cell_index, const std::string& inject,
                                 const std::string& faults) {
  if (free_slots() == 0) throw std::runtime_error("worker pool: no free slot");

  Lease lease;
  lease.ticket = next_ticket_++;
  lease.cell = cell_index;
  const std::string stem = "lease-" + std::to_string(lease.ticket) + ".cell-" +
                           std::to_string(cell_index);
  lease.result_path = fs::path(options_.work_dir) / (stem + ".result");
  lease.log_path = fs::path(options_.work_dir) / (stem + ".log");
  std::error_code ec;
  fs::remove(lease.result_path, ec);  // Never harvest a stale shard.

  std::vector<std::string> argv = {feastc_,
                                   "campaign",
                                   "exec-cell",
                                   spec_path,
                                   "--cell",
                                   std::to_string(cell_index),
                                   "--out",
                                   lease.result_path.string(),
                                   "--threads",
                                   std::to_string(options_.worker_threads)};
  if (options_.no_cache) {
    argv.emplace_back("--no-cache");
  } else if (!options_.cache_dir.empty()) {
    argv.emplace_back("--cache-dir");
    argv.push_back(options_.cache_dir);
  }
  if (!inject.empty()) {
    argv.emplace_back("--inject");
    argv.push_back(inject);
  }
  if (!faults.empty()) {
    argv.emplace_back("--faults");
    argv.push_back(faults);
  }

  SubprocessOptions opts;
  opts.stdout_path = lease.log_path.string();
  opts.stderr_path = "+stdout";
  opts.memory_limit_bytes = options_.memory_limit_mb << 20;
  // Own process group: a SIGINT/SIGTERM aimed at the owner (a terminal
  // Ctrl-C, a daemon stop) must reach only the owner, which drains; a
  // worker that saw it would harvest as a signal death and be charged.
  opts.new_process_group = true;

  lease.proc = Subprocess::spawn(argv, opts);  // Throws on spawn failure.
  obs::count(obs::Counter::SuperviseSpawn);
  lease.started = Clock::now();
  // The guarded form: the owner may run on any thread (the remote worker
  // does), and the sink may be uninstalled before this lease is harvested.
  lease.sink = obs::active() != nullptr
                   ? obs::detail::open_active_span(lease.span_start_ns)
                   : nullptr;
  const std::uint64_t ticket = lease.ticket;
  leases_.push_back(std::move(lease));
  return ticket;
}

WorkerOutcome WorkerPool::harvest(Lease& lease, bool timed_out) {
  if (lease.sink != nullptr) {
    obs::detail::close_active_span(lease.sink, obs::Span::SuperviseAttempt,
                                   lease.span_start_ns);
  }
  const ExitStatus& status = lease.proc.status();
  WorkerOutcome outcome;
  outcome.ticket = lease.ticket;
  outcome.cell_index = lease.cell;
  outcome.wall_s =
      std::chrono::duration<double>(Clock::now() - lease.started).count();
  const auto fail = [&](ErrorKind kind, std::string message) {
    const std::string tail = log_tail(lease.log_path);
    outcome.kind = kind;
    outcome.error = tail.empty() ? std::move(message) : message + " — " + tail;
    return outcome;
  };

  if (timed_out) {
    return fail(ErrorKind::Timeout,
                "watchdog: exceeded " + format_compact(options_.cell_timeout_s, 3) +
                    " s deadline (" + status.describe() + ")");
  }
  if (status.kind == ExitStatus::Kind::Lost) {
    // waitpid could not observe the worker (reaped elsewhere): an
    // infrastructure failure, same bucket as a failed spawn.
    return fail(ErrorKind::Io, "worker " + status.describe());
  }
  if (status.kind == ExitStatus::Kind::Signaled) {
    // Under an address-space cap the kernel's reply to an unservable
    // allocation is SIGKILL; classify that as oom.
    return fail(options_.memory_limit_mb > 0 && status.term_signal == SIGKILL
                    ? ErrorKind::Oom
                    : ErrorKind::Signal,
                "worker " + status.describe());
  }
  if (!status.exited(0)) return fail(ErrorKind::Crash, "worker " + status.describe());
  std::ifstream in(lease.result_path, std::ios::binary);
  if (!in) return fail(ErrorKind::Io, "worker exited 0 but left no result file");
  std::string frame((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ShardError shard_error = ShardError::None;
  const std::optional<ShardResult> shard = parse_shard_result(frame, &shard_error);
  if (!shard.has_value() || shard->cell_index != lease.cell) {
    outcome.kind = ErrorKind::Io;
    outcome.error =
        "worker result unreadable (" +
        std::string(shard.has_value() ? "wrong cell" : to_string(shard_error)) +
        "): " + lease.result_path.string();
    return outcome;
  }
  outcome.ok = true;
  outcome.shard = *shard;
  outcome.frame = std::move(frame);
  if (!options_.keep_work_dir) {
    std::error_code ec;
    fs::remove(lease.result_path, ec);
    fs::remove(lease.log_path, ec);
  }
  return outcome;
}

std::vector<WorkerOutcome> WorkerPool::poll() {
  std::vector<WorkerOutcome> outcomes;
  for (auto it = leases_.begin(); it != leases_.end();) {
    Lease& lease = *it;
    bool timed_out = false;
    if (!lease.proc.poll()) {
      const double age_s =
          std::chrono::duration<double>(Clock::now() - lease.started).count();
      if (options_.cell_timeout_s <= 0.0 || age_s <= options_.cell_timeout_s) {
        ++it;
        continue;
      }
      obs::count(obs::Counter::SuperviseKill);
      lease.proc.kill_and_reap(options_.term_grace_s);
      timed_out = true;
    }
    outcomes.push_back(harvest(lease, timed_out));
    it = leases_.erase(it);
  }
  return outcomes;
}

void WorkerPool::kill_all(double grace_s) {
  for (Lease& lease : leases_) {
    obs::count(obs::Counter::SuperviseKill);
    lease.proc.kill_and_reap(grace_s);
    std::error_code ec;
    fs::remove(lease.result_path, ec);
    fs::remove(lease.log_path, ec);
  }
  leases_.clear();
}

}  // namespace feast::supervise
