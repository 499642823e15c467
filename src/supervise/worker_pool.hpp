/// \file worker_pool.hpp
/// \brief The only `exec-cell` spawner: leased worker subprocesses.
///
/// Every path that runs a cell out of process goes through WorkerPool: the
/// supervised campaign runner (one pool per campaign), the serve daemon's
/// local workers (one pool per daemon) and the remote worker (a one-slot
/// pool per lease).  The pool owns the whole attempt mechanism — the
/// `feastc campaign exec-cell` argv, the spawn, the watchdog with its
/// SIGTERM→SIGKILL escalation, the shard-result harvest and the error
/// taxonomy (timeout | crash | signal | oom | io, each with the worker
/// log's tail) — so the three callers cannot drift apart.
///
/// submit() spawns into a free slot and returns a ticket; poll() harvests
/// finished (or watchdog-killed) leases without blocking.  Retry,
/// quarantine and drain policy stay with the caller: the pool reports one
/// attempt's outcome, it does not decide what an attempt failure means.
///
/// The destructor kills and reaps every outstanding lease: a pool owner
/// that dies, drains or unwinds through an exception never leaks a worker
/// process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "supervise/supervisor.hpp"

namespace feast::supervise {

/// Pool-construction knobs (per-lease knobs ride on submit()).
struct WorkerPoolOptions {
  int slots = 2;                ///< Concurrent leases.
  double cell_timeout_s = 0.0;  ///< Watchdog deadline per lease (0 = off).
  double term_grace_s = 2.0;    ///< SIGTERM → SIGKILL escalation window.
  std::uint64_t memory_limit_mb = 0;  ///< RLIMIT_AS per worker (0 = off).
  unsigned worker_threads = 1;        ///< --threads given to each worker.
  /// Worker binary; empty resolves /proc/self/exe (correct when the caller
  /// is feastc itself; tests pass their configured binary).
  std::string feastc_path;
  std::string cache_dir;  ///< Forwarded to workers ("" = worker default).
  bool no_cache = false;
  /// Scratch directory for shard results + worker logs.  Required.
  std::string work_dir;
  /// Keep a successful attempt's shard and log files.  Failed attempts'
  /// logs always stay: the outcome's error text points at them.
  bool keep_work_dir = false;
};

/// One harvested lease.
struct WorkerOutcome {
  std::uint64_t ticket = 0;
  std::size_t cell_index = 0;
  bool ok = false;
  ErrorKind kind = ErrorKind::None;  ///< Why the attempt failed (!ok).
  std::string error;                 ///< Human-readable detail (!ok).
  ShardResult shard;                 ///< Valid when ok.
  std::string frame;                 ///< The shard file's bytes when ok.
  double wall_s = 0.0;               ///< Lease wall time, spawn → harvest.
};

/// Fixed-capacity pool of supervised worker subprocesses.  Single-owner:
/// not thread-safe (each owner drives its pool from one thread).
class WorkerPool {
 public:
  explicit WorkerPool(WorkerPoolOptions options);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t capacity() const noexcept;
  std::size_t running() const noexcept;
  std::size_t free_slots() const noexcept;

  /// Leases a free slot to one `exec-cell` attempt on cell \p cell_index of
  /// the campaign spec at \p spec_path.  \p inject is the poison action to
  /// forward as `--inject`, \p faults the fault plan to arm in the worker
  /// as `--faults` ("" = none for either).  Returns a nonzero ticket the
  /// eventual WorkerOutcome echoes back.  Throws std::runtime_error when the
  /// pool is full or the spawn fails outright — callers gate on
  /// free_slots().
  std::uint64_t submit(const std::string& spec_path, std::size_t cell_index,
                       const std::string& inject = "",
                       const std::string& faults = "");

  /// Non-blocking harvest: reaps every finished lease, watchdog-kills every
  /// overrun one, and returns their outcomes (possibly empty).
  std::vector<WorkerOutcome> poll();

  /// Kills (SIGTERM → \p grace_s → SIGKILL) and discards every outstanding
  /// lease without producing outcomes — the drain path.
  void kill_all(double grace_s);

 private:
  struct Lease;

  WorkerOutcome harvest(Lease& lease, bool timed_out);

  WorkerPoolOptions options_;
  std::string feastc_;
  std::uint64_t next_ticket_ = 1;
  std::vector<Lease> leases_;
};

}  // namespace feast::supervise
