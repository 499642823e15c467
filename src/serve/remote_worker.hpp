/// \file remote_worker.hpp
/// \brief The `feastc worker` side of the distributed worker fabric.
///
/// A remote worker is a long-lived client of a `feastc serve` daemon: it
/// registers under a stable name, then loops leasing one cell at a time.
/// Each lease runs through a one-slot supervise::WorkerPool — the same
/// spawner, watchdog and error taxonomy (log tails, `oom`) as the daemon's
/// local workers and the supervised campaign runner — and the checksummed
/// feast-shard frame the pool read goes back unchanged over
/// `/v1/worker/result`.
///
/// Failure-domain behavior (docs/SERVE.md, "Distributed workers"):
///
///   * **Reconnect** — any transport failure (connect refused, torn write,
///     short read) drops the registration and re-registers after a
///     deterministic exponential backoff with seeded jitter
///     (supervise::backoff_delay_ms), so a daemon restart produces a
///     bounded, replayable reconnect storm rather than a tight spin.
///   * **Lease loss is safe** — a result the daemon refuses (404/410) is
///     simply dropped; the daemon has already requeued or settled the cell.
///   * **Malformed leases are reported** — a lease whose `cell`, `threads`
///     or `timeout_s` is out of range goes back as an `io` failure, so the
///     daemon charges the attempt instead of waiting out the deadline.
///   * **Injected deaths** — a leased cell carrying the `worker-die` inject
///     kills this worker instead of executing, which is how the chaos
///     driver manufactures cross-worker poison.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "supervise/supervisor.hpp"

namespace feast::serve {

/// Knobs of one `feastc worker` process (CLI flags map 1:1).
struct RemoteWorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name;        ///< Stable identity; "" derives one from the pid.
  /// Spec/shard scratch.  Required.  Attempts run in a subdirectory of
  /// this worker's own, so several workers may share one work dir.
  std::string work_dir;
  std::string cache_dir;   ///< Cell cache for exec-cell ("" = default).
  bool no_cache = false;
  std::string feastc_path;  ///< exec-cell binary ("" = /proc/self/exe).
  unsigned threads = 1;     ///< --threads given to exec-cell.
  int poll_ms = 50;         ///< Idle sleep between lease polls.
  double request_timeout_s = 10.0;  ///< Per-HTTP-request deadline.
  double subprocess_timeout_s = 0.0;  ///< Extra local watchdog (0 = server's).
  supervise::BackoffPolicy backoff;   ///< Reconnect/busy backoff schedule.
  int max_reconnects = 0;  ///< Give up after this many reconnects (0 = never).
  std::uint64_t max_cells = 0;  ///< Exit cleanly after N results (0 = never).
  /// When true (the CLI), an injected `worker-die` lease calls
  /// std::_Exit(check::kFaultExitCode); in-process harnesses leave it false
  /// and get a clean return instead.
  bool allow_process_exit = false;
  std::ostream* log = nullptr;
};

/// Counters a harness can assert on after run_remote_worker returns.
struct RemoteWorkerStats {
  std::uint64_t leases = 0;     ///< Cells leased (attempts started).
  std::uint64_t cells_ok = 0;   ///< Healthy shard frames accepted.
  std::uint64_t cells_failed = 0;  ///< Failure reports delivered.
  std::uint64_t reconnects = 0;    ///< Registrations after the first.
};

/// Runs the worker loop until \p stop is set, max_cells is reached, the
/// reconnect budget is spent, or an injected death fires.  Returns a CLI
/// exit code: 0 on a clean stop, 1 when the daemon stayed unreachable,
/// check::kFaultExitCode for an in-thread injected death.
int run_remote_worker(const RemoteWorkerOptions& options,
                      const std::atomic<bool>* stop = nullptr,
                      RemoteWorkerStats* stats = nullptr);

}  // namespace feast::serve
