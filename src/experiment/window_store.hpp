/// \file window_store.hpp
/// \brief Deadline windows shared by one call's cells across system sizes.
///
/// A campaign or a sweep evaluates each strategy at several system sizes on
/// one graph batch: the sample'th graph is the same at every size (see
/// sweep.hpp).  A strategy whose windows do not depend on the size
/// (Strategy::procs_invariant) therefore computes identical windows for a
/// sample at every size.  A WindowStore lets the cells of one call compute
/// them once: the first cell to reach (strategy, sample) distributes,
/// checks the full assignment and publishes its per-node windows; the
/// strategy's other cells build their assignment from those windows
/// instead of distributing.  Cells still generate their own graph (they
/// schedule it), and results, cache keys and manifests stay per cell.
///
/// Each cell holds a Lease.  Every lease of a call is taken before any is
/// used, so the store knows how many cells will ask for each sample.  A
/// sample's windows are freed as soon as every lease of its strategy has
/// used them or dropped them: a lease releases the samples it never used
/// when it is destroyed, which covers cells served from the cache and
/// cells that threw.  A store is empty once all its leases are gone.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/annotation.hpp"
#include "taskgraph/task_graph.hpp"

namespace feast {

class WindowStore {
 public:
  class Lease;

  WindowStore() = default;
  WindowStore(const WindowStore&) = delete;
  WindowStore& operator=(const WindowStore&) = delete;

  /// Registers one cell that evaluates \p samples samples of strategy
  /// \p strategy — an index into the call's strategy list, not the label,
  /// which need not be unique.  Must precede every use of any lease of
  /// this store.  The store must outlive the lease.
  Lease lease(std::size_t strategy, std::size_t samples);

  /// Window sets currently held (0 once every lease is gone).
  std::size_t held() const;

 private:
  struct Slot {
    std::size_t released = 0;  ///< Leases done with this sample.
    std::size_t owner = 0;     ///< Id of the lease distributing it, 0 if none.
    std::shared_ptr<const std::vector<NodeWindow>> windows;
  };
  struct Group {
    std::size_t leases = 0;
    std::vector<Slot> slots;  ///< One per sample.
  };

  Slot& slot_locked(std::size_t strategy, std::size_t sample);
  /// Counts one lease done with \p slot, freeing it after the last.
  void release_locked(const Group& group, Slot& slot);

  mutable std::mutex mutex_;
  std::condition_variable published_;  ///< Some slot lost its owner.
  std::map<std::size_t, Group> groups_;  ///< By strategy index.
  bool sealed_ = false;     ///< Some lease has been used.
  std::size_t leases_ = 0;  ///< Leases taken; the next lease's id is one more.
  std::size_t held_ = 0;
};

/// One cell's claim on its strategy's windows for every sample.
class WindowStore::Lease {
 public:
  Lease(Lease&& other) noexcept;
  Lease& operator=(Lease&&) = delete;
  ~Lease();

  std::size_t samples() const noexcept { return used_.size(); }

  /// False while another lease is distributing \p sample: do another
  /// sample first, since assignment() would wait.  The pool starts a
  /// strategy's cells together, so without this they would all wait on
  /// the one distributing sample 0; with it they spread out, each
  /// distributing a share of the samples.  Otherwise true, and if
  /// no windows are published yet the distribution is reserved for this
  /// lease, so no other lease starts it while this one generates its graph.
  bool claim(std::size_t sample);

  /// The assignment of \p sample on \p graph.  The first lease to reach
  /// (or claim) the sample gets \p distribute()'s result and publishes its
  /// windows; the others get the published windows without slicing
  /// history, and \p shared tells which.  A caller that finds another
  /// lease distributing the sample waits for it; when \p distribute
  /// throws, the next caller distributes instead.  At most once per sample
  /// and lease.
  DeadlineAssignment assignment(std::size_t sample, const TaskGraph& graph,
                                const std::function<DeadlineAssignment()>& distribute,
                                bool& shared);

 private:
  friend class WindowStore;
  Lease(WindowStore& store, std::size_t id, std::size_t strategy, std::size_t samples);

  WindowStore* store_;  ///< nullptr once moved from.
  std::size_t id_;      ///< Unique in the store, never 0.
  std::size_t strategy_;
  std::vector<char> used_;  ///< Per sample; written under the store's mutex.
  bool asked_ = false;      ///< Some claim() or assignment() call; ditto.
};

}  // namespace feast
