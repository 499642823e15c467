#include "experiment/window_store.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace feast {

WindowStore::Lease WindowStore::lease(std::size_t strategy, std::size_t samples) {
  FEAST_REQUIRE(samples >= 1);
  std::lock_guard<std::mutex> lock(mutex_);
  FEAST_REQUIRE_MSG(!sealed_, "every lease must be taken before any is used");
  Group& group = groups_[strategy];
  if (group.slots.empty()) group.slots.resize(samples);
  FEAST_REQUIRE(group.slots.size() == samples);
  ++group.leases;
  return Lease(*this, ++leases_, strategy, samples);
}

std::size_t WindowStore::held() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return held_;
}

WindowStore::Slot& WindowStore::slot_locked(std::size_t strategy, std::size_t sample) {
  sealed_ = true;
  return groups_.at(strategy).slots.at(sample);
}

void WindowStore::release_locked(const Group& group, Slot& slot) {
  if (++slot.released < group.leases || slot.windows == nullptr) return;
  slot.windows.reset();
  --held_;
}

WindowStore::Lease::Lease(WindowStore& store, std::size_t id, std::size_t strategy,
                          std::size_t samples)
    : store_(&store), id_(id), strategy_(strategy), used_(samples, 0) {}

WindowStore::Lease::Lease(Lease&& other) noexcept
    : store_(std::exchange(other.store_, nullptr)),
      id_(other.id_),
      strategy_(other.strategy_),
      used_(std::move(other.used_)),
      asked_(other.asked_) {}

WindowStore::Lease::~Lease() {
  if (store_ == nullptr) return;
  std::lock_guard<std::mutex> lock(store_->mutex_);
  Group& group = store_->groups_.at(strategy_);
  if (!asked_) {
    // A cell that never asked (served from the cache) leaves the group in
    // O(1) rather than visiting, on another core's cache lines, every
    // sample's slot; only windows now needed by no one are freed.
    --group.leases;
    if (store_->held_ == 0) return;
    for (Slot& slot : group.slots) {
      if (slot.windows != nullptr && slot.released >= group.leases) {
        slot.windows.reset();
        --store_->held_;
      }
    }
    return;
  }
  for (std::size_t sample = 0; sample < used_.size(); ++sample) {
    if (used_[sample] != 0) continue;
    Slot& slot = group.slots[sample];
    if (slot.owner == id_) {  // Claimed, then the cell failed: pass it on.
      slot.owner = 0;
      store_->published_.notify_all();
    }
    store_->release_locked(group, slot);
  }
}

bool WindowStore::Lease::claim(std::size_t sample) {
  FEAST_REQUIRE(store_ != nullptr);
  std::lock_guard<std::mutex> lock(store_->mutex_);
  Slot& slot = store_->slot_locked(strategy_, sample);
  asked_ = true;
  if (slot.owner != 0 && slot.owner != id_) return false;
  if (slot.windows == nullptr) slot.owner = id_;
  return true;
}

DeadlineAssignment WindowStore::Lease::assignment(
    std::size_t sample, const TaskGraph& graph,
    const std::function<DeadlineAssignment()>& distribute, bool& shared) {
  FEAST_REQUIRE(store_ != nullptr);
  FEAST_REQUIRE(sample < used_.size());
  std::unique_lock<std::mutex> lock(store_->mutex_);
  FEAST_REQUIRE_MSG(used_[sample] == 0, "a lease uses each sample once");
  Slot& slot = store_->slot_locked(strategy_, sample);
  asked_ = true;
  const Group& group = store_->groups_.at(strategy_);
  store_->published_.wait(lock, [&] { return slot.owner == 0 || slot.owner == id_; });
  if (slot.windows != nullptr) {
    const std::shared_ptr<const std::vector<NodeWindow>> windows = slot.windows;
    store_->release_locked(group, slot);
    used_[sample] = 1;
    lock.unlock();
    shared = true;
    return DeadlineAssignment(graph, *windows);
  }

  // First here (or the claimant), or the one before threw: distribute
  // without the lock.
  slot.owner = id_;
  lock.unlock();
  DeadlineAssignment assignment;
  try {
    assignment = distribute();
  } catch (...) {
    lock.lock();
    slot.owner = 0;
    store_->published_.notify_all();
    throw;
  }
  lock.lock();
  slot.owner = 0;
  used_[sample] = 1;
  if (++slot.released < group.leases) {
    slot.windows = std::make_shared<const std::vector<NodeWindow>>(assignment.windows());
    ++store_->held_;
  }
  store_->published_.notify_all();
  shared = false;
  return assignment;
}

}  // namespace feast
