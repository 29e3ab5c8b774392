#pragma once
// The master's per-worker load/locality cache (cached fan-out).
//
// One generation-tagged slot per worker: state that can be invalidated bumps
// a generation, and late information stamped with an older generation is
// ignored instead of overwriting fresh state. Slots hold the most recently
// observed backlog (seconds of queued work), optimistically charged on every
// placement and authoritatively overwritten by placement responses, load
// reports and piggy-backed bids, plus the set of resources the master
// believes resident on the worker (from its own placement history — the
// master never peeks into worker caches).
//
// The cache is advisory by construction: a stale entry costs at most one
// declined placement and a fallback probe re-contest (late binding), never
// a wrong outcome.

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cluster/protocol.hpp"
#include "storage/cache.hpp"

namespace dlaja::sched {

class LoadCache {
 public:
  struct Stats {
    std::uint64_t refreshes = 0;      ///< authoritative overwrites accepted
    std::uint64_t stale_ignored = 0;  ///< refreshes rejected by the generation tag
  };

  /// (Re)initialises one slot per worker. Workers start idle with empty
  /// queues, so a zero backlog is genuine knowledge, not a guess.
  void reset(std::size_t worker_count) {
    slots_.assign(worker_count, Slot{});
    stats_ = Stats{};
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  [[nodiscard]] double backlog_s(cluster::WorkerIndex w) const { return slots_[w].backlog_s; }
  [[nodiscard]] std::uint32_t generation(cluster::WorkerIndex w) const {
    return slots_[w].generation;
  }

  /// True if the master believes `resource` is resident on `w` (it placed a
  /// job needing it there and nothing invalidated the slot since).
  [[nodiscard]] bool believes_resident(cluster::WorkerIndex w,
                                       storage::ResourceId resource) const {
    return slots_[w].resident.count(resource) > 0;
  }

  /// Optimistic projection after a placement: the worker's backlog grows by
  /// the placed job's cost and its resource becomes resident.
  void charge(cluster::WorkerIndex w, double cost_s, storage::ResourceId resource) {
    slots_[w].backlog_s += cost_s;
    if (resource != 0) slots_[w].resident.insert(resource);
  }

  /// Authoritative overwrite from a response/report stamped with the
  /// generation current when the conversation started. A refresh tagged
  /// with an older generation (the slot was invalidated in between) is
  /// dropped — the slab-slot rule.
  void refresh(cluster::WorkerIndex w, std::uint32_t generation, double backlog_s) {
    Slot& slot = slots_[w];
    if (generation != slot.generation) {
      ++stats_.stale_ignored;
      return;
    }
    slot.backlog_s = backlog_s;
    ++stats_.refreshes;
  }

  /// Invalidates the slot (a voided assignment: the worker crashed or the
  /// conversation died). Keeps the resident set — worker resource caches
  /// survive crashes — but in-flight refreshes for the old life are stale.
  void invalidate(cluster::WorkerIndex w) { ++slots_[w].generation; }

  /// A revived worker rejoins with an empty queue: zero backlog is genuine
  /// knowledge again, and any refresh from its previous life is stale.
  void revive(cluster::WorkerIndex w) {
    Slot& slot = slots_[w];
    ++slot.generation;
    slot.backlog_s = 0.0;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Slot {
    double backlog_s = 0.0;
    std::uint32_t generation = 0;
    std::unordered_set<storage::ResourceId> resident;
  };

  std::vector<Slot> slots_;
  Stats stats_;
};

}  // namespace dlaja::sched
