#pragma once
// The master's index of live workers, and the k-subset sampler that reads it.
//
// The engine moves its fleet epoch (SchedulerContext::fleet_epoch) each
// time a worker crashes or recovers, right after the worker's failed() flag
// flips. LiveWorkers keeps the ascending indices of its context's live
// workers and rebuilds them only when that epoch moved: O(fleet) once per
// fault event, O(1) per read otherwise. Each scheduler owns one over its
// own context, so a federated instance's masked context yields exactly its
// partition's live workers.
//
// SubsetSampler draws a seeded k-subset of such an index in O(k) host work:
// it makes the draws of a partial Fisher-Yates over a copy of the index,
// and so picks the same workers in the same order, but stores only the
// positions the shuffle overwrote.

#include <cstdint>
#include <span>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace dlaja::sched {

class LiveWorkers {
 public:
  /// The non-null, not-failed workers of `ctx`, ascending by index. Rebuilt
  /// on first use and whenever `*ctx.fleet_epoch` moved since the last
  /// rebuild; on every call when the context has no epoch. The reference
  /// stays valid until the next call.
  [[nodiscard]] const std::vector<cluster::WorkerIndex>& of(const SchedulerContext& ctx);

  /// How many times the index was rebuilt.
  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return rebuilds_; }

 private:
  std::vector<cluster::WorkerIndex> live_;
  std::uint64_t epoch_ = 0;  ///< fleet epoch at the last rebuild
  std::uint64_t rebuilds_ = 0;
};

class SubsetSampler {
 public:
  /// Replaces `picks` with min(k, pool.size()) distinct entries of `pool`.
  /// With n = pool.size(), for i in [0, k): j = i + rng.uniform_int(0,
  /// n-1-i); pick i is the value at position j, and position j then takes
  /// the value at position i. Values come from the overwritten positions,
  /// else from pool[j].
  void draw(std::span<const cluster::WorkerIndex> pool, std::uint32_t k, RandomStream& rng,
            std::vector<cluster::WorkerIndex>& picks);

 private:
  struct Moved {
    std::uint32_t position;
    cluster::WorkerIndex value;
  };

  /// The slot holding `position`, or the free slot where it would go.
  [[nodiscard]] Moved& slot(std::uint32_t position);

  /// Open-addressing table of the overwritten positions: one per draw, at
  /// most half full, so a lookup is O(1) and a k-subset costs O(k) however
  /// large k is.
  std::vector<Moved> moved_;
};

}  // namespace dlaja::sched
