#include "sched/live_workers.hpp"

#include <algorithm>
#include <limits>

namespace dlaja::sched {

using cluster::WorkerIndex;

namespace {

constexpr std::uint32_t kFreeSlot = std::numeric_limits<std::uint32_t>::max();

}  // namespace

const std::vector<WorkerIndex>& LiveWorkers::of(const SchedulerContext& ctx) {
  if (rebuilds_ > 0 && ctx.fleet_epoch != nullptr && *ctx.fleet_epoch == epoch_) return live_;
  ++rebuilds_;
  if (ctx.fleet_epoch != nullptr) epoch_ = *ctx.fleet_epoch;
  live_.clear();
  for (WorkerIndex w = 0; w < ctx.worker_count(); ++w) {
    if (ctx.workers[w] != nullptr && !ctx.workers[w]->failed()) live_.push_back(w);
  }
  return live_;
}

SubsetSampler::Moved& SubsetSampler::slot(std::uint32_t position) {
  const std::size_t mask = moved_.size() - 1;
  std::size_t at = (position * 0x9e3779b1u) & mask;  // Fibonacci hashing
  while (moved_[at].position != kFreeSlot && moved_[at].position != position) {
    at = (at + 1) & mask;
  }
  return moved_[at];
}

void SubsetSampler::draw(std::span<const WorkerIndex> pool, std::uint32_t k, RandomStream& rng,
                         std::vector<WorkerIndex>& picks) {
  picks.clear();
  const std::size_t n = pool.size();
  const auto count = static_cast<std::uint32_t>(std::min<std::size_t>(k, n));
  std::size_t slots = 8;
  while (slots < 2 * static_cast<std::size_t>(count)) slots *= 2;
  moved_.assign(slots, Moved{kFreeSlot, cluster::kNoWorker});
  const auto value_at = [&](std::uint32_t position) {
    const Moved& entry = slot(position);
    return entry.position == kFreeSlot ? pool[position] : entry.value;
  };
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto j = i + static_cast<std::uint32_t>(
                           rng.uniform_int(0, static_cast<std::int64_t>(n - 1 - i)));
    picks.push_back(value_at(j));
    // Position i is never read again (later draws land at or after i + 1),
    // so only position j's new value needs storing.
    const WorkerIndex displaced = value_at(i);
    slot(j) = Moved{j, displaced};
  }
}

}  // namespace dlaja::sched
