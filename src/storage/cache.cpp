#include "storage/cache.hpp"

#include <cassert>
#include <cmath>

namespace dlaja::storage {

ResourceCache::ResourceCache(CacheConfig config) : config_(config) {}

std::uint64_t ResourceCache::bytes_of(MegaBytes mb) noexcept {
  if (!(mb > 0.0)) return 0;  // negative / NaN sizes account as empty
  return static_cast<std::uint64_t>(std::llround(mb * 1048576.0));
}

bool ResourceCache::contains(ResourceId id) const noexcept {
  return entries_.find(id) != entries_.end();
}

bool ResourceCache::access(ResourceId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  if (config_.policy == EvictionPolicy::kLru) {
    order_.splice(order_.begin(), order_, it->second);
  }
  return true;
}

void ResourceCache::admit(const Resource& resource) {
  const auto it = entries_.find(resource.id);
  if (it != entries_.end()) {
    if (config_.policy == EvictionPolicy::kLru) {
      order_.splice(order_.begin(), order_, it->second);
    }
    return;
  }
  order_.push_front(resource);
  entries_.emplace(resource.id, order_.begin());
  ++version_;
  used_bytes_ += bytes_of(resource.size_mb);
  stats_.admitted_mb += resource.size_mb;
  enforce_capacity();
}

bool ResourceCache::over_capacity() const noexcept {
  return config_.policy != EvictionPolicy::kUnbounded && order_.size() > 1 &&
         used_bytes_ > bytes_of(config_.capacity_mb);
}

void ResourceCache::enforce_capacity() {
  // Evict from the back (least recent / oldest); over_capacity() never asks
  // for the front entry to go.
  while (over_capacity()) {
    const Resource victim = order_.back();
    order_.pop_back();
    entries_.erase(victim.id);
    ++version_;
    const std::uint64_t bytes = bytes_of(victim.size_mb);
    used_bytes_ = used_bytes_ >= bytes ? used_bytes_ - bytes : 0;
    ++stats_.evictions;
    stats_.evicted_mb += victim.size_mb;
  }
}

bool ResourceCache::evict(ResourceId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  const Resource victim = *it->second;
  order_.erase(it->second);
  entries_.erase(it);
  ++version_;
  const std::uint64_t bytes = bytes_of(victim.size_mb);
  used_bytes_ = used_bytes_ >= bytes ? used_bytes_ - bytes : 0;
  ++stats_.evictions;
  stats_.evicted_mb += victim.size_mb;
  return true;
}

void ResourceCache::clear() {
  order_.clear();
  entries_.clear();
  used_bytes_ = 0;
  ++version_;  // restore() clears first, so it bumps too
}

std::vector<Resource> ResourceCache::snapshot() const {
  return std::vector<Resource>(order_.begin(), order_.end());
}

void ResourceCache::restore(std::span<const Resource> resources) {
  clear();
  // Iterate in reverse so the first element of `resources` ends up at the
  // front (most recent), matching what snapshot() produced. Duplicate ids
  // keep the most recent copy only (first in `resources`).
  for (auto it = resources.rbegin(); it != resources.rend(); ++it) {
    const auto existing = entries_.find(it->id);
    if (existing != entries_.end()) {
      used_bytes_ -= bytes_of(existing->second->size_mb);
      order_.erase(existing->second);
      entries_.erase(existing);
    }
    order_.push_front(*it);
    entries_.emplace(it->id, order_.begin());
    used_bytes_ += bytes_of(it->size_mb);
  }
  assert(entries_.size() == order_.size());
  enforce_capacity();
}

}  // namespace dlaja::storage
