#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "obs/trace.hpp"

namespace dlaja::sim {

namespace {

// EventId layout: high 32 bits generation, low 32 bits slot+1 (so slot 0 at
// generation 0 still yields a non-zero, valid()-able value).
[[nodiscard]] constexpr std::uint64_t encode(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<std::uint64_t>(generation) << 32) |
         (static_cast<std::uint64_t>(slot) + 1);
}

}  // namespace

void Simulator::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) {
    // Interned once here so the fire path never touches the name table.
    trace_dispatch_ = tracer_->intern("dispatch");
    trace_cancel_ = tracer_->intern("cancel");
    trace_pending_ = tracer_->intern("pending");
  }
}

std::string Simulator::log_prefix() const {
  char buf[40];
  std::snprintf(buf, sizeof buf, "[t=%.6f] ", seconds_from_ticks(now_));
  return buf;
}

EventId Simulator::schedule_at(Tick at, Action action) {
  assert(action);
  if (at < now_) at = now_;  // cannot schedule into the past
  ++scheduled_;

  std::uint32_t slot;
  if (free_head_ != kNone) {
    slot = free_head_;
    free_head_ = nodes_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(actions_.size());
    if (actions_.size() == actions_.capacity()) {
      // Grow 4x rather than the vector default: the slab moves ~1.33 actions
      // per event over its lifetime instead of ~2.
      reserve(actions_.empty() ? 64 : actions_.size() * 4);
    }
    actions_.emplace_back();
    nodes_.emplace_back();
  }
  actions_[slot] = std::move(action);
  Node& node = nodes_[slot];
  node.at = at;
  node.seq = static_cast<std::uint32_t>(scheduled_);
  link(slot, bucket_of(at));
  ++pending_;
  return EventId{encode(slot, node.gen)};
}

EventId Simulator::schedule_after(Tick delay, Action action) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(action));
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) return false;
  const auto slot = static_cast<std::uint32_t>((id.value & 0xffffffffULL) - 1);
  const auto generation = static_cast<std::uint32_t>(id.value >> 32);
  if (slot >= nodes_.size()) return false;
  // Stale generation: the event fired or was cancelled (release() bumps the
  // tag before a slot can be reused, so a matching tag proves the event is
  // still queued, on the list of bucket_of(at)).
  if (nodes_[slot].gen != generation) return false;
  ++cancelled_;
  if (DLAJA_TRACE_ACTIVE(tracer_)) {
    tracer_->instant(obs::Component::kSim, trace_cancel_, 0, now_, slot);
  }
  unlink(slot, bucket_of(nodes_[slot].at));
  --pending_;
  release(slot);
  return true;
}

void Simulator::reserve(std::size_t events) {
  actions_.reserve(events);
  nodes_.reserve(events);
}

void Simulator::link(std::uint32_t slot, std::size_t bucket) noexcept {
  const std::size_t level = bucket / kBuckets;
  const std::uint64_t bit = std::uint64_t{1} << (bucket % kBuckets);
  Node& node = nodes_[slot];
  if ((occupied_[level] & bit) == 0) {
    occupied_[level] |= bit;
    levels_ |= 1U << level;
    head_[bucket] = slot;
    node.next = slot;
    node.prev = slot;
    return;
  }
  const std::uint32_t head = head_[bucket];
  const std::uint32_t tail = nodes_[head].prev;
  nodes_[tail].next = slot;
  node.prev = tail;
  node.next = head;
  nodes_[head].prev = slot;
}

void Simulator::unlink(std::uint32_t slot, std::size_t bucket) noexcept {
  const Node& node = nodes_[slot];
  if (node.next == slot) {  // the bucket's only event
    const std::size_t level = bucket / kBuckets;
    occupied_[level] &= ~(std::uint64_t{1} << (bucket % kBuckets));
    if (occupied_[level] == 0) levels_ &= ~(1U << level);
    return;
  }
  nodes_[node.prev].next = node.next;
  nodes_[node.next].prev = node.prev;
  if (head_[bucket] == slot) head_[bucket] = node.next;
}

std::uint32_t Simulator::front(Tick limit) noexcept {
  for (;;) {
    const auto level = static_cast<unsigned>(std::countr_zero(levels_));
    const auto digit = static_cast<unsigned>(std::countr_zero(occupied_[level]));
    const std::size_t bucket = level * kBuckets + digit;
    // Bucket (level, digit) spans the ticks that agree with base_ above
    // `level` and carry `digit` there; `low` is the first of them. Every
    // lower level is empty, so no pending event precedes `low`.
    const unsigned shift = level * kDigitBits;
    // The span of one digit of the level above: 0 (no level above) at the top.
    const std::uint64_t block = (std::uint64_t{1} << shift) << kDigitBits;
    const auto low = static_cast<Tick>((static_cast<std::uint64_t>(base_) & ~(block - 1)) |
                                       (std::uint64_t{digit} << shift));
    if (low > limit) return kNone;
    if (level == 0) return static_cast<std::uint32_t>(bucket);
    // Refile the bucket against the first tick of its span. Lower levels
    // are empty and the bucket is walked head to tail, so the relinked
    // events keep their order: equal ticks stay in schedule order. Every
    // other pending event agrees with the new base above its level just as
    // with the old one, so its bucket does not change.
    base_ = low;
    occupied_[level] &= ~(std::uint64_t{1} << digit);
    if (occupied_[level] == 0) levels_ &= ~(1U << level);
    const std::uint32_t head = head_[bucket];
    const std::uint32_t tail = nodes_[head].prev;
    for (std::uint32_t slot = head;;) {
      const std::uint32_t next = nodes_[slot].next;
      link(slot, bucket_of(nodes_[slot].at));
      ++moved_;
      if (slot == tail) break;
      slot = next;
    }
  }
}

Tick Simulator::next_event_at() const noexcept {
  if (pending_ == 0) return kNeverTick;
  const auto level = static_cast<unsigned>(std::countr_zero(levels_));
  const auto digit = static_cast<unsigned>(std::countr_zero(occupied_[level]));
  if (level == 0) return (base_ & ~static_cast<Tick>(kBuckets - 1)) | static_cast<Tick>(digit);
  // A higher-level bucket is not sorted: walk it for its least tick.
  const std::uint32_t head = head_[level * kBuckets + digit];
  Tick least = nodes_[head].at;
  for (std::uint32_t slot = nodes_[head].next; slot != head; slot = nodes_[slot].next) {
    least = std::min(least, nodes_[slot].at);
  }
  return least;
}

void Simulator::fire(std::uint32_t bucket) {
  const std::uint32_t slot = head_[bucket];
  const Node& node = nodes_[slot];
  assert(node.at >= now_);
  now_ = node.at;
  base_ = now_;
  last_fired_ = now_;
  ++fired_;
  if (DLAJA_TRACE_ACTIVE(tracer_)) [[unlikely]] {
    // A zero-duration span per dispatch (callbacks are instantaneous in
    // simulated time; the arg ties it back to the schedule-order sequence)
    // plus a strided queue-occupancy sample, taken while the firing event
    // still counts as pending — dense enough to see queue pressure, sparse
    // enough not to dominate the trace.
    tracer_->span(obs::Component::kSim, trace_dispatch_, 0, now_, now_, node.seq);
    if ((fired_ & 15) == 0) {
      tracer_->counter(obs::Component::kSim, trace_pending_, 0, now_,
                       static_cast<double>(pending()));
    }
  }
  unlink(slot, bucket);
  --pending_;
  // Detach and recycle the node *before* invoking: the action may schedule
  // (growing/reusing the slab) or try to cancel its own id — which must
  // fail, exactly as firing-then-cancelling always has.
  Action action = std::move(actions_[slot]);
  release(slot);
  action();
}

bool Simulator::step() {
  if (stopped_ || pending_ == 0) return false;
  fire(front(kNeverTick));
  return true;
}

std::size_t Simulator::run(Tick until, std::size_t max_events) {
  std::size_t count = 0;
  bool drained = false;  // nothing left at or before `until`
  while (!stopped_ && count < max_events) {
    // front() may move base_ up to the event it returns, which then fires at
    // once, so base_ never passes now().
    const std::uint32_t bucket = pending_ == 0 ? kNone : front(until);
    if (bucket == kNone) {
      drained = true;
      break;
    }
    fire(bucket);
    ++count;
  }
  if (!stopped_ && until != kNeverTick && now_ < until &&
      (drained || next_event_at() > until)) {
    now_ = until;  // advance the clock to the horizon even if nothing fired there
  }
  return count;
}

void Simulator::release(std::uint32_t slot) noexcept {
  actions_[slot].reset();
  Node& node = nodes_[slot];
  ++node.gen;  // invalidates every outstanding EventId for this slot
  node.next = free_head_;
  free_head_ = slot;
}

}  // namespace dlaja::sim
