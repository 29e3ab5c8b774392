#include "msg/broker.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace dlaja::msg {

TopicId Broker::topic(const std::string& name) {
  const auto it = topic_ids_.find(name);
  if (it != topic_ids_.end()) return it->second;
  const auto id = static_cast<TopicId>(topics_.size());
  topics_.emplace_back();
  topics_.back().name = name;
  topic_ids_.emplace(name, id);
  return id;
}

MailboxId Broker::mailbox(const std::string& name) {
  const auto it = mailbox_ids_.find(name);
  if (it != mailbox_ids_.end()) return it->second;
  const auto id = static_cast<MailboxId>(mailbox_names_.size());
  mailbox_names_.push_back(name);
  mailbox_ids_.emplace(name, id);
  return id;
}

SubscriptionId Broker::subscribe(TopicId topic_id, net::NodeId node, Handler handler) {
  Topic& t = topics_.at(topic_id);
  const std::uint64_t id = next_subscription_++;
  std::uint32_t slot;
  if (!t.free_slots.empty()) {
    slot = t.free_slots.back();
    t.free_slots.pop_back();
    Subscriber& s = t.slots[slot];
    s.id = id;
    s.node = node;
    s.handler = std::move(handler);  // gen keeps the bump from unsubscribe
  } else {
    slot = static_cast<std::uint32_t>(t.slots.size());
    t.slots.push_back(Subscriber{id, node, 0, std::move(handler)});
  }
  t.order.push_back(slot);
  t.by_node[node].push_back(slot);
  sub_index_.emplace(id, SubRef{topic_id, slot, t.slots[slot].gen});
  return SubscriptionId{id};
}

SubscriptionId Broker::subscribe(const std::string& topic_name, net::NodeId node,
                                 Handler handler) {
  return subscribe(topic(topic_name), node, std::move(handler));
}

bool Broker::unsubscribe(SubscriptionId id) {
  const auto it = sub_index_.find(id.value);
  if (it == sub_index_.end()) return false;
  const SubRef ref = it->second;
  sub_index_.erase(it);
  Topic& t = topics_[ref.topic];
  Subscriber& s = t.slots[ref.slot];
  ++s.gen;  // in-flight deliveries that captured the old gen now miss
  s.id = 0;
  s.handler = nullptr;
  auto& order = t.order;
  order.erase(std::find(order.begin(), order.end(), ref.slot));
  auto& on_node = t.by_node[s.node];
  on_node.erase(std::find(on_node.begin(), on_node.end(), ref.slot));
  t.free_slots.push_back(ref.slot);
  return true;
}

std::uint16_t Broker::intern_trace_name(const std::string& label) {
  if (DLAJA_TRACE_ACTIVE(sim_.tracer())) return sim_.tracer()->intern(label);
  return 0;
}

void Broker::deliver_later(net::NodeId from, net::NodeId to, std::uint16_t trace_name,
                           Route route, std::uint32_t target, std::uint32_t slot,
                           std::uint32_t gen, const Payload& payload) {
  // Fault policy (if any) decides the copy count per delivery: 0 drops the
  // message before it ever enters the in-flight slab, >1 duplicates it with
  // independently sampled delays. No policy installed = exactly one copy
  // through the original code path, bit-identical to a fault-free run.
  std::uint32_t copies = 1;
  if (fault_policy_) {
    copies = fault_policy_(from, to);
    if (copies == 0) {
      ++stats_.fault_dropped;
      return;
    }
    if (copies > 1) stats_.fault_duplicated += copies - 1;
  }

  for (std::uint32_t copy = 0; copy < copies; ++copy) {
    InFlight flight;
    flight.to = to;
    flight.route = route;
    flight.trace_name = trace_name;
    flight.target = target;
    flight.slot = slot;
    flight.gen = gen;
    flight.message.id = next_message_++;
    flight.message.from = from;
    flight.message.sent_at = sim_.now();
    flight.message.payload = payload;  // shared box — a refcount bump
    const Tick delay = net_.sample_message_delay(from, to);
    ++stats_.enqueued;
    schedule_copy(std::move(flight), sim_.now() + delay);
  }
}

void Broker::schedule_copy(InFlight flight, Tick at) {
  const net::NodeId to = flight.to;
  std::uint32_t slot;
  if (!inflight_free_.empty()) {
    slot = inflight_free_.back();
    inflight_free_.pop_back();
    inflight_[slot] = std::move(flight);
  } else {
    slot = static_cast<std::uint32_t>(inflight_.size());
    inflight_.push_back(std::move(flight));
  }

  if (!coalesce_) {
    auto deliver = [this, slot] { deliver_now(slot); };
    static_assert(sim::InlineAction::fits_inline<decltype(deliver)>());
    sim_.schedule_at(at, std::move(deliver));
    return;
  }

  // Coalescing: append to the node's armed batch when it lands on the same
  // tick; otherwise open a new batch with its own kernel event.
  if (to >= node_batch_.size()) node_batch_.resize(to + 1, kInvalidInterned);
  const std::uint32_t current = node_batch_[to];
  if (current != kInvalidInterned && batches_[current].armed && batches_[current].at == at) {
    batches_[current].messages.push_back(slot);
    ++stats_.batched;
    return;
  }
  std::uint32_t batch;
  if (!batch_free_.empty()) {
    batch = batch_free_.back();
    batch_free_.pop_back();
  } else {
    batch = static_cast<std::uint32_t>(batches_.size());
    batches_.emplace_back();
  }
  Batch& b = batches_[batch];
  b.to = to;
  b.at = at;
  b.armed = true;
  b.messages.push_back(slot);
  node_batch_[to] = batch;
  auto fire = [this, batch] { fire_batch(batch); };
  static_assert(sim::InlineAction::fits_inline<decltype(fire)>());
  sim_.schedule_at(at, std::move(fire));
}

void Broker::fire_batch(std::uint32_t batch) {
  // Disarm before delivering: a handler that sends again with zero delay
  // must open a fresh batch instead of appending to the list being walked.
  batches_[batch].armed = false;
  if (node_batch_[batches_[batch].to] == batch) {
    node_batch_[batches_[batch].to] = kInvalidInterned;
  }
  ++stats_.batches;
  // Index-fresh access each step: deliveries may grow the batch slab.
  for (std::size_t i = 0; i < batches_[batch].messages.size(); ++i) {
    deliver_now(batches_[batch].messages[i]);
  }
  batches_[batch].messages.clear();
  batch_free_.push_back(batch);
}

void Broker::deliver_now(std::uint32_t slot) {
  // Move out and free the slot before invoking: the handler may send again,
  // reusing the slot or growing the slab.
  InFlight flight = std::move(inflight_[slot]);
  inflight_free_.push_back(slot);
  if (DLAJA_TRACE_ACTIVE(sim_.tracer())) {
    // publish->deliver (or send->deliver) latency, one span per hop,
    // tracked by the receiving node.
    sim_.tracer()->span(obs::Component::kMsg, flight.trace_name, flight.to,
                        flight.message.sent_at, sim_.now(), flight.message.id);
  }
  if (node_down(flight.to)) {
    ++stats_.dropped;
    return;
  }

  if (flight.route == Route::kSubscription) {
    Topic& t = topics_[flight.target];
    Subscriber& s = t.slots[flight.slot];
    // A subscriber that unsubscribed while the message was in flight must
    // not be invoked (and, matching the historical behavior, is not counted
    // as either delivered or dropped — `missed` tracks it for conservation).
    if (s.gen != flight.gen || !s.handler) {
      ++stats_.missed;
      return;
    }
    ++stats_.delivered;
    // Run the handler through a local: the call may unsubscribe this very
    // subscription (destroying the slot's handler mid-call otherwise) or
    // subscribe anew (growing the slot vector under our reference). Restore
    // it afterwards iff the slot is still the same live subscription.
    Handler live = std::move(s.handler);
    live(flight.message);
    Subscriber& after = topics_[flight.target].slots[flight.slot];
    if (after.gen == flight.gen && !after.handler) after.handler = std::move(live);
    return;
  }

  // Mailbox route: resolve at delivery time; missing counts as dropped.
  const std::uint32_t box = flight.target;
  if (flight.to >= mailboxes_.size() || box >= mailboxes_[flight.to].size() ||
      !mailboxes_[flight.to][box]) {
    ++stats_.dropped;
    return;
  }
  ++stats_.delivered;
  Handler live = std::move(mailboxes_[flight.to][box]);
  live(flight.message);
  if (flight.to < mailboxes_.size() && box < mailboxes_[flight.to].size() &&
      !mailboxes_[flight.to][box]) {
    mailboxes_[flight.to][box] = std::move(live);
  }
}

std::size_t Broker::publish(TopicId topic_id, net::NodeId from, Payload payload) {
  ++stats_.published;
  if (topic_id >= topics_.size()) return 0;
  Topic& t = topics_[topic_id];
  const std::uint16_t trace_name = intern_trace_name(t.name);
  std::size_t fanout = 0;
  // Iterate by index: deliver_later never runs handlers synchronously, but
  // the order vector is the stable iteration contract regardless.
  for (std::size_t i = 0; i < t.order.size(); ++i) {
    const std::uint32_t slot = t.order[i];
    const Subscriber& s = t.slots[slot];
    if (node_down(s.node)) continue;
    deliver_later(from, s.node, trace_name, Route::kSubscription, topic_id, slot, s.gen,
                  payload);
    ++fanout;
  }
  return fanout;
}

std::size_t Broker::publish(const std::string& topic_name, net::NodeId from, Payload payload) {
  const auto it = topic_ids_.find(topic_name);
  if (it == topic_ids_.end()) {
    // A publish into the void still counts as published.
    ++stats_.published;
    return 0;
  }
  return publish(it->second, from, std::move(payload));
}

std::size_t Broker::publish_to(TopicId topic_id, net::NodeId from, Payload payload,
                               std::span<const net::NodeId> targets) {
  ++stats_.published;
  if (topic_id >= topics_.size()) return 0;
  Topic& t = topics_[topic_id];
  const std::uint16_t trace_name = intern_trace_name(t.name);
  std::size_t fanout = 0;
  for (const net::NodeId node : targets) {
    const auto it = t.by_node.find(node);
    if (it == t.by_node.end()) continue;
    if (node_down(node)) continue;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      const std::uint32_t slot = it->second[i];
      deliver_later(from, node, trace_name, Route::kSubscription, topic_id, slot,
                    t.slots[slot].gen, payload);
      ++fanout;
    }
  }
  return fanout;
}

void Broker::register_mailbox(net::NodeId node, const std::string& name, Handler handler) {
  const MailboxId box = mailbox(name);
  if (node >= mailboxes_.size()) mailboxes_.resize(node + 1);
  if (box >= mailboxes_[node].size()) mailboxes_[node].resize(box + 1);
  mailboxes_[node][box] = std::move(handler);
}

void Broker::remove_mailbox(net::NodeId node, const std::string& name) {
  const auto it = mailbox_ids_.find(name);
  if (it == mailbox_ids_.end()) return;
  if (node < mailboxes_.size() && it->second < mailboxes_[node].size()) {
    mailboxes_[node][it->second] = nullptr;
  }
}

void Broker::send(net::NodeId from, net::NodeId to, MailboxId box, Payload payload) {
  ++stats_.sent;
  const std::uint16_t trace_name =
      box < mailbox_names_.size() ? intern_trace_name(mailbox_names_[box]) : 0;
  deliver_later(from, to, trace_name, Route::kMailbox, box, 0, 0, payload);
}

void Broker::send(net::NodeId from, net::NodeId to, const std::string& name, Payload payload) {
  send(from, to, mailbox(name), std::move(payload));
}

void Broker::set_node_down(net::NodeId node, bool down) {
  if (node >= down_.size()) down_.resize(node + 1, 0);
  down_[node] = down ? 1 : 0;
}

bool Broker::node_down(net::NodeId node) const {
  return node < down_.size() && down_[node] != 0;
}

}  // namespace dlaja::msg
