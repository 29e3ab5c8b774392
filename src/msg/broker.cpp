#include "msg/broker.hpp"

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

void Broker::subscribe(TopicId topic_id, net::NodeId node, Handler handler) {
  Topic& t = topics_.at(topic_id);
  const auto slot = static_cast<std::uint32_t>(t.slots.size());
  t.slots.push_back(Subscriber{node, kNoEntry, std::move(handler)});
  // Append to the end of the node's chain: publish_to fans a node's
  // subscriptions out in subscription order.
  if (node >= t.first.size()) t.first.resize(node + 1, kNoEntry);
  std::uint32_t* link = &t.first[node];
  while (*link != kNoEntry) link = &t.slots[*link].next;
  *link = slot;
}

void Broker::subscribe(const std::string& topic_name, net::NodeId node, Handler handler) {
  subscribe(topic(topic_name), node, std::move(handler));
}

std::uint16_t Broker::intern_trace_name(const std::string& label) {
  if (DLAJA_TRACE_ACTIVE(sim_.tracer())) return sim_.tracer()->intern(label);
  return 0;
}

void Broker::deliver_later(net::NodeId from, net::NodeId to, std::uint16_t trace_name,
                           Route route, std::uint32_t target, std::uint32_t slot,
                           const Payload& payload) {
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
    InFlight flight{to, route, trace_name, target, slot,
                    Message{next_message_++, from, sim_.now(), payload}};
    const Tick at = sim_.now() + net_.sample_message_delay(from, to);
    ++stats_.enqueued;
    std::uint32_t parked;
    if (!inflight_free_.empty()) {
      parked = inflight_free_.back();
      inflight_free_.pop_back();
      inflight_[parked] = std::move(flight);
    } else {
      parked = static_cast<std::uint32_t>(inflight_.size());
      inflight_.push_back(std::move(flight));
    }
    auto deliver = [this, parked] { deliver_now(parked); };
    static_assert(sim::InlineAction::fits_inline<decltype(deliver)>());
    sim_.schedule_at(at, std::move(deliver));
  }
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

  // Either route runs its handler through a local: the call may subscribe or
  // register a mailbox, growing the slab that holds the handler under it.
  if (flight.route == Route::kSubscription) {
    ++stats_.delivered;
    Handler live = std::move(topics_[flight.target].slots[flight.slot].handler);
    live(flight.message);
    topics_[flight.target].slots[flight.slot].handler = std::move(live);
    return;
  }

  // Mailbox route: resolve at delivery time; missing counts as dropped.
  const std::uint32_t entry = find_mailbox(flight.to, flight.target);
  if (entry == kNoEntry || !mailbox_entries_[entry].handler) {
    ++stats_.dropped;
    return;
  }
  ++stats_.delivered;
  Handler live = std::move(mailbox_entries_[entry].handler);
  live(flight.message);
  // Restore unless the handler registered a replacement for its own mailbox.
  Handler& after = mailbox_entries_[entry].handler;
  if (!after) after = std::move(live);
}

std::size_t Broker::publish(TopicId topic_id, net::NodeId from, Payload payload) {
  ++stats_.published;
  if (topic_id >= topics_.size()) return 0;
  Topic& t = topics_[topic_id];
  const std::uint16_t trace_name = intern_trace_name(t.name);
  std::size_t fanout = 0;
  for (std::uint32_t slot = 0; slot < t.slots.size(); ++slot) {
    const net::NodeId node = t.slots[slot].node;
    if (node_down(node)) continue;
    deliver_later(from, node, trace_name, Route::kSubscription, topic_id, slot, payload);
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
    if (node >= t.first.size() || node_down(node)) continue;
    for (std::uint32_t slot = t.first[node]; slot != kNoEntry; slot = t.slots[slot].next) {
      deliver_later(from, node, trace_name, Route::kSubscription, topic_id, slot, payload);
      ++fanout;
    }
  }
  return fanout;
}

std::uint32_t Broker::find_mailbox(net::NodeId node, MailboxId box) const noexcept {
  if (node >= mailbox_first_.size()) return kNoEntry;
  std::uint32_t entry = mailbox_first_[node];
  while (entry != kNoEntry && mailbox_entries_[entry].box != box) {
    entry = mailbox_entries_[entry].next;
  }
  return entry;
}

void Broker::register_mailbox(net::NodeId node, const std::string& name, Handler handler) {
  const MailboxId box = mailbox(name);
  std::uint32_t entry = find_mailbox(node, box);
  if (entry == kNoEntry) {
    // A new entry goes to the head of the node's chain; lookups are by id,
    // so the chain's order does not matter.
    if (node >= mailbox_first_.size()) mailbox_first_.resize(node + 1, kNoEntry);
    entry = static_cast<std::uint32_t>(mailbox_entries_.size());
    mailbox_entries_.push_back(MailboxEntry{box, mailbox_first_[node], {}});
    mailbox_first_[node] = entry;
  }
  mailbox_entries_[entry].handler = std::move(handler);
}

void Broker::send(net::NodeId from, net::NodeId to, MailboxId box, Payload payload) {
  ++stats_.sent;
  const std::uint16_t trace_name =
      box < mailbox_names_.size() ? intern_trace_name(mailbox_names_[box]) : 0;
  deliver_later(from, to, trace_name, Route::kMailbox, box, 0, payload);
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
