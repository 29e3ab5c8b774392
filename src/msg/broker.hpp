#pragma once
// Messaging substrate: a simulated broker offering topic broadcast
// (publish/subscribe) and point-to-point mailboxes.
//
// Models the dedicated messaging instance in the paper's 7-instance AWS
// deployment (Crossflow runs over ActiveMQ). Every delivery is an event on
// the simulator, delayed by the network model's sampled control-plane
// latency between sender and receiver.
//
// Built for fleet-scale fan-out: topics and mailboxes are interned to dense
// ids, each topic keeps a pre-resolved subscriber slab (generation-tagged
// slots, O(1) delivery resolution, no string hashing on the hot path), and a
// broadcast shares one refcounted immutable payload across all receivers
// instead of copying the `std::any` per subscriber. Optionally, same-tick
// deliveries to one node coalesce into a single kernel event (off by
// default: the per-message event schedule is part of the bit-reproducible
// run signature).

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace dlaja::msg {

/// A refcounted immutable message payload. One broadcast wraps its value
/// exactly once; every receiver shares the same box (copying a Payload is a
/// shared_ptr bump, not a value copy). The receiver knows the concrete type
/// from the topic/mailbox contract and unwraps with `as<T>()`.
class Payload {
 public:
  Payload() = default;

  /// Implicit by design: `publish(topic, node, BidRequest{...})` keeps
  /// working exactly like the old `std::any` parameter did.
  template <typename T,
            typename = std::enable_if_t<!std::is_same_v<std::remove_cvref_t<T>, Payload> &&
                                        !std::is_same_v<std::remove_cvref_t<T>, std::any>>>
  Payload(T&& value)  // NOLINT(google-explicit-constructor)
      : box_(std::make_shared<const std::any>(std::in_place_type<std::remove_cvref_t<T>>,
                                              std::forward<T>(value))) {}

  /// Wraps an already-erased value (rare; tests mostly).
  explicit Payload(std::any value)
      : box_(std::make_shared<const std::any>(std::move(value))) {}

  [[nodiscard]] bool has_value() const noexcept { return box_ && box_->has_value(); }

  /// Runtime type of the stored value (typeid(void) when empty), for
  /// receivers that multiplex types over one mailbox.
  [[nodiscard]] const std::type_info& type() const noexcept {
    return box_ ? box_->type() : typeid(void);
  }

  /// The stored value; throws std::bad_any_cast on a type mismatch or an
  /// empty payload.
  template <typename T>
  [[nodiscard]] const T& as() const {
    if (!box_) throw std::bad_any_cast();
    return std::any_cast<const T&>(*box_);
  }

  /// Pointer to the stored value, or nullptr on mismatch/empty.
  template <typename T>
  [[nodiscard]] const T* try_as() const noexcept {
    return box_ ? std::any_cast<T>(box_.get()) : nullptr;
  }

 private:
  std::shared_ptr<const std::any> box_;
};

/// An in-flight message. All copies of one broadcast share the payload box.
struct Message {
  std::uint64_t id = 0;
  net::NodeId from = net::kInvalidNode;
  Tick sent_at = 0;
  Payload payload;
};

/// Handler invoked on delivery (at the receiver, in simulated time).
using Handler = std::function<void(const Message&)>;

/// Handle returned by subscribe(), usable to unsubscribe.
struct SubscriptionId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const noexcept { return value != 0; }
};

/// Dense interned ids for topics and mailbox names. Resolve once at attach
/// time; publish/send by id skips all string hashing.
using TopicId = std::uint32_t;
using MailboxId = std::uint32_t;
inline constexpr std::uint32_t kInvalidInterned = 0xffffffffu;

/// Delivery counters for observability and the micro benchmarks.
struct BrokerStats {
  std::uint64_t published = 0;        ///< publish() calls
  std::uint64_t sent = 0;             ///< send() calls
  std::uint64_t enqueued = 0;         ///< message copies put in flight
  std::uint64_t delivered = 0;        ///< handler invocations
  std::uint64_t dropped = 0;          ///< sends to missing mailboxes / dead nodes
  std::uint64_t missed = 0;           ///< deliveries to since-retired subscriptions
  std::uint64_t fault_dropped = 0;    ///< deliveries lost to the fault policy
  std::uint64_t fault_duplicated = 0; ///< extra copies created by the fault policy
  std::uint64_t batches = 0;          ///< coalesced delivery events fired
  std::uint64_t batched = 0;          ///< messages that rode a coalesced event

  /// Conservation invariant at quiescence: every copy put in flight was
  /// either handled, dropped, or missed a retired subscription.
  [[nodiscard]] bool conserved() const noexcept {
    return enqueued == delivered + dropped + missed;
  }
};

/// Fault-injection hook consulted once per delivery: returns how many copies
/// of the message to put in flight (0 = drop, 1 = normal, 2 = duplicate).
using FaultPolicy = std::function<std::uint32_t(net::NodeId from, net::NodeId to)>;

/// The broker. Owned by the Engine; one per simulated cluster.
class Broker {
 public:
  Broker(sim::Simulator& simulator, net::NetworkModel& network)
      : sim_(simulator), net_(network) {}

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Interns a topic name (idempotent). Ids are dense and stable.
  TopicId topic(const std::string& name);

  /// Interns a mailbox name (idempotent).
  MailboxId mailbox(const std::string& name);

  /// Subscribes `node` to `topic`; `handler` runs for every later publish.
  SubscriptionId subscribe(TopicId topic, net::NodeId node, Handler handler);
  SubscriptionId subscribe(const std::string& topic, net::NodeId node, Handler handler);

  /// Removes a subscription. Returns false if unknown. Safe to call for
  /// another subscription from inside a delivery handler (the slab slot is
  /// retired in place; nothing shifts).
  bool unsubscribe(SubscriptionId id);

  /// Broadcasts `payload` on `topic`. Each current subscriber receives the
  /// shared payload after an independently sampled delay. Returns the number
  /// of subscribers the message was fanned out to.
  std::size_t publish(TopicId topic, net::NodeId from, Payload payload);
  std::size_t publish(const std::string& topic, net::NodeId from, Payload payload);

  /// Multicast: delivers `payload` only to `topic` subscribers living on the
  /// given nodes, in target order (the probe fan-out path — O(targets), not
  /// O(subscribers)). Returns the fan-out count.
  std::size_t publish_to(TopicId topic, net::NodeId from, Payload payload,
                         std::span<const net::NodeId> targets);

  /// Registers the point-to-point mailbox `name` at `node` (e.g. a worker's
  /// job queue). Overwrites any previous handler for (node, name).
  void register_mailbox(net::NodeId node, const std::string& name, Handler handler);

  /// Removes a mailbox; later sends to it count as dropped.
  void remove_mailbox(net::NodeId node, const std::string& name);

  /// Sends `payload` to mailbox `box`/`name` at `to`. Counts a drop if the
  /// mailbox does not exist *at delivery time*.
  void send(net::NodeId from, net::NodeId to, MailboxId box, Payload payload);
  void send(net::NodeId from, net::NodeId to, const std::string& name, Payload payload);

  /// Marks a node dead: its subscriptions/mailboxes stop receiving, and
  /// in-flight messages to it are dropped at delivery time. Used by the
  /// fault-injection tests.
  void set_node_down(net::NodeId node, bool down);

  /// Installs (or clears, with nullptr) the per-delivery fault policy. With
  /// no policy installed the broker behaves bit-identically to a fault-free
  /// build — the hook is never consulted.
  void set_fault_policy(FaultPolicy policy) { fault_policy_ = std::move(policy); }

  /// Same-tick delivery coalescing: consecutive deliveries to one node that
  /// land on the same tick share a single kernel event. Off by default —
  /// turning it on changes the kernel event counts (and thus the stats
  /// columns of a run's CSV), so it is reserved for scale runs that opt in.
  void set_coalescing(bool on) noexcept { coalesce_ = on; }
  [[nodiscard]] bool coalescing() const noexcept { return coalesce_; }

  [[nodiscard]] bool node_down(net::NodeId node) const;

  /// Delivery counters.
  [[nodiscard]] const BrokerStats& stats() const noexcept { return stats_; }

  /// Messages currently in flight (occupied slots in the delivery slab).
  /// Completes the mid-run conservation identity
  ///   enqueued == delivered + dropped + missed + in_flight.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return inflight_.size() - inflight_free_.size();
  }

 private:
  /// One subscriber slot in a topic's slab. `gen` bumps on unsubscribe so
  /// in-flight deliveries that captured {slot, gen} resolve to "gone".
  struct Subscriber {
    std::uint64_t id = 0;
    net::NodeId node = net::kInvalidNode;
    std::uint32_t gen = 0;
    Handler handler;
  };

  struct Topic {
    std::string name;
    std::vector<Subscriber> slots;
    std::vector<std::uint32_t> free_slots;
    /// Live slots in subscription order — publish iterates this, keeping the
    /// per-subscriber delay-sampling order identical to the historical
    /// vector-of-subscriptions implementation.
    std::vector<std::uint32_t> order;
    /// node -> live slots on that node (multicast index for publish_to).
    std::unordered_map<net::NodeId, std::vector<std::uint32_t>> by_node;
  };

  enum class Route : std::uint8_t { kSubscription, kMailbox };

  /// An in-flight message parked in the slab below until its delivery event
  /// fires. The scheduled action captures just {this, slot} — 16 bytes, the
  /// simulator's fixed small-copy tier. Routing is resolved at delivery time
  /// from the ids, not from a captured std::function.
  struct InFlight {
    net::NodeId to = net::kInvalidNode;
    Route route = Route::kSubscription;
    std::uint16_t trace_name = 0;  ///< interned topic/mailbox label (traced runs)
    std::uint32_t target = kInvalidInterned;  ///< TopicId or MailboxId
    std::uint32_t slot = 0;                   ///< subscriber slot (subscription route)
    std::uint32_t gen = 0;                    ///< subscriber generation at send time
    Message message;
  };

  /// A pending coalesced delivery event: every in-flight slot here lands on
  /// `to` at tick `at` under one kernel event.
  struct Batch {
    net::NodeId to = net::kInvalidNode;
    Tick at = 0;
    bool armed = false;
    std::vector<std::uint32_t> messages;
  };

  /// Applies the fault policy and schedules the copies. `trace_name` is only
  /// nonzero when tracing is active.
  void deliver_later(net::NodeId from, net::NodeId to, std::uint16_t trace_name, Route route,
                     std::uint32_t target, std::uint32_t slot, std::uint32_t gen,
                     const Payload& payload);

  /// Parks one copy in the in-flight slab and schedules (or batches) its
  /// delivery event at absolute tick `at`.
  void schedule_copy(InFlight flight, Tick at);

  /// Delivers one parked message now (frees the slot first: the handler may
  /// send again, reusing the slot or growing the slab).
  void deliver_now(std::uint32_t slot);

  /// Fires one coalesced batch: delivers every parked message in order.
  void fire_batch(std::uint32_t batch);

  [[nodiscard]] std::uint16_t intern_trace_name(const std::string& label);

  sim::Simulator& sim_;
  net::NetworkModel& net_;

  std::vector<Topic> topics_;
  std::unordered_map<std::string, TopicId> topic_ids_;
  /// subscription id -> (topic, slot, gen) for unsubscribe.
  struct SubRef {
    TopicId topic;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  std::unordered_map<std::uint64_t, SubRef> sub_index_;

  std::unordered_map<std::string, MailboxId> mailbox_ids_;
  std::vector<std::string> mailbox_names_;
  /// mailboxes_[node][mailbox] — empty Handler means "not registered".
  std::vector<std::vector<Handler>> mailboxes_;

  std::vector<std::uint8_t> down_;  // indexed by node

  bool coalesce_ = false;
  /// node -> most recently armed batch (or kInvalidInterned). Only the
  /// latest batch per node accretes messages; an older same-tick batch that
  /// was superseded just fires with what it has.
  std::vector<std::uint32_t> node_batch_;

  std::uint64_t next_subscription_ = 1;
  std::uint64_t next_message_ = 1;
  FaultPolicy fault_policy_;
  BrokerStats stats_;
  std::vector<InFlight> inflight_;            // slab of parked deliveries
  std::vector<std::uint32_t> inflight_free_;  // recycled slab slots
  std::vector<Batch> batches_;
  std::vector<std::uint32_t> batch_free_;
};

}  // namespace dlaja::msg
