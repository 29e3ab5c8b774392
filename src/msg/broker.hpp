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
// ids, each topic keeps its subscribers in a slab in subscription order
// (O(1) delivery resolution, no string hashing on the hot path) plus a
// per-node index for multicast, and a message's value is boxed once, in a
// pooled chunk, and shared by every receiver instead of copied per
// subscriber. Every message takes one path: one in-flight slot, one kernel
// event, one handler call. Subscriptions last as long as the broker; only a
// node marked down stops receiving.

#include <any>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace dlaja::msg {

/// A refcounted immutable message payload. One publish boxes its value
/// exactly once, in a chunk of the kernel's thread-local size-class pool
/// (sim::detail::pool_allocate), and every receiver shares that box: copying
/// a Payload bumps a plain count (a run is one thread), not a value copy.
/// The receiver knows the concrete type from the topic/mailbox contract and
/// unwraps with `as<T>()`.
class Payload {
 public:
  Payload() = default;

  /// Implicit by design: `publish(topic, node, BidRequest{...})` boxes the
  /// value in place. A `std::any` is refused at compile time: boxed as is,
  /// every `as<T>()` of it would throw at delivery.
  template <typename T,
            typename = std::enable_if_t<!std::is_same_v<std::remove_cvref_t<T>, Payload> &&
                                        !std::is_same_v<std::remove_cvref_t<T>, std::any>>>
  Payload(T&& value)  // NOLINT(google-explicit-constructor)
      : box_(Boxed<std::remove_cvref_t<T>>::make(std::forward<T>(value))) {}

  Payload(const Payload& other) noexcept : box_(other.box_) {
    if (box_ != nullptr) ++box_->refs;
  }
  Payload(Payload&& other) noexcept : box_(std::exchange(other.box_, nullptr)) {}
  Payload& operator=(const Payload& other) noexcept {
    Box* const box = other.box_;
    if (box != nullptr) ++box->refs;  // before drop(): self-assignment safe
    drop();
    box_ = box;
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      drop();
      box_ = std::exchange(other.box_, nullptr);
    }
    return *this;
  }
  ~Payload() { drop(); }

  [[nodiscard]] bool has_value() const noexcept { return box_ != nullptr; }

  /// Runtime type of the stored value (typeid(void) when empty), for
  /// receivers that multiplex types over one mailbox.
  [[nodiscard]] const std::type_info& type() const noexcept {
    return box_ != nullptr ? *box_->type : typeid(void);
  }

  /// The stored value; throws std::bad_any_cast on a type mismatch or an
  /// empty payload.
  template <typename T>
  [[nodiscard]] const T& as() const {
    const T* value = try_as<T>();
    if (value == nullptr) throw std::bad_any_cast();
    return *value;
  }

  /// Pointer to the stored value, or nullptr on mismatch/empty.
  template <typename T>
  [[nodiscard]] const T* try_as() const noexcept {
    using V = std::remove_cv_t<T>;
    if (box_ == nullptr || *box_->type != typeid(V)) return nullptr;
    return &static_cast<const Boxed<V>*>(box_)->value;
  }

 private:
  /// Header of every box: the share count, the stored type and the typed
  /// destructor that also returns the chunk to the pool.
  struct Box {
    std::uint32_t refs;
    const std::type_info* type;
    void (*destroy)(Box*) noexcept;
  };

  template <typename T>
  struct Boxed final : Box {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "pool chunks are max_align_t aligned");

    template <typename U>
    explicit Boxed(U&& v) : Box{1, &typeid(T), &Boxed::destroy}, value(std::forward<U>(v)) {}

    template <typename U>
    [[nodiscard]] static Box* make(U&& v) {
      void* chunk = sim::detail::pool_allocate(sizeof(Boxed));
      try {
        return ::new (chunk) Boxed(std::forward<U>(v));
      } catch (...) {
        sim::detail::pool_release(chunk, sizeof(Boxed));
        throw;
      }
    }

    static void destroy(Box* box) noexcept {
      auto* self = static_cast<Boxed*>(box);
      self->~Boxed();
      sim::detail::pool_release(self, sizeof(Boxed));
    }

    T value;
  };

  void drop() noexcept {
    if (box_ != nullptr && --box_->refs == 0) box_->destroy(box_);
    box_ = nullptr;
  }

  Box* box_ = nullptr;
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
  std::uint64_t fault_dropped = 0;    ///< deliveries lost to the fault policy
  std::uint64_t fault_duplicated = 0; ///< extra copies created by the fault policy

  /// Conservation invariant at quiescence: every copy put in flight was
  /// either handled or dropped.
  [[nodiscard]] bool conserved() const noexcept { return enqueued == delivered + dropped; }
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
  /// Safe to call from inside a delivery handler.
  void subscribe(TopicId topic, net::NodeId node, Handler handler);
  void subscribe(const std::string& topic, net::NodeId node, Handler handler);

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

  [[nodiscard]] bool node_down(net::NodeId node) const;

  /// Delivery counters.
  [[nodiscard]] const BrokerStats& stats() const noexcept { return stats_; }

  /// Messages currently in flight (occupied slots in the delivery slab).
  /// Completes the mid-run conservation identity
  ///   enqueued == delivered + dropped + in_flight.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return inflight_.size() - inflight_free_.size();
  }

 private:
  struct Subscriber {
    net::NodeId node = net::kInvalidNode;
    Handler handler;
  };

  struct Topic {
    std::string name;
    /// Subscribers in subscription order — the order publish fans out in.
    std::vector<Subscriber> slots;
    /// node -> the slots of its subscriptions (multicast index for publish_to).
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
    Message message;
  };

  /// Applies the fault policy, parks each copy in the in-flight slab and
  /// schedules its delivery event. `trace_name` is only nonzero when tracing
  /// is active.
  void deliver_later(net::NodeId from, net::NodeId to, std::uint16_t trace_name, Route route,
                     std::uint32_t target, std::uint32_t slot, const Payload& payload);

  /// Delivers one parked message now (frees the slot first: the handler may
  /// send again, reusing the slot or growing the slab).
  void deliver_now(std::uint32_t slot);

  [[nodiscard]] std::uint16_t intern_trace_name(const std::string& label);

  sim::Simulator& sim_;
  net::NetworkModel& net_;

  std::vector<Topic> topics_;
  std::unordered_map<std::string, TopicId> topic_ids_;

  std::unordered_map<std::string, MailboxId> mailbox_ids_;
  std::vector<std::string> mailbox_names_;
  /// mailboxes_[node][mailbox] — empty Handler means "not registered".
  std::vector<std::vector<Handler>> mailboxes_;

  std::vector<std::uint8_t> down_;  // indexed by node

  std::uint64_t next_message_ = 1;
  FaultPolicy fault_policy_;
  BrokerStats stats_;
  std::vector<InFlight> inflight_;            // slab of parked deliveries
  std::vector<std::uint32_t> inflight_free_;  // recycled slab slots
};

}  // namespace dlaja::msg
