// Unit tests for the messaging substrate. Allocations are counted by the
// global operator new that counting_new.hpp replaces.

#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "cluster/protocol.hpp"
#include "counting_new.hpp"
#include "msg/broker.hpp"

namespace dlaja::msg {
namespace {

class BrokerTest : public ::testing::Test {
 protected:
  BrokerTest() : network_(SeedSequencer(42)), broker_(sim_, network_) {
    net::LinkConfig link;
    link.latency_ms = 5.0;
    link.latency_jitter_ms = 0.0;
    a_ = network_.register_node("a", link);
    b_ = network_.register_node("b", link);
    c_ = network_.register_node("c", link);
  }

  sim::Simulator sim_;
  net::NetworkModel network_;
  Broker broker_;
  net::NodeId a_{}, b_{}, c_{};
};

TEST_F(BrokerTest, PointToPointDelivery) {
  std::vector<int> received;
  broker_.register_mailbox(b_, "box", [&](const Message& m) {
    received.push_back(m.payload.as<int>());
  });
  broker_.send(a_, b_, "box", 7);
  broker_.send(a_, b_, "box", 8);
  EXPECT_TRUE(received.empty());  // nothing delivered before sim runs
  sim_.run();
  EXPECT_EQ(received, (std::vector<int>{7, 8}));
  EXPECT_EQ(broker_.stats().sent, 2u);
  EXPECT_EQ(broker_.stats().delivered, 2u);
}

TEST_F(BrokerTest, DeliveryIncursNetworkLatency) {
  Tick delivered_at = -1;
  broker_.register_mailbox(b_, "box", [&](const Message&) { delivered_at = sim_.now(); });
  broker_.send(a_, b_, "box", 1);
  sim_.run();
  EXPECT_EQ(delivered_at, ticks_from_millis(10.0));  // 5ms + 5ms, no jitter
}

TEST_F(BrokerTest, SendToMissingMailboxCountsDropped) {
  broker_.send(a_, b_, "nope", 1);
  sim_.run();
  EXPECT_EQ(broker_.stats().dropped, 1u);
  EXPECT_EQ(broker_.stats().delivered, 0u);
}

TEST_F(BrokerTest, PublishFansOutToAllSubscribers) {
  int b_count = 0, c_count = 0;
  broker_.subscribe("topic", b_, [&](const Message&) { ++b_count; });
  broker_.subscribe("topic", c_, [&](const Message&) { ++c_count; });
  const std::size_t fanout = broker_.publish("topic", a_, std::string("hello"));
  EXPECT_EQ(fanout, 2u);
  sim_.run();
  EXPECT_EQ(b_count, 1);
  EXPECT_EQ(c_count, 1);
}

TEST_F(BrokerTest, PublishWithNoSubscribersIsZeroFanout) {
  EXPECT_EQ(broker_.publish("empty", a_, 1), 0u);
  sim_.run();
  EXPECT_EQ(broker_.stats().delivered, 0u);
}

TEST_F(BrokerTest, PublishToFansEachTargetOutInSubscriptionOrder) {
  // Zero jitter: every copy lands on the same tick, so delivery order is
  // the order publish_to put them in flight.
  std::vector<int> order;
  broker_.subscribe("t", a_, [&](const Message&) { order.push_back(1); });
  broker_.subscribe("t", b_, [&](const Message&) { order.push_back(2); });
  broker_.subscribe("t", a_, [&](const Message&) { order.push_back(3); });
  const TopicId topic = broker_.topic("t");
  const std::vector<net::NodeId> a_then_b{a_, b_};
  EXPECT_EQ(broker_.publish_to(topic, c_, 0, a_then_b), 3u);
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));

  // A target with no subscription fans out nothing: a and b are inside
  // topic u's index (c subscribed past them) but hold no subscription.
  broker_.subscribe("u", c_, [&](const Message&) { order.push_back(4); });
  EXPECT_EQ(broker_.publish_to(broker_.topic("u"), a_, 0, a_then_b), 0u);
  // So does a NodeId past the index: c is past topic t's, 1000 past every one.
  const std::vector<net::NodeId> past{c_, 1000};
  EXPECT_EQ(broker_.publish_to(topic, a_, 0, past), 0u);
  sim_.run();
  EXPECT_EQ(order.size(), 3u);
  EXPECT_EQ(broker_.stats().delivered, 3u);
}

TEST_F(BrokerTest, NodeDownDropsInFlightAndFutureMessages) {
  int count = 0;
  broker_.register_mailbox(b_, "box", [&](const Message&) { ++count; });
  broker_.send(a_, b_, "box", 1);
  broker_.set_node_down(b_, true);
  sim_.run();
  EXPECT_EQ(count, 0);
  EXPECT_EQ(broker_.stats().dropped, 1u);

  broker_.set_node_down(b_, false);
  broker_.send(a_, b_, "box", 2);
  sim_.run();
  EXPECT_EQ(count, 1);
}

TEST_F(BrokerTest, DownSubscriberExcludedFromFanout) {
  int count = 0;
  broker_.subscribe("t", b_, [&](const Message&) { ++count; });
  broker_.set_node_down(b_, true);
  EXPECT_EQ(broker_.publish("t", a_, 1), 0u);
  sim_.run();
  EXPECT_EQ(count, 0);
}

TEST_F(BrokerTest, MessageCarriesSenderAndTimestamp) {
  net::NodeId from = net::kInvalidNode;
  Tick sent_at = -1;
  broker_.register_mailbox(b_, "box", [&](const Message& m) {
    from = m.from;
    sent_at = m.sent_at;
  });
  sim_.schedule_at(100, [&] { broker_.send(a_, b_, "box", 1); });
  sim_.run();
  EXPECT_EQ(from, a_);
  EXPECT_EQ(sent_at, 100);
}

TEST_F(BrokerTest, TypedPayloadsRoundTrip) {
  struct Parcel {
    int x;
    std::string s;
  };
  Parcel got{};
  broker_.register_mailbox(b_, "box", [&](const Message& m) {
    got = m.payload.as<Parcel>();
  });
  broker_.send(a_, b_, "box", Parcel{42, "hi"});
  sim_.run();
  EXPECT_EQ(got.x, 42);
  EXPECT_EQ(got.s, "hi");
}

TEST_F(BrokerTest, HandlersMaySendMoreMessages) {
  // Ping-pong a bounded number of rounds through the broker.
  int rounds = 0;
  broker_.register_mailbox(b_, "ping", [&](const Message& m) {
    broker_.send(b_, a_, "pong", m.payload.as<int>() + 1);
  });
  broker_.register_mailbox(a_, "pong", [&](const Message& m) {
    const int v = m.payload.as<int>();
    ++rounds;
    if (v < 5) broker_.send(a_, b_, "ping", v);
  });
  broker_.send(a_, b_, "ping", 0);
  sim_.run();
  EXPECT_EQ(rounds, 5);
}

TEST_F(BrokerTest, PublishHandsEverySubscriberTheSameBox) {
  net::LinkConfig link;
  std::vector<const std::string*> seen;
  for (int i = 0; i < 16; ++i) {
    const net::NodeId node = network_.register_node("n" + std::to_string(i), link);
    broker_.subscribe("t", node, [&](const Message& m) {
      seen.push_back(&m.payload.as<std::string>());
    });
  }
  EXPECT_EQ(broker_.publish("t", a_, std::string("one value for the whole fan-out")), 16u);
  sim_.run();
  ASSERT_EQ(seen.size(), 16u);
  for (const std::string* value : seen) EXPECT_EQ(value, seen.front());
}

TEST_F(BrokerTest, HandlerCopyOfAMessageOutlivesItsInFlightSlot) {
  std::vector<Message> kept;
  broker_.register_mailbox(b_, "box", [&](const Message& m) {
    if (kept.empty()) kept.push_back(m);
  });
  broker_.send(a_, b_, "box", std::string("the first message, kept by its handler"));
  sim_.run();
  // Later traffic reuses the in-flight slot and the pool's chunks; the
  // kept copy still holds its box.
  for (int i = 0; i < 64; ++i) {
    broker_.send(a_, b_, "box", "a later message overwriting chunk " + std::to_string(i));
  }
  sim_.run();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept.front().payload.as<std::string>(), "the first message, kept by its handler");
}

TEST_F(BrokerTest, SteadyStateTrafficDrawsOnlyPoolHits) {
  struct Bid {
    std::uint64_t contest;
    double cost_s;
  };
  std::uint64_t sum = 0;
  const auto tally = [&sum](const Message& m) { sum += m.payload.as<Bid>().contest; };
  broker_.subscribe("bids", b_, tally);
  broker_.subscribe("bids", c_, tally);
  broker_.register_mailbox(a_, "reply", tally);
  const TopicId topic = broker_.topic("bids");
  const MailboxId reply = broker_.mailbox("reply");
  constexpr std::uint64_t kMessages = 64;
  const auto round = [&] {
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      broker_.publish(topic, a_, Bid{i, 1.0});
      broker_.send(b_, a_, reply, Bid{i, 2.0});
    }
    sim_.run();
  };

  round();  // warm: slabs sized, pool chunks carved
  const std::size_t before = counting_new::allocations.load();
  const sim::detail::PoolStats warm = sim::detail::pool_stats();
  round();
  round();
  const sim::detail::PoolStats after = sim::detail::pool_stats();
  EXPECT_EQ(counting_new::allocations.load(), before);
  EXPECT_EQ(after.fresh_allocations, warm.fresh_allocations);
  // One box per publish and one per send, however many receivers.
  EXPECT_EQ(after.pool_hits - warm.pool_hits, 2 * 2 * kMessages);
  EXPECT_EQ(broker_.stats().delivered, 3 * 3 * kMessages);
  EXPECT_EQ(sum, 3 * 3 * (kMessages * (kMessages - 1) / 2));
}

TEST_F(BrokerTest, TypeTellsMultiplexedPayloadsApart) {
  // The pull schedulers multiplex NoWorkNotice with another message type
  // on one mailbox and branch on type().
  std::vector<bool> notices;
  broker_.register_mailbox(b_, "box", [&](const Message& m) {
    const bool notice = m.payload.type() == typeid(cluster::NoWorkNotice);
    notices.push_back(notice);
    if (!notice) {
      EXPECT_EQ(m.payload.as<cluster::JobAssignment>().job.id, 7u);
    }
  });
  cluster::JobAssignment assignment;
  assignment.job.id = 7;
  broker_.send(a_, b_, "box", cluster::NoWorkNotice{});
  broker_.send(a_, b_, "box", assignment);
  sim_.run();
  EXPECT_EQ(notices, (std::vector<bool>{true, false}));

  EXPECT_EQ(Payload().type(), typeid(void));
  EXPECT_FALSE(Payload().has_value());
  EXPECT_THROW((void)Payload(cluster::NoWorkNotice{}).as<cluster::JobAssignment>(),
               std::bad_any_cast);
  EXPECT_EQ(Payload(1).try_as<double>(), nullptr);
  ASSERT_NE(Payload(1).try_as<int>(), nullptr);

  // An erased value cannot be boxed by mistake: its as<T>() would always throw.
  static_assert(std::is_convertible_v<cluster::NoWorkNotice, Payload>);
  static_assert(!std::is_convertible_v<std::any, Payload>);
  static_assert(!std::is_constructible_v<Payload, const std::any&>);
}

}  // namespace
}  // namespace dlaja::msg
