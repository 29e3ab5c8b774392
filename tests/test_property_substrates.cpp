// Property-based tests of the substrates against simple reference models:
//  * the event queue vs a sorted-vector golden model under random op mixes;
//  * the cache vs exhaustive policy/capacity sweeps;
//  * the broker's exactly-once delivery under random pub/sub churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "msg/broker.hpp"
#include "sim/simulator.hpp"
#include "storage/cache.hpp"
#include "util/rng.hpp"

namespace dlaja {
namespace {

// --- simulator vs golden model ------------------------------------------------

class SimulatorGolden : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorGolden, RandomScheduleCancelMatchesReferenceOrder) {
  RandomStream rng(GetParam());
  sim::Simulator simulator;

  struct Ref {
    Tick at;
    std::uint64_t seq;
    int label;
  };
  std::vector<Ref> reference;
  std::vector<int> fired;
  std::vector<std::pair<sim::EventId, std::uint64_t>> cancellable;
  std::uint64_t seq = 0;

  for (int i = 0; i < 500; ++i) {
    const Tick at = rng.uniform_int(0, 1000);
    const int label = i;
    const sim::EventId id =
        simulator.schedule_at(at, [&fired, label] { fired.push_back(label); });
    reference.push_back(Ref{at, seq, label});
    cancellable.emplace_back(id, seq);
    ++seq;
    // Randomly cancel an earlier event.
    if (!cancellable.empty() && rng.bernoulli(0.3)) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cancellable.size()) - 1));
      if (simulator.cancel(cancellable[pick].first)) {
        const std::uint64_t gone = cancellable[pick].second;
        reference.erase(std::remove_if(reference.begin(), reference.end(),
                                       [&](const Ref& r) { return r.seq == gone; }),
                        reference.end());
      }
    }
  }

  simulator.run();

  std::stable_sort(reference.begin(), reference.end(), [](const Ref& a, const Ref& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  });
  std::vector<int> expected;
  for (const Ref& r : reference) expected.push_back(r.label);
  EXPECT_EQ(fired, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorGolden,
                         ::testing::Values(1, 2, 3, 42, 1234, 99999));

// --- cache policy/capacity sweep ---------------------------------------------

using CacheParam = std::tuple<storage::EvictionPolicy, double>;

[[nodiscard]] const char* policy_name(storage::EvictionPolicy policy) {
  switch (policy) {
    case storage::EvictionPolicy::kUnbounded: return "unbounded";
    case storage::EvictionPolicy::kLru: return "lru";
    case storage::EvictionPolicy::kFifo: return "fifo";
  }
  return "?";
}

class CacheSweep : public ::testing::TestWithParam<CacheParam> {};

TEST_P(CacheSweep, InvariantsUnderRandomChurn) {
  const auto [policy, capacity] = GetParam();
  storage::CacheConfig config;
  config.policy = policy;
  config.capacity_mb = capacity;
  storage::ResourceCache cache(config);
  RandomStream rng(7);

  std::uint64_t accesses = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto id = static_cast<storage::ResourceId>(rng.uniform_int(1, 60));
    const double size = rng.uniform(1.0, 30.0);
    ++accesses;
    if (!cache.access(id)) {
      cache.admit({id, size});
    }
    // Size accounting is exact in integer bytes; summing the raw double
    // sizes can differ by up to half a byte per resident entry.
    double sum = 0.0;
    for (const auto& resource : cache.snapshot()) sum += resource.size_mb;
    const double quantization = static_cast<double>(cache.size() + 1) * (0.5 / 1048576.0);
    ASSERT_NEAR(sum, cache.used_mb(), quantization);
    // Bounded policies respect the capacity (unless one resource alone
    // exceeds it, in which case exactly that resource may remain).
    if (policy != storage::EvictionPolicy::kUnbounded) {
      ASSERT_TRUE(cache.used_mb() <= capacity || cache.size() == 1);
    }
  }
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, accesses);
  if (policy == storage::EvictionPolicy::kUnbounded) {
    EXPECT_EQ(cache.stats().evictions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndCapacities, CacheSweep,
    ::testing::Combine(::testing::Values(storage::EvictionPolicy::kUnbounded,
                                         storage::EvictionPolicy::kLru,
                                         storage::EvictionPolicy::kFifo),
                       ::testing::Values(20.0, 100.0, 500.0)),
    [](const ::testing::TestParamInfo<CacheParam>& param_info) {
      return std::string(policy_name(std::get<0>(param_info.param))) + "_cap" +
             std::to_string(static_cast<int>(std::get<1>(param_info.param)));
    });

// --- broker exactly-once -------------------------------------------------------

TEST(BrokerProperty, ExactlyOnceDeliveryUnderChurn) {
  SeedSequencer seeds(11);
  sim::Simulator simulator;
  net::NetworkModel network(seeds, net::NoiseConfig::none());
  std::vector<net::NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    // Appended (not operator+) to sidestep a GCC 12 -Wrestrict false
    // positive on "literal" + to_string(...) under heavy inlining.
    std::string name = "n";
    name += std::to_string(i);
    nodes.push_back(network.register_node(name, {}));
  }
  msg::Broker broker(simulator, network);
  RandomStream rng(11);

  // Each subscriber counts every payload it receives.
  std::map<std::pair<int, int>, int> received;  // (node, payload) -> count
  for (int n = 1; n < 6; ++n) {
    broker.subscribe("t", nodes[n], [&received, n](const msg::Message& m) {
      ++received[{n, m.payload.as<int>()}];
    });
  }

  for (int p = 0; p < 200; ++p) {
    EXPECT_EQ(broker.publish("t", nodes[0], p), 5u);
    // Occasionally drain mid-stream, so deliveries interleave with publishes.
    if (rng.bernoulli(0.02)) simulator.run();
  }
  simulator.run();

  // Every subscriber received every payload exactly once.
  EXPECT_EQ(received.size(), 5u * 200u);
  for (const auto& [key, count] : received) {
    EXPECT_EQ(count, 1) << "node " << key.first << " payload " << key.second;
  }
  EXPECT_TRUE(broker.stats().conserved());
}

}  // namespace
}  // namespace dlaja
