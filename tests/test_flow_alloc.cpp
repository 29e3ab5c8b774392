// Allocation discipline of the flow network: once the slot slab, the node
// table, and the scratch buffers are warm, the whole steady-state flow path
// — start, advance, water-fill, completion flush, cancel, reschedule — must
// not touch the general heap, as counted by the global operator new that
// counting_new.hpp replaces.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "counting_new.hpp"
#include "net/flow.hpp"

namespace {

using namespace dlaja;

constexpr int kFlows = 128;
constexpr net::NodeId kNodes = 8;

TEST(FlowAlloc, SteadyStateChurnIsAllocationFree) {
  sim::Simulator sim;
  sim.reserve(2 * kFlows);  // completion event + a same-tick handler batch
  net::FlowNetwork flows(sim, /*origin_capacity_mbps=*/400.0);
  for (net::NodeId n = 0; n < kNodes; ++n) flows.set_node_capacity(n, 100.0);
  flows.reserve(kFlows);

  std::size_t completed = 0;
  std::vector<net::FlowId> ids(kFlows);

  // One round: a burst of starts (small on-done captures ride the
  // std::function small-buffer), half cancelled mid-flight, the rest run to
  // completion through the water-fill + flush + reschedule machinery.
  const auto round = [&] {
    for (int i = 0; i < kFlows; ++i) {
      ids[static_cast<std::size_t>(i)] = flows.start_flow(
          static_cast<net::NodeId>(i) % kNodes, 5.0 + static_cast<double>(i % 7),
          [&completed] { ++completed; });
    }
    sim.run(sim.now() + kTicksPerMillisecond);
    for (int i = 0; i < kFlows; i += 2) {
      flows.cancel_flow(ids[static_cast<std::size_t>(i)]);
    }
    sim.run();
  };

  round();  // warm: slab, node table, active list, scratch, event slabs
  round();
  const std::size_t before = counting_new::allocations.load();
  round();
  round();
  EXPECT_EQ(counting_new::allocations.load(), before);
  EXPECT_EQ(flows.active_flows(), 0u);
  EXPECT_EQ(completed, static_cast<std::size_t>(4 * kFlows / 2));
}

TEST(FlowAlloc, LookupsAreAllocationFree) {
  sim::Simulator sim;
  sim.reserve(64);
  net::FlowNetwork flows(sim, 200.0);
  flows.reserve(32);
  std::vector<net::FlowId> ids;
  ids.reserve(32);
  for (int i = 0; i < 32; ++i) {
    ids.push_back(flows.start_flow(static_cast<net::NodeId>(i % 4), 1000.0, nullptr));
  }
  const std::size_t before = counting_new::allocations.load();
  double checksum = 0.0;
  for (const auto id : ids) {
    checksum += flows.current_rate(id) + flows.remaining_mb(id);
  }
  EXPECT_EQ(counting_new::allocations.load(), before);
  EXPECT_GT(checksum, 0.0);
}

}  // namespace
