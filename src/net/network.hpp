#pragma once
// Cluster network model: node registry, per-node link characteristics and
// control-plane message latency.
//
// The paper's testbed was geographically distributed AWS instances talking
// through a central messaging instance, so control messages (job broadcasts,
// bids, assignments) incur a broker round trip with per-node latency; bulk
// data transfers (repository clones) are governed by the *downloading*
// node's bandwidth, which is how the paper models them (size / network
// speed).

#include <cstdint>
#include <string>
#include <vector>

#include "net/noise.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dlaja::net {

/// Dense node identifier assigned by NetworkModel::register_node.
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Static link characteristics of one node.
struct LinkConfig {
  /// Nominal download bandwidth (used for bulk data transfers).
  MbPerSec bandwidth_mbps = 50.0;
  /// One-way control-message latency to/from the broker, base value.
  double latency_ms = 5.0;
  /// Uniform jitter added on top of the base latency, [0, jitter].
  double latency_jitter_ms = 2.0;
};

/// The network substrate shared by all nodes of one simulated cluster.
///
/// Owns one deterministic RNG substream per node so that latency jitter and
/// bandwidth noise on one node never perturb another node's draws.
class NetworkModel {
 public:
  /// `seeds` provides the substreams; `noise` applies to bulk bandwidth.
  NetworkModel(const SeedSequencer& seeds, NoiseConfig noise = {});

  /// Adds a node and returns its id. `name` is used for seeding and logs.
  NodeId register_node(const std::string& name, const LinkConfig& link);

  /// Number of registered nodes.
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Nominal link of a node.
  [[nodiscard]] const LinkConfig& link(NodeId id) const;

  /// Node name (for logs/reports).
  [[nodiscard]] const std::string& name(NodeId id) const;

  /// Samples a one-way control-message delay from `from` to `to` (goes via
  /// the broker, so both endpoints' latencies contribute).
  [[nodiscard]] Tick sample_message_delay(NodeId from, NodeId to);

  /// Draws one multiplicative noise factor from `node`'s stream.
  [[nodiscard]] double sample_noise_factor(NodeId node);

  /// Samples the *effective* download bandwidth of `node` for one bulk
  /// transfer: nominal bandwidth times a noise factor times the node's
  /// current degradation multiplier.
  [[nodiscard]] MbPerSec sample_effective_bandwidth(NodeId node);

  /// Fault-injection hook: multiplies `node`'s effective bandwidth by
  /// `factor` until changed again (1.0 restores nominal behaviour). Layered
  /// on top of the noise model; the default of exactly 1.0 leaves every
  /// sampled bandwidth bit-identical to an undegraded run.
  void set_degradation(NodeId node, double factor);

  /// Current degradation multiplier of `node`.
  [[nodiscard]] double degradation(NodeId node) const;

  /// Ticks to download `volume` MB at node `node` under sampled noise.
  [[nodiscard]] Tick sample_transfer_ticks(NodeId node, MegaBytes volume);

  /// The configured noise model (shared by all nodes).
  [[nodiscard]] const NoiseModel& noise() const noexcept { return noise_; }

 private:
  struct Node {
    std::string name;
    LinkConfig link;
    RandomStream rng;
    double degradation = 1.0;  ///< fault-injection bandwidth multiplier
  };

  [[nodiscard]] Node& node_at(NodeId id);

  SeedSequencer seeds_;
  NoiseModel noise_;
  std::vector<Node> nodes_;
};

}  // namespace dlaja::net
