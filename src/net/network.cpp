#include "net/network.hpp"

#include <cassert>
#include <stdexcept>

namespace dlaja::net {

NetworkModel::NetworkModel(const SeedSequencer& seeds, NoiseConfig noise)
    : seeds_(seeds), noise_(noise) {}

NodeId NetworkModel::register_node(const std::string& name, const LinkConfig& link) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{name, link, seeds_.stream("net/" + name)});
  return id;
}

NetworkModel::Node& NetworkModel::node_at(NodeId id) {
  if (id >= nodes_.size()) throw std::out_of_range("NetworkModel: bad NodeId");
  return nodes_[id];
}

const LinkConfig& NetworkModel::link(NodeId id) const {
  return const_cast<NetworkModel*>(this)->node_at(id).link;
}

const std::string& NetworkModel::name(NodeId id) const {
  return const_cast<NetworkModel*>(this)->node_at(id).name;
}

Tick NetworkModel::sample_message_delay(NodeId from, NodeId to) {
  Node& src = node_at(from);
  Node& dst = node_at(to);
  // Sender leg and receiver leg each contribute base latency plus jitter;
  // jitter draws come from the respective endpoint's stream.
  const double src_ms = src.link.latency_ms + src.rng.uniform(0.0, src.link.latency_jitter_ms);
  const double dst_ms = dst.link.latency_ms + dst.rng.uniform(0.0, dst.link.latency_jitter_ms);
  return ticks_from_millis(src_ms + dst_ms);
}

double NetworkModel::sample_noise_factor(NodeId node) {
  return noise_.sample(node_at(node).rng);
}

MbPerSec NetworkModel::sample_effective_bandwidth(NodeId node) {
  // Multiplying by the default 1.0 is exact in IEEE arithmetic, so an
  // undegraded node samples bit-identical bandwidths.
  return link(node).bandwidth_mbps * sample_noise_factor(node) * node_at(node).degradation;
}

void NetworkModel::set_degradation(NodeId node, double factor) {
  if (factor <= 0.0) throw std::invalid_argument("NetworkModel: degradation must be > 0");
  node_at(node).degradation = factor;
}

double NetworkModel::degradation(NodeId node) const {
  return const_cast<NetworkModel*>(this)->node_at(node).degradation;
}

Tick NetworkModel::sample_transfer_ticks(NodeId node, MegaBytes volume) {
  assert(volume >= 0.0);
  return transfer_ticks(volume, sample_effective_bandwidth(node));
}

}  // namespace dlaja::net
