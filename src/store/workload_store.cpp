#include "store/workload_store.hpp"

namespace impact::store {

namespace {

Canon graph_canon(const graph::MultiprogConfig& config) {
  Canon c;
  c.field("graph_seed", config.graph_seed);
  c.field("rmat_scale", config.rmat_scale);
  c.field("edge_count", static_cast<std::uint64_t>(config.edge_count));
  return c;
}

}  // namespace

Fingerprint workload_fingerprint(const graph::MultiprogConfig& config,
                                 graph::WorkloadKind kind) {
  Canon c = graph_canon(config);
  c.field("kind", to_string(kind));
  return c.fingerprint();
}

Fingerprint graph_fingerprint(const graph::MultiprogConfig& config) {
  return graph_canon(config).fingerprint();
}

std::shared_ptr<const graph::CsrGraph> WorkloadStore::graph_of(
    const graph::MultiprogConfig& config) {
  GraphSlot* slot = nullptr;
  {
    std::scoped_lock lock(mu_);
    slot = &graphs_[graph_fingerprint(config)];  // Map nodes never move.
  }
  // Callers of one key queue here while the first builds; other keys and
  // the map stay unblocked. A throwing build leaves the slot empty, so
  // the next caller retries.
  std::scoped_lock lock(slot->mu);
  if (slot->graph == nullptr) {
    slot->graph = graph::build_graph(config);
    ++graph_builds_;
  }
  return slot->graph;
}

const graph::WorkloadInput* WorkloadStore::get(
    const graph::MultiprogConfig& config, graph::WorkloadKind kind) {
  const Fingerprint fp = workload_fingerprint(config, kind);
  {
    std::scoped_lock lock(mu_);
    if (auto it = inputs_.find(fp); it != inputs_.end()) {
      return it->second.get();
    }
  }
  // Build the trace outside the lock; a racing duplicate build loses the
  // emplace and is dropped (both builds are deterministic, so the results
  // are equal).
  auto built = std::make_unique<graph::WorkloadInput>(
      graph::build_input(graph_of(config), kind));
  std::scoped_lock lock(mu_);
  auto [it, _] = inputs_.emplace(fp, std::move(built));
  return it->second.get();
}

std::size_t WorkloadStore::size() const {
  std::scoped_lock lock(mu_);
  return inputs_.size();
}

}  // namespace impact::store
