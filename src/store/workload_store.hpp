// Fingerprint-interned pool of immutable graph::WorkloadInputs.
//
// graph::build_input is deterministic in (graph_seed, rmat_scale,
// edge_count, kind), and its graph (graph::build_graph) in the first three
// alone — nothing else in MultiprogConfig reaches the RMAT generator or
// the trace builder. The store keys each input on exactly that fingerprint
// (store::workload_fingerprint) and each graph on the narrower one
// (store::graph_fingerprint), so the five Fig. 11 kinds of one config
// share one CsrGraph. It hands out const pointers that stay valid for the
// store's lifetime.
//
// Thread safety: get() may be called concurrently from sweep workers. A
// graph is built at most once per key: the first caller builds it under
// that graph's own lock and concurrent callers of the same key wait for
// it. Traces are built outside every lock, so the kinds of one graph
// build in parallel; two workers racing on the same kind may both build
// its trace — the first to publish wins and the duplicate is dropped.
// Determinism makes both traces identical, so which one wins is
// unobservable.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "graph/multiprog.hpp"
#include "store/fingerprint.hpp"

namespace impact::store {

/// Fingerprint of the workload-input cell: the exact dependency set of
/// graph::build_input, nothing more. Deliberately narrower than
/// canon_of(MultiprogConfig) — system-config changes must NOT invalidate
/// interned inputs, or the store would rebuild identical graphs across a
/// policy sweep.
[[nodiscard]] Fingerprint workload_fingerprint(
    const graph::MultiprogConfig& config, graph::WorkloadKind kind);

/// Fingerprint of the input graph: the dependency set of
/// graph::build_graph (workload_fingerprint without the kind).
[[nodiscard]] Fingerprint graph_fingerprint(
    const graph::MultiprogConfig& config);

class WorkloadStore {
 public:
  WorkloadStore() = default;
  WorkloadStore(const WorkloadStore&) = delete;
  WorkloadStore& operator=(const WorkloadStore&) = delete;

  /// The interned input for (config, kind): built on first use, shared on
  /// every later call with a matching fingerprint. Its graph is shared by
  /// every kind of the same graph fingerprint. The pointer is valid until
  /// the store is destroyed.
  [[nodiscard]] const graph::WorkloadInput* get(
      const graph::MultiprogConfig& config, graph::WorkloadKind kind);

  /// Number of distinct inputs built so far (duplicate get()s are free).
  [[nodiscard]] std::size_t size() const;

  /// Number of graphs built so far: one per distinct graph fingerprint.
  [[nodiscard]] std::size_t graph_builds() const {
    return graph_builds_.load();
  }

 private:
  /// One graph fingerprint's graph; `mu` serialises its one build.
  struct GraphSlot {
    std::mutex mu;
    std::shared_ptr<const graph::CsrGraph> graph;
  };

  /// The graph of `config`, built by the first caller of its key.
  std::shared_ptr<const graph::CsrGraph> graph_of(
      const graph::MultiprogConfig& config);

  mutable std::mutex mu_;  ///< Guards the two maps (not the slots).
  std::map<Fingerprint, GraphSlot> graphs_;
  std::map<Fingerprint, std::unique_ptr<graph::WorkloadInput>> inputs_;
  std::atomic<std::size_t> graph_builds_{0};
};

}  // namespace impact::store
