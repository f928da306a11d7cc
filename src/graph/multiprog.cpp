#include "graph/multiprog.hpp"

#include <algorithm>
#include <bit>

#include "obs/registry.hpp"
#include "obs/scope.hpp"
#include "util/assert.hpp"

namespace impact::graph {

namespace {

constexpr dram::ActorId kInstanceA = 10;
constexpr dram::ActorId kInstanceB = 11;

/// Virtual bases and sizes (in pages) of the replayed arrays for one
/// instance.
struct ArrayMap {
  sys::VAddr base[kArrayRefCount] = {};
  std::uint64_t pages[kArrayRefCount] = {};
};

/// Maps the shared input (owned by instance A, shared into B) and the
/// private arrays of one instance.
ArrayMap map_arrays(sys::MemorySystem& system, const CsrGraph& graph,
                    const WorkloadTrace& trace, dram::ActorId actor,
                    const ArrayMap* shared_from) {
  auto& vmem = system.vmem();
  ArrayMap m;
  const auto pages = [&](std::uint64_t bytes) {
    return (bytes + vmem.page_bytes() - 1) / vmem.page_bytes();
  };
  m.pages[0] = pages((graph.nodes() + 1) * sizeof(std::uint32_t));
  m.pages[1] = pages(graph.edges() * sizeof(NodeId));

  if (shared_from == nullptr) {
    m.base[0] = vmem.map_pages(actor, m.pages[0]).vaddr;
    m.base[1] = vmem.map_pages(actor, m.pages[1]).vaddr;
  } else {
    // Share instance A's graph frames (same vaddrs, same banks).
    for (int g = 0; g < 2; ++g) {
      m.base[g] = shared_from->base[g];
      vmem.share(kInstanceA, actor,
                 sys::VSpan{m.base[g], m.pages[g] * vmem.page_bytes()});
    }
  }
  for (int p = 0; p < 3; ++p) {
    if (trace.private_elems[p] == 0) continue;
    m.pages[2 + p] = pages(trace.private_elems[p] * 4ull);
    m.base[2 + p] = vmem.map_pages(actor, m.pages[2 + p]).vaddr;
  }
  return m;
}

/// The filtered system of `config`: what filter_instance runs and records
/// (see DramStream::system).
sys::SystemConfig filtered_system(const sys::SystemConfig& config) {
  sys::SystemConfig s = config;
  s.cores = 2;
  s.dram.policy = dram::DramConfig{}.policy;
  s.dram.timing = dram::TimingParams{};
  return s;
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(const std::uint8_t*& p) {
  std::uint64_t v = 0;
  for (unsigned shift = 0;; shift += 7) {
    const std::uint8_t byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (byte < 0x80) return v;
  }
}

/// Chunk capacity of a DramStream, and the most bytes one record takes
/// (a head byte plus at most 10 bytes per varint).
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::size_t kMaxRecordBytes =
    1 + 10 * (3 + cache::FilterResult::kMaxRequests);

/// Physical address of `op` for the instance whose pages `stream` holds.
dram::PhysAddr op_address(const DramStream& stream, const TraceOp& op) {
  const std::uint64_t byte = op.index * 4ull;
  const std::uint64_t page =
      stream.first_page[static_cast<std::size_t>(op.array)] +
      (byte >> stream.page_bits);
  return (stream.frames[page] << stream.page_bits) |
         (byte & ((1ull << stream.page_bits) - 1));
}

/// Appends the record of trace op `index` to `stream` (encoding:
/// DramStream). `paddr` is the op's physical address.
void put_op(DramStream& stream, std::uint64_t& prev_index,
            std::uint64_t index, util::Cycle gap, util::Cycle overhead,
            dram::PhysAddr paddr, const cache::FilterResult& f) {
  if (stream.chunks.empty() ||
      kChunkBytes - stream.chunks.back().size() < kMaxRecordBytes) {
    stream.chunks.emplace_back().reserve(kChunkBytes);
  }
  std::vector<std::uint8_t>& out = stream.chunks.back();
  put_varint(out, index - prev_index);
  prev_index = index;
  put_varint(out, gap);
  put_varint(out, overhead);
  out.push_back(static_cast<std::uint8_t>((f.count << 2) |
                                          static_cast<unsigned>(f.level)));
  const auto op_line = static_cast<std::int64_t>(paddr / stream.line_bytes);
  for (std::size_t i = f.demand_miss() ? 1 : 0; i < f.count; ++i) {
    const std::int64_t delta =
        static_cast<std::int64_t>(f.requests[i] / stream.line_bytes) -
        op_line;
    put_varint(out, (static_cast<std::uint64_t>(delta) << 1) ^
                        static_cast<std::uint64_t>(delta >> 63));
  }
  ++stream.dram_ops;
}

/// Reads one instance's stream back during a replay and tracks the
/// instance's clock.
class StreamCursor {
 public:
  StreamCursor(const DramStream& stream, const WorkloadTrace& trace)
      : stream_(stream),
        ops_(trace.ops.data()),
        n_ops_(trace.ops.size()),
        chunk_(stream.chunks.begin()),
        left_(stream.dram_ops) {
    advance();
  }

  [[nodiscard]] bool done() const { return done_; }
  /// Start clock of the next op (before its compute cycles): the key the
  /// full run interleaves the two instances by.
  [[nodiscard]] util::Cycle key() const { return key_; }
  /// Clock after the whole stream, trailing hit ops included.
  [[nodiscard]] util::Cycle end_clock() const { return clock_ + stream_.tail; }

  /// Issues the next op to `controller` and moves past it.
  void issue(dram::MemoryController& controller) {
    clock_ = start_ + cache::issue(next_, controller, stream_.actor, start_)
                          .latency;
    advance();
  }

 private:
  void advance() {
    if (p_ == end_ && chunk_ != stream_.chunks.end()) {
      p_ = chunk_->data();
      end_ = p_ + chunk_->size();
      ++chunk_;
    }
    if (left_ == 0) {
      util::check(p_ == end_ && chunk_ == stream_.chunks.end(),
                  "replay_dram: stream longer than its op count");
      done_ = true;
      return;
    }
    --left_;
    index_ += get_varint(p_);
    key_ = clock_ + get_varint(p_);
    const std::uint64_t overhead = get_varint(p_);
    const std::uint8_t head = *p_++;
    util::check(index_ < n_ops_ && p_ <= end_ &&
                    (head >> 2) <= cache::FilterResult::kMaxRequests,
                "replay_dram: corrupt stream");
    const TraceOp& op = ops_[index_];
    // The access starts after the op's compute cycles; filter() latency
    // and TLB latency are folded into `overhead`.
    start_ = key_ + op.compute;
    next_.latency = overhead;
    next_.count = static_cast<std::uint8_t>(head >> 2);
    next_.level = static_cast<cache::HitLevel>(head & 0x3);
    const dram::PhysAddr paddr = op_address(stream_, op);
    const std::uint64_t op_line = paddr / stream_.line_bytes;
    std::size_t i = 0;
    if (next_.demand_miss()) next_.requests[i++] = paddr;
    for (; i < next_.count; ++i) {
      const std::uint64_t z = get_varint(p_);
      next_.requests[i] =
          (op_line + ((z >> 1) ^ (~(z & 1) + 1))) * stream_.line_bytes;
    }
  }

  const DramStream& stream_;
  const TraceOp* ops_;
  std::size_t n_ops_;
  std::vector<std::vector<std::uint8_t>>::const_iterator chunk_;
  const std::uint8_t* p_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  std::uint64_t left_;
  std::uint64_t index_ = 0;
  util::Cycle clock_ = 0;
  util::Cycle key_ = 0;
  util::Cycle start_ = 0;
  cache::FilterResult next_;
  bool done_ = false;
};

}  // namespace

std::shared_ptr<const CsrGraph> build_graph(const MultiprogConfig& config) {
  util::Xoshiro256 rng(config.graph_seed);
  return std::make_shared<const CsrGraph>(
      CsrGraph::rmat(config.rmat_scale, config.edge_count, rng));
}

WorkloadInput build_input(std::shared_ptr<const CsrGraph> graph,
                          WorkloadKind kind) {
  util::check(graph != nullptr, "build_input: no graph");
  WorkloadInput input{std::move(graph), {}};
  input.trace = build_trace(kind, *input.graph);
  util::check(!input.trace.ops.empty(), "build_input: empty trace");
  return input;
}

WorkloadInput build_input(const MultiprogConfig& config, WorkloadKind kind) {
  return build_input(build_graph(config), kind);
}

DramStream filter_instance(const MultiprogConfig& config,
                           const WorkloadInput& input, Instance instance) {
  util::check(input.graph != nullptr, "filter_instance: no graph");
  const CsrGraph& graph = *input.graph;
  const WorkloadTrace& trace = input.trace;
  util::check(!trace.ops.empty(), "filter_instance: empty trace");

  DramStream out;
  out.system = filtered_system(config.system);
  out.actor = instance == Instance::kA ? kInstanceA : kInstanceB;
  out.kind = trace.kind;
  out.trace_checksum = trace.checksum;
  out.accesses = trace.ops.size();
  // A private scope collects this instance's cache.*/tlb.* counters (the
  // hierarchy and TLB publish them as snapshot-time providers) without
  // touching the caller's scope: the replays publish them per cell.
  obs::Scope counters;
  {
    sys::MemorySystem system(out.system);
    const ArrayMap map_a =
        map_arrays(system, graph, trace, kInstanceA, nullptr);
    const ArrayMap map_b =
        map_arrays(system, graph, trace, kInstanceB, &map_a);
    const ArrayMap& map = instance == Instance::kA ? map_a : map_b;
    sys::Tlb& tlb = system.tlb(out.actor);
    cache::Hierarchy& hierarchy = system.hierarchy(out.actor);
    const sys::VirtualMemory::TranslationView view =
        system.vmem().view(out.actor);

    out.page_bits = static_cast<std::uint32_t>(
        std::countr_zero(system.vmem().page_bytes()));
    out.line_bytes = hierarchy.config().l1.line_bytes;
    for (std::size_t a = 0; a < kArrayRefCount; ++a) {
      out.first_page[a] = out.frames.size();
      for (std::uint64_t k = 0; k < map.pages[a]; ++k) {
        out.frames.push_back(
            view.translate(map.base[a] + (k << out.page_bits)) >>
            out.page_bits);
      }
    }

    std::uint64_t prev_index = 0;
    util::Cycle gap = 0;
    for (std::size_t i = 0; i < trace.ops.size(); ++i) {
      const TraceOp& op = trace.ops[i];
      // Rough instruction accounting: the access itself plus the
      // surrounding arithmetic (~1 instruction per modeled compute cycle
      // on this core).
      out.instructions += 1 + op.compute;
      const sys::VAddr vaddr =
          map.base[static_cast<std::size_t>(op.array)] + op.index * 4ull;
      const sys::TlbResult tr = tlb.translate(vaddr, view.is_huge(vaddr));
      const dram::PhysAddr paddr = view.translate(vaddr);
      const cache::FilterResult f = hierarchy.filter(paddr, op.write, op.pc);
      const util::Cycle overhead = tr.latency + f.latency;
      if (f.count == 0) {
        gap += op.compute + overhead;
        continue;
      }
      put_op(out, prev_index, i, gap, overhead, paddr, f);
      gap = 0;
    }
    out.tail = gap;
    out.llc_misses = hierarchy.l3().stats().misses;
  }
  for (const auto& [name, value] : counters.snapshot().counters) {
    if (name.starts_with("cache.") || name.starts_with("tlb.")) {
      out.counters.counters.emplace(name, value);
    }
  }
  return out;
}

RunStats replay_dram(const WorkloadInput& input, const DramStream& a,
                     const DramStream& b,
                     dram::MemoryController& controller) {
  util::check(a.actor == kInstanceA && b.actor == kInstanceB &&
                  a.system == b.system,
              "replay_dram: streams are not instances A and B of one "
              "filtered system");
  const WorkloadTrace& trace = input.trace;
  for (const DramStream* s : {&a, &b}) {
    util::check(s->kind == trace.kind && s->accesses == trace.ops.size() &&
                    s->trace_checksum == trace.checksum,
                "replay_dram: input differs from the filtered one");
  }
  sys::SystemConfig replayed = a.system;
  replayed.dram = controller.config();
  replayed.mapping = controller.mapping().scheme();
  util::check(filtered_system(replayed) == a.system,
              "replay_dram: controller geometry or mapping differs from "
              "the filtered system");

  // Hand the controller the call sequence of the full run: that run
  // interleaves the instances' ops by start clock (ties to A), and the
  // ops between two DRAM-touching ones never reach the controller, so
  // merging only the DRAM-touching ops by the same key gives the same
  // sequence at the same issue times.
  StreamCursor ca(a, trace);
  StreamCursor cb(b, trace);
  while (!ca.done() || !cb.done()) {
    const bool a_turn = cb.done() || (!ca.done() && ca.key() <= cb.key());
    (a_turn ? ca : cb).issue(controller);
  }

  RunStats stats;
  stats.cycles = std::max(ca.end_clock(), cb.end_clock());
  stats.instructions = a.instructions + b.instructions;
  stats.accesses = a.accesses + b.accesses;
  stats.llc_misses = a.llc_misses + b.llc_misses;
  stats.row_hit_rate = controller.total_stats().hit_rate();
  if (obs::Registry* reg = obs::current_registry()) {
    for (const DramStream* s : {&a, &b}) {
      for (const auto& [name, value] : s->counters.counters) {
        reg->counter(name).add(value);
      }
    }
    reg->counter("graph.instructions").add(stats.instructions);
    reg->counter("graph.accesses").add(stats.accesses);
    reg->counter("graph.llc_misses").add(stats.llc_misses);
    reg->counter("graph.cycles").add(stats.cycles);
    reg->gauge("graph.row_hit_rate").set(stats.row_hit_rate);
    reg->gauge("graph.mpki").set(stats.mpki());
  }
  return stats;
}

RunStats replay_dram(const MultiprogConfig& config,
                     const WorkloadInput& input, const DramStream& a,
                     const DramStream& b, dram::RowPolicy policy) {
  util::check(filtered_system(config.system) == a.system,
              "replay_dram: config differs from the filtered one in more "
              "than dram.policy and dram.timing");
  // Fresh controller per run: constructing it here (not sharing across
  // cells) is what makes concurrent cells of a sweep independent — and
  // therefore schedule-invariant.
  dram::DramConfig dram_config = config.system.dram;
  dram_config.policy = policy;
  dram::MemoryController controller(dram_config, config.system.mapping);
  return replay_dram(input, a, b, controller);
}

RunStats run_multiprogrammed(const MultiprogConfig& config,
                             const WorkloadInput& input,
                             dram::RowPolicy policy) {
  return replay_dram(config, input,
                     filter_instance(config, input, Instance::kA),
                     filter_instance(config, input, Instance::kB), policy);
}

RunStats run_multiprogrammed(const MultiprogConfig& config,
                             WorkloadKind kind, dram::RowPolicy policy) {
  return run_multiprogrammed(config, build_input(config, kind), policy);
}

}  // namespace impact::graph
