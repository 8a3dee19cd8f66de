#include "query/vertex_program.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "storage/mapped_file.hpp"

namespace mssg {

namespace {

// Distinct from the BFS (100..102), CC (110) and MS-BFS (120) streams:
// a stray shared-world engine run must never cross wires with the
// legacy analyses.
constexpr int kVertexProgramTag = 130;

}  // namespace

// Scatter-phase message router.  Messages accumulate in per-owner
// buckets; the bucket this rank owns drains into the inbox, no wire.
// Without a combiner a bucket is a plain append list.  With one, the
// bucket's vector is a linear-probe table keyed by target: power-of-two
// size, load factor at most 1/2, multiplicative hashing, kInvalidVertex
// as the empty key.  An emit to a target the table already holds
// combines in place, so the wire carries one pair per (rank, target).
// Every combiner is associative and commutative, so the emit order
// cannot change a value.
class VertexProgramEngine::Sink : public MessageSink {
 public:
  Sink(VertexProgramEngine& engine, VertexProgram& program)
      : engine_(engine),
        program_(program),
        combine_(program.has_combiner()),
        buckets_(static_cast<std::size_t>(engine.comm_.size())) {
    if (combine_) {
      for (Bucket& bucket : buckets_) reset(bucket, kMinCapacity);
    }
  }

  void emit(VertexId target, std::uint64_t value) override {
    Bucket& bucket = buckets_[static_cast<std::size_t>(engine_.owner(target))];
    if (!combine_) {
      bucket.pairs.emplace_back(target, value);
      return;
    }
    MSSG_CHECK(target != kInvalidVertex);  // the empty-slot key
    const std::size_t mask = bucket.pairs.size() - 1;
    for (std::size_t i = home(bucket, target);; i = (i + 1) & mask) {
      VertexPair& slot = bucket.pairs[i];
      if (slot.first == target) {
        slot.second = program_.combine(slot.second, value);
        ++engine_.stats_.combines;
        return;
      }
      if (slot.first == kInvalidVertex) {
        slot = {target, value};
        if (2 * ++bucket.held > bucket.pairs.size()) {
          rehash(bucket, 2 * bucket.pairs.size());
        }
        return;
      }
    }
  }

  /// Drains bucket `q` into `out` (appending), leaving it empty.  The
  /// pairs leave unordered: exchange() sorts them once, in the inbox or
  /// in the encoder.
  void drain(Rank q, std::vector<VertexPair>& out) {
    Bucket& bucket = buckets_[static_cast<std::size_t>(q)];
    if (!combine_) {
      out.insert(out.end(), bucket.pairs.begin(), bucket.pairs.end());
      bucket.pairs.clear();
      return;
    }
    for (VertexPair& slot : bucket.pairs) {
      if (slot.first == kInvalidVertex) continue;
      out.push_back(slot);
      slot.first = kInvalidVertex;
    }
    // A table widened by an earlier superstep shrinks to fit this one,
    // so a run of sparse supersteps after a wide one scans the wide
    // table once, not once per superstep.
    const std::size_t fit = capacity_for(bucket.held);
    if (bucket.pairs.size() > 4 * fit) reset(bucket, fit);
    bucket.held = 0;
  }

 private:
  struct Bucket {
    std::vector<VertexPair> pairs;  // combiner: the probe table
    std::size_t held = 0;           // combiner: occupied slots
    int shift = 64;                 // combiner: 64 - log2(table size)
  };

  static constexpr std::size_t kMinCapacity = 1024;

  /// The table size that holds `pairs` at load factor <= 1/2.
  static std::size_t capacity_for(std::size_t pairs) {
    return std::max(kMinCapacity, std::bit_ceil(2 * pairs));
  }

  static std::size_t home(const Bucket& bucket, VertexId target) {
    // Fibonacci hashing: the product's top bits mix every bit of the
    // id, which matters because a bucket's ids share their residue mod p.
    return static_cast<std::size_t>((target * 0x9E3779B97F4A7C15ull) >>
                                    bucket.shift);
  }

  static void reset(Bucket& bucket, std::size_t capacity) {
    bucket.pairs = std::vector<VertexPair>(capacity, {kInvalidVertex, 0});
    bucket.shift = 64 - std::countr_zero(capacity);
  }

  static void rehash(Bucket& bucket, std::size_t capacity) {
    const std::vector<VertexPair> old = std::move(bucket.pairs);
    reset(bucket, capacity);
    const std::size_t mask = capacity - 1;
    for (const VertexPair& pair : old) {
      if (pair.first == kInvalidVertex) continue;
      std::size_t i = home(bucket, pair.first);
      while (bucket.pairs[i].first != kInvalidVertex) i = (i + 1) & mask;
      bucket.pairs[i] = pair;
    }
  }

  VertexProgramEngine& engine_;
  VertexProgram& program_;
  const bool combine_;
  std::vector<Bucket> buckets_;
};

VertexProgramEngine::VertexProgramEngine(Communicator& comm, GraphDB& db,
                                         const VertexProgramOptions& options)
    : comm_(comm),
      db_(db),
      options_(options) {
  info_.ranks = comm_.size();
  info_.rank = comm_.rank();
}

std::uint32_t VertexProgramEngine::ensure_slot(VertexProgram& program,
                                               VertexId v) {
  const auto it = index_.find(v);
  if (it != index_.end()) return it->second;
  // A message reached a vertex this rank owns but never stored
  // (degree-0 locally) — mirror the legacy CC's lazy label entry.
  const auto slot = static_cast<std::uint32_t>(ids_.size());
  bool ignored_active = false;
  const std::uint64_t initial = program.init(v, ignored_active);
  ids_.push_back(v);
  state_.push_back(initial);
  index_.emplace(v, slot);
  sorted_dirty_ = true;
  if (next_active_.size() < ids_.size()) {
    next_active_.resize(std::max<std::size_t>(ids_.size() * 2, 64));
  }
  return slot;
}

const std::vector<std::uint32_t>& VertexProgramEngine::sorted_slots() const {
  if (sorted_dirty_ || sorted_slots_.size() != ids_.size()) {
    sorted_slots_.resize(ids_.size());
    for (std::uint32_t i = 0; i < ids_.size(); ++i) sorted_slots_[i] = i;
    std::sort(sorted_slots_.begin(), sorted_slots_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return ids_[a] < ids_[b];
              });
    sorted_dirty_ = false;
  }
  return sorted_slots_;
}

void VertexProgramEngine::load_local_vertices(VertexProgram& program) {
  // Collect then SORT: for_each_vertex enumerates in backend hash order,
  // which must never leak into execution order (the PR 2 determinism
  // rule).
  std::vector<VertexId> local;
  db_.for_each_vertex([&](VertexId v) {
    local.push_back(v);
    return true;
  });
  std::sort(local.begin(), local.end());
  initial_vertices_ = local.size();
  info_.global_vertices = comm_.allreduce_sum(local.size());
  program.begin(info_);

  ids_.reserve(local.size());
  state_.reserve(local.size());
  for (const VertexId v : local) {
    bool active = false;
    const std::uint64_t initial = program.init(v, active);
    const auto slot = static_cast<std::uint32_t>(ids_.size());
    ids_.push_back(v);
    state_.push_back(initial);
    index_.emplace(v, slot);
    if (active) frontier_.push_back(v);
  }
  next_active_.resize(std::max<std::size_t>(ids_.size(), 64));
}

PayloadBuffer VertexProgramEngine::pack_pairs(std::vector<VertexPair>& pairs) {
  const std::size_t raw_bytes = raw_pair_wire_bytes(pairs.size());
  std::vector<std::byte> encoded = encode_pair_set(pairs, options_.wire);
  comm_.record_payload_encoding(raw_bytes, encoded.size());
  if (options_.metrics != nullptr) {
    options_.metrics->histogram("codec.encode_bytes").record(encoded.size());
  }
  return PayloadBuffer(std::move(encoded));
}

void VertexProgramEngine::scatter_frontier(VertexProgram& program,
                                           Sink& sink) {
  db_.visit_adjacency(frontier_, [&](VertexId v,
                                     std::span<const VertexId> neighbors) {
    ++stats_.vertices_scattered;
    stats_.edges_scanned += neighbors.size();
    program.scatter(v, state_[index_.at(v)], neighbors, sink);
    return true;
  });
}

void VertexProgramEngine::exchange(Sink& sink) {
  const int p = comm_.size();
  std::vector<VertexPair> wire_scratch;
  for (Rank q = 0; q < p; ++q) {
    if (q == comm_.rank()) {
      sink.drain(q, inbox_);  // self messages skip the wire
      continue;
    }
    wire_scratch.clear();
    sink.drain(q, wire_scratch);
    comm_.send(q, kVertexProgramTag, pack_pairs(wire_scratch));
    ++stats_.fringe_messages;
  }
  // The inbox leaves here sorted, so each target's value group is
  // ascending — a deterministic fold order regardless of sender count or
  // arrival.  Only the self bucket needs a sort (a radix pass):
  // encode_pair_set sorts every peer's run before the wire, so those
  // merge in linear time.  Merging
  // in rank order (not arrival order) keeps every counter a pure
  // function of the inputs.
  sort_pairs(inbox_);
  std::vector<VertexPair> received;
  for (Rank q = 0; q < p; ++q) {
    if (q == comm_.rank()) continue;
    const Message msg = comm_.recv(kVertexProgramTag, q);
    decode_pair_set(msg.payload, received);
    if (options_.metrics != nullptr) {
      options_.metrics->histogram("codec.decode_bytes")
          .record(msg.payload.size());
    }
    if (!std::is_sorted(received.begin(), received.end())) {
      throw FormatError("vertex program: unsorted message run from rank " +
                        std::to_string(q));
    }
    const auto mid = static_cast<std::ptrdiff_t>(inbox_.size());
    inbox_.insert(inbox_.end(), received.begin(), received.end());
    std::inplace_merge(inbox_.begin(), inbox_.begin() + mid, inbox_.end());
  }
}

void VertexProgramEngine::apply_inbox(VertexProgram& program) {
  // exchange() left the inbox sorted.
  stats_.messages_delivered += inbox_.size();
  next_frontier_.clear();
  if (next_active_.size() < ids_.size()) next_active_.resize(ids_.size() * 2);
  next_active_.reset_all();

  // The apply order: the sorted inbox's target runs, merged in id order
  // with every message-less local vertex when the kernel is dense.  Each
  // target keeps the end of its inbox run (equal ends: no messages).
  apply_targets_.clear();
  apply_run_ends_.clear();
  const std::vector<std::uint32_t>* dense_slots =
      program.dense() ? &sorted_slots() : nullptr;
  std::size_t dense_idx = 0;
  const auto add_dense_below = [&](VertexId limit, std::size_t run_end) {
    if (dense_slots == nullptr) return;
    while (dense_idx < dense_slots->size()) {
      const VertexId v = ids_[(*dense_slots)[dense_idx]];
      if (v >= limit) break;
      apply_targets_.push_back(v);
      apply_run_ends_.push_back(run_end);
      ++dense_idx;
    }
  };
  std::size_t i = 0;
  while (i < inbox_.size()) {
    const VertexId target = inbox_[i].first;
    add_dense_below(target, i);
    if (dense_slots != nullptr && dense_idx < dense_slots->size() &&
        ids_[(*dense_slots)[dense_idx]] == target) {
      ++dense_idx;
    }
    while (i < inbox_.size() && inbox_[i].first == target) ++i;
    apply_targets_.push_back(target);
    apply_run_ends_.push_back(i);
  }
  add_dense_below(kInvalidVertex, i);

  std::size_t next_target = 0;
  std::size_t run_begin = 0;
  const auto apply_one = [&](VertexId v, std::span<const VertexId> neighbors) {
    const std::size_t run_end = apply_run_ends_[next_target++];
    value_scratch_.clear();
    for (; run_begin < run_end; ++run_begin) {
      value_scratch_.push_back(inbox_[run_begin].second);
    }
    const std::uint32_t slot = ensure_slot(program, v);
    const bool activate = program.apply(v, state_[slot], value_scratch_,
                                        neighbors);
    if (activate && !next_active_.test_and_set(slot)) {
      next_frontier_.push_back(v);
    }
    return true;
  };
  if (program.apply_needs_adjacency()) {
    db_.visit_adjacency(apply_targets_, [&](VertexId v,
                                            std::span<const VertexId> nbrs) {
      stats_.edges_scanned += nbrs.size();
      return apply_one(v, nbrs);
    });
  } else {
    for (const VertexId v : apply_targets_) apply_one(v, {});
  }
  inbox_.clear();
}

void VertexProgramEngine::publish_stats() const {
  MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  reg->counter("vp.runs") += 1;
  reg->counter("vp.supersteps") += stats_.supersteps;
  reg->counter("vp.vertices_scattered") += stats_.vertices_scattered;
  reg->counter("vp.edges_scanned") += stats_.edges_scanned;
  reg->counter("vp.messages_delivered") += stats_.messages_delivered;
  reg->counter("vp.fringe_messages") += stats_.fringe_messages;
  reg->counter("vp.combines") += stats_.combines;
  if (stats_.truncated) reg->counter("vp.truncated") += 1;
}

VertexProgramStats VertexProgramEngine::run(VertexProgram& program) {
  Timer timer;
  MSSG_CHECK(ids_.empty());  // one run per engine
  // Every superstep streams adjacency for the whole frontier (the whole
  // graph, in dense mode): the sequential-scan regime.  With
  // GraphDBConfig::mmap_sealed the scatter/apply reads on this rank
  // thread take the zero-copy mapped path; point probes on other
  // threads keep the 2Q cache.
  SequentialScanScope scan_scope;
  load_local_vertices(program);
  std::sort(frontier_.begin(), frontier_.end());

  Sink sink(*this, program);
  for (std::uint64_t step = 1; step <= options_.max_supersteps; ++step) {
    TraceSpan span;
    if (options_.metrics != nullptr) {
      span = options_.metrics->span("vp.superstep");
    }
    const std::uint64_t edges_before = stats_.edges_scanned;
    if (program.dense()) {
      // Every local vertex scatters every superstep.
      frontier_.clear();
      for (const std::uint32_t slot : sorted_slots()) {
        frontier_.push_back(ids_[slot]);
      }
    }

    scatter_frontier(program, sink);
    exchange(sink);
    apply_inbox(program);
    ++stats_.supersteps;

    if (options_.budget != nullptr) {
      options_.budget->charge(stats_.edges_scanned - edges_before);
    }

    // Collective epilogue, identical on every rank: the kernel's
    // aggregate, dormant-vertex wakeups, then the termination checks.
    const std::uint64_t agg = comm_.allreduce_min(program.aggregate());
    program.set_aggregate(agg);
    activation_scratch_.clear();
    program.collect_activations(activation_scratch_);
    for (const VertexId v : activation_scratch_) {
      const std::uint32_t slot = ensure_slot(program, v);
      if (next_active_.size() < ids_.size()) {
        next_active_.resize(ids_.size() * 2);
      }
      if (!next_active_.test_and_set(slot)) next_frontier_.push_back(v);
    }
    const std::uint64_t global_active = comm_.allreduce_sum(
        program.dense() ? ids_.size() : next_frontier_.size());

    // Natural completion is checked BEFORE the budget, so a budget of
    // exactly the work remaining completes without reporting truncation.
    if (!comm_.allreduce_or(program.keep_running(step))) break;
    if (!program.dense() && global_active == 0) break;
    if (comm_.allreduce_or(options_.budget != nullptr &&
                           options_.budget->exhausted())) {
      stats_.truncated = true;
      if (options_.budget != nullptr) options_.budget->note_truncation();
      break;
    }

    frontier_.swap(next_frontier_);
    std::sort(frontier_.begin(), frontier_.end());
  }

  comm_.barrier();
  stats_.seconds = timer.seconds();
  publish_stats();
  return stats_;
}

}  // namespace mssg
