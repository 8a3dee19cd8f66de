#include "query/ms_bfs.hpp"

#include <bit>
#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "storage/mapped_file.hpp"

namespace mssg {

namespace {

// Distinct from the single-source BFS tags (100..102): a scheduler may
// interleave analyses over split() sub-worlds, but a stray shared-world
// run must still never cross streams with parallel_oocbfs.
constexpr int kMsFringeTag = 120;  // one (vertex, mask) message per peer/level

class MsBfsRun {
 public:
  MsBfsRun(Communicator& comm, GraphDB& db, std::span<const VertexId> sources,
           VertexId dst, const MsBfsOptions& options)
      : comm_(comm),
        db_(db),
        sources_(sources),
        dst_(dst),
        options_(options) {}

  MsBfsStats execute();

 private:
  [[nodiscard]] Rank owner(VertexId v) const {
    return static_cast<Rank>(v % comm_.size());
  }

  /// Handles one (neighbor, source-mask) candidate discovered while
  /// expanding the local frontier.
  void discover(VertexId u, std::uint64_t mask);

  /// Merges one received fringe pair into the local next frontier.
  void merge_candidate(VertexId u, std::uint64_t mask);

  /// Expands every frontier entry once, fanning each adjacency list out
  /// to all sources in the entry's (active-filtered) mask.
  void expand_frontier();

  /// One bulk (vertex, mask) exchange per level: mask-merged buckets to
  /// owner ranks, or one broadcast in unknown-map mode.
  void exchange_fringe();

  [[nodiscard]] PayloadBuffer pack_pairs(std::vector<VertexPair>& pairs);

  void publish_stats() const;

  Communicator& comm_;
  GraphDB& db_;
  std::span<const VertexId> sources_;
  VertexId dst_;
  const MsBfsOptions& options_;

  MsBfsStats stats_;
  std::uint64_t active_ = 0;      // sources still searching
  std::uint64_t found_local_ = 0; // sources that reached dst this level
  // Query-private visited state: for each vertex, the sources that have
  // reached it.  Deliberately NOT the GraphDB metadata store, so
  // concurrent runs cannot corrupt each other.
  std::unordered_map<VertexId, std::uint64_t> seen_;
  std::vector<std::pair<VertexId, std::uint64_t>> frontier_;
  std::unordered_map<VertexId, std::uint64_t> next_;
  std::vector<std::unordered_map<VertexId, std::uint64_t>> buckets_;
  std::vector<std::uint64_t> discovered_local_;  // per source bit
  std::vector<VertexPair> pair_scratch_;
  std::vector<VertexId> fetch_scratch_;       // the active frontier ids
  std::vector<std::uint64_t> mask_scratch_;   // and their active masks
};

PayloadBuffer MsBfsRun::pack_pairs(std::vector<VertexPair>& pairs) {
  const std::size_t raw_bytes = raw_pair_wire_bytes(pairs.size());
  std::vector<std::byte> encoded = encode_pair_set(pairs, options_.wire);
  comm_.record_payload_encoding(raw_bytes, encoded.size());
  if (options_.metrics != nullptr) {
    options_.metrics->histogram("codec.encode_bytes").record(encoded.size());
  }
  return PayloadBuffer(std::move(encoded));
}

void MsBfsRun::discover(VertexId u, std::uint64_t mask) {
  if (u == dst_) {
    // Mirror parallel_oocbfs: the destination is never marked visited or
    // expanded; the level-end collective records which sources arrived.
    found_local_ |= mask;
    return;
  }
  std::uint64_t& seen = seen_[u];
  const std::uint64_t fresh = mask & ~seen;
  if (fresh == 0) return;
  seen |= fresh;  // sender-side dedup, exactly like the metadata mark
  if (!options_.map_known || owner(u) == comm_.rank()) {
    next_[u] |= fresh;
    for (std::uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
      ++discovered_local_[std::countr_zero(bits)];
    }
  } else {
    buckets_[owner(u)][u] |= fresh;
  }
}

void MsBfsRun::merge_candidate(VertexId u, std::uint64_t mask) {
  std::uint64_t& seen = seen_[u];
  const std::uint64_t fresh = mask & ~seen;
  if (fresh == 0) return;
  seen |= fresh;
  next_[u] |= fresh;
  // Received pairs are owned by this rank (directed sends) or tracked by
  // every rank (broadcast); either way the discovery counts here.
  for (std::uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
    ++discovered_local_[std::countr_zero(bits)];
  }
}

void MsBfsRun::expand_frontier() {
  // A *batched* level expansion reads the whole shared frontier's
  // adjacency — the scan regime: with GraphDBConfig::mmap_sealed those
  // reads take the zero-copy mapped path instead of the 2Q cache.  A
  // single-source run (cbfs point probes ride this engine) is the
  // opposite workload — a narrow cone whose blocks re-hit across levels
  // and queries — so it stays on the cache and keeps its hit rate.
  std::optional<SequentialScanScope> scan_scope;
  if (sources_.size() > 1) scan_scope.emplace();
  fetch_scratch_.clear();
  mask_scratch_.clear();
  for (const auto& [v, mask] : frontier_) {
    if ((mask & active_) == 0) continue;
    fetch_scratch_.push_back(v);
    mask_scratch_.push_back(mask & active_);
  }
  if (options_.prefetch) db_.prefetch(fetch_scratch_);
  std::size_t next = 0;
  db_.visit_adjacency(fetch_scratch_, [&](VertexId,
                                          std::span<const VertexId> nbrs) {
    const std::uint64_t m = mask_scratch_[next++];
    // ONE adjacency fetch serves every source in the mask — the fetches
    // a per-source sweep would have repeated are the saving.
    ++stats_.adjacency_fetches;
    stats_.shared_scans_saved +=
        static_cast<std::uint64_t>(std::popcount(m)) - 1;
    for (const VertexId u : nbrs) {
      ++stats_.edges_scanned;
      discover(u, m);
    }
    return true;
  });
}

void MsBfsRun::exchange_fringe() {
  const int p = comm_.size();
  if (!options_.map_known) {
    // Broadcast mode: ship the locally discovered pairs to everyone.
    pair_scratch_.clear();
    for (const auto& [u, mask] : next_) pair_scratch_.emplace_back(u, mask);
    comm_.broadcast(kMsFringeTag, pack_pairs(pair_scratch_));
    stats_.fringe_messages += p - 1;
  } else {
    for (Rank q = 0; q < p; ++q) {
      if (q == comm_.rank()) continue;
      auto& bucket = buckets_[q];
      pair_scratch_.clear();
      for (const auto& [u, mask] : bucket) pair_scratch_.emplace_back(u, mask);
      bucket.clear();
      comm_.send(q, kMsFringeTag, pack_pairs(pair_scratch_));
      ++stats_.fringe_messages;
    }
  }
  // Merge in rank order (not arrival order) so every counter is a pure
  // function of the inputs, as in the single-source search.
  std::vector<VertexPair> received;
  for (Rank q = 0; q < p; ++q) {
    if (q == comm_.rank()) continue;
    const Message msg = comm_.recv(kMsFringeTag, q);
    decode_pair_set(msg.payload, received);
    if (options_.metrics != nullptr) {
      options_.metrics->histogram("codec.decode_bytes")
          .record(msg.payload.size());
    }
    for (const auto& [u, mask] : received) merge_candidate(u, mask);
  }
}

void MsBfsRun::publish_stats() const {
  MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  reg->counter("msbfs.queries") += 1;
  reg->counter("msbfs.sources") += sources_.size();
  reg->counter("msbfs.levels") += stats_.levels;
  reg->counter("msbfs.edges_scanned") += stats_.edges_scanned;
  reg->counter("msbfs.adjacency_fetches") += stats_.adjacency_fetches;
  reg->counter("msbfs.shared_scans_saved") += stats_.shared_scans_saved;
  reg->counter("msbfs.fringe_messages") += stats_.fringe_messages;
  if (stats_.truncated) reg->counter("msbfs.truncated") += 1;
}

MsBfsStats MsBfsRun::execute() {
  Timer timer;
  const std::size_t n = sources_.size();
  MSSG_CHECK(n >= 1 && n <= 64);
  const int p = comm_.size();
  buckets_.assign(p, {});
  discovered_local_.assign(n, 0);
  stats_.distance.assign(n, kUnvisited);
  stats_.discovered.assign(n, 0);
  active_ = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;

  // Seed the frontier.  Every rank marks every source seen (the dedup
  // filter must agree everywhere); only the owner expands it.
  std::unordered_map<VertexId, std::uint64_t> seed;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << i;
    const VertexId s = sources_[i];
    if (s == dst_) {
      stats_.distance[i] = 0;
      active_ &= ~bit;
      continue;
    }
    seen_[s] |= bit;
    if (!options_.map_known || owner(s) == comm_.rank()) seed[s] |= bit;
  }
  frontier_.assign(seed.begin(), seed.end());
  std::sort(frontier_.begin(), frontier_.end());

  for (Metadata level = 1; level <= options_.max_levels && active_ != 0;
       ++level) {
    TraceSpan level_span;
    if (options_.metrics != nullptr) {
      level_span = options_.metrics->span("msbfs.level");
    }
    next_.clear();
    found_local_ = 0;
    const std::uint64_t edges_before = stats_.edges_scanned;

    expand_frontier();
    exchange_fringe();
    ++stats_.levels;

    if (options_.budget != nullptr) {
      options_.budget->charge(stats_.edges_scanned - edges_before);
    }

    // Level-synchronous termination, all collective so every rank agrees:
    // which sources reached dst, is the global frontier empty, and did
    // the query run out of tokens.
    const std::uint64_t found = comm_.allreduce_bor(found_local_) & active_;
    for (std::uint64_t bits = found; bits != 0; bits &= bits - 1) {
      stats_.distance[std::countr_zero(bits)] = level;
    }
    active_ &= ~found;
    if (active_ == 0) break;
    if (comm_.allreduce_sum(next_.size()) == 0) break;
    if (comm_.allreduce_or(options_.budget != nullptr &&
                           options_.budget->exhausted())) {
      stats_.truncated = true;
      // Work remains (the frontier is non-empty) and the tokens ran out:
      // THIS is truncation.  The checks above break first when the
      // search completed naturally, so an exact-fit budget that reaches
      // spent == limit on the final level never reports truncation.
      if (options_.budget != nullptr) options_.budget->note_truncation();
      break;
    }

    frontier_.assign(next_.begin(), next_.end());
    std::sort(frontier_.begin(), frontier_.end());
  }

  // Per-source discovered counts: owned discoveries are disjoint across
  // ranks (directed mode); broadcast mode tracked the full set on every
  // rank, so counts agree and max() is the global value.
  for (std::size_t i = 0; i < n; ++i) {
    stats_.discovered[i] = options_.map_known
                               ? comm_.allreduce_sum(discovered_local_[i])
                               : comm_.allreduce_max(discovered_local_[i]);
  }

  comm_.barrier();
  stats_.seconds = timer.seconds();
  publish_stats();
  return stats_;
}

}  // namespace

MsBfsStats parallel_msbfs(Communicator& comm, GraphDB& db,
                          std::span<const VertexId> sources, VertexId dst,
                          const MsBfsOptions& options) {
  MsBfsRun run(comm, db, sources, dst, options);
  return run.execute();
}

}  // namespace mssg
