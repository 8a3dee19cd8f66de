#include "query/bfs.hpp"

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/vertex_codec.hpp"

namespace mssg {

namespace {

constexpr int kFringeTag = 100;    // one message per peer per level (Alg 1)
constexpr int kChunkTag = 101;     // eager chunks (Alg 2)
constexpr int kLevelEndTag = 102;  // per-level chunk-stream terminator

/// Shared per-query state and helpers for both algorithms.
class BfsRun {
 public:
  BfsRun(Communicator& comm, GraphDB& db, VertexId src, VertexId dst,
         const BfsOptions& options)
      : comm_(comm),
        db_(db),
        src_(src),
        dst_(dst),
        options_(options) {}

  BfsStats execute();

 private:
  [[nodiscard]] Rank owner(VertexId v) const {
    return static_cast<Rank>(v % comm_.size());
  }

  /// Expands the whole fringe against local storage in fringe order,
  /// invoking `discover(u)` for every adjacency entry until it returns
  /// true.  The fringe is posted at once (§4.1.5), so StreamDB scans its
  /// log once per level.
  template <typename Discover>
  void expand_fringe(const std::vector<VertexId>& fringe, Discover&& discover);

  /// Handles one discovered vertex for Algorithm 1; returns buckets via
  /// members.  Returns true when the destination was found.
  bool discover_plain(VertexId u, Metadata next_level);
  bool discover_pipelined(VertexId u, Metadata next_level);

  void poll_chunks(Metadata next_level);
  void merge_candidate(VertexId u, Metadata next_level);

  /// Encodes a fringe/bucket for the wire (sorting it in place — the
  /// receiver merges a set) and records the compression outcome.
  [[nodiscard]] PayloadBuffer pack_fringe(std::vector<VertexId>& vertices);

  /// Decodes a fringe payload into the scratch vector and returns it.
  const std::vector<VertexId>& unpack_fringe(std::span<const std::byte> buffer);

  /// Algorithm 2 eager-send trigger: byte watermark when configured,
  /// legacy vertex-count threshold otherwise.
  [[nodiscard]] bool bucket_full(const std::vector<VertexId>& bucket) const {
    if (options_.chunk_watermark_bytes > 0) {
      return raw_vertex_wire_bytes(bucket.size()) >=
             options_.chunk_watermark_bytes;
    }
    return bucket.size() >= options_.pipeline_threshold;
  }

  /// Publishes the finished stats into this rank's registry (no-op when
  /// instrumentation is off).  Counter names are the MetricsSnapshot
  /// schema documented in DESIGN.md.
  void publish_stats() const;

  Communicator& comm_;
  GraphDB& db_;
  VertexId src_;
  VertexId dst_;
  const BfsOptions& options_;

  BfsStats stats_;
  bool found_ = false;
  std::vector<VertexId> next_fringe_;
  std::vector<std::vector<VertexId>> buckets_;  // per destination rank
  std::vector<VertexId> decode_scratch_;        // reused across unpacks
};

PayloadBuffer BfsRun::pack_fringe(std::vector<VertexId>& vertices) {
  const std::size_t raw_bytes = raw_vertex_wire_bytes(vertices.size());
  std::vector<std::byte> encoded = encode_vertex_set(vertices, options_.wire);
  comm_.record_payload_encoding(raw_bytes, encoded.size());
  if (options_.metrics != nullptr) {
    options_.metrics->histogram("codec.encode_bytes").record(encoded.size());
  }
  return PayloadBuffer(std::move(encoded));
}

const std::vector<VertexId>& BfsRun::unpack_fringe(
    std::span<const std::byte> buffer) {
  decode_vertex_set(buffer, decode_scratch_);
  if (options_.metrics != nullptr) {
    options_.metrics->histogram("codec.decode_bytes").record(buffer.size());
  }
  return decode_scratch_;
}

template <typename Discover>
void BfsRun::expand_fringe(const std::vector<VertexId>& fringe,
                           Discover&& discover) {
  stats_.vertices_expanded += fringe.size();
  db_.visit_adjacency(fringe, [&](VertexId, std::span<const VertexId> nbrs) {
    for (const VertexId u : nbrs) {
      ++stats_.edges_scanned;
      if (discover(u)) return false;
    }
    return true;
  });
}

bool BfsRun::discover_plain(VertexId u, Metadata next_level) {
  if (u == dst_) {
    found_ = true;
    return true;  // stop expanding; level-end collective spreads the news
  }
  if (db_.get_metadata(u) != kUnvisited) return false;
  db_.set_metadata(u, next_level);
  if (!options_.map_known) {
    next_fringe_.push_back(u);  // everyone tracks the full frontier
    ++stats_.discovered_owned;
  } else if (owner(u) == comm_.rank()) {
    next_fringe_.push_back(u);
    ++stats_.discovered_owned;
  } else {
    buckets_[owner(u)].push_back(u);
  }
  return false;
}

bool BfsRun::discover_pipelined(VertexId u, Metadata next_level) {
  if (u == dst_) {
    found_ = true;
    return true;
  }
  if (db_.get_metadata(u) != kUnvisited) return false;
  db_.set_metadata(u, next_level);
  if (!options_.map_known) {
    next_fringe_.push_back(u);
    ++stats_.discovered_owned;
    // The broadcast queue is bucket 0 in Algorithm 2's notation
    // ("N_0 will be the broadcast queue").
    buckets_[0].push_back(u);
    if (bucket_full(buckets_[0])) {
      comm_.broadcast(kChunkTag, pack_fringe(buckets_[0]));
      stats_.fringe_messages += comm_.size() - 1;
      buckets_[0].clear();
    }
  } else {
    const Rank q = owner(u);
    if (q == comm_.rank()) {
      next_fringe_.push_back(u);
      ++stats_.discovered_owned;
    } else {
      buckets_[q].push_back(u);
      if (bucket_full(buckets_[q])) {
        comm_.send(q, kChunkTag, pack_fringe(buckets_[q]));
        ++stats_.fringe_messages;
        buckets_[q].clear();
      }
    }
  }
  // Overlap: service incoming chunks while expansion continues.
  poll_chunks(next_level);
  return false;
}

void BfsRun::merge_candidate(VertexId u, Metadata next_level) {
  if (db_.get_metadata(u) != kUnvisited) return;
  db_.set_metadata(u, next_level);
  next_fringe_.push_back(u);
  // Received vertices are owned by this rank (directed sends) or tracked
  // by every rank (broadcast); either way they count here.
  ++stats_.discovered_owned;
}

void BfsRun::poll_chunks(Metadata next_level) {
  while (auto msg = comm_.try_recv(kChunkTag)) {
    for (const VertexId u : unpack_fringe(msg->payload)) {
      merge_candidate(u, next_level);
    }
  }
}

void BfsRun::publish_stats() const {
  MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  reg->counter("bfs.queries") += 1;
  reg->counter("bfs.levels") += stats_.levels;
  reg->counter("bfs.edges_scanned") += stats_.edges_scanned;
  reg->counter("bfs.vertices_expanded") += stats_.vertices_expanded;
  reg->counter("bfs.fringe_messages") += stats_.fringe_messages;
  reg->counter("bfs.discovered_owned") += stats_.discovered_owned;
  if (stats_.distance != kUnvisited) reg->counter("bfs.found") += 1;
}

BfsStats BfsRun::execute() {
  Timer timer;
  const int p = comm_.size();
  db_.clear_metadata(kUnvisited);
  buckets_.assign(p, {});

  if (src_ == dst_) {
    stats_.distance = 0;
    stats_.seconds = timer.seconds();
    comm_.barrier();
    publish_stats();
    return stats_;
  }

  db_.set_metadata(src_, 0);
  std::vector<VertexId> fringe;
  if (!options_.map_known || owner(src_) == comm_.rank()) {
    fringe.push_back(src_);
  }

  for (Metadata levcnt = 1; levcnt <= options_.max_levels; ++levcnt) {
    TraceSpan level_span;
    if (options_.metrics != nullptr) {
      level_span = options_.metrics->span("bfs.level");
    }
    next_fringe_.clear();
    for (auto& bucket : buckets_) bucket.clear();

    if (options_.prefetch) db_.prefetch(fringe);

    if (options_.pipelined) {
      expand_fringe(fringe,
                    [&](VertexId u) { return discover_pipelined(u, levcnt); });

      // Flush residual buckets, then terminate this level's chunk stream.
      if (!options_.map_known) {
        if (!buckets_[0].empty()) {
          comm_.broadcast(kChunkTag, pack_fringe(buckets_[0]));
          stats_.fringe_messages += p - 1;
        }
      } else {
        for (Rank q = 0; q < p; ++q) {
          if (q == comm_.rank() || buckets_[q].empty()) continue;
          comm_.send(q, kChunkTag, pack_fringe(buckets_[q]));
          ++stats_.fringe_messages;
        }
      }
      for (Rank q = 0; q < p; ++q) {
        if (q != comm_.rank()) comm_.send(q, kLevelEndTag, {});
      }
      // Drain chunks until every peer has ended its level.
      for (int ends = 0; ends < p - 1;) {
        const Message msg = comm_.recv();
        if (msg.tag == kLevelEndTag) {
          ++ends;
        } else {
          MSSG_CHECK(msg.tag == kChunkTag);
          for (const VertexId u : unpack_fringe(msg.payload)) {
            merge_candidate(u, levcnt);
          }
        }
      }
    } else {
      expand_fringe(fringe,
                    [&](VertexId u) { return discover_plain(u, levcnt); });

      // Overlap disk with communication (§4.2): level L+1's locally
      // discovered blocks start loading now, while level L's fringe
      // exchange drains.  With the async engine this submit returns
      // immediately; prefetch dedup makes the top-of-loop call for the
      // merged fringe skip anything already in flight.
      if (options_.prefetch) db_.prefetch(next_fringe_);

      // Bulk exchange: exactly one fringe message to every peer.
      if (!options_.map_known) {
        // next_fringe_ currently holds only the locally discovered part;
        // broadcast it (one shared payload, p-1 references) and merge
        // everyone else's.  pack_fringe sorts it in place — canonical
        // order for the wire and for next level's expansion alike.
        comm_.broadcast(kFringeTag, pack_fringe(next_fringe_));
        stats_.fringe_messages += p - 1;
      } else {
        for (Rank q = 0; q < p; ++q) {
          if (q == comm_.rank()) continue;
          comm_.send(q, kFringeTag, pack_fringe(buckets_[q]));
          ++stats_.fringe_messages;
        }
      }
      // Merge in rank order, not arrival order: arrival depends on
      // thread scheduling, and the resulting next_fringe_ order decides
      // how many edges the final level scans before the early stop —
      // rank order keeps every counter a pure function of the seed.
      for (Rank q = 0; q < p; ++q) {
        if (q == comm_.rank()) continue;
        const Message msg = comm_.recv(kFringeTag, q);
        const std::size_t merged_from = next_fringe_.size();
        // Directed sends: we own every received u.  Broadcast mode:
        // everyone merges everyone's discoveries.  Same merge either way.
        for (const VertexId u : unpack_fringe(msg.payload)) {
          merge_candidate(u, levcnt);
        }
        // Each peer's contribution reads ahead while the next peer's
        // message is still in transit.
        if (options_.prefetch && next_fringe_.size() > merged_from) {
          db_.prefetch(std::span<const VertexId>(next_fringe_)
                           .subspan(merged_from));
        }
      }
    }

    ++stats_.levels;

    // Level-synchronous termination: anyone found the target?
    if (comm_.allreduce_or(found_)) {
      stats_.distance = levcnt;
      break;
    }
    // Global frontier empty => unreachable.
    if (comm_.allreduce_sum(next_fringe_.size()) == 0) break;
    fringe.swap(next_fringe_);
  }

  comm_.barrier();
  stats_.seconds = timer.seconds();
  publish_stats();
  return stats_;
}

}  // namespace

BfsStats parallel_oocbfs(Communicator& comm, GraphDB& db, VertexId src,
                         VertexId dst, const BfsOptions& options) {
  BfsRun run(comm, db, src, dst, options);
  return run.execute();
}

KHopStats parallel_khop(Communicator& comm, GraphDB& db, VertexId src,
                        Metadata k, BfsOptions options) {
  MSSG_CHECK(k >= 0);
  Timer timer;
  options.max_levels = k;
  // kInvalidVertex is never a neighbor, so the search runs the full k
  // levels (or until the frontier empties).
  BfsRun run(comm, db, src, kInvalidVertex, options);
  const BfsStats stats = run.execute();

  KHopStats result;
  result.edges_scanned = stats.edges_scanned;
  if (options.map_known) {
    // Owned counts are disjoint across ranks.
    result.vertices_within = comm.allreduce_sum(stats.discovered_owned);
  } else {
    // Every rank tracked the full frontier; counts agree.
    result.vertices_within =
        comm.allreduce_max(stats.discovered_owned);
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace mssg
