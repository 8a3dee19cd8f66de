// VertexProgram engine and analytics suite tests (the `analytics` ctest
// label, run under both sanitizer presets by tools/ci_sanitize.sh):
//
//   - engine mechanics: budget exact-fit / truncation semantics and
//     metrics publication,
//   - vp-bfs differential equivalence against the legacy metadata-store
//     search and the in-memory reference, across node counts and wire
//     formats,
//   - CC label determinism: byte-identical snapshots across 1/2/4-node
//     runs (the label-tie nondeterminism fix),
//   - PageRank / k-core / triangles / SSSP against sequential
//     references (power iteration, peeling, brute force, Dijkstra),
//   - the full concurrent mix through QueryScheduler with per-query
//     sched.q<id>.* attribution, zero-budget admission rejection, and
//     failing-query accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <queue>
#include <set>
#include <unordered_map>
#include <vector>

#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "mssg/mssg.hpp"
#include "query/analytics.hpp"
#include "query/bfs.hpp"
#include "query/query_budget.hpp"
#include "runtime/comm.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using testing::make_db;

// ---- shared fixtures --------------------------------------------------------

/// Per-node GraphDB instances under hash-mod vertex declustering, both
/// edge orientations stored (the ingest default the analytics contract
/// assumes).
struct MiniCluster {
  MiniCluster(Backend backend, int nodes, std::span<const Edge> undirected) {
    for (int n = 0; n < nodes; ++n) {
      dirs.emplace_back();
      dbs.push_back(make_db(backend, dirs.back()));
    }
    std::vector<std::vector<Edge>> per_node(nodes);
    for (const auto& e : undirected) {
      for (const Edge directed : {e, Edge{e.dst, e.src}}) {
        per_node[directed.src % nodes].push_back(directed);
      }
    }
    for (int n = 0; n < nodes; ++n) {
      dbs[n]->store_edges(per_node[n]);
      dbs[n]->finalize_ingest();
    }
  }

  [[nodiscard]] int nodes() const { return static_cast<int>(dbs.size()); }

  std::vector<TempDir> dirs;
  std::vector<std::unique_ptr<GraphDB>> dbs;
};

std::vector<Edge> test_graph(VertexId vertices, std::uint64_t edges,
                             std::uint64_t seed) {
  return generate_chung_lu({.vertices = vertices, .edges = edges, .seed = seed});
}

/// Simple-graph projection: distinct neighbors, self-loops dropped — the
/// view k-core, triangles, and SSSP operate on.
std::vector<std::set<VertexId>> simple_projection(const MemoryGraph& g) {
  std::vector<std::set<VertexId>> adj(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    for (const VertexId u : g.neighbors(v)) {
      if (u != v) adj[v].insert(u);
    }
  }
  return adj;
}

// ---- sequential references --------------------------------------------------

std::unordered_map<VertexId, double> reference_pagerank(const MemoryGraph& g,
                                                        std::uint64_t iters,
                                                        double d) {
  std::vector<VertexId> stored;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.degree(v) != 0) stored.push_back(v);
  }
  const double inv_n = 1.0 / static_cast<double>(stored.size());
  std::unordered_map<VertexId, double> rank;
  for (const VertexId v : stored) rank[v] = inv_n;
  for (std::uint64_t i = 0; i < iters; ++i) {
    std::unordered_map<VertexId, double> next;
    for (const VertexId v : stored) next[v] = (1.0 - d) * inv_n;
    for (const VertexId u : stored) {
      const double share =
          rank[u] / static_cast<double>(g.degree(u));  // multigraph degree
      for (const VertexId w : g.neighbors(u)) next[w] += d * share;
    }
    rank = std::move(next);
  }
  return rank;
}

std::uint64_t reference_kcore(const MemoryGraph& g, std::uint32_t k) {
  const auto adj = simple_projection(g);
  std::vector<std::uint64_t> deg(g.vertex_count(), 0);
  std::vector<bool> alive(g.vertex_count(), false);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.degree(v) == 0) continue;  // not a stored vertex
    alive[v] = true;
    deg[v] = adj[v].size();
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      if (!alive[v] || deg[v] >= k) continue;
      alive[v] = false;
      changed = true;
      for (const VertexId u : adj[v]) {
        if (alive[u] && deg[u] > 0) --deg[u];
      }
    }
  }
  return static_cast<std::uint64_t>(
      std::count(alive.begin(), alive.end(), true));
}

std::uint64_t reference_triangles(const MemoryGraph& g) {
  const auto adj = simple_projection(g);
  std::uint64_t count = 0;
  for (VertexId x = 0; x < g.vertex_count(); ++x) {
    for (const VertexId y : adj[x]) {
      if (y <= x) continue;
      for (const VertexId z : adj[x]) {
        if (z <= y) continue;
        if (adj[y].contains(z)) ++count;
      }
    }
  }
  return count;
}

std::unordered_map<VertexId, std::uint64_t> reference_sssp(
    const MemoryGraph& g, VertexId src, std::uint32_t max_weight) {
  std::unordered_map<VertexId, std::uint64_t> dist;
  if (src >= g.vertex_count() || g.degree(src) == 0) return dist;
  using Entry = std::pair<std::uint64_t, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[src] = 0;
  heap.emplace(0, src);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist.at(v)) continue;
    for (const VertexId u : g.neighbors(v)) {
      if (u == v) continue;
      const std::uint64_t cand = d + sssp_edge_weight(v, u, max_weight);
      const auto it = dist.find(u);
      if (it == dist.end() || cand < it->second) {
        dist[u] = cand;
        heap.emplace(cand, u);
      }
    }
  }
  return dist;
}

std::uint64_t reference_components(const MemoryGraph& g) {
  std::vector<bool> seen(g.vertex_count(), false);
  std::uint64_t components = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (seen[v] || g.degree(v) == 0) continue;
    ++components;
    const auto levels = g.bfs_levels(v);
    for (VertexId u = 0; u < g.vertex_count(); ++u) {
      if (levels[u] != kUnvisited) seen[u] = true;
    }
  }
  return components;
}

// ---- engine mechanics -------------------------------------------------------

TEST(VertexProgramEngine, ExactFitBudgetDoesNotReportTruncation) {
  const auto edges = test_graph(200, 700, 31);
  MiniCluster cluster(Backend::kHashMap, 2, edges);
  const VertexId src = edges.front().src;
  const VertexId unreachable = 100000;  // full-component exploration

  // Unlimited pass: measure the tokens (adjacency entries) the full
  // traversal charges.
  std::uint64_t total_edges = 0;
  std::mutex mutex;
  run_cluster(cluster.nodes(), [&](Communicator& comm) {
    const auto stats =
        vertex_program_bfs(comm, *cluster.dbs[comm.rank()], src, unreachable);
    std::lock_guard lock(mutex);
    total_edges += stats.edges_scanned;
  });
  ASSERT_GT(total_edges, 1u);

  // A budget of EXACTLY the work remaining completes the traversal with
  // spent == limit and must not report truncation (the fixed edge case).
  QueryBudget exact(total_edges);
  run_cluster(cluster.nodes(), [&](Communicator& comm) {
    VertexProgramOptions options;
    options.budget = &exact;
    const auto stats = vertex_program_bfs(
        comm, *cluster.dbs[comm.rank()], src, unreachable, options);
    EXPECT_FALSE(stats.truncated);
    EXPECT_EQ(stats.distance, kUnvisited);
  });
  EXPECT_EQ(exact.spent(), total_edges);
  EXPECT_TRUE(exact.exhausted());  // spent == limit ...
  EXPECT_FALSE(exact.truncation_noted());  // ... yet nothing was cut short

  // One token cannot finish level 1: work remains, so THIS truncates.
  QueryBudget tiny(1);
  run_cluster(cluster.nodes(), [&](Communicator& comm) {
    VertexProgramOptions options;
    options.budget = &tiny;
    const auto stats = vertex_program_bfs(
        comm, *cluster.dbs[comm.rank()], src, unreachable, options);
    EXPECT_TRUE(stats.truncated);
  });
  EXPECT_TRUE(tiny.truncation_noted());
}

TEST(VertexProgramEngine, PublishesEngineMetrics) {
  const auto edges = test_graph(120, 400, 5);
  MiniCluster cluster(Backend::kHashMap, 2, edges);
  std::vector<MetricsRegistry> registries(2);
  run_cluster(cluster.nodes(), [&](Communicator& comm) {
    VertexProgramOptions options;
    options.metrics = &registries[comm.rank()];
    (void)parallel_label_cc(comm, *cluster.dbs[comm.rank()], options);
  });
  MetricsSnapshot snap;
  for (const auto& reg : registries) snap.merge(reg.snapshot());
  EXPECT_EQ(snap.counters.at("vp.runs"), 2u);  // one per rank
  EXPECT_GT(snap.counters.at("vp.supersteps"), 0u);
  EXPECT_GT(snap.counters.at("vp.edges_scanned"), 0u);
  EXPECT_GT(snap.counters.at("vp.messages_delivered"), 0u);
}

/// One-superstep kernel with a sum combiner.  Every vertex emits three
/// values to each neighbor and a 1 to `v % 7`, so targets repeat both
/// within and across scatters, and the send tables grow past their
/// initial size.  Counts its own emits and the distinct (owner bucket,
/// target) pairs they hit; the owner is a function of the target, so the
/// distinct targets suffice.
class SumFoldProgram final : public VertexProgram {
 public:
  explicit SumFoldProgram(bool combine) : combine_(combine) {}

  std::uint64_t init(VertexId /*v*/, bool& active) override {
    active = true;
    return 0;
  }

  [[nodiscard]] bool has_combiner() const override { return combine_; }
  [[nodiscard]] std::uint64_t combine(std::uint64_t a,
                                      std::uint64_t b) const override {
    return a + b;
  }

  void scatter(VertexId v, std::uint64_t& /*state*/,
               std::span<const VertexId> neighbors,
               MessageSink& sink) override {
    for (const VertexId u : neighbors) {
      send(sink, u, v + 1);
      send(sink, u, u * 31 + v);
      send(sink, u, 1);
    }
    send(sink, v % 7, 1);
  }

  bool apply(VertexId /*v*/, std::uint64_t& state,
             std::span<const std::uint64_t> messages,
             std::span<const VertexId> /*neighbors*/) override {
    for (const std::uint64_t m : messages) state += m;
    return false;
  }

  [[nodiscard]] bool keep_running(std::uint64_t superstep) const override {
    return superstep < 1;
  }

  std::uint64_t emits = 0;
  std::set<VertexId> targets;

 private:
  void send(MessageSink& sink, VertexId target, std::uint64_t value) {
    ++emits;
    targets.insert(target);
    sink.emit(target, value);
  }

  const bool combine_;
};

struct SumFoldRun {
  std::map<VertexId, std::uint64_t> states;
  std::uint64_t emits = 0;
  std::uint64_t distinct = 0;
  std::uint64_t combines = 0;  ///< the merged vp.combines counter
};

SumFoldRun run_sum_fold(const MiniCluster& cluster, bool combine) {
  SumFoldRun out;
  std::vector<MetricsRegistry> registries(cluster.nodes());
  std::mutex mutex;
  run_cluster(cluster.nodes(), [&](Communicator& comm) {
    VertexProgramOptions options;
    options.metrics = &registries[comm.rank()];
    VertexProgramEngine engine(comm, *cluster.dbs[comm.rank()], options);
    SumFoldProgram program(combine);
    (void)engine.run(program);
    std::lock_guard lock(mutex);
    engine.for_each_state([&](VertexId v, std::uint64_t state) {
      EXPECT_TRUE(out.states.emplace(v, state).second) << "vertex " << v;
    });
    out.emits += program.emits;
    out.distinct += program.targets.size();
  });
  MetricsSnapshot snap;
  for (const auto& reg : registries) snap.merge(reg.snapshot());
  out.combines = snap.counter("vp.combines");
  return out;
}

TEST(VertexProgramEngine, CombinerFoldsEqualTargetRuns) {
  // 4 ranks still see thousands of targets per bucket (table growth).
  const auto edges = test_graph(3000, 30000, 13);
  for (const int nodes : {1, 2, 4}) {
    SCOPED_TRACE(nodes);
    MiniCluster cluster(Backend::kHashMap, nodes, edges);
    const SumFoldRun reference = run_sum_fold(cluster, /*combine=*/false);
    const SumFoldRun combined = run_sum_fold(cluster, /*combine=*/true);
    EXPECT_EQ(reference.combines, 0u);
    // Every emit beyond the first per (bucket, target) folds once.
    ASSERT_GT(combined.emits, combined.distinct);
    EXPECT_EQ(combined.combines, combined.emits - combined.distinct);
    EXPECT_EQ(combined.states, reference.states);
  }
}

/// A dense sum-combiner kernel with one wide superstep and then sparse
/// ones.  Superstep 1 sends to every neighbor twice and to 12 of 16384
/// synthetic targets that no rank stores, so a send table holds more
/// targets than its initial 1024 slots, even on 4 ranks; later
/// supersteps send a few messages from one vertex in 97.  Counts emits
/// and distinct (bucket, target) pairs per superstep; a bucket holds one
/// owner's targets, so the distinct targets of a superstep suffice.
class WideThenSparseProgram final : public VertexProgram {
 public:
  static constexpr VertexId kSyntheticBase = 1'000'000;
  static constexpr VertexId kSyntheticTargets = 16384;

  explicit WideThenSparseProgram(bool combine) : combine_(combine) {}

  void begin(const VertexProgramInfo& info) override { ranks_ = info.ranks; }

  std::uint64_t init(VertexId /*v*/, bool& active) override {
    active = true;
    return 0;
  }

  [[nodiscard]] bool dense() const override { return true; }
  [[nodiscard]] bool has_combiner() const override { return combine_; }
  [[nodiscard]] std::uint64_t combine(std::uint64_t a,
                                      std::uint64_t b) const override {
    return a + b;
  }

  void scatter(VertexId v, std::uint64_t& /*state*/,
               std::span<const VertexId> neighbors,
               MessageSink& sink) override {
    if (step_ == 1) {
      for (const VertexId u : neighbors) {
        send(sink, u, v + 1);
        send(sink, u, 1);
      }
      for (VertexId j = 0; j < 12; ++j) {
        send(sink, kSyntheticBase + (v * 37 + j * 1009) % kSyntheticTargets,
             j + 1);
      }
      return;
    }
    if (v % 97 != step_) return;
    send(sink, v % 5, v);
    send(sink, v % 5, 1);
    if (!neighbors.empty()) send(sink, neighbors.front(), 2);
  }

  bool apply(VertexId /*v*/, std::uint64_t& state,
             std::span<const std::uint64_t> messages,
             std::span<const VertexId> /*neighbors*/) override {
    for (const std::uint64_t m : messages) state += m;
    return false;
  }

  void set_aggregate(std::uint64_t /*global_min*/) override {
    // Called once per superstep, after apply: close this superstep.
    distinct += step_targets_.size();
    for (int q = 0; q < ranks_; ++q) {
      const auto in_bucket = static_cast<std::uint64_t>(std::count_if(
          step_targets_.begin(), step_targets_.end(), [&](VertexId t) {
            return t % static_cast<VertexId>(ranks_) ==
                   static_cast<VertexId>(q);
          }));
      widest_bucket = std::max(widest_bucket, in_bucket);
    }
    step_targets_.clear();
    ++step_;
  }

  [[nodiscard]] bool keep_running(std::uint64_t superstep) const override {
    return superstep < 5;
  }

  std::uint64_t emits = 0;
  std::uint64_t distinct = 0;       ///< summed over closed supersteps
  std::uint64_t widest_bucket = 0;  ///< most targets in one bucket and step

 private:
  void send(MessageSink& sink, VertexId target, std::uint64_t value) {
    ++emits;
    step_targets_.insert(target);
    sink.emit(target, value);
  }

  const bool combine_;
  int ranks_ = 1;
  std::uint64_t step_ = 1;
  std::set<VertexId> step_targets_;
};

TEST(VertexProgramEngine, CombinerTableGrowsThenServesSparseSupersteps) {
  const auto edges = test_graph(2000, 9000, 23);
  for (const int nodes : {1, 2, 4}) {
    MiniCluster cluster(Backend::kHashMap, nodes, edges);
    // Stopping after 1, 2, ... supersteps checks the counter superstep by
    // superstep: each superstep's combines are its emits minus its
    // distinct (bucket, target) pairs.
    for (const std::uint64_t supersteps : {1u, 2u, 3u, 5u}) {
      SCOPED_TRACE(::testing::Message() << nodes << " nodes, " << supersteps
                                        << " supersteps");
      std::map<bool, std::map<VertexId, std::uint64_t>> states;
      std::uint64_t emits = 0;
      std::uint64_t distinct = 0;
      std::uint64_t widest_bucket = 0;
      std::uint64_t combines = 0;
      for (const bool combine : {false, true}) {
        std::vector<MetricsRegistry> registries(cluster.nodes());
        std::mutex mutex;
        run_cluster(cluster.nodes(), [&](Communicator& comm) {
          VertexProgramOptions options;
          options.metrics = &registries[comm.rank()];
          options.max_supersteps = supersteps;
          VertexProgramEngine engine(comm, *cluster.dbs[comm.rank()],
                                     options);
          WideThenSparseProgram program(combine);
          (void)engine.run(program);
          std::lock_guard lock(mutex);
          engine.for_each_state([&](VertexId v, std::uint64_t state) {
            EXPECT_TRUE(states[combine].emplace(v, state).second)
                << "vertex " << v;
          });
          if (!combine) return;
          emits += program.emits;
          distinct += program.distinct;
          widest_bucket = std::max(widest_bucket, program.widest_bucket);
        });
        MetricsSnapshot snap;
        for (const auto& reg : registries) snap.merge(reg.snapshot());
        if (combine) combines = snap.counter("vp.combines");
      }
      EXPECT_GT(widest_bucket, 1024u);  // the wide superstep grew a table
      ASSERT_GT(emits, distinct);
      EXPECT_EQ(combines, emits - distinct);
      EXPECT_EQ(states[true], states[false]);
    }
  }
}

// ---- vp-bfs equivalence -----------------------------------------------------

struct VpBfsCase {
  Backend backend;
  int nodes;
  WireFormat wire;
};

std::string vp_bfs_case_name(const ::testing::TestParamInfo<VpBfsCase>& info) {
  std::string name = to_string(info.param.backend);
  name.erase(std::remove_if(name.begin(), name.end(),
                            [](char c) { return !std::isalnum(c); }),
             name.end());
  name += '_';
  name += std::to_string(info.param.nodes);
  name += info.param.wire == WireFormat::kDelta ? "n_delta" : "n_raw";
  return name;
}

class VpBfsEquivalence : public ::testing::TestWithParam<VpBfsCase> {};

TEST_P(VpBfsEquivalence, MatchesLegacySearchAndReference) {
  const auto param = GetParam();
  const auto edges = test_graph(300, 1100, 12);
  const MemoryGraph reference(300, edges);
  const auto pairs = sample_random_pairs(reference, 5, 3);
  ASSERT_FALSE(pairs.empty());
  MiniCluster cluster(param.backend, param.nodes, edges);

  for (const auto& pair : pairs) {
    Metadata vp_distance = kUnvisited;
    Metadata legacy_distance = kUnvisited;
    std::mutex mutex;
    run_cluster(cluster.nodes(), [&](Communicator& comm) {
      GraphDB& db = *cluster.dbs[comm.rank()];
      VertexProgramOptions options;
      options.wire = param.wire;
      const auto vp = vertex_program_bfs(comm, db, pair.src, pair.dst, options);
      const auto legacy = parallel_oocbfs(comm, db, pair.src, pair.dst);
      std::lock_guard lock(mutex);
      vp_distance = vp.distance;          // globally consistent
      legacy_distance = legacy.distance;  // globally consistent
    });
    EXPECT_EQ(vp_distance, pair.distance) << "src=" << pair.src;
    EXPECT_EQ(vp_distance, legacy_distance)
        << "vp-bfs diverged from the legacy search, src=" << pair.src;
  }

  // Unreachable destination: both report kUnvisited.
  Metadata unreachable = 0;
  std::mutex mutex;
  run_cluster(cluster.nodes(), [&](Communicator& comm) {
    const auto vp = vertex_program_bfs(comm, *cluster.dbs[comm.rank()],
                                       pairs[0].src, 99999);
    std::lock_guard lock(mutex);
    unreachable = vp.distance;
  });
  EXPECT_EQ(unreachable, kUnvisited);
}

INSTANTIATE_TEST_SUITE_P(
    NodesAndWires, VpBfsEquivalence,
    ::testing::Values(
        VpBfsCase{Backend::kHashMap, 1, WireFormat::kDelta},
        VpBfsCase{Backend::kHashMap, 2, WireFormat::kRaw},
        VpBfsCase{Backend::kHashMap, 2, WireFormat::kDelta},
        VpBfsCase{Backend::kHashMap, 4, WireFormat::kDelta},
        VpBfsCase{Backend::kGrDB, 2, WireFormat::kDelta},
        VpBfsCase{Backend::kStream, 2, WireFormat::kDelta}),
    vp_bfs_case_name);

// ---- CC determinism (the label-tie fix) ------------------------------------

/// Runs label-propagation CC on `nodes` nodes and returns the converged
/// (vertex, label) pairs over the whole cluster, in vertex order.
std::vector<std::pair<VertexId, VertexId>> cc_labels(
    std::span<const Edge> edges, int nodes, CcStats* stats_out) {
  MiniCluster cluster(Backend::kHashMap, nodes, edges);
  std::vector<std::pair<VertexId, VertexId>> labels;
  std::mutex mutex;
  run_cluster(nodes, [&](Communicator& comm) {
    std::vector<std::pair<VertexId, VertexId>> local;
    const CcStats stats =
        parallel_label_cc(comm, *cluster.dbs[comm.rank()], {}, &local);
    std::lock_guard lock(mutex);
    labels.insert(labels.end(), local.begin(), local.end());
    if (comm.rank() == 0 && stats_out != nullptr) *stats_out = stats;
  });
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// The snapshot the determinism contract speaks about: the label table
/// serialized to bytes, fixed-width little-endian-as-stored.
std::vector<unsigned char> cc_label_snapshot(std::span<const Edge> edges,
                                             int nodes, CcStats* stats_out) {
  const auto labels = cc_labels(edges, nodes, stats_out);
  std::vector<unsigned char> bytes;
  bytes.reserve(labels.size() * 2 * sizeof(VertexId));
  for (const auto& [vertex, label] : labels) {
    for (const VertexId value : {vertex, label}) {
      const auto* raw = reinterpret_cast<const unsigned char*>(&value);
      bytes.insert(bytes.end(), raw, raw + sizeof(value));
    }
  }
  return bytes;
}

TEST(CcDeterminism, LabelSnapshotsByteIdenticalAcrossNodeCounts) {
  // Sparse and fragmented: many components, many label ties for the
  // min-label race the fix removes.
  const auto edges = test_graph(500, 600, 77);
  const MemoryGraph reference(500, edges);

  CcStats one_stats;
  const auto one = cc_label_snapshot(edges, 1, &one_stats);
  const auto two = cc_label_snapshot(edges, 2, nullptr);
  const auto four = cc_label_snapshot(edges, 4, nullptr);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, two) << "1-node and 2-node label snapshots differ";
  EXPECT_EQ(one, four) << "1-node and 4-node label snapshots differ";

  // Repeat runs are byte-identical too (no arrival-order dependence).
  EXPECT_EQ(two, cc_label_snapshot(edges, 2, nullptr));

  // And the labels are the right ones: every vertex carries the minimum
  // vertex id of its component.
  const auto labels = cc_labels(edges, 1, nullptr);
  std::unordered_map<VertexId, VertexId> min_of_component;
  for (VertexId v = 0; v < reference.vertex_count(); ++v) {
    if (reference.degree(v) == 0) continue;
    const auto levels = reference.bfs_levels(v);
    VertexId min_id = v;
    for (VertexId u = 0; u < reference.vertex_count(); ++u) {
      if (levels[u] != kUnvisited) min_id = std::min(min_id, u);
    }
    min_of_component[v] = min_id;
  }
  for (const auto& [v, label] : labels) {
    EXPECT_EQ(label, min_of_component.at(v)) << "vertex " << v;
  }
  EXPECT_EQ(one_stats.components, reference_components(reference));
}

// ---- analytics vs sequential references ------------------------------------

TEST(AnalyticsReference, PageRankMatchesPowerIterationAndIsPartitionStable) {
  const auto edges = test_graph(250, 900, 41);
  const MemoryGraph reference(250, edges);
  const auto expected = reference_pagerank(reference, 8, 0.85);

  auto run = [&](int nodes) {
    MiniCluster cluster(Backend::kHashMap, nodes, edges);
    std::vector<std::pair<VertexId, double>> ranks;
    PageRankStats stats;
    std::mutex mutex;
    run_cluster(nodes, [&](Communicator& comm) {
      PageRankOptions options;
      options.iterations = 8;
      std::vector<std::pair<VertexId, double>> local;
      const auto s =
          parallel_pagerank(comm, *cluster.dbs[comm.rank()], options, &local);
      std::lock_guard lock(mutex);
      ranks.insert(ranks.end(), local.begin(), local.end());
      if (comm.rank() == 0) stats = s;
    });
    std::sort(ranks.begin(), ranks.end());
    return std::make_pair(ranks, stats);
  };

  const auto [one_ranks, one_stats] = run(1);
  ASSERT_EQ(one_ranks.size(), expected.size());
  for (const auto& [v, rank] : one_ranks) {
    EXPECT_NEAR(rank, expected.at(v), 1e-12) << "vertex " << v;
  }
  EXPECT_EQ(one_stats.vertices, expected.size());
  EXPECT_EQ(one_stats.supersteps, 8u);
  EXPECT_NEAR(one_stats.rank_sum, 1.0, 1e-6);  // no dangling mass here

  // Cross-partition determinism: the kernel sums fixed-point rank mass,
  // and integer sums are exact whichever rank combines them, so 3-node
  // ranks are BIT-identical to the 1-node run, not merely close.
  const auto [three_ranks, three_stats] = run(3);
  ASSERT_EQ(three_ranks.size(), one_ranks.size());
  for (std::size_t i = 0; i < one_ranks.size(); ++i) {
    EXPECT_EQ(one_ranks[i].first, three_ranks[i].first);
    EXPECT_EQ(one_ranks[i].second, three_ranks[i].second)
        << "rank of vertex " << one_ranks[i].first
        << " differs bit-for-bit across partitionings";
  }
  EXPECT_EQ(one_stats.top_vertex, three_stats.top_vertex);
  EXPECT_EQ(one_stats.top_rank, three_stats.top_rank);
}

TEST(AnalyticsReference, PageRankCombinesExactlyAroundAHubAndASink) {
  // Directed graph: a random undirected core on 0..2199, hub 0 linked
  // both ways to every other core vertex (in-degree over 2000), and
  // kSink, which every 50th core vertex links to.  kSink has in-edges
  // but no out-edges: it is dangling, and since a vertex is stored only
  // where it has out-edges, no rank stores it.
  constexpr VertexId kCore = 2200;
  constexpr VertexId kSink = 2300;
  std::vector<Edge> directed;
  for (const Edge& e : test_graph(kCore, 5000, 71)) {
    directed.push_back(e);
    directed.push_back(Edge{e.dst, e.src});
  }
  for (VertexId v = 1; v < kCore; ++v) {
    directed.push_back(Edge{v, 0});
    directed.push_back(Edge{0, v});
    if (v % 50 == 3) directed.push_back(Edge{v, kSink});
  }
  const MemoryGraph reference(kSink + 1, directed, /*symmetrize=*/false);
  ASSERT_GE(std::count_if(directed.begin(), directed.end(),
                          [](const Edge& e) { return e.dst == 0; }),
            2000);
  const auto expected = reference_pagerank(reference, 8, 0.85);
  ASSERT_TRUE(expected.contains(kSink));

  struct Run {
    std::vector<std::pair<VertexId, double>> ranks;
    PageRankStats stats;
    std::uint64_t combines = 0;
  };
  auto run = [&](int nodes) {
    std::vector<TempDir> dirs(nodes);
    std::vector<std::unique_ptr<GraphDB>> dbs;
    std::vector<std::vector<Edge>> per_node(nodes);
    for (const Edge& e : directed) per_node[e.src % nodes].push_back(e);
    for (int n = 0; n < nodes; ++n) {
      dbs.push_back(make_db(Backend::kHashMap, dirs[n]));
      dbs.back()->store_edges(per_node[n]);
      dbs.back()->finalize_ingest();
    }
    Run out;
    std::vector<MetricsRegistry> registries(nodes);
    std::mutex mutex;
    run_cluster(nodes, [&](Communicator& comm) {
      PageRankOptions options;
      options.iterations = 8;
      options.engine.metrics = &registries[comm.rank()];
      std::vector<std::pair<VertexId, double>> local;
      const auto s =
          parallel_pagerank(comm, *dbs[comm.rank()], options, &local);
      std::lock_guard lock(mutex);
      out.ranks.insert(out.ranks.end(), local.begin(), local.end());
      if (comm.rank() == 0) out.stats = s;
    });
    std::sort(out.ranks.begin(), out.ranks.end());
    MetricsSnapshot snap;
    for (const auto& reg : registries) snap.merge(reg.snapshot());
    out.combines = snap.counter("vp.combines");
    return out;
  };

  const Run one = run(1);
  ASSERT_EQ(one.ranks.size(), expected.size());
  double sum = 0;
  for (const auto& [v, rank] : one.ranks) {
    EXPECT_NEAR(rank, expected.at(v), 1e-12) << "vertex " << v;
    sum += rank;
  }
  EXPECT_EQ(one.stats.vertices, expected.size() - 1);  // kSink is unstored
  EXPECT_EQ(one.stats.top_vertex, 0u);
  EXPECT_LE(one.stats.rank_sum, 1.0);
  EXPECT_LT(one.stats.rank_sum, 1.0 - 1e-6);  // kSink's mass is lost
  EXPECT_NEAR(one.stats.rank_sum, sum, 1e-12);
  EXPECT_GT(one.combines, 0u);

  for (const int nodes : {2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << nodes << " nodes");
    const Run other = run(nodes);
    EXPECT_GT(other.combines, 0u);
    ASSERT_EQ(other.ranks.size(), one.ranks.size());
    for (std::size_t i = 0; i < one.ranks.size(); ++i) {
      EXPECT_EQ(other.ranks[i].first, one.ranks[i].first);
      EXPECT_EQ(other.ranks[i].second, one.ranks[i].second)
          << "rank of vertex " << one.ranks[i].first
          << " differs bit-for-bit across partitionings";
    }
    EXPECT_EQ(other.stats.top_vertex, one.stats.top_vertex);
    EXPECT_EQ(other.stats.top_rank, one.stats.top_rank);
    EXPECT_EQ(other.stats.rank_sum, one.stats.rank_sum);
  }
}

TEST(AnalyticsReference, KCoreMatchesIterativePeeling) {
  const auto edges = test_graph(300, 1300, 97);
  const MemoryGraph reference(300, edges);
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    MiniCluster cluster(Backend::kHashMap, 2, edges);
    KCoreStats stats;
    std::mutex mutex;
    run_cluster(2, [&](Communicator& comm) {
      KCoreOptions options;
      options.k = k;
      const auto s = parallel_kcore(comm, *cluster.dbs[comm.rank()], options);
      std::lock_guard lock(mutex);
      if (comm.rank() == 0) stats = s;
    });
    EXPECT_EQ(stats.core_vertices, reference_kcore(reference, k)) << "k=" << k;
  }
}

TEST(AnalyticsReference, TrianglesMatchBruteForce) {
  const auto edges = test_graph(200, 900, 53);
  const MemoryGraph reference(200, edges);
  const std::uint64_t expected = reference_triangles(reference);
  for (const int nodes : {1, 3}) {
    MiniCluster cluster(Backend::kHashMap, nodes, edges);
    TriangleStats stats;
    std::mutex mutex;
    run_cluster(nodes, [&](Communicator& comm) {
      const auto s =
          parallel_triangle_count(comm, *cluster.dbs[comm.rank()]);
      std::lock_guard lock(mutex);
      if (comm.rank() == 0) stats = s;
    });
    EXPECT_EQ(stats.triangles, expected) << nodes << " nodes";
  }
}

TEST(AnalyticsReference, SsspMatchesDijkstra) {
  const auto edges = test_graph(280, 1000, 67);
  const MemoryGraph reference(280, edges);
  const VertexId src = edges.front().src;
  const auto expected = reference_sssp(reference, src, 15);
  ASSERT_GT(expected.size(), 1u);

  MiniCluster cluster(Backend::kHashMap, 2, edges);
  std::vector<std::pair<VertexId, std::uint64_t>> distances;
  SsspStats stats;
  std::mutex mutex;
  run_cluster(2, [&](Communicator& comm) {
    SsspOptions options;
    options.source = src;
    std::vector<std::pair<VertexId, std::uint64_t>> local;
    const auto s =
        parallel_sssp(comm, *cluster.dbs[comm.rank()], options, &local);
    std::lock_guard lock(mutex);
    distances.insert(distances.end(), local.begin(), local.end());
    if (comm.rank() == 0) stats = s;
  });
  std::sort(distances.begin(), distances.end());
  ASSERT_EQ(distances.size(), expected.size());
  for (const auto& [v, d] : distances) {
    EXPECT_EQ(d, expected.at(v)) << "vertex " << v;
  }
  EXPECT_EQ(stats.reached, expected.size());

  // Point query: the target's weighted distance, delta-stepping halting
  // once the target's bucket settles.
  const VertexId target = std::max_element(expected.begin(), expected.end(),
                                           [](const auto& a, const auto& b) {
                                             return a.second < b.second;
                                           })
                              ->first;
  SsspStats point;
  run_cluster(2, [&](Communicator& comm) {
    SsspOptions options;
    options.source = src;
    options.target = target;
    const auto s = parallel_sssp(comm, *cluster.dbs[comm.rank()], options);
    std::lock_guard lock(mutex);
    if (comm.rank() == 0) point = s;
  });
  EXPECT_EQ(point.distance, expected.at(target));
}

// ---- the concurrent mix through the scheduler ------------------------------

class AnalyticsScheduler : public ::testing::TestWithParam<int> {};

TEST_P(AnalyticsScheduler, FiveAnalysesRunConcurrently) {
  const int nodes = GetParam();
  const auto edges = test_graph(300, 1200, 11);
  const MemoryGraph reference(300, edges);
  const auto pairs = sample_random_pairs(reference, 2, 29);
  ASSERT_FALSE(pairs.empty());
  const VertexId src = pairs.front().src;
  const auto sssp_expected = reference_sssp(reference, src, 15);

  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = nodes;
  config.scheduler.max_inflight = 6;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  // All six kernels in flight at once over one cluster.
  std::map<std::string, QueryScheduler::Ticket> tickets;
  tickets["pagerank"] = cluster.submit_analysis("pagerank", {6});
  tickets["lp-cc"] = cluster.submit_analysis("lp-cc", {});
  tickets["kcore"] = cluster.submit_analysis("kcore", {3});
  tickets["triangles"] = cluster.submit_analysis("triangles", {});
  tickets["sssp"] = cluster.submit_analysis("sssp", {src});
  tickets["vp-bfs"] = cluster.submit_analysis(
      "vp-bfs", {pairs.front().src, pairs.front().dst});

  std::map<std::string, QueryOutcome> outcomes;
  for (auto& [name, ticket] : tickets) {
    outcomes[name] = cluster.await_query(ticket);
    ASSERT_TRUE(outcomes[name].ok()) << name << ": " << outcomes[name].error;
  }

  const auto& pagerank = outcomes["pagerank"].result;
  EXPECT_EQ(static_cast<std::uint64_t>(pagerank.at(1)), 6u);  // supersteps
  EXPECT_NEAR(pagerank.at(5), 1.0, 1e-6);                     // rank sum
  const auto ranks = reference_pagerank(reference, 6, 0.85);
  EXPECT_EQ(static_cast<std::uint64_t>(pagerank.at(0)), ranks.size());
  const auto top = std::max_element(ranks.begin(), ranks.end(),
                                    [](const auto& a, const auto& b) {
                                      return a.second < b.second;
                                    });
  EXPECT_EQ(static_cast<VertexId>(pagerank.at(3)), top->first);
  EXPECT_NEAR(pagerank.at(4), top->second, 1e-12);

  EXPECT_EQ(static_cast<std::uint64_t>(outcomes["lp-cc"].result.at(0)),
            reference_components(reference));
  EXPECT_EQ(static_cast<std::uint64_t>(outcomes["kcore"].result.at(0)),
            reference_kcore(reference, 3));
  EXPECT_EQ(static_cast<std::uint64_t>(outcomes["triangles"].result.at(0)),
            reference_triangles(reference));
  EXPECT_EQ(static_cast<std::uint64_t>(outcomes["sssp"].result.at(1)),
            sssp_expected.size());
  EXPECT_EQ(static_cast<Metadata>(outcomes["vp-bfs"].result.at(0)),
            pairs.front().distance);

  // Per-query attribution: every submitted query owns a sched.q<id>.*
  // row in the scheduler aggregate, and the totals balance.
  const auto snap = cluster.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("sched.queries"), tickets.size());
  EXPECT_FALSE(snap.counters.contains("sched.failed"));
  for (const auto& [name, ticket] : tickets) {
    const std::string prefix = "sched.q" + std::to_string(ticket.id());
    EXPECT_TRUE(snap.counters.contains(prefix + ".tokens_spent"))
        << name << " lost its attribution row";
  }
  EXPECT_GT(snap.counters.at("vp.runs"), 0u);  // engine metrics merged
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, AnalyticsScheduler,
                         ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& param) {
                           return std::to_string(param.param) + "n";
                         });

TEST(AnalyticsScheduler, ZeroBudgetFailsAdmissionCleanly) {
  const auto edges = test_graph(100, 300, 9);
  ClusterConfig config;
  config.backend = Backend::kHashMap;
  config.backend_nodes = 2;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  // An explicit zero budget cannot run even one superstep: the query
  // must fail admission, not run-then-truncate.
  const QueryOutcome out =
      cluster.await_query(cluster.submit_analysis("pagerank", {4}, 0));
  EXPECT_FALSE(out.ok());
  EXPECT_NE(out.error.find("zero token budget"), std::string::npos)
      << out.error;
  EXPECT_FALSE(out.truncated);
  EXPECT_EQ(out.result.size(), 0u);

  // ... but it is still accounted: the aggregates balance and its
  // attribution row exists (with zero tokens spent).
  auto snap = cluster.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("sched.queries"), 1u);
  EXPECT_EQ(snap.counters.at("sched.rejected"), 1u);
  EXPECT_EQ(snap.counters.at("sched.failed"), 1u);
  EXPECT_EQ(snap.counters.at("sched.q1.tokens_spent"), 0u);

  // The scheduler is not wedged: the same analysis with a real budget
  // runs to completion, and a per-query override below the work needed
  // truncates instead of rejecting.
  const QueryOutcome ok_out =
      cluster.await_query(cluster.submit_analysis("pagerank", {4}));
  EXPECT_TRUE(ok_out.ok()) << ok_out.error;
  EXPECT_FALSE(ok_out.truncated);

  const QueryOutcome tiny =
      cluster.await_query(cluster.submit_analysis("pagerank", {4}, 1));
  EXPECT_TRUE(tiny.ok()) << tiny.error;
  EXPECT_TRUE(tiny.truncated);

  snap = cluster.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("sched.queries"), 3u);
  EXPECT_EQ(snap.counters.at("sched.rejected"), 1u);
  EXPECT_EQ(snap.counters.at("sched.truncated"), 1u);
}

// A two-rank query's attributed hits and misses are exactly the pins its
// rank threads made: each thread counts privately and adds its totals to
// the shared attribution once, when its scope closes.
TEST(AnalyticsScheduler, AttributionEqualsPinsOfTwoRankQuery) {
  const auto edges = test_graph(300, 1200, 21);
  ClusterConfig config;
  config.backend = Backend::kGrDB;
  config.backend_nodes = 2;
  config.db.cache_bytes = 32 << 10;  // small: hits and misses both occur
  MssgCluster cluster(config);
  cluster.ingest(edges);

  const std::uint64_t pins_before = cluster.total_io().cache_pins;
  const QueryOutcome out =
      cluster.await_query(cluster.submit_analysis("lp-cc", {}));
  ASSERT_TRUE(out.ok()) << out.error;
  const std::uint64_t pins = cluster.total_io().cache_pins - pins_before;
  EXPECT_GT(out.cache_hits, 0u);
  EXPECT_GT(out.cache_misses, 0u);
  EXPECT_EQ(out.cache_hits + out.cache_misses, pins);
}

TEST(AnalyticsScheduler, FailingQueryStillMergesItsAccounting) {
  const auto edges = test_graph(100, 300, 9);
  ClusterConfig config;
  // A disk backend: cache attribution is part of what must be released.
  config.backend = Backend::kGrDB;
  config.backend_nodes = 2;
  MssgCluster cluster(config);
  cluster.ingest(edges);

  // sssp requires a source parameter: the job throws on every rank
  // mid-run, after admission.
  const QueryOutcome failed =
      cluster.await_query(cluster.submit_analysis("sssp", {}));
  EXPECT_FALSE(failed.ok());

  // The failure is fully accounted — sched.* aggregates balance and the
  // per-query row exists — and the admission slot plus the cache
  // attribution scope were released, so the next query runs normally.
  const auto snap = cluster.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("sched.queries"), 1u);
  EXPECT_EQ(snap.counters.at("sched.failed"), 1u);
  EXPECT_TRUE(snap.counters.contains("sched.q1.tokens_spent"));

  const QueryOutcome ok_out =
      cluster.await_query(cluster.submit_analysis("lp-cc", {}));
  EXPECT_TRUE(ok_out.ok()) << ok_out.error;
  EXPECT_GT(ok_out.cache_hits + ok_out.cache_misses, 0u)
      << "attribution scope from the failed query leaked";
  EXPECT_EQ(cluster.metrics_snapshot().counters.at("sched.queries"), 2u);
}

}  // namespace
}  // namespace mssg
