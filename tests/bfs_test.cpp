// Parallel out-of-core BFS correctness: every (algorithm, granularity,
// backend, node count) combination must agree with the sequential
// in-memory reference on random scale-free graphs.
#include <gtest/gtest.h>

#include <mutex>

#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "gen/pairs.hpp"
#include "query/bfs.hpp"
#include "runtime/comm.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using testing::make_db;

/// Builds per-node GraphDB instances partitioned by owner = v mod p
/// (vertex granularity) or by edge round-robin (edge granularity).
struct MiniCluster {
  MiniCluster(Backend backend, int nodes, std::span<const Edge> undirected,
              bool vertex_granularity) {
    for (int n = 0; n < nodes; ++n) {
      dirs.emplace_back();
      dbs.push_back(make_db(backend, dirs.back()));
    }
    std::vector<std::vector<Edge>> per_node(nodes);
    std::uint64_t rr = 0;
    for (const auto& e : undirected) {
      for (const Edge directed : {e, Edge{e.dst, e.src}}) {
        const auto target = vertex_granularity
                                ? directed.src % nodes
                                : rr++ % nodes;
        per_node[target].push_back(directed);
      }
    }
    for (int n = 0; n < nodes; ++n) {
      dbs[n]->store_edges(per_node[n]);
      dbs[n]->finalize_ingest();
    }
  }

  BfsStats run(VertexId src, VertexId dst, const BfsOptions& options) {
    BfsStats result;
    std::mutex mutex;
    run_cluster(static_cast<int>(dbs.size()), [&](Communicator& comm) {
      const auto stats =
          parallel_oocbfs(comm, *dbs[comm.rank()], src, dst, options);
      std::lock_guard lock(mutex);
      result.distance = stats.distance;
      result.edges_scanned += stats.edges_scanned;
      result.vertices_expanded += stats.vertices_expanded;
      result.levels = std::max(result.levels, stats.levels);
    });
    return result;
  }

  std::vector<TempDir> dirs;
  std::vector<std::unique_ptr<GraphDB>> dbs;
};

struct BfsCase {
  Backend backend;
  int nodes;
  bool pipelined;
  bool map_known;
};

std::string case_name(const ::testing::TestParamInfo<BfsCase>& info) {
  std::string name = to_string(info.param.backend);
  name.erase(std::remove_if(name.begin(), name.end(),
                            [](char c) { return !std::isalnum(c); }),
             name.end());
  name += "_" + std::to_string(info.param.nodes) + "n";
  name += info.param.pipelined ? "_pipe" : "_plain";
  name += info.param.map_known ? "_mapped" : "_bcast";
  return name;
}

class ParallelBfs : public ::testing::TestWithParam<BfsCase> {};

TEST_P(ParallelBfs, MatchesSequentialReferenceOnRandomGraph) {
  const auto param = GetParam();
  ChungLuConfig config{.vertices = 300, .edges = 1200, .seed = 55};
  const auto edges = generate_chung_lu(config);
  const MemoryGraph reference(config.vertices, edges);

  // Vertex granularity only when the map is globally known; otherwise
  // edge granularity, the case Algorithm 1 broadcasts for.
  MiniCluster cluster(param.backend, param.nodes, edges, param.map_known);

  BfsOptions options;
  options.pipelined = param.pipelined;
  options.map_known = param.map_known;
  options.pipeline_threshold = 8;  // small so chunking actually triggers

  const auto pairs = sample_random_pairs(reference, 10, 77);
  ASSERT_FALSE(pairs.empty());
  for (const auto& pair : pairs) {
    const auto stats = cluster.run(pair.src, pair.dst, options);
    EXPECT_EQ(stats.distance, pair.distance)
        << pair.src << "->" << pair.dst;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ParallelBfs,
    ::testing::Values(
        // Every backend at 4 nodes, plain + mapped.
        BfsCase{Backend::kArray, 4, false, true},
        BfsCase{Backend::kHashMap, 4, false, true},
        BfsCase{Backend::kRelational, 4, false, true},
        BfsCase{Backend::kKVStore, 4, false, true},
        BfsCase{Backend::kStream, 4, false, true},
        BfsCase{Backend::kGrDB, 4, false, true},
        // Pipelined variant on representative backends.
        BfsCase{Backend::kHashMap, 4, true, true},
        BfsCase{Backend::kGrDB, 4, true, true},
        BfsCase{Backend::kStream, 4, true, true},
        // Broadcast (edge granularity / unknown map) variants.
        BfsCase{Backend::kHashMap, 4, false, false},
        BfsCase{Backend::kGrDB, 4, false, false},
        BfsCase{Backend::kHashMap, 4, true, false},
        // Node-count sweep.
        BfsCase{Backend::kGrDB, 1, false, true},
        BfsCase{Backend::kGrDB, 2, false, true},
        BfsCase{Backend::kGrDB, 8, false, true},
        BfsCase{Backend::kHashMap, 16, false, true}),
    case_name);

// Every backend expands a fringe in fringe order, StreamDB included, so
// its Algorithm 1 counters (edges scanned before the early stop) match a
// backend holding the same per-vertex adjacency order: StreamDB keeps log
// order and HashMap insertion order.
TEST(ParallelBfsEdgeCases, StreamDbStatsMatchSameOrderBackend) {
  ChungLuConfig config{.vertices = 300, .edges = 1200, .seed = 55};
  const auto edges = generate_chung_lu(config);
  const MemoryGraph reference(config.vertices, edges);
  const auto pairs = sample_random_pairs(reference, 10, 77);
  ASSERT_FALSE(pairs.empty());
  for (const bool map_known : {true, false}) {
    MiniCluster stream(Backend::kStream, 4, edges, map_known);
    MiniCluster hashmap(Backend::kHashMap, 4, edges, map_known);
    BfsOptions options;
    options.map_known = map_known;
    for (const auto& pair : pairs) {
      const BfsStats a = stream.run(pair.src, pair.dst, options);
      const BfsStats b = hashmap.run(pair.src, pair.dst, options);
      EXPECT_EQ(a.distance, pair.distance);
      EXPECT_EQ(a.distance, b.distance);
      EXPECT_EQ(a.levels, b.levels);
      EXPECT_EQ(a.vertices_expanded, b.vertices_expanded);
      EXPECT_EQ(a.edges_scanned, b.edges_scanned)
          << pair.src << "->" << pair.dst << (map_known ? " mapped" : " bcast");
    }
  }
}

TEST(ParallelBfsEdgeCases, SourceEqualsDestination) {
  const std::vector<Edge> edges{{0, 1}};
  MiniCluster cluster(Backend::kHashMap, 2, edges, true);
  EXPECT_EQ(cluster.run(0, 0, {}).distance, 0);
}

TEST(ParallelBfsEdgeCases, DirectNeighborIsDistanceOne) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}};
  MiniCluster cluster(Backend::kHashMap, 3, edges, true);
  EXPECT_EQ(cluster.run(0, 1, {}).distance, 1);
  EXPECT_EQ(cluster.run(0, 2, {}).distance, 2);
}

TEST(ParallelBfsEdgeCases, UnreachableReturnsUnvisited) {
  const std::vector<Edge> edges{{0, 1}, {2, 3}};
  MiniCluster cluster(Backend::kHashMap, 2, edges, true);
  EXPECT_EQ(cluster.run(0, 3, {}).distance, kUnvisited);
}

TEST(ParallelBfsEdgeCases, UnknownVerticesAreUnreachable) {
  const std::vector<Edge> edges{{0, 1}};
  MiniCluster cluster(Backend::kHashMap, 2, edges, true);
  EXPECT_EQ(cluster.run(0, 99, {}).distance, kUnvisited);
}

TEST(ParallelBfsEdgeCases, RepeatedQueriesOnSameCluster) {
  // Metadata must reset between queries.
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  MiniCluster cluster(Backend::kGrDB, 2, edges, true);
  EXPECT_EQ(cluster.run(0, 4, {}).distance, 4);
  EXPECT_EQ(cluster.run(4, 0, {}).distance, 4);
  EXPECT_EQ(cluster.run(0, 4, {}).distance, 4);
  EXPECT_EQ(cluster.run(1, 3, {}).distance, 2);
}

TEST(ParallelBfsEdgeCases, EdgesScannedGrowsWithPathLength) {
  ChungLuConfig config{.vertices = 500, .edges = 2500, .seed = 91};
  const auto edges = generate_chung_lu(config);
  const MemoryGraph reference(config.vertices, edges);
  MiniCluster cluster(Backend::kHashMap, 4, edges, true);
  const auto pairs = sample_stratified_pairs(reference, 4, 2, 5);
  std::uint64_t short_scans = 0, long_scans = 0;
  for (const auto& pair : pairs) {
    const auto stats = cluster.run(pair.src, pair.dst, {});
    if (pair.distance <= 2) {
      short_scans += stats.edges_scanned;
    } else {
      long_scans += stats.edges_scanned;
    }
  }
  // Long-path searches touch far more of the graph (the small-world
  // property the thesis leans on).
  EXPECT_GT(long_scans, short_scans);
}

TEST(ParallelBfsEdgeCases, ExternalMetadataMatchesInMemory) {
  // The Fig 5.8 configuration: external-memory visited structure.
  ChungLuConfig config{.vertices = 200, .edges = 900, .seed = 13};
  const auto edges = generate_chung_lu(config);
  const MemoryGraph reference(config.vertices, edges);

  std::vector<TempDir> dirs;
  std::vector<std::unique_ptr<GraphDB>> dbs;
  constexpr int kNodes = 3;
  for (int n = 0; n < kNodes; ++n) {
    dirs.emplace_back();
    GraphDBConfig db_config;
    db_config.external_metadata = true;
    db_config.max_vertices = config.vertices;
    dbs.push_back(testing::make_db(Backend::kGrDB, dirs.back(), db_config));
  }
  std::vector<std::vector<Edge>> per_node(kNodes);
  for (const auto& e : edges) {
    per_node[e.src % kNodes].push_back(e);
    per_node[e.dst % kNodes].push_back(Edge{e.dst, e.src});
  }
  for (int n = 0; n < kNodes; ++n) dbs[n]->store_edges(per_node[n]);

  const auto pairs = sample_random_pairs(reference, 5, 3);
  for (const auto& pair : pairs) {
    Metadata distance = -1;
    std::mutex mutex;
    run_cluster(kNodes, [&](Communicator& comm) {
      const auto stats =
          parallel_oocbfs(comm, *dbs[comm.rank()], pair.src, pair.dst, {});
      std::lock_guard lock(mutex);
      distance = stats.distance;
    });
    EXPECT_EQ(distance, pair.distance);
  }
}

}  // namespace
}  // namespace mssg
