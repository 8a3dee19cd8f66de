// Contract tests run against every GraphDB backend: the six instances of
// chapter 4 must be observationally equivalent for storage + retrieval.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/error.hpp"
#include "gen/generators.hpp"
#include "gen/memory_graph.hpp"
#include "graphdb/grdb/grdb.hpp"
#include "storage/fault_injector.hpp"
#include "test_util.hpp"

namespace mssg {
namespace {

using testing::make_db;
using testing::sorted;
using testing::tiny_graph_directed;

class GraphDBContract : public ::testing::TestWithParam<Backend> {
 protected:
  GraphDBContract() : db_(make_db(GetParam(), dir_)) {}

  TempDir dir_;
  std::unique_ptr<GraphDB> db_;
};

TEST_P(GraphDBContract, EmptyDatabaseReturnsNoNeighbors) {
  std::vector<VertexId> out;
  db_->get_adjacency(42, out);
  EXPECT_TRUE(out.empty());
}

TEST_P(GraphDBContract, StoreAndRetrieveTinyGraph) {
  const auto edges = tiny_graph_directed();
  db_->store_edges(edges);
  db_->finalize_ingest();

  std::vector<VertexId> out;
  db_->get_adjacency(0, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{1, 3}));

  out.clear();
  db_->get_adjacency(1, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{0, 2, 4}));

  out.clear();
  db_->get_adjacency(5, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{6}));

  out.clear();
  db_->get_adjacency(7, out);  // never stored
  EXPECT_TRUE(out.empty());
}

TEST_P(GraphDBContract, IncrementalStoreAccumulates) {
  // The Array backend converts to CSR at finalize; all others must accept
  // incremental batches naturally.
  db_->store_edges(std::vector<Edge>{{1, 2}, {1, 3}});
  db_->store_edges(std::vector<Edge>{{1, 4}});
  db_->store_edges(std::vector<Edge>{{1, 5}, {2, 1}});
  db_->finalize_ingest();
  std::vector<VertexId> out;
  db_->get_adjacency(1, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{2, 3, 4, 5}));
}

TEST_P(GraphDBContract, DuplicateEdgesAreKept) {
  db_->store_edges(std::vector<Edge>{{1, 2}, {1, 2}, {1, 2}});
  db_->finalize_ingest();
  std::vector<VertexId> out;
  db_->get_adjacency(1, out);
  EXPECT_EQ(out.size(), 3u);
}

TEST_P(GraphDBContract, MetadataDefaultsToUnvisited) {
  EXPECT_EQ(db_->get_metadata(123), kUnvisited);
}

TEST_P(GraphDBContract, MetadataSetGetClear) {
  db_->set_metadata(7, 3);
  db_->set_metadata(9, 0);
  EXPECT_EQ(db_->get_metadata(7), 3);
  EXPECT_EQ(db_->get_metadata(9), 0);
  db_->clear_metadata(kUnvisited);
  EXPECT_EQ(db_->get_metadata(7), kUnvisited);
  db_->clear_metadata(-5);
  EXPECT_EQ(db_->get_metadata(7), -5);
}

TEST_P(GraphDBContract, AdjacencyFilteredByMetadataOps) {
  db_->store_edges(std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  db_->finalize_ingest();
  db_->set_metadata(1, 5);
  db_->set_metadata(2, 10);
  db_->set_metadata(3, 10);
  // vertex 4 stays kUnvisited (INT_MAX)

  std::vector<VertexId> out;
  db_->get_adjacency_using_metadata(0, out, 10, MetadataOp::kAll);
  EXPECT_EQ(out.size(), 4u);

  out.clear();
  db_->get_adjacency_using_metadata(0, out, 10, MetadataOp::kEqual);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{2, 3}));

  out.clear();
  db_->get_adjacency_using_metadata(0, out, 10, MetadataOp::kNotEqual);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{1, 4}));

  out.clear();
  db_->get_adjacency_using_metadata(0, out, 10, MetadataOp::kGreater);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{4}));

  out.clear();
  db_->get_adjacency_using_metadata(0, out, 10, MetadataOp::kLess);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{1}));
}

TEST_P(GraphDBContract, UnvisitedFilterSupportsBfsPattern) {
  // The BFS idiom: neighbors whose metadata == kUnvisited.
  db_->store_edges(std::vector<Edge>{{0, 1}, {0, 2}});
  db_->finalize_ingest();
  db_->set_metadata(1, 0);
  std::vector<VertexId> out;
  db_->get_adjacency_using_metadata(0, out, kUnvisited, MetadataOp::kEqual);
  EXPECT_EQ(out, (std::vector<VertexId>{2}));
}

// Property test: a random scale-free graph reads back identically to the
// in-memory reference on every backend.
TEST_P(GraphDBContract, RandomGraphMatchesReference) {
  ChungLuConfig config{.vertices = 400, .edges = 3000, .seed = 17};
  auto edges = generate_chung_lu(config);
  // Symmetrize as the ingestion service would.
  std::vector<Edge> directed;
  directed.reserve(edges.size() * 2);
  for (const auto& e : edges) {
    directed.push_back(e);
    directed.push_back(Edge{e.dst, e.src});
  }

  // Feed in several batches to exercise incremental growth.
  const std::size_t batch = 500;
  for (std::size_t i = 0; i < directed.size(); i += batch) {
    const auto n = std::min(batch, directed.size() - i);
    db_->store_edges(std::span(directed).subspan(i, n));
  }
  db_->finalize_ingest();

  const MemoryGraph reference(config.vertices, edges);
  std::vector<VertexId> out;
  for (VertexId v = 0; v < config.vertices; ++v) {
    out.clear();
    db_->get_adjacency(v, out);
    const auto expected = reference.neighbors(v);
    ASSERT_EQ(sorted(out),
              sorted(std::vector<VertexId>(expected.begin(), expected.end())))
        << "vertex " << v << " on " << db_->name();
  }
}

TEST_P(GraphDBContract, HighDegreeHubRoundTrips) {
  // A single vertex with 40k neighbors: crosses every grDB level and
  // many KVStore/Relational chunks.
  std::vector<Edge> edges;
  for (VertexId i = 1; i <= 40'000; ++i) edges.push_back({0, i});
  db_->store_edges(edges);
  db_->finalize_ingest();
  std::vector<VertexId> out;
  db_->get_adjacency(0, out);
  ASSERT_EQ(out.size(), 40'000u);
  auto s = sorted(out);
  for (VertexId i = 1; i <= 40'000; ++i) ASSERT_EQ(s[i - 1], i);
}

// visit_adjacency answers a frontier with exactly get_adjacency's lists,
// in frontier order: on live state, under a pinned snapshot that commits
// have moved past, with an early stop, and for ids beyond the extent.
TEST_P(GraphDBContract, VisitAdjacencyMatchesGetAdjacency) {
  using Lists = std::vector<std::pair<VertexId, std::vector<VertexId>>>;
  const auto visit = [](GraphDB& db, std::span<const VertexId> frontier,
                        std::size_t stop_after = ~std::size_t{0}) {
    Lists got;
    db.visit_adjacency(frontier, [&](VertexId v, std::span<const VertexId> n) {
      got.emplace_back(v, std::vector<VertexId>(n.begin(), n.end()));
      return got.size() < stop_after;
    });
    return got;
  };
  const auto lookup = [](GraphDB& db, std::span<const VertexId> frontier) {
    Lists want;
    for (const VertexId v : frontier) {
      want.emplace_back(v, std::vector<VertexId>{});
      db.get_adjacency(v, want.back().second);
    }
    return want;
  };
  // A skewed graph whose chains cross several grDB levels, split over two
  // commits; the frontier spans more than one grDB window and ends past
  // the extent.
  constexpr VertexId kVertices = 700;
  ChungLuConfig config{.vertices = kVertices, .edges = 6000, .seed = 29};
  const auto edges = generate_chung_lu(config);
  const auto half = static_cast<std::ptrdiff_t>(edges.size() / 2);
  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < kVertices; v += 2) frontier.push_back(v);
  for (VertexId v = 1; v < kVertices; v += 3) frontier.push_back(v);
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());
  frontier.push_back(kVertices + 5);
  frontier.push_back(900'000);

  TempDir dir;
  GraphDBConfig snapshots;
  snapshots.snapshots = true;
  auto db = make_db(GetParam(), dir, snapshots);
  db->store_edges(std::span(edges.begin(), edges.begin() + half));
  db->flush();
  const SnapshotRef pin = db->begin_snapshot();
  Lists pinned;
  {
    SnapshotScope scope(pin);
    pinned = lookup(*db, frontier);
  }
  // Array's CSR is immutable after finalize; its staging phase takes the
  // later commit instead.
  db->store_edges(std::span(edges.begin() + half, edges.end()));
  if (GetParam() == Backend::kArray) {
    db->flush();
  } else {
    db->finalize_ingest();
  }

  const Lists live = lookup(*db, frontier);
  ASSERT_EQ(visit(*db, frontier), live) << "live state";
  std::size_t stored = 0;
  for (const auto& [v, list] : live) stored += list.empty() ? 0 : 1;
  ASSERT_GT(stored, frontier.size() / 2);
  EXPECT_TRUE(live[live.size() - 2].second.empty()) << "beyond the extent";
  EXPECT_TRUE(live.back().second.empty()) << "beyond the extent";

  // Any order is served, in that order.
  std::vector<VertexId> reversed(frontier.rbegin(), frontier.rend());
  EXPECT_EQ(visit(*db, reversed), lookup(*db, reversed)) << "reversed";

  // Early stop: exactly the visits before the stop, then nothing.
  const Lists stopped = visit(*db, frontier, 300);
  ASSERT_EQ(stopped.size(), 300u);
  EXPECT_TRUE(std::equal(stopped.begin(), stopped.end(), live.begin()));

  // The pinned epoch, with a commit after the pin.
  SnapshotScope scope(pin);
  EXPECT_EQ(lookup(*db, frontier), pinned) << "snapshot drifted";
  EXPECT_EQ(visit(*db, frontier), pinned) << "pinned snapshot";
  EXPECT_NE(pinned, live);
}

// A bulk load that ends in finalize_ingest() is committed on every
// backend: a snapshot pinned right after it sees the whole load.
TEST_P(GraphDBContract, SnapshotAfterFinalizeIngestSeesWholeLoad) {
  TempDir dir;
  GraphDBConfig snapshots;
  snapshots.snapshots = true;
  auto db = make_db(GetParam(), dir, snapshots);
  ChungLuConfig config{.vertices = 200, .edges = 1000, .seed = 31};
  const auto edges = generate_chung_lu(config);
  db->store_edges(edges);
  db->finalize_ingest();

  std::vector<std::vector<VertexId>> live(config.vertices);
  for (VertexId v = 0; v < config.vertices; ++v) db->get_adjacency(v, live[v]);
  SnapshotScope scope(db->begin_snapshot());
  std::uint64_t entries = 0;
  for (VertexId v = 0; v < config.vertices; ++v) {
    std::vector<VertexId> out;
    db->get_adjacency(v, out);
    ASSERT_EQ(out, live[v]) << "vertex " << v << " on " << db->name();
    entries += out.size();
  }
  EXPECT_EQ(entries, edges.size());
}

TEST_P(GraphDBContract, NameIsStable) {
  EXPECT_EQ(db_->name(), to_string(GetParam()));
}

// Every backend — in-memory or disk-backed — must publish its IoStats
// into the shared "io.*" counters of a MetricsSnapshot, and the values
// must match io_stats() exactly.
TEST_P(GraphDBContract, PublishesIoCountersIntoSharedRegistry) {
  db_->store_edges(tiny_graph_directed());
  db_->finalize_ingest();
  std::vector<VertexId> out;
  db_->get_adjacency(0, out);
  db_->get_adjacency(1, out);

  MetricsSnapshot snap;
  db_->publish_metrics(snap);

  const IoStats io = db_->io_stats();
  EXPECT_EQ(snap.counter("io.reads"), io.reads);
  EXPECT_EQ(snap.counter("io.writes"), io.writes);
  EXPECT_EQ(snap.counter("io.bytes_read"), io.bytes_read);
  EXPECT_EQ(snap.counter("io.bytes_written"), io.bytes_written);
  EXPECT_EQ(snap.counter("io.cache_hits"), io.cache_hits);
  EXPECT_EQ(snap.counter("io.cache_misses"), io.cache_misses);
  // The schema keys exist even when a backend's values are zero, so
  // downstream consumers can rely on the full set being present.
  EXPECT_TRUE(snap.counters.contains("io.reads"));
  EXPECT_TRUE(snap.counters.contains("io.syncs"));
  EXPECT_TRUE(snap.counters.contains("io.cache_evictions"));
  EXPECT_TRUE(snap.counters.contains("io.cache_pin_leaks"));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, GraphDBContract,
    ::testing::Values(Backend::kArray, Backend::kHashMap, Backend::kRelational,
                      Backend::kKVStore, Backend::kStream, Backend::kGrDB),
    [](const ::testing::TestParamInfo<Backend>& param_info) {
      switch (param_info.param) {
        case Backend::kArray: return std::string("Array");
        case Backend::kHashMap: return std::string("HashMap");
        case Backend::kRelational: return std::string("Relational");
        case Backend::kKVStore: return std::string("KVStore");
        case Backend::kStream: return std::string("StreamDB");
        case Backend::kGrDB: return std::string("GrDB");
      }
      return std::string("unknown");
    });

// Disk-backed backends must survive reopen (Array/HashMap are in-memory).
class GraphDBPersistence : public ::testing::TestWithParam<Backend> {};

TEST_P(GraphDBPersistence, DataSurvivesReopen) {
  TempDir dir;
  {
    auto db = make_db(GetParam(), dir);
    db->store_edges(std::vector<Edge>{{1, 2}, {1, 3}, {4, 5}});
    db->finalize_ingest();
    db->flush();
  }
  auto db = make_db(GetParam(), dir);
  std::vector<VertexId> out;
  db->get_adjacency(1, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{2, 3}));
  out.clear();
  db->get_adjacency(4, out);
  EXPECT_EQ(out, (std::vector<VertexId>{5}));
}

// Reopen-after-crash clause: committed (flushed) data must survive a
// process that dies mid-way through a LATER batch — the reopen must not
// error and must serve the committed state unchanged.  (The exhaustive
// every-kill-point version of this lives in crash_recovery_test.cpp.)
TEST_P(GraphDBPersistence, CommittedDataSurvivesCrashedSecondBatch) {
  TempDir dir;
  {
    auto db = make_db(GetParam(), dir);
    db->store_edges(std::vector<Edge>{{1, 2}, {1, 3}, {4, 5}});
    db->finalize_ingest();
    db->flush();
  }
  // Kill the storage layer a few mutations into the second batch and
  // leave it dead (sticky) until the "process" goes away.
  FaultInjector::instance().clear();
  FaultInjector::Rule rule;
  rule.path_substring = dir.path().string();
  rule.op = FaultInjector::Op::kMutate;
  rule.kind = FaultInjector::Kind::kFail;
  rule.nth = 3;
  rule.kill = true;
  FaultInjector::instance().add_rule(rule);
  try {
    auto db = make_db(GetParam(), dir);
    std::vector<Edge> batch;
    for (VertexId v = 100; v < 400; ++v) batch.push_back({v, v + 1});
    db->store_edges(batch);
    db->flush();
  } catch (const StorageError&) {
    // Most kill points surface here; the rest die silently in dtors.
  }
  FaultInjector::instance().clear();

  auto db = make_db(GetParam(), dir);  // reopen must not throw
  std::vector<VertexId> out;
  db->get_adjacency(1, out);
  EXPECT_EQ(sorted(out), (std::vector<VertexId>{2, 3}));
  out.clear();
  db->get_adjacency(4, out);
  EXPECT_EQ(out, (std::vector<VertexId>{5}));
}

INSTANTIATE_TEST_SUITE_P(DiskBackends, GraphDBPersistence,
                         ::testing::Values(Backend::kRelational,
                                           Backend::kKVStore, Backend::kStream,
                                           Backend::kGrDB),
                         [](const ::testing::TestParamInfo<Backend>& param_info) {
                           return to_string(param_info.param).substr(
                               0, to_string(param_info.param).find('('));
                         });

// Cache-disabled configurations must behave identically (Figure 5.2).
class GraphDBNoCache : public ::testing::TestWithParam<Backend> {};

TEST_P(GraphDBNoCache, NoCacheMatchesCached) {
  TempDir dir_cached, dir_raw;
  GraphDBConfig no_cache;
  no_cache.cache_enabled = false;
  auto cached = make_db(GetParam(), dir_cached);
  auto raw = make_db(GetParam(), dir_raw, no_cache);

  ChungLuConfig config{.vertices = 200, .edges = 1000, .seed = 23};
  const auto edges = generate_chung_lu(config);
  cached->store_edges(edges);
  raw->store_edges(edges);
  cached->finalize_ingest();
  raw->finalize_ingest();

  std::vector<VertexId> a, b;
  for (VertexId v = 0; v < 200; ++v) {
    a.clear();
    b.clear();
    cached->get_adjacency(v, a);
    raw->get_adjacency(v, b);
    ASSERT_EQ(sorted(a), sorted(b)) << v;
  }
  // And the raw instance really did more disk I/O.
  EXPECT_GT(raw->io_stats().reads + raw->io_stats().writes,
            cached->io_stats().reads + cached->io_stats().writes);
}

INSTANTIATE_TEST_SUITE_P(CachedBackends, GraphDBNoCache,
                         ::testing::Values(Backend::kKVStore, Backend::kGrDB,
                                           Backend::kRelational),
                         [](const ::testing::TestParamInfo<Backend>& param_info) {
                           return to_string(param_info.param).substr(
                               0, to_string(param_info.param).find('('));
                         });

// StreamDB answers a whole frontier in one log scan, in request order
// (duplicates and unknown ids included), each list in log order.
TEST(StreamDBBatch, VisitMatchesPerVertexLookups) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  auto db = make_graphdb(Backend::kStream, config);

  db->store_edges(
      std::vector<Edge>{{1, 2}, {1, 3}, {2, 4}, {3, 4}, {5, 1}, {2, 5}});
  db->finalize_ingest();

  const std::vector<VertexId> fringe{2, 1, 99, 2};
  std::vector<std::pair<VertexId, std::vector<VertexId>>> seen;
  const std::uint64_t reads_before = db->io_stats().reads;
  db->visit_adjacency(fringe, [&](VertexId v, std::span<const VertexId> n) {
    seen.emplace_back(v, std::vector<VertexId>(n.begin(), n.end()));
    return true;
  });
  EXPECT_EQ(db->io_stats().reads - reads_before, 1u) << "one log scan";
  const std::vector<std::pair<VertexId, std::vector<VertexId>>> want{
      {2, {4, 5}}, {1, {2, 3}}, {99, {}}, {2, {4, 5}}};
  EXPECT_EQ(seen, want);
}

// grDB pins each distinct (round, level, block) of a window exactly once,
// and the count is a function of the input alone.
TEST(GrDBVisit, WindowPinsEachBlockOnce) {
  TempDir dir;
  GraphDBConfig config;
  config.dir = dir.path();
  auto base = make_graphdb(Backend::kGrDB, config);
  auto* db = dynamic_cast<GrDB*>(base.get());
  ASSERT_NE(db, nullptr);
  ChungLuConfig gen{.vertices = 2000, .edges = 30000, .seed = 37};
  db->store_edges(generate_chung_lu(gen));
  db->finalize_ingest();

  std::vector<VertexId> window(GrDB::kVisitWindow);
  for (VertexId v = 0; v < window.size(); ++v) window[v] = 3 * v;
  const grdb::Geometry geometry = grdb::Geometry::standard();
  std::set<std::tuple<std::size_t, int, std::uint64_t>> blocks;
  std::uint64_t subblocks = 0;
  for (const VertexId v : window) {
    const auto chain = db->chain_of(v);
    subblocks += chain.size();
    for (std::size_t hop = 0; hop < chain.size(); ++hop) {
      const auto [level, subblock] = chain[hop];
      blocks.emplace(hop, level,
                     subblock / geometry.levels[level].subblocks_per_block());
    }
  }
  ASSERT_LT(blocks.size() * 4, subblocks) << "chains too short to group";

  const auto pins = [&] {
    const std::uint64_t before = db->io_stats().cache_pins;
    db->visit_adjacency(window,
                        [](VertexId, std::span<const VertexId>) { return true; });
    return db->io_stats().cache_pins - before;
  };
  EXPECT_EQ(pins(), blocks.size());
  EXPECT_EQ(pins(), blocks.size());
}

}  // namespace
}  // namespace mssg
