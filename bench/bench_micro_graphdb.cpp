// Single-node GraphDB comparison — the per-backend storage-engine cost
// with no cluster-simulation noise (message passing and thread
// scheduling compress the gaps in the fig5_* benches when the simulated
// nodes share one CPU).  This isolates what Figure 5.4 is really about:
// the cost of one adjacency-list retrieval per backend, warm and cold.
//
// Expected shape (matches the paper): Array < HashMap < grDB <
// BerkeleyDB < MySQL for random adjacency reads; StreamDB unusable for
// point lookups; grDB ingests fastest among the disk stores, StreamDB
// fastest overall.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/temp_dir.hpp"
#include "common/timer.hpp"

namespace {

using namespace mssg;

struct SingleNode {
  TempDir dir;
  std::unique_ptr<GraphDB> db;
};

/// One warm instance per backend (and snapshot setting), shared across
/// benchmark repetitions.
SingleNode& node_for(Backend backend, const bench::Workload& w,
                     bool snapshots = false) {
  static std::map<std::string, std::unique_ptr<SingleNode>> cache;
  auto& slot = cache[to_string(backend) + (snapshots ? "/snapshots" : "")];
  if (!slot) {
    auto node = std::make_unique<SingleNode>();
    GraphDBConfig config;
    config.dir = node->dir.path();
    config.cache_bytes = 8 * w.directed_bytes();  // warm regime
    config.snapshots = snapshots;
    node->db = make_graphdb(backend, config);
    std::vector<Edge> directed;
    directed.reserve(w.edges.size() * 2);
    for (const auto& e : w.edges) {
      directed.push_back(e);
      directed.push_back(Edge{e.dst, e.src});
    }
    constexpr std::size_t kBatch = 64 * 1024;
    for (std::size_t i = 0; i < directed.size(); i += kBatch) {
      const auto n = std::min(kBatch, directed.size() - i);
      node->db->store_edges(std::span(directed).subspan(i, n));
    }
    node->db->finalize_ingest();
    // Commit the load as an epoch a pin can see: HashMap's
    // finalize_ingest leaves it uncommitted.
    if (snapshots) node->db->flush();
    slot = std::move(node);
  }
  return *slot;
}

void adjacency_reads(benchmark::State& state, Backend backend,
                     const bench::Workload& w) {
  auto& node = node_for(backend, w);
  Rng rng(41);
  std::vector<VertexId> out;
  std::uint64_t entries = 0;
  for (auto _ : state) {
    out.clear();
    node.db->get_adjacency(rng.below(w.spec.vertices), out);
    entries += out.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["entries_per_read"] =
      static_cast<double>(entries) / static_cast<double>(state.iterations());
}

/// adjacency_reads under a pinned snapshot: what each read pays to
/// resolve the epoch (version shelf, then the live bytes under the
/// version lock) on top of the plain warm read.
void snapshot_adjacency_reads(benchmark::State& state, Backend backend,
                              const bench::Workload& w) {
  auto& node = node_for(backend, w, /*snapshots=*/true);
  SnapshotScope scope(node.db->begin_snapshot());
  Rng rng(41);
  std::vector<VertexId> out;
  std::uint64_t entries = 0;
  const std::uint64_t reads_before = node.db->io_stats().txn_snapshot_reads;
  for (auto _ : state) {
    out.clear();
    node.db->get_adjacency(rng.below(w.spec.vertices), out);
    entries += out.size();
  }
  const auto iterations = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
  state.counters["entries_per_read"] =
      static_cast<double>(entries) / iterations;
  state.counters["snapshot_reads_per_read"] =
      static_cast<double>(node.db->io_stats().txn_snapshot_reads -
                          reads_before) /
      iterations;
}

void full_ingest(benchmark::State& state, Backend backend,
                 const bench::Workload& w) {
  std::vector<Edge> directed;
  directed.reserve(w.edges.size() * 2);
  for (const auto& e : w.edges) {
    directed.push_back(e);
    directed.push_back(Edge{e.dst, e.src});
  }
  for (auto _ : state) {
    TempDir dir;
    GraphDBConfig config;
    config.dir = dir.path();
    config.cache_bytes = 8 * w.directed_bytes();
    auto db = make_graphdb(backend, config);
    constexpr std::size_t kBatch = 64 * 1024;
    for (std::size_t i = 0; i < directed.size(); i += kBatch) {
      const auto n = std::min(kBatch, directed.size() - i);
      db->store_edges(std::span(directed).subspan(i, n));
    }
    db->finalize_ingest();
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(directed.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = mssg::bench::scale_from_env(0.25);
  const auto& w = mssg::bench::workload(mssg::pubmed_s(scale));

  // StreamDB excluded from reads: one scan per lookup is its documented
  // behaviour, not a comparable number.
  for (const auto backend :
       {Backend::kArray, Backend::kHashMap, Backend::kGrDB,
        Backend::kKVStore, Backend::kRelational}) {
    benchmark::RegisterBenchmark(
        (std::string("MicroGraphDB/read/") + bench::short_name(backend))
            .c_str(),
        [&w, backend](benchmark::State& state) {
          adjacency_reads(state, backend, w);
        });
  }
  for (const auto backend :
       {Backend::kArray, Backend::kHashMap, Backend::kGrDB,
        Backend::kKVStore, Backend::kRelational}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_SnapshotAdjacency/") + bench::short_name(backend))
            .c_str(),
        [&w, backend](benchmark::State& state) {
          snapshot_adjacency_reads(state, backend, w);
        });
  }
  for (const auto backend :
       {Backend::kArray, Backend::kHashMap, Backend::kStream,
        Backend::kGrDB, Backend::kKVStore, Backend::kRelational}) {
    benchmark::RegisterBenchmark(
        (std::string("MicroGraphDB/ingest/") + bench::short_name(backend))
            .c_str(),
        [&w, backend](benchmark::State& state) {
          full_ingest(state, backend, w);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
