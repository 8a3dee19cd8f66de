#include "query/query_service.hpp"

#include <algorithm>

#include "common/serial.hpp"
#include "query/analytics.hpp"
#include "query/bidirectional_bfs.hpp"
#include "query/connected_components.hpp"
#include "query/graph_stats_analysis.hpp"
#include "query/ms_bfs.hpp"

namespace mssg {

namespace {

/// The scheduler context's budget and rank-private registry, threaded
/// into a VertexProgram engine run.
VertexProgramOptions vp_options(QueryContext& ctx) {
  VertexProgramOptions options;
  options.metrics = ctx.metrics;
  options.budget = ctx.budget;
  return options;
}
std::vector<double> bfs_analysis(Communicator& comm, GraphDB& db,
                                 const std::vector<std::uint64_t>& params,
                                 bool pipelined) {
  MSSG_CHECK(params.size() >= 2);
  BfsOptions options;
  options.pipelined = pipelined;
  if (params.size() >= 3) options.map_known = params[2] != 0;
  const BfsStats stats =
      parallel_oocbfs(comm, db, params[0], params[1], options);
  return {static_cast<double>(stats.distance),
          static_cast<double>(stats.edges_scanned),
          static_cast<double>(stats.vertices_expanded), stats.seconds};
}

// params: {dest, src0, src1, ...} -> {distance x n, discovered x n,
// levels, edges_scanned, adjacency_fetches, shared_scans_saved,
// truncated, seconds}.  Counts are global (allreduced); dest may be
// kInvalidVertex for pure multi-source exploration.
std::vector<double> msbfs_analysis(Communicator& comm, GraphDB& db,
                                   const std::vector<std::uint64_t>& params,
                                   QueryContext& ctx) {
  MSSG_CHECK(params.size() >= 2);
  const VertexId dst = params[0];
  const std::vector<VertexId> sources(params.begin() + 1, params.end());
  MsBfsOptions options;
  options.metrics = ctx.metrics;
  options.budget = ctx.budget;
  const MsBfsStats stats = parallel_msbfs(comm, db, sources, dst, options);
  std::vector<double> out;
  out.reserve(2 * sources.size() + 6);
  for (const Metadata d : stats.distance) out.push_back(d);
  for (const std::uint64_t c : stats.discovered) {
    out.push_back(static_cast<double>(c));
  }
  out.push_back(static_cast<double>(stats.levels));
  out.push_back(static_cast<double>(comm.allreduce_sum(stats.edges_scanned)));
  out.push_back(
      static_cast<double>(comm.allreduce_sum(stats.adjacency_fetches)));
  out.push_back(
      static_cast<double>(comm.allreduce_sum(stats.shared_scans_saved)));
  out.push_back(stats.truncated ? 1.0 : 0.0);
  out.push_back(stats.seconds);
  return out;
}
}  // namespace

QueryService::QueryService() {
  register_analysis("bfs", [](Communicator& comm, GraphDB& db,
                              const std::vector<std::uint64_t>& params) {
    return bfs_analysis(comm, db, params, /*pipelined=*/false);
  });
  register_analysis("pipelined-bfs",
                    [](Communicator& comm, GraphDB& db,
                       const std::vector<std::uint64_t>& params) {
                      return bfs_analysis(comm, db, params, /*pipelined=*/true);
                    });
  // params: {source, k [, map_known]} -> {vertices_within, edges_scanned,
  // seconds}
  register_analysis("khop", [](Communicator& comm, GraphDB& db,
                               const std::vector<std::uint64_t>& params) {
    MSSG_CHECK(params.size() >= 2);
    BfsOptions options;
    if (params.size() >= 3) options.map_known = params[2] != 0;
    const KHopStats stats = parallel_khop(
        comm, db, params[0], static_cast<Metadata>(params[1]), options);
    return std::vector<double>{static_cast<double>(stats.vertices_within),
                               static_cast<double>(stats.edges_scanned),
                               stats.seconds};
  });
  // params: {source, dest} -> same layout as "bfs"
  register_analysis("bidir-bfs", [](Communicator& comm, GraphDB& db,
                                    const std::vector<std::uint64_t>& params) {
    MSSG_CHECK(params.size() >= 2);
    const BfsStats stats =
        bidirectional_oocbfs(comm, db, params[0], params[1]);
    return std::vector<double>{static_cast<double>(stats.distance),
                               static_cast<double>(stats.edges_scanned),
                               static_cast<double>(stats.vertices_expanded),
                               stats.seconds};
  });
  // params: none -> {vertices, directed_edges, min_deg, max_deg, avg_deg}
  register_analysis("stats", [](Communicator& comm, GraphDB& db,
                                const std::vector<std::uint64_t>&) {
    const DistributedGraphStats stats = parallel_graph_stats(comm, db);
    return std::vector<double>{static_cast<double>(stats.vertices),
                               static_cast<double>(stats.directed_edges),
                               static_cast<double>(stats.min_degree),
                               static_cast<double>(stats.max_degree),
                               stats.avg_degree};
  });
  // params: none -> {components, vertices, iterations, seconds}
  register_analysis("cc", [](Communicator& comm, GraphDB& db,
                             const std::vector<std::uint64_t>&) {
    const CcStats stats = parallel_connected_components(comm, db);
    return std::vector<double>{static_cast<double>(stats.components),
                               static_cast<double>(stats.vertices),
                               static_cast<double>(stats.iterations),
                               stats.seconds};
  });
  register_concurrent("ms-bfs", msbfs_analysis);
  // The VertexProgram analytics suite.  All keep query-private state
  // (never the GraphDB metadata store), so any mix may share a cluster.
  //
  // params: {iterations=10} -> {vertices, supersteps, edges_scanned,
  // top_vertex, top_rank, rank_sum, truncated, seconds}.  Counts global.
  register_concurrent("pagerank", [](Communicator& comm, GraphDB& db,
                                     const std::vector<std::uint64_t>& params,
                                     QueryContext& ctx) {
    PageRankOptions options;
    options.engine = vp_options(ctx);
    if (!params.empty() && params[0] != 0) options.iterations = params[0];
    const PageRankStats stats = parallel_pagerank(comm, db, options);
    return std::vector<double>{
        static_cast<double>(stats.vertices),
        static_cast<double>(stats.supersteps),
        static_cast<double>(comm.allreduce_sum(stats.edges_scanned)),
        static_cast<double>(stats.top_vertex),
        stats.top_rank,
        stats.rank_sum,
        stats.truncated ? 1.0 : 0.0,
        stats.seconds};
  });
  // params: none -> {components, vertices, iterations, edges_scanned,
  // seconds} — the label-propagation CC on the concurrent path (the
  // exclusive "cc" entry runs the same kernel standalone).
  register_concurrent("lp-cc", [](Communicator& comm, GraphDB& db,
                                  const std::vector<std::uint64_t>&,
                                  QueryContext& ctx) {
    const CcStats stats = parallel_label_cc(comm, db, vp_options(ctx));
    return std::vector<double>{
        static_cast<double>(stats.components),
        static_cast<double>(stats.vertices),
        static_cast<double>(stats.iterations),
        static_cast<double>(comm.allreduce_sum(stats.edges_scanned)),
        stats.seconds};
  });
  // params: {k=2} -> {core_vertices, rounds, edges_scanned, truncated,
  // seconds}
  register_concurrent("kcore", [](Communicator& comm, GraphDB& db,
                                  const std::vector<std::uint64_t>& params,
                                  QueryContext& ctx) {
    KCoreOptions options;
    options.engine = vp_options(ctx);
    if (!params.empty()) options.k = static_cast<std::uint32_t>(params[0]);
    const KCoreStats stats = parallel_kcore(comm, db, options);
    return std::vector<double>{
        static_cast<double>(stats.core_vertices),
        static_cast<double>(stats.rounds),
        static_cast<double>(comm.allreduce_sum(stats.edges_scanned)),
        stats.truncated ? 1.0 : 0.0,
        stats.seconds};
  });
  // params: none -> {triangles, wedge_checks, edges_scanned, seconds}
  register_concurrent("triangles", [](Communicator& comm, GraphDB& db,
                                      const std::vector<std::uint64_t>&,
                                      QueryContext& ctx) {
    const TriangleStats stats =
        parallel_triangle_count(comm, db, vp_options(ctx));
    return std::vector<double>{
        static_cast<double>(stats.triangles),
        static_cast<double>(stats.wedge_checks),
        static_cast<double>(comm.allreduce_sum(stats.edges_scanned)),
        stats.seconds};
  });
  // params: {source [, target [, delta [, max_weight]]]} -> {distance
  // (-1 unreached/no target), reached, supersteps, edges_scanned,
  // truncated, seconds}
  register_concurrent("sssp", [](Communicator& comm, GraphDB& db,
                                 const std::vector<std::uint64_t>& params,
                                 QueryContext& ctx) {
    MSSG_CHECK(!params.empty());
    SsspOptions options;
    options.engine = vp_options(ctx);
    options.source = params[0];
    if (params.size() >= 2) options.target = params[1];
    if (params.size() >= 3 && params[2] != 0) options.delta = params[2];
    if (params.size() >= 4 && params[3] != 0) {
      options.max_weight = static_cast<std::uint32_t>(params[3]);
    }
    const SsspStats stats = parallel_sssp(comm, db, options);
    return std::vector<double>{
        stats.distance == kInfiniteDistance
            ? -1.0
            : static_cast<double>(stats.distance),
        static_cast<double>(stats.reached),
        static_cast<double>(stats.supersteps),
        static_cast<double>(comm.allreduce_sum(stats.edges_scanned)),
        stats.truncated ? 1.0 : 0.0,
        stats.seconds};
  });
  // params: {source, dest} -> same layout as "bfs" (distance,
  // edges_scanned, vertices_expanded, seconds): the single-source BFS as
  // a VertexProgram instance, differential-tested against the legacy
  // metadata-store search.
  register_concurrent("vp-bfs", [](Communicator& comm, GraphDB& db,
                                   const std::vector<std::uint64_t>& params,
                                   QueryContext& ctx) {
    MSSG_CHECK(params.size() >= 2);
    const VpBfsStats stats =
        vertex_program_bfs(comm, db, params[0], params[1], vp_options(ctx));
    return std::vector<double>{
        static_cast<double>(stats.distance),
        static_cast<double>(comm.allreduce_sum(stats.edges_scanned)),
        static_cast<double>(comm.allreduce_sum(stats.vertices_expanded)),
        stats.seconds};
  });
  // params: {source, dest} -> same layout as "bfs" (distance,
  // edges_scanned, adjacency_fetches, seconds), but runs on the
  // concurrent path: query-private visited state, so many may share one
  // cluster.
  // params: {k [, iterations]} -> {v0, rank0, v1, rank1, ...}: the
  // global top-k PageRank vertices ordered by (rank desc, vertex asc).
  // PageRank's ranks are bit-identical across rank counts (exact
  // fixed-point sums, see analytics.hpp), so the comparator — and therefore
  // the whole result — is a pure function of the graph: the query
  // language's `RANK TOP k` differential-tests against this byte for
  // byte.  iterations 0 (or absent) = the PageRank default.
  register_concurrent("toprank", [](Communicator& comm, GraphDB& db,
                                    const std::vector<std::uint64_t>& params,
                                    QueryContext& ctx) {
    MSSG_CHECK(!params.empty());
    const std::uint64_t k = params[0];
    PageRankOptions options;
    options.engine = vp_options(ctx);
    if (params.size() >= 2 && params[1] != 0) options.iterations = params[1];
    std::vector<std::pair<VertexId, double>> local;
    parallel_pagerank(comm, db, options, &local);
    // Allgather every rank's (vertex, rank) pairs and merge on all ranks
    // (cheap, deterministic, and saves a broadcast round).
    ByteWriter writer;
    writer.put_varint(local.size());
    for (const auto& [vertex, rank] : local) {
      writer.put_u64(vertex);
      writer.put_double(rank);
    }
    const std::vector<PayloadBuffer> slots =
        comm.allgather(PayloadBuffer(writer.take()));
    std::vector<std::pair<VertexId, double>> merged;
    for (const PayloadBuffer& slot : slots) {
      ByteReader reader(slot.span());
      const std::uint64_t n = reader.get_varint();
      for (std::uint64_t i = 0; i < n; ++i) {
        const VertexId vertex = reader.get_u64();
        const double rank = reader.get_double();
        merged.emplace_back(vertex, rank);
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (merged.size() > k) merged.resize(k);
    std::vector<double> out;
    out.reserve(2 * merged.size());
    for (const auto& [vertex, rank] : merged) {
      out.push_back(static_cast<double>(vertex));
      out.push_back(rank);
    }
    return out;
  });
  register_concurrent("cbfs", [](Communicator& comm, GraphDB& db,
                                 const std::vector<std::uint64_t>& params,
                                 QueryContext& ctx) {
    MSSG_CHECK(params.size() >= 2);
    const std::vector<std::uint64_t> reordered = {params[1], params[0]};
    const std::vector<double> full = msbfs_analysis(comm, db, reordered, ctx);
    // distance, discovered, levels, edges, fetches, saved, trunc, secs
    return std::vector<double>{full[0], full[3], full[4], full[7]};
  });
}

void QueryService::register_analysis(const std::string& name, AnalysisFn fn) {
  analyses_[name] = std::move(fn);
}

void QueryService::register_concurrent(const std::string& name,
                                       ConcurrentAnalysisFn fn) {
  concurrent_[name] = std::move(fn);
}

std::vector<std::string> QueryService::names() const {
  // Merge the two sorted registries so the listing stays sorted overall.
  std::vector<std::string> result;
  result.reserve(analyses_.size() + concurrent_.size());
  for (const auto& [name, fn] : analyses_) result.push_back(name);
  for (const auto& [name, fn] : concurrent_) result.push_back(name);
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<double> QueryService::run(
    const std::string& name, Communicator& comm, GraphDB& db,
    const std::vector<std::uint64_t>& params) const {
  auto it = analyses_.find(name);
  if (it == analyses_.end()) {
    // A concurrent-safe analysis also runs standalone: give it an inert
    // context (no budget, no metrics, no attribution).
    auto cit = concurrent_.find(name);
    if (cit == concurrent_.end()) {
      throw UsageError("unknown analysis: " + name);
    }
    QueryContext ctx;
    return cit->second(comm, db, params, ctx);
  }
  return it->second(comm, db, params);
}

std::vector<double> QueryService::run_concurrent(
    const std::string& name, Communicator& comm, GraphDB& db,
    const std::vector<std::uint64_t>& params, QueryContext& ctx) const {
  auto it = concurrent_.find(name);
  if (it == concurrent_.end()) {
    throw UsageError("unknown concurrent analysis: " + name);
  }
  return it->second(comm, db, params, ctx);
}

}  // namespace mssg
