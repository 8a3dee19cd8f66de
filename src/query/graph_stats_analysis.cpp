#include "query/graph_stats_analysis.hpp"

#include <algorithm>

namespace mssg {

DistributedGraphStats parallel_graph_stats(Communicator& comm, GraphDB& db) {
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t min_degree = ~std::uint64_t{0};
  std::uint64_t max_degree = 0;

  // Enumerate, then read every list back in one ascending frontier pass.
  std::vector<VertexId> local;
  db.for_each_vertex([&](VertexId v) {
    local.push_back(v);
    return true;
  });
  std::sort(local.begin(), local.end());
  db.visit_adjacency(local, [&](VertexId, std::span<const VertexId> nbrs) {
    if (nbrs.empty()) return true;
    ++vertices;
    edges += nbrs.size();
    min_degree = std::min<std::uint64_t>(min_degree, nbrs.size());
    max_degree = std::max<std::uint64_t>(max_degree, nbrs.size());
    return true;
  });

  DistributedGraphStats stats;
  stats.vertices = comm.allreduce_sum(vertices);
  stats.directed_edges = comm.allreduce_sum(edges);
  stats.min_degree = comm.allreduce_min(min_degree);
  stats.max_degree = comm.allreduce_max(max_degree);
  if (stats.vertices > 0) {
    stats.avg_degree = static_cast<double>(stats.directed_edges) /
                       static_cast<double>(stats.vertices);
  } else {
    stats.min_degree = 0;
  }
  return stats;
}

}  // namespace mssg
