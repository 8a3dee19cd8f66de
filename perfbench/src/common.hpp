// Pieces the workloads share: seeded inputs, cluster lifetime in
// the checkout, counter deltas, and the in-memory reference every answer
// is checked against.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "gen/datasets.hpp"
#include "gen/memory_graph.hpp"
#include "harness.hpp"
#include "mssg/mssg.hpp"

namespace perfbench {

using mssg::Edge;
using mssg::VertexId;

/// The PubMed-S analogue (Chung-Lu with Table 5.1's shape) at `scale`,
/// with its generator seed derived from the run seed: the input of the
/// ingest workload.
mssg::DatasetSpec dataset_for(double scale, std::uint64_t seed);

/// splitmix64: derives independent stream seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a over 64-bit words: the schedule self-test and answer digests.
class Digest {
 public:
  void add(std::uint64_t word);
  void add(const std::string& text);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::string hex(std::uint64_t v);

/// Owns one MssgCluster whose storage root lives under the run's work
/// directory, and removes that root when the cluster is gone.
class ClusterHolder {
 public:
  ClusterHolder(const fs::path& root, mssg::ClusterConfig config);
  ClusterHolder(const ClusterHolder&) = delete;
  ClusterHolder& operator=(const ClusterHolder&) = delete;
  ~ClusterHolder();

  mssg::MssgCluster& operator*() { return *cluster_; }
  mssg::MssgCluster* operator->() { return cluster_.get(); }
  [[nodiscard]] const fs::path& root() const { return root_; }

 private:
  fs::path root_;
  std::unique_ptr<mssg::MssgCluster> cluster_;
};

/// Every workload's cluster: 2 front-ends and `backends` grDB back-ends
/// (journal on, the default) with `cache_bytes` of cache per node.  The
/// scheduler's token budget is large enough never to bind; it is set so
/// the scheduler counts tokens (an unlimited budget counts none).
mssg::ClusterConfig cluster_config(const mssg::DatasetSpec& spec,
                                   int backends, std::size_t cache_bytes,
                                   bool snapshots);

/// A cluster loaded by one set-up of scan_live.
struct LoadedCluster {
  std::unique_ptr<ClusterHolder> cluster;
  mssg::IngestReport report;
  double ingest_s = 0;
  double commit_s = 0;
};

/// One set-up: generates the graph into `edges`, builds a cluster with
/// snapshots on under `root`, and loads and commits the graph.
LoadedCluster load_cluster(const fs::path& root, Tracer& tracer,
                           const mssg::DatasetSpec& spec, int backends,
                           std::size_t cache_bytes, std::vector<Edge>& edges);

/// The ingest.* per-layer metrics of one bulk load.
void add_ingest_layers(const mssg::IngestReport& report,
                       std::map<std::string, double>& layers);

/// The per-layer metrics of a set-up load: ingest.*, mssg.ingest_s,
/// mssg.commit_all_s and gen.build_dataset_s.
void add_load_layers(const LoadedCluster& loaded, const Tracer& tracer,
                     std::map<std::string, double>& layers);

/// The dataset spec as a JSON object for the environment block.
std::string dataset_json(const mssg::DatasetSpec& spec, double scale,
                         std::size_t edges);

/// Counter b - a (0 when absent or when b < a).
std::uint64_t delta(const mssg::MetricsSnapshot& a,
                    const mssg::MetricsSnapshot& b, const std::string& name);

/// a / b, 0 when b is 0.
double ratio(double a, double b);

/// Per-node committed epochs (GraphDB::txn_state), for epoch accounting.
std::vector<std::uint64_t> committed_epochs(mssg::MssgCluster& cluster);

/// The least per-node advance between two committed_epochs() readings.
std::uint64_t least_advance(const std::vector<std::uint64_t>& before,
                            const std::vector<std::uint64_t>& after);

/// Undirected reference graph (each input edge stored both ways, as the
/// ingest path stores it) with the answers the workloads check.
class Reference {
 public:
  Reference(std::uint64_t vertices, std::span<const Edge> edges);

  [[nodiscard]] const mssg::MemoryGraph& graph() const { return graph_; }

  /// Stored vertices (degree >= 1) and their component count.
  std::pair<std::uint64_t, std::uint64_t> components() const;
  /// PageRank with the kernel's semantics (multigraph degree, dangling
  /// mass dropped) over stored vertices.
  std::unordered_map<VertexId, double> pagerank(std::uint64_t iterations,
                                                double damping) const;

 private:
  mssg::MemoryGraph graph_;
};

/// Checks a RANK TOP k result against reference ranks: every reported
/// vertex carries its reference rank, and the reported ranks are the k
/// largest reference ranks (both within a relative tolerance, since the
/// kernel sums in a different order).
bool rank_matches(const std::vector<double>& values,
                  const std::unordered_map<VertexId, double>& ranks,
                  std::size_t k, std::string* why);

}  // namespace perfbench
