#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

mssg::DatasetSpec dataset_for(double scale, std::uint64_t seed) {
  mssg::DatasetSpec spec = mssg::pubmed_s(scale);
  spec.seed = mix_seed(seed, 0xda7a);
  return spec;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(const std::string& text) {
  for (const char c : text) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  add(text.size());
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

ClusterHolder::ClusterHolder(const fs::path& root, mssg::ClusterConfig config)
    : root_(root) {
  fs::remove_all(root_);
  fs::create_directories(root_);
  config.storage_root = root_;
  cluster_ = std::make_unique<mssg::MssgCluster>(std::move(config));
}

ClusterHolder::~ClusterHolder() {
  cluster_.reset();  // joins the scheduler and closes every file first
  std::error_code ec;
  fs::remove_all(root_, ec);
}

mssg::ClusterConfig cluster_config(const mssg::DatasetSpec& spec,
                                   int backends, std::size_t cache_bytes,
                                   bool snapshots) {
  mssg::ClusterConfig config;
  config.frontend_nodes = 2;
  config.backend_nodes = backends;
  config.backend = mssg::Backend::kGrDB;
  config.db.cache_bytes = cache_bytes;
  config.db.max_vertices = spec.vertices;
  config.db.snapshots = snapshots;
  config.scheduler.token_budget = std::uint64_t{1} << 50;
  return config;
}

LoadedCluster load_cluster(const fs::path& root, Tracer& tracer,
                           const mssg::DatasetSpec& spec, int backends,
                           std::size_t cache_bytes, std::vector<Edge>& edges) {
  const std::uint64_t request = tracer.new_request();
  ScopedSpan setup(tracer, "setup", request);
  {
    ScopedSpan span(tracer, "build_dataset", request, setup.id());
    edges = mssg::build_dataset(spec);
  }
  LoadedCluster out;
  out.cluster = std::make_unique<ClusterHolder>(
      root, cluster_config(spec, backends, cache_bytes, /*snapshots=*/true));
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "ingest", request, setup.id());
    out.report = (*out.cluster)->ingest(edges);
  }
  const Clock::time_point t1 = Clock::now();
  {
    ScopedSpan span(tracer, "commit_all", request, setup.id());
    (*out.cluster)->commit_all();
  }
  out.ingest_s = seconds_between(t0, t1);
  out.commit_s = seconds_between(t1, Clock::now());
  return out;
}

void add_ingest_layers(const mssg::IngestReport& report,
                       std::map<std::string, double>& layers) {
  const mssg::MetricsSnapshot& m = report.metrics;
  if (const auto it = m.histograms.find("ingest.store.us");
      it != m.histograms.end()) {
    layers["ingest.store_s"] = static_cast<double>(it->second.sum) / 1e6;
  }
  layers["ingest.windows"] = static_cast<double>(m.counter("ingest.windows"));
  layers["ingest.imbalance"] = report.imbalance();
}

void add_load_layers(const LoadedCluster& loaded, const Tracer& tracer,
                     std::map<std::string, double>& layers) {
  add_ingest_layers(loaded.report, layers);
  layers["mssg.ingest_s"] = loaded.ingest_s;
  layers["mssg.commit_all_s"] = loaded.commit_s;
  layers["gen.build_dataset_s"] =
      quantile(tracer.durations("build_dataset"), 0.5).value;
}

std::string dataset_json(const mssg::DatasetSpec& spec, double scale,
                         std::size_t edges) {
  return "{\"name\": " + json_string(spec.name) +
         ", \"scale\": " + json_number(scale) +
         ", \"vertices\": " + std::to_string(spec.vertices) +
         ", \"edges\": " + std::to_string(edges) +
         ", \"seed\": " + std::to_string(spec.seed) + "}";
}

std::uint64_t delta(const mssg::MetricsSnapshot& a,
                    const mssg::MetricsSnapshot& b, const std::string& name) {
  const std::uint64_t before = a.counter(name);
  const std::uint64_t now = b.counter(name);
  return now > before ? now - before : 0;
}

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

std::vector<std::uint64_t> committed_epochs(mssg::MssgCluster& cluster) {
  std::vector<std::uint64_t> out;
  for (int node = 0; node < cluster.backend_nodes(); ++node) {
    out.push_back(cluster.node_db(node).txn_state().committed);
  }
  return out;
}

std::uint64_t least_advance(const std::vector<std::uint64_t>& before,
                            const std::vector<std::uint64_t>& after) {
  std::uint64_t least = ~std::uint64_t{0};
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i) {
    least = std::min(least, after[i] - before[i]);
  }
  return before.empty() ? 0 : least;
}

Reference::Reference(std::uint64_t vertices, std::span<const Edge> edges)
    : graph_(vertices, edges, /*symmetrize=*/true) {}

std::pair<std::uint64_t, std::uint64_t> Reference::components() const {
  const std::uint64_t n = graph_.vertex_count();
  std::vector<VertexId> parent(n);
  std::iota(parent.begin(), parent.end(), VertexId{0});
  const auto find = [&](VertexId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId u : graph_.neighbors(v)) {
      const VertexId a = find(v);
      const VertexId b = find(u);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }
  std::uint64_t stored = 0;
  std::uint64_t components = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (graph_.degree(v) == 0) continue;
    ++stored;
    if (find(v) == v) ++components;
  }
  return {stored, components};
}

std::unordered_map<VertexId, double> Reference::pagerank(
    std::uint64_t iterations, double damping) const {
  std::vector<VertexId> stored;
  for (VertexId v = 0; v < graph_.vertex_count(); ++v) {
    if (graph_.degree(v) != 0) stored.push_back(v);
  }
  const double inv_n = 1.0 / static_cast<double>(stored.size());
  std::vector<double> rank(graph_.vertex_count(), 0.0);
  for (const VertexId v : stored) rank[v] = inv_n;
  std::vector<double> next(graph_.vertex_count(), 0.0);
  for (std::uint64_t i = 0; i < iterations; ++i) {
    for (const VertexId v : stored) next[v] = (1.0 - damping) * inv_n;
    for (const VertexId u : stored) {
      const double share = rank[u] / static_cast<double>(graph_.degree(u));
      for (const VertexId w : graph_.neighbors(u)) next[w] += damping * share;
    }
    rank.swap(next);
  }
  std::unordered_map<VertexId, double> out;
  for (const VertexId v : stored) out[v] = rank[v];
  return out;
}

bool rank_matches(const std::vector<double>& values,
                  const std::unordered_map<VertexId, double>& ranks,
                  std::size_t k, std::string* why) {
  constexpr double kTolerance = 1e-9;
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= kTolerance * std::max(std::abs(a), std::abs(b));
  };
  std::vector<double> top;
  top.reserve(ranks.size());
  for (const auto& [v, r] : ranks) top.push_back(r);
  const std::size_t want = std::min(k, top.size());
  std::partial_sort(top.begin(),
                    top.begin() + static_cast<std::ptrdiff_t>(want),
                    top.end(), std::greater<>());
  if (values.size() != 2 * want) {
    *why = "RANK returned " + std::to_string(values.size() / 2) +
           " entries, expected " + std::to_string(want);
    return false;
  }
  for (std::size_t i = 0; i < want; ++i) {
    const auto v = static_cast<VertexId>(values[2 * i]);
    const double r = values[2 * i + 1];
    const auto it = ranks.find(v);
    if (it == ranks.end() || !close(it->second, r) || !close(top[i], r)) {
      *why = "RANK entry " + std::to_string(i) + " (vertex " +
             std::to_string(v) + ") does not match the reference";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
