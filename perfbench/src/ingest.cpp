// ingest: repeated bulk loads of the PubMed-S analogue (the paper's Fig
// 5.3 path) through MssgCluster::ingest and then commit_all, each into a
// fresh cluster of 2 front-ends and 2 grDB back-ends with the journal on
// and snapshots off.  Each node's cache is smaller than its share of the
// stored graph, so decluster, the comm shuffle, grDB stores, write-back
// and the journal do almost all the work; serve and the scheduler do
// none.  Each load ends with graph_stats, which reads the fresh store
// back: a load is timed until the loaded graph answers.
#include <algorithm>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr double kScale = 0.25;
/// Two back-ends, so the load's 2 front-end and 2 back-end filter
/// threads fit the 4 CPUs it was sized on.  With 4 back-ends the median
/// CPU time per load of five runs spanned 13% of its middle value,
/// against 6% over four runs of this shape.  Write-back is synchronous
/// to keep the thread count down too: the IoEngine's write-behind adds 2
/// worker threads per node and, with 4 back-ends, about 35 000 context
/// switches a second, and a bulk load has no reads for it to overlap.
constexpr int kBackends = 2;
constexpr std::size_t kCacheBytesPerNode = 256u << 10;
/// Expected loads per second of measurement, for fixing the tail
/// percentile; a run that falls short reports the tail flagged.
constexpr double kPlannedLoadsPerSecond = 2;

struct Load {
  double cpu_s = 0;  ///< process CPU time of the whole load
  double ingest_s = 0;
  double commit_s = 0;
  double stats_s = 0;  ///< the first whole-graph answer after the load
  bool traced = false;
  mssg::IngestReport report;
  mssg::DistributedGraphStats stats;
};

}  // namespace

RunResult run_ingest(const Options& options, Tracer& tracer) {
  RunResult res;
  const mssg::DatasetSpec spec = dataset_for(kScale, options.seed);

  // ---- set-up: the generated edge stream, and the seed self-test ---------
  // A fresh set-up precedes every load, so setup_s is a median over
  // set-ups spread across the whole run, not over a burst at its start.
  const auto digest_of = [](const std::vector<Edge>& list) {
    Digest d;
    for (const Edge& e : list) {
      d.add(e.src);
      d.add(e.dst);
    }
    return d.value();
  };
  std::vector<Edge> edges;
  std::vector<double> setup_s, setup_cpu_s;
  const auto set_up = [&] {
    const std::uint64_t request = tracer.new_request();
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    {
      ScopedSpan root(tracer, "setup", request);
      ScopedSpan span(tracer, "build_dataset", request, root.id());
      edges = mssg::build_dataset(spec);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    setup_cpu_s.push_back(process_cpu_seconds() - cpu0);
    return digest_of(edges);
  };
  const std::uint64_t first_digest = set_up();
  if (digest_of(mssg::build_dataset(dataset_for(kScale, options.seed + 1))) ==
      first_digest) {
    res.fail_check("seed self-test failed: another seed, same edges");
  }
  mssg::ClusterConfig config =
      cluster_config(spec, kBackends, kCacheBytesPerNode, /*snapshots=*/false);
  config.db.async_io = false;

  // ---- timed phase: loads until --seconds have passed --------------------
  // Each load goes into a fresh cluster and ends with graph_stats, the
  // first whole-graph answer, which reads every stored edge back.
  std::vector<Load> loads;
  std::unique_ptr<ClusterHolder> last;
  const Clock::time_point stop = after(Clock::now(), options.seconds);
  while (Clock::now() < stop) {
    // Every set-up of one seed yields identical input.
    if (!loads.empty() && set_up() != first_digest) {
      res.fail_check("seed self-test failed: same seed, different edges");
    }
    last.reset();  // the previous load's cluster and files go first
    last = std::make_unique<ClusterHolder>(options.work_dir / "ingest",
                                           config);
    Load load;
    // Traced and untraced loads alternate, for the tracing overhead.
    load.traced = options.trace && loads.size() % 2 == 0;
    Tracer& t = load.traced ? tracer : disabled_tracer();
    const std::uint64_t request = t.new_request();
    ScopedSpan root(t, "load", request);
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    {
      ScopedSpan span(t, "ingest", request, root.id());
      load.report = (*last)->ingest(edges);
    }
    const auto t1 = Clock::now();
    {
      ScopedSpan span(t, "commit_all", request, root.id());
      (*last)->commit_all();
    }
    const auto t2 = Clock::now();
    {
      ScopedSpan span(t, "graph_stats", request, root.id());
      load.stats = (*last)->graph_stats();
    }
    load.ingest_s = seconds_between(t0, t1);
    load.commit_s = seconds_between(t1, t2);
    load.stats_s = seconds_between(t2, Clock::now());
    load.cpu_s = process_cpu_seconds() - cpu0;
    loads.push_back(std::move(load));
  }
  const double rss = peak_rss_mb();
  const std::uint64_t last_on_disk = disk_bytes(last->root());

  // ---- answer checks (untimed) -------------------------------------------
  const std::uint64_t want_stored = 2 * edges.size();
  mssg::DistributedGraphStats want;
  {
    const Reference ref(spec.vertices, edges);
    const mssg::MemoryGraph& g = ref.graph();
    want.min_degree = ~std::uint64_t{0};
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      const std::uint64_t d = g.degree(v);
      if (d == 0) continue;
      ++want.vertices;
      want.directed_edges += d;
      want.min_degree = std::min(want.min_degree, d);
      want.max_degree = std::max(want.max_degree, d);
    }
  }
  for (std::size_t i = 0; i < loads.size(); ++i) {
    ++res.attempted;
    const Load& load = loads[i];
    if (load.report.edges_stored != want_stored) {
      res.fail_check("load " + std::to_string(i) + " stored " +
                     std::to_string(load.report.edges_stored) +
                     " directed edges, expected " +
                     std::to_string(want_stored));
    } else if (load.stats.vertices != want.vertices ||
               load.stats.directed_edges != want.directed_edges ||
               load.stats.min_degree != want.min_degree ||
               load.stats.max_degree != want.max_degree) {
      res.fail_check("load " + std::to_string(i) +
                     ": graph_stats does not match the reference");
    }
  }

  // ---- end-to-end metrics ------------------------------------------------
  std::vector<double> cpu_ms, load_ms, ingest_ms, rates, traced_ms,
      untraced_ms;
  for (const Load& load : loads) {
    const double s = load.ingest_s + load.commit_s;
    const double answered_s = s + load.stats_s;
    cpu_ms.push_back(1e3 * load.cpu_s);
    load_ms.push_back(1e3 * answered_s);
    ingest_ms.push_back(1e3 * load.ingest_s);
    rates.push_back(ratio(static_cast<double>(load.report.edges_stored), s));
    (load.traced ? traced_ms : untraced_ms).push_back(1e3 * answered_s);
  }
  const double planned = options.seconds * kPlannedLoadsPerSecond;
  const Quantile load50 = quantile(load_ms, 0.5);
  const Quantile load_tail = quantile(load_ms, tail_percentile(planned));
  const Quantile ingest50 = quantile(ingest_ms, 0.5);
  const Quantile ingest_tail = quantile(ingest_ms, tail_percentile(planned));
  const std::uint64_t stored_bytes = want_stored * sizeof(VertexId);
  const Quantile cpu50 = quantile(cpu_ms, 0.5);
  res.end_to_end["setup_s"] = quantile(setup_cpu_s, 0.5).value;
  res.end_to_end["peak_rss_mb"] = rss;
  res.end_to_end["space_amp"] = ratio(static_cast<double>(last_on_disk),
                                      static_cast<double>(stored_bytes));
  res.end_to_end["cpu_ms_per_op"] = cpu50.value;
  res.add_quantile_detail("cpu_ms_per_op (CPU time of one load)", cpu50);
  res.add_quantile_detail("setup_s (CPU time of build_dataset)",
                          quantile(setup_cpu_s, 0.5));
  res.add_wall_clock("setup_wall_s", quantile(setup_s, 0.5).value, "s");
  res.add_wall_clock("ingest_edges_per_s", quantile(rates, 0.5).value,
                     "1/s");
  res.add_wall_clock("ingest_p50_ms", ingest50.value, "ms");
  res.add_wall_clock("ingest_" + percentile_name(ingest_tail.q) + "_ms",
                     ingest_tail.value, "ms");
  res.add_wall_clock("load_p50_ms", load50.value, "ms");
  res.add_wall_clock("load_" + percentile_name(load_tail.q) + "_ms",
                     load_tail.value, "ms");
  res.add_quantile_detail("ingest_p50_ms", ingest50);
  res.add_quantile_detail("ingest_tail_ms", ingest_tail);
  res.add_quantile_detail("load_p50_ms (ingest + commit_all + graph_stats)",
                          load50);
  res.add_quantile_detail("load_tail_ms (ingest + commit_all + graph_stats)",
                          load_tail);

  // ---- per-layer metrics (from the last load's cluster and report) -------
  const mssg::MetricsSnapshot snap = (*last)->metrics_snapshot();
  const Load& tail = loads.back();
  auto& L = res.per_layer;
  L["storage.vectored_merges"] =
      static_cast<double>(snap.counter("io.vectored_merges"));
  L["storage.write_amp"] =
      ratio(static_cast<double>(snap.counter("io.bytes_written")),
            static_cast<double>(stored_bytes));
  L["storage.syncs_per_commit"] = static_cast<double>(snap.counter("io.syncs"));
  L["storage.journal_records_per_commit"] =
      static_cast<double>(snap.counter("storage.journal_records"));
  L["storage.cache_hit_ratio"] = ratio(
      static_cast<double>(snap.counter("io.cache_hits")),
      static_cast<double>(snap.counter("io.cache_hits") +
                          snap.counter("io.cache_misses")));
  L["storage.prefetch_useful_ratio"] =
      ratio(static_cast<double>(snap.counter("io.prefetch_hits")),
            static_cast<double>(snap.counter("io.prefetch_issued")));
  L["graphdb.cow_pages_per_commit"] =
      static_cast<double>(snap.counter("txn.cow_pages"));
  L["runtime.encode_ratio"] = ratio(
      static_cast<double>(tail.report.metrics.counter(
          "ingest.payload_bytes_encoded")),
      static_cast<double>(tail.report.metrics.counter(
          "ingest.payload_bytes_raw")));
  add_ingest_layers(tail.report, L);
  L["mssg.ingest_s"] = quantile(tracer.durations("ingest"), 0.5).value;
  L["mssg.commit_all_s"] = quantile(tracer.durations("commit_all"), 0.5).value;
  L["gen.build_dataset_s"] =
      quantile(tracer.durations("build_dataset"), 0.5).value;
  L["bench.trace_overhead"] = ratio(quantile(traced_ms, 0.5).value,
                                    quantile(untraced_ms, 0.5).value);

  // ---- environment -------------------------------------------------------
  res.add_env("dataset", dataset_json(spec, kScale, edges.size()));
  res.add_env("offered_qps", "0");
  res.add_env("writer_commits_per_s", "0");
  res.add_env("client_threads", "1");
  res.add_env("cache_bytes_per_node", std::to_string(kCacheBytesPerNode));
  res.add_env("stored_bytes_per_node",
              std::to_string(last_on_disk / kBackends));
  res.add_env("schedule_digest", json_string(hex(first_digest)));
  res.add_env("loads", std::to_string(loads.size()));
  return res;
}

}  // namespace perfbench
