// scan_live: full-graph scans beside live commits.
//
// One client runs a closed loop alternating RANK TOP 10 and CC through
// ServeSession while a paced writer commits fixed-size random batches
// through MssgCluster::live_ingest at a fixed rate below its capacity.
// The cache is well below each node's stored bytes and snapshots are on,
// so scans pay misses, evictions and IoEngine reads while commits pay
// journal syncs, copy-on-write pre-images and epoch advances in the same
// storage and graphdb layers: a gain for one side that costs the other
// shows.
#include <algorithm>
#include <map>
#include <set>
#include <thread>

#include "common.hpp"
#include "serving.hpp"

namespace perfbench {

namespace {

constexpr double kScale = 0.1;
/// Two back-ends, so the rank threads, the scan client and the writer
/// leave a spare CPU on a 4-CPU machine: with four, every superstep
/// waited on whichever rank another thread had displaced, and one
/// competing busy thread slowed the scans by half.
constexpr int kBackends = 2;
/// A third of the about 3 MB each node stores, so every scan still reads
/// about 40 MB through the cache.  At 256 KiB a 256-edge commit's dirty
/// blocks did not fit: each commit issued about 150 syncs instead of 31,
/// and lost CPU time stretched commits threefold.
constexpr std::size_t kCacheBytesPerNode = 1u << 20;
/// 256-edge commits twice a second rather than 128-edge ones four times:
/// a longer commit loses a smaller share of its time to a few
/// milliseconds of lost CPU, so its tail moved less between runs.
constexpr double kCommitsPerSecond = 2;
constexpr std::size_t kBatchPairs = 128;  // undirected; stored both ways
constexpr int kSetups = 9;
constexpr std::size_t kTopK = 10;
constexpr std::uint64_t kRankIterations = 10;  // the PageRank default
/// Expected RANK + CC pairs per second, for fixing the tail percentile;
/// a run that falls short reports the tail flagged as unsupported.
constexpr double kPlannedPairsPerSecond = 1.2;
/// GET-through-the-session spot checks of acknowledged edges (every
/// acknowledged edge is also checked directly against its owner node).
constexpr std::size_t kGetChecks = 64;

/// Write batches: random pairs of already-stored vertices, so a write
/// never adds a vertex and the component count can only fall.  Each pair
/// is stored in both orientations (live_ingest stores edges as given).
std::vector<std::vector<Edge>> make_batches(const std::vector<Edge>& edges,
                                            std::uint64_t vertices,
                                            std::uint64_t seed,
                                            std::size_t count) {
  std::vector<char> stored(vertices, 0);
  for (const Edge& e : edges) stored[e.src] = stored[e.dst] = 1;
  std::vector<VertexId> pool;
  for (VertexId v = 0; v < vertices; ++v) {
    if (stored[v]) pool.push_back(v);
  }
  std::mt19937_64 rng(mix_seed(seed, 2));
  std::vector<std::vector<Edge>> batches(count);
  for (auto& batch : batches) {
    while (batch.size() < 2 * kBatchPairs) {
      const VertexId a = pool[rng() % pool.size()];
      const VertexId b = pool[rng() % pool.size()];
      if (a == b) continue;
      batch.push_back(Edge{a, b});
      batch.push_back(Edge{b, a});
    }
  }
  return batches;
}

std::uint64_t batches_digest(const std::vector<std::vector<Edge>>& batches) {
  Digest d;
  for (const auto& batch : batches) {
    for (const Edge& e : batch) {
      d.add(e.src);
      d.add(e.dst);
    }
  }
  return d.value();
}

struct Commit {
  double latency_s = 0;  ///< from the due time
  double service_s = 0;  ///< the live_ingest call itself
  double late_s = 0;     ///< how late the writer started it
  bool ok = false;
  std::string error;
};

enum class Scan { kRank, kCc };

}  // namespace

RunResult run_scan_live(const Options& options, Tracer& tracer) {
  RunResult res;
  // The graph is the canonical PubMed-S analogue (its generator seed is
  // fixed); --seed draws the schedule, keys and batches run against it.
  const mssg::DatasetSpec spec = mssg::pubmed_s(kScale);

  std::vector<Edge> edges;
  std::vector<double> setup_s, setup_cpu_s;
  LoadedCluster loaded;
  for (int round = 0; round < kSetups; ++round) {
    loaded = LoadedCluster{};  // tear the previous cluster down first
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    loaded = load_cluster(
        options.work_dir / ("scan_live-" + std::to_string(round)), tracer,
        spec, kBackends, kCacheBytesPerNode, edges);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    setup_cpu_s.push_back(process_cpu_seconds() - cpu0);
  }
  mssg::MssgCluster& cluster = **loaded.cluster;
  const std::uint64_t stored_bytes =
      loaded.report.edges_stored * sizeof(VertexId);
  const std::uint64_t on_disk = disk_bytes(loaded.cluster->root());

  // ---- inputs, and the seed self-test ------------------------------------
  const auto n_batches = static_cast<std::size_t>(
      std::ceil(options.seconds * kCommitsPerSecond));
  const auto batches =
      make_batches(edges, spec.vertices, options.seed, n_batches);
  const std::uint64_t digest = batches_digest(batches);
  if (batches_digest(make_batches(edges, spec.vertices, options.seed,
                                  n_batches)) != digest ||
      batches_digest(make_batches(edges, spec.vertices, options.seed + 1,
                                  n_batches)) == digest) {
    res.fail_check("seed self-test failed");
  }

  mssg::serve::ServeSession session(cluster, serve_config());
  const mssg::MetricsSnapshot snap0 = cluster.metrics_snapshot();
  const std::vector<std::uint64_t> epochs0 = committed_epochs(cluster);

  // ---- timed phase: writer thread + scan client (this thread) ------------
  std::vector<Commit> commits(n_batches);
  std::uint64_t versions_held_max = 0;
  std::vector<Scan> scan_kind;
  std::vector<QueryRecord> scans;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop = after(t0, options.seconds);
  std::thread writer([&] {
    for (std::size_t k = 0; k < n_batches; ++k) {
      const Clock::time_point due =
          after(t0, static_cast<double>(k) / kCommitsPerSecond);
      std::this_thread::sleep_until(due);
      const Clock::time_point start = Clock::now();
      Commit& c = commits[k];
      try {
        const std::uint64_t request = tracer.new_request();
        ScopedSpan span(tracer, "live_ingest", request);
        cluster.live_ingest(batches[k]);
        c.ok = true;
      } catch (const std::exception& e) {
        c.error = e.what();
      }
      const Clock::time_point end = Clock::now();
      c.latency_s = seconds_between(due, end);
      c.service_s = seconds_between(start, end);
      c.late_s = seconds_between(due, start);
      if (tracer.enabled()) {
        for (int node = 0; node < cluster.backend_nodes(); ++node) {
          versions_held_max = std::max(
              versions_held_max, cluster.node_db(node).txn_state().versions);
        }
      }
    }
  });
  // The client issues scans in pairs, RANK TOP k then CC.  Their
  // latencies differ by a large factor, so a median over single scans
  // would jump between the two clusters from run to run; the pair is the
  // timed unit.
  std::vector<double> pair_s, pair_cpu_s;
  std::vector<bool> pair_traced;
  for (std::size_t pair = 0; Clock::now() < stop; ++pair) {
    // Traced and untraced pairs alternate, for the tracing overhead.
    const bool traced = options.trace && pair % 2 == 0;
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    for (const Scan kind : {Scan::kRank, Scan::kCc}) {
      const Clock::time_point scan_start = Clock::now();
      QueryRecord rec =
          kind == Scan::kRank
              ? run_query(session, tracer, traced, "RANK",
                          "RANK TOP " + std::to_string(kTopK))
              : run_query(session, tracer, traced, "CC", "CC");
      rec.latency_s = seconds_between(scan_start, Clock::now());
      scan_kind.push_back(kind);
      scans.push_back(std::move(rec));
    }
    pair_s.push_back(seconds_between(start, Clock::now()));
    pair_cpu_s.push_back(process_cpu_seconds() - cpu0);
    pair_traced.push_back(traced);
  }
  const double scan_elapsed = seconds_between(t0, Clock::now());
  writer.join();
  const mssg::MetricsSnapshot snap1 = cluster.metrics_snapshot();
  const std::vector<std::uint64_t> epochs1 = committed_epochs(cluster);
  const std::size_t registry_counters =
      cluster.scheduler().metrics_snapshot().counters.size();
  const double rss = peak_rss_mb();

  // ---- answer checks (untimed) -------------------------------------------
  std::vector<Edge> final_edges = edges;
  std::size_t acknowledged = 0;
  for (std::size_t k = 0; k < n_batches; ++k) {
    ++res.attempted;
    if (!commits[k].ok) {
      res.fail_check("commit " + std::to_string(k) + " threw: " +
                     commits[k].error);
      continue;
    }
    ++acknowledged;
    for (std::size_t j = 0; j < batches[k].size(); j += 2) {
      final_edges.push_back(batches[k][j]);
    }
  }
  // live_ingest flushes every node its batch touches, so each
  // acknowledged commit advances every node's committed epoch once.
  const std::uint64_t advanced = least_advance(epochs0, epochs1);
  ++res.attempted;
  if (advanced != acknowledged) {
    res.fail_check("committed epochs advanced " + std::to_string(advanced) +
                   " times for " + std::to_string(acknowledged) +
                   " acknowledged commits");
  }
  double last_components = -1;
  std::uint64_t scans_ok = 0;
  for (std::size_t i = 0; i < scans.size(); ++i) {
    ++res.attempted;
    const QueryRecord& rec = scans[i];
    if (!rec.served()) {
      res.fail_check("scan " + std::to_string(i) + ": " +
                     (rec.error.empty() ? "truncated" : rec.error));
      continue;
    }
    if (scan_kind[i] == Scan::kCc) {
      if (rec.values.empty()) {
        res.fail_check("CC returned no values");
        continue;
      }
      if (last_components >= 0 && rec.values[0] > last_components) {
        res.fail_check("CC component count rose from " +
                       std::to_string(last_components) + " to " +
                       std::to_string(rec.values[0]));
        continue;
      }
      last_components = rec.values[0];
    } else if (rec.values.size() != 2 * kTopK) {
      res.fail_check("RANK returned " + std::to_string(rec.values.size()) +
                     " values");
      continue;
    }
    ++scans_ok;
  }
  cluster.commit_all();
  Reference ref(spec.vertices, final_edges);
  {
    res.attempted += 2;
    const QueryRecord cc = run_query(session, tracer, false, "CC", "CC");
    const auto [vertices, components] = ref.components();
    if (!cc.served() || cc.values.size() < 2 ||
        cc.values[0] != static_cast<double>(components) ||
        cc.values[1] != static_cast<double>(vertices)) {
      res.fail_check("final CC does not match the reference (" +
                     std::to_string(components) + " components over " +
                     std::to_string(vertices) + " vertices)");
    }
    const QueryRecord rank =
        run_query(session, tracer, false, "RANK",
                  "RANK TOP " + std::to_string(kTopK));
    std::string why;
    if (!rank.served()) {
      res.fail_check("final RANK failed: " + rank.error);
    } else if (!rank_matches(rank.values, ref.pagerank(kRankIterations, 0.85),
                             kTopK, &why)) {
      res.fail_check("final " + why);
    }
  }
  {
    // Every acknowledged edge, read from the node that owns its source.
    std::map<VertexId, std::set<VertexId>> expected;
    for (std::size_t k = 0; k < n_batches; ++k) {
      if (!commits[k].ok) continue;
      for (const Edge& e : batches[k]) expected[e.src].insert(e.dst);
    }
    std::vector<VertexId> adjacency;
    std::size_t missing = 0;
    for (const auto& [src, dsts] : expected) {
      const Edge probe{src, src};
      mssg::Rank owner = 0;
      cluster.partitioner().route(std::span<const Edge>(&probe, 1),
                                  std::span<mssg::Rank>(&owner, 1));
      adjacency.clear();
      cluster.node_db(owner).get_adjacency(src, adjacency);
      std::sort(adjacency.begin(), adjacency.end());
      for (const VertexId dst : dsts) {
        if (!std::binary_search(adjacency.begin(), adjacency.end(), dst)) {
          ++missing;
        }
      }
    }
    if (missing != 0) {
      res.fail_check(std::to_string(missing) +
                     " acknowledged edges missing from their owner node");
    }
    // And a sample through the query language.
    std::size_t checked = 0;
    for (const auto& [src, dsts] : expected) {
      if (checked++ == kGetChecks) break;
      ++res.attempted;
      const QueryRecord get = run_query(session, tracer, false, "GET",
                                        "GET " + std::to_string(src));
      std::size_t found = 0;
      for (const double v : get.values) {
        found += dsts.count(static_cast<VertexId>(v));
      }
      if (!get.served() || found != dsts.size()) {
        res.fail_check("GET " + std::to_string(src) +
                       " misses acknowledged edges");
      }
    }
  }

  // ---- end-to-end metrics ------------------------------------------------
  std::vector<double> commit_ms, service_ms, late_ms;
  for (const Commit& c : commits) {
    if (!c.ok) continue;
    commit_ms.push_back(1e3 * c.latency_s);
    service_ms.push_back(1e3 * c.service_s);
    late_ms.push_back(1e3 * c.late_s);
  }
  std::vector<double> pair_ms, pair_cpu_ms, pair_traced_ms, pair_untraced_ms;
  for (std::size_t i = 0; i < pair_s.size(); ++i) {
    pair_ms.push_back(1e3 * pair_s[i]);
    pair_cpu_ms.push_back(1e3 * pair_cpu_s[i]);
    (pair_traced[i] ? pair_traced_ms : pair_untraced_ms)
        .push_back(1e3 * pair_s[i]);
  }
  std::vector<double> rank_ms, cc_ms;
  for (std::size_t i = 0; i < scans.size(); ++i) {
    (scan_kind[i] == Scan::kRank ? rank_ms : cc_ms)
        .push_back(1e3 * scans[i].latency_s);
  }
  const Quantile commit50 = quantile(commit_ms, 0.5);
  const Quantile commit_tail = quantile(
      commit_ms, tail_percentile(0.9 * options.seconds * kCommitsPerSecond));
  const Quantile scan50 = quantile(pair_ms, 0.5);
  const Quantile scan_tail = quantile(
      pair_ms, tail_percentile(options.seconds * kPlannedPairsPerSecond));
  const Quantile cpu50 = quantile(pair_cpu_ms, 0.5);
  res.end_to_end["setup_s"] = quantile(setup_cpu_s, 0.5).value;
  res.end_to_end["peak_rss_mb"] = rss;
  res.end_to_end["space_amp"] = ratio(static_cast<double>(on_disk),
                                      static_cast<double>(stored_bytes));
  res.end_to_end["cpu_ms_per_op"] = cpu50.value;
  res.add_quantile_detail(
      "cpu_ms_per_op (CPU time of one RANK TOP 10 + CC pair, writer included)",
      cpu50);
  res.add_quantile_detail("setup_s (CPU time of one set-up)",
                          quantile(setup_cpu_s, 0.5));
  res.add_wall_clock("setup_wall_s", quantile(setup_s, 0.5).value, "s");
  res.add_wall_clock("scans_per_s",
                     ratio(static_cast<double>(scans_ok), scan_elapsed),
                     "1/s");
  res.add_wall_clock("scan_pair_p50_ms", scan50.value, "ms");
  res.add_wall_clock("scan_pair_" + percentile_name(scan_tail.q) + "_ms",
                     scan_tail.value, "ms");
  res.add_wall_clock("commit_p50_ms", commit50.value, "ms");
  res.add_wall_clock("commit_" + percentile_name(commit_tail.q) + "_ms",
                     commit_tail.value, "ms");
  res.add_quantile_detail("commit_p50_ms (from due time)", commit50);
  res.add_quantile_detail("commit_tail_ms (from due time)", commit_tail);
  res.add_quantile_detail("scan_pair_p50_ms (RANK TOP 10 + CC pair)", scan50);
  res.add_quantile_detail("scan_pair_tail_ms (RANK TOP 10 + CC pair)",
                          scan_tail);
  res.add_quantile_detail("RANK TOP 10 alone", quantile(rank_ms, 0.5));
  res.add_quantile_detail("CC alone", quantile(cc_ms, 0.5));
  res.add_quantile_detail("setup_s", quantile(setup_s, 0.5));

  // ---- per-layer metrics -------------------------------------------------
  const auto n_scans = static_cast<double>(scans.size());
  const auto n_commits = static_cast<double>(acknowledged);
  std::vector<double> queue_ms, run_ms, compile_us, run_plan_ms;
  double jobs = 0, tokens = 0, attributed_hits = 0, attributed_misses = 0;
  for (const QueryRecord& rec : scans) {
    queue_ms.push_back(1e3 * rec.queue_s);
    run_ms.push_back(1e3 * rec.run_s);
    jobs += static_cast<double>(rec.jobs);
    tokens += static_cast<double>(rec.tokens);
    for (const std::uint64_t id : rec.query_ids) {
      const std::string row = "sched.q" + std::to_string(id);
      attributed_hits +=
          static_cast<double>(snap1.counter(row + ".cache_hits"));
      attributed_misses +=
          static_cast<double>(snap1.counter(row + ".cache_misses"));
    }
  }
  for (const double s : tracer.durations("compile_query")) {
    compile_us.push_back(1e6 * s);
  }
  for (const double s : tracer.durations("run_plan")) {
    run_plan_ms.push_back(1e3 * s);
  }
  const auto per_scan = [&](const char* counter) {
    return ratio(static_cast<double>(delta(snap0, snap1, counter)), n_scans);
  };
  const auto per_commit = [&](const char* counter) {
    return ratio(static_cast<double>(delta(snap0, snap1, counter)), n_commits);
  };
  auto& L = res.per_layer;
  L["serve.compile_us_p50"] = quantile(compile_us, 0.5).value;
  L["serve.run_plan_ms_p50"] = quantile(run_plan_ms, 0.5).value;
  L["serve.jobs_per_query"] = ratio(jobs, n_scans);
  L["query.queue_ms_p50"] = quantile(queue_ms, 0.5).value;
  L["query.queue_ms_p99"] = quantile(queue_ms, 0.99).value;
  L["query.run_ms_p50"] = quantile(run_ms, 0.5).value;
  L["query.tokens_per_query"] = ratio(tokens, n_scans);
  L["query.expired"] =
      static_cast<double>(delta(snap0, snap1, "sched.expired"));
  L["query.failed"] = static_cast<double>(delta(snap0, snap1, "sched.failed"));
  L["query.registry_counters"] = static_cast<double>(registry_counters);
  L["query.vp.edges_scanned"] = per_scan("vp.edges_scanned");
  L["query.vp.supersteps"] = per_scan("vp.supersteps");
  L["query.vp.messages_delivered"] = per_scan("vp.messages_delivered");
  L["storage.cache_hit_ratio"] =
      ratio(attributed_hits, attributed_hits + attributed_misses);
  L["storage.cache_misses_per_scan"] = ratio(attributed_misses, n_scans);
  L["storage.cache_evictions_per_scan"] = per_scan("io.cache_evictions");
  L["storage.bytes_read_per_scan"] = per_scan("io.bytes_read");
  L["storage.read_stalls_per_scan"] = per_scan("io.read_stalls");
  L["storage.prefetch_useful_ratio"] = ratio(
      static_cast<double>(delta(snap0, snap1, "io.prefetch_hits")),
      static_cast<double>(delta(snap0, snap1, "io.prefetch_issued")));
  L["storage.vectored_merges"] =
      static_cast<double>(delta(snap0, snap1, "io.vectored_merges"));
  L["storage.write_amp"] = ratio(
      static_cast<double>(delta(snap0, snap1, "io.bytes_written")),
      n_commits * 2 * kBatchPairs * sizeof(VertexId));
  L["storage.syncs_per_commit"] = per_commit("io.syncs");
  L["storage.journal_records_per_commit"] =
      per_commit("storage.journal_records");
  L["graphdb.cow_pages_per_commit"] = per_commit("txn.cow_pages");
  L["graphdb.snapshot_reads_per_scan"] = per_scan("txn.snapshot_reads");
  L["graphdb.versions_held_max"] = static_cast<double>(versions_held_max);
  L["graphdb.epochs_advanced"] = static_cast<double>(advanced);
  L["runtime.messages_per_query"] = per_scan("comm.messages_sent");
  L["runtime.bytes_per_query"] = per_scan("comm.bytes_sent");
  L["runtime.encode_ratio"] = ratio(
      static_cast<double>(delta(snap0, snap1, "comm.payload_bytes_encoded")),
      static_cast<double>(delta(snap0, snap1, "comm.payload_bytes_raw")));
  add_load_layers(loaded, tracer, L);
  L["mssg.live_ingest_ms_p50"] = quantile(service_ms, 0.5).value;
  L["bench.gen_late_p99_ms"] = quantile(late_ms, 0.99).value;
  L["bench.trace_overhead"] = ratio(quantile(pair_traced_ms, 0.5).value,
                                    quantile(pair_untraced_ms, 0.5).value);

  // ---- environment -------------------------------------------------------
  res.add_env("dataset", dataset_json(spec, kScale, edges.size()));
  res.add_env("offered_qps", "0");
  res.add_env("scan_clients", "1");
  res.add_env("client_threads", "2");
  res.add_env("writer_commits_per_s", json_number(kCommitsPerSecond));
  res.add_env("writer_batch_edges", std::to_string(2 * kBatchPairs));
  res.add_env("cache_bytes_per_node", std::to_string(kCacheBytesPerNode));
  res.add_env("stored_bytes_per_node",
              std::to_string(on_disk / static_cast<std::uint64_t>(
                                           cluster.backend_nodes())));
  res.add_env("schedule_digest", json_string(hex(digest)));
  res.add_env("commits", std::to_string(n_batches));
  res.add_env("scans", std::to_string(scans.size()));
  return res;
}

}  // namespace perfbench
