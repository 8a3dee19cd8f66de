// MSSG benchmark: runs one named workload with one seed, checks
// every answer, and prints every metric by name with its unit.  The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  A traced run also writes a Chrome trace-event file.
//
//   mssg_perfbench --workload <ingest|scan_live> --seed <n>
//                  --seconds <s> --trace <0|1> --work-dir <dir>
//                  --out-dir <dir> [--git-sha <sha>]
//                  [--source-digest <hex>] [--build-type <type>]
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, measured on every workload; METRICS.md says
// what each one counts on each workload.  Times are CPU time, not wall
// time: the wall-clock figures are printed too, but on a shared host
// they move with the time the hypervisor steals.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"space_amp", "ratio"},
    {"cpu_ms_per_op", "ms"},
};

// The per-layer metrics, by module.  A workload that does not exercise a
// layer reports 0 for it.
constexpr MetricSpec kPerLayer[] = {
    {"serve.compile_us_p50", "us"},
    {"serve.run_plan_ms_p50", "ms"},
    {"serve.jobs_per_query", "count"},
    {"query.queue_ms_p50", "ms"},
    {"query.queue_ms_p99", "ms"},
    {"query.run_ms_p50", "ms"},
    {"query.tokens_per_query", "count"},
    {"query.expired", "count"},
    {"query.failed", "count"},
    {"query.registry_counters", "count"},
    {"query.vp.edges_scanned", "count"},
    {"query.vp.supersteps", "count"},
    {"query.vp.messages_delivered", "count"},
    {"storage.cache_hit_ratio", "ratio"},
    {"storage.cache_misses_per_scan", "count"},
    {"storage.cache_evictions_per_scan", "count"},
    {"storage.bytes_read_per_scan", "bytes"},
    {"storage.read_stalls_per_scan", "count"},
    {"storage.prefetch_useful_ratio", "ratio"},
    {"storage.vectored_merges", "count"},
    {"storage.write_amp", "ratio"},
    {"storage.syncs_per_commit", "count"},
    {"storage.journal_records_per_commit", "count"},
    {"graphdb.cow_pages_per_commit", "count"},
    {"graphdb.snapshot_reads_per_scan", "count"},
    {"graphdb.versions_held_max", "count"},
    {"graphdb.epochs_advanced", "count"},
    {"runtime.messages_per_query", "count"},
    {"runtime.bytes_per_query", "bytes"},
    {"runtime.encode_ratio", "ratio"},
    {"ingest.store_s", "s"},
    {"ingest.windows", "count"},
    {"ingest.imbalance", "ratio"},
    {"mssg.ingest_s", "s"},
    {"mssg.commit_all_s", "s"},
    {"mssg.live_ingest_ms_p50", "ms"},
    {"gen.build_dataset_s", "s"},
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mssg_perfbench: " << why << "\n"
            << "usage: mssg_perfbench --workload <ingest|scan_live> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "--out-dir <dir>\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else if (flag == "--out-dir") {
        o.out_dir = value;
      } else if (flag == "--git-sha") {
        o.git_sha = value;
      } else if (flag == "--source-digest") {
        o.source_digest = value;
      } else if (flag == "--build-type") {
        o.build_type = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      o.work_dir.empty() || o.out_dir.empty()) {
    usage("missing a required flag");
  }
  if (!(o.seconds > 0 && o.seconds <= 120)) {
    usage("--seconds must be in (0, 120]");
  }
  return o;
}

std::string metrics_object(const MetricSpec* specs, std::size_t count,
                           const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(specs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    os << (i == 0 ? "" : ", ") << json_string(specs[i].name)
       << ": {\"value\": " << json_number(v)
       << ", \"unit\": " << json_string(specs[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

std::string members(const std::vector<std::string>& items) {
  std::string out = "{";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + items[i];
  }
  return out + "}";
}

std::string wall_clock_json(
    const std::vector<std::pair<std::string, RunResult::Figure>>& figures) {
  std::vector<std::string> items;
  for (const auto& [name, figure] : figures) {
    items.push_back(json_string(name) + ": {\"value\": " +
                    json_number(figure.value) +
                    ", \"unit\": " + json_string(figure.unit) + "}");
  }
  return members(items);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  RunResult (*run)(const Options&, Tracer&) = nullptr;
  if (options.workload == "ingest") {
    run = run_ingest;
  } else if (options.workload == "scan_live") {
    run = run_scan_live;
  } else {
    usage("unknown workload " + options.workload);
  }

  Tracer tracer(options.trace);
  const CpuTicks ticks0 = cpu_ticks();
  RunResult res;
  try {
    fs::create_directories(options.work_dir);
    fs::create_directories(options.out_dir);
    res = run(options, tracer);
  } catch (const std::exception& e) {
    std::cerr << "mssg_perfbench: " << options.workload
              << " aborted: " << e.what() << "\n";
    return 1;
  }
  const CpuTicks ticks1 = cpu_ticks();
  std::error_code ec;
  fs::remove_all(options.work_dir, ec);

  for (const MetricSpec& m : kEndToEnd) {
    if (res.end_to_end.count(m.name) == 0) {
      std::cerr << "mssg_perfbench: " << options.workload
                << " did not measure " << m.name << "\n";
      return 1;
    }
  }

  // Environment block: the machine, the build, and what the workload
  // added (dataset, offered rate, writer pace, cache versus stored bytes).
  std::vector<std::string> env = {
      json_string("workload") + ": " + json_string(options.workload),
      json_string("seed") + ": " + std::to_string(options.seed),
      json_string("seconds") + ": " + json_number(options.seconds),
      json_string("trace") + ": " + (options.trace ? "true" : "false"),
      json_string("nproc") + ": " +
          std::to_string(std::thread::hardware_concurrency()),
      json_string("git_sha") + ": " + json_string(options.git_sha),
      json_string("source_digest") + ": " + json_string(options.source_digest),
      json_string("build_type") + ": " + json_string(options.build_type),
      json_string("cpu_steal_share") + ": " +
          json_number(ticks1.total > ticks0.total
                          ? static_cast<double>(ticks1.steal - ticks0.steal) /
                                static_cast<double>(ticks1.total - ticks0.total)
                          : 0.0),
  };
  env.insert(env.end(), res.env.begin(), res.env.end());

  const std::string stem = options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0");
  if (options.trace) {
    const fs::path trace_file = options.out_dir / (stem + ".trace.json");
    tracer.write_chrome_json(trace_file);
    std::cout << "trace file: " << trace_file.string() << "\n";
  }

  for (const MetricSpec& m : kEndToEnd) {
    std::cout << "end_to_end " << m.name << " = "
              << json_number(res.end_to_end[m.name]) << " " << m.unit << "\n";
  }
  for (const auto& [name, figure] : res.wall_clock) {
    std::cout << "wall_clock " << name << " = " << json_number(figure.value)
              << " " << figure.unit << "\n";
  }
  for (const MetricSpec& m : kPerLayer) {
    const auto it = res.per_layer.find(m.name);
    std::cout << "per_layer " << m.name << " = "
              << json_number(it == res.per_layer.end() ? 0 : it->second)
              << " " << m.unit << "\n";
  }
  for (const std::string& why : res.check_failures) {
    std::cout << "check failed: " << why << "\n";
  }
  const bool correct = res.failed == 0 && res.attempted > 0;
  const std::string env_json = members(env);
  std::cout << "env " << env_json << "\n";
  {
    std::vector<std::string> failures;
    for (const std::string& why : res.check_failures) {
      failures.push_back(json_string(why));
    }
    std::string failures_json = "[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      failures_json += (i == 0 ? "" : ", ") + failures[i];
    }
    failures_json += "]";
    std::ofstream out(options.out_dir / (stem + ".json"));
    out << "{\"env\": " << env_json << ",\n \"detail\": "
        << members(res.detail) << ",\n \"end_to_end\": "
        << metrics_object(kEndToEnd, std::size(kEndToEnd), res.end_to_end)
        << ",\n \"wall_clock\": " << wall_clock_json(res.wall_clock)
        << ",\n \"per_layer\": "
        << metrics_object(kPerLayer, std::size(kPerLayer), res.per_layer)
        << ",\n \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << res.attempted
        << ", \"failed\": " << res.failed
        << ", \"check_failures\": " << failures_json << "}\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed << ", \"metrics\": "
            << (options.trace
                    ? metrics_object(kPerLayer, std::size(kPerLayer),
                                     res.per_layer)
                    : metrics_object(kEndToEnd, std::size(kEndToEnd),
                                     res.end_to_end))
            << "}" << std::endl;
  return 0;
}
