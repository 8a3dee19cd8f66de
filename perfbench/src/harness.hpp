// Shared pieces of the benchmark program: run options, result records,
// quantiles, the span tracer, and small readers of process and disk state.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

namespace fs = std::filesystem;

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path work_dir;   ///< cluster storage roots live here (removed at exit)
  fs::path out_dir;    ///< result and trace files
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string build_type = "unknown";
};

/// One percentile of a sample set, with the evidence behind it.  The
/// benchmark reports a percentile only as "supported" when at least ten
/// samples lie beyond it; otherwise the value is still printed but
/// flagged.
struct Quantile {
  double q = 0.5;
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  [[nodiscard]] bool supported() const { return beyond >= 10; }
};

/// Nearest-rank percentile (q in (0, 1]).  An empty set gives value 0
/// with zero samples.
Quantile quantile(std::vector<double> samples, double q);

/// The highest of p99, p98, p95, p90, p80 and p75 that keeps at least
/// ten samples beyond it when `planned` samples arrive (p50 otherwise).
/// Workloads fix each tail from their planned sample count, so the same
/// percentile is reported on every run.
double tail_percentile(double planned);

/// "p99", "p75", ...
std::string percentile_name(double q);

/// Everything a workload hands back to main().
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  ///< wrong answers and self-test
  /// Metric values by name; main() owns the names, units and order.  A
  /// per-layer metric a workload does not exercise is left out and
  /// printed as 0.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Wall-clock figures (latencies from the due time, rates per second).
  /// They are printed and written to the result file but not judged:
  /// on a shared host they move with the CPU time the host steals.
  struct Figure {
    double value = 0;
    std::string unit;
  };
  std::vector<std::pair<std::string, Figure>> wall_clock;
  /// Pre-rendered JSON members ("key": value) for the environment block
  /// and the per-workload detail (which percentile each tail is, sample
  /// counts, flags).
  std::vector<std::string> env;
  std::vector<std::string> detail;

  void fail_check(std::string what);
  void add_env(const std::string& key, const std::string& json_value);
  void add_detail(const std::string& key, const std::string& json_value);
  void add_quantile_detail(const std::string& key, const Quantile& q);
  void add_wall_clock(const std::string& name, double value,
                      const std::string& unit);
};

std::string json_string(const std::string& s);
std::string json_number(double v);

/// Process peak resident set (VmHWM) in MiB.
double peak_rss_mb();

/// CPU time (user + system, every thread) the process has used so far,
/// in seconds.  The kernel leaves out time the hypervisor stole from the
/// virtual CPUs, so a difference of two readings is the work an
/// operation cost, which wall time on a shared host is not.
double process_cpu_seconds();

/// CPU time counters of the whole machine (/proc/stat "cpu" line), to
/// report the share of time the hypervisor stole during a run.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();

/// Allocated bytes (st_blocks * 512) of every regular file under `root`.
std::uint64_t disk_bytes(const fs::path& root);

/// Records spans around the benchmark's own calls into the program and
/// writes them as Chrome trace-event JSON.  Spans of one request share a
/// request id; `parent` links a child to the span that caused it.  When
/// disabled, begin() returns 0 and end() does nothing, so call sites need
/// no branches.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// A fresh request id (shared by every span of one request).
  std::uint64_t new_request();

  /// Opens a span; returns its id (0 when disabled).
  std::uint64_t begin(const char* name, std::uint64_t request,
                      std::uint64_t parent);
  void end(std::uint64_t span);

  /// Adds a finished span with explicit times, e.g. the queue and run
  /// children a ServeResult reports for a run_plan call.
  void add(const char* name, std::uint64_t request, std::uint64_t parent,
           Clock::time_point start, double seconds);

  /// Durations (seconds) of every finished span with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  void write_chrome_json(const fs::path& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t request = 0;
    std::uint64_t parent = 0;
    std::uint64_t thread = 0;
    double start_us = 0;
    double dur_us = -1;  ///< -1 while open
  };

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
  std::uint64_t next_request_ = 1;
};

/// A tracer that records nothing, for operations run untraced in a traced
/// run.
Tracer& disabled_tracer();

/// Span guard; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request,
             std::uint64_t parent = 0)
      : tracer_(tracer), id_(tracer.begin(name, request, parent)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { tracer_.end(id_); }

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

RunResult run_ingest(const Options& options, Tracer& tracer);
RunResult run_scan_live(const Options& options, Tracer& tracer);

}  // namespace perfbench
