#include "harness.hpp"

#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

namespace perfbench {

Quantile quantile(std::vector<double> samples, double q) {
  Quantile out;
  out.q = q;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  out.value = samples[rank - 1];
  out.beyond = n - rank;
  return out;
}

double tail_percentile(double planned) {
  const auto n = static_cast<std::size_t>(std::max(0.0, planned));
  for (const double q : {0.99, 0.98, 0.95, 0.9, 0.8, 0.75}) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (n >= rank + 10) return q;
  }
  return 0.5;
}

std::string percentile_name(double q) {
  return "p" + std::to_string(static_cast<int>(std::lround(q * 100)));
}

void RunResult::fail_check(std::string what) {
  // Keep the output bounded: the count is what fails the run, the first
  // few messages say why.
  if (check_failures.size() < 20) check_failures.push_back(std::move(what));
  ++failed;
}

void RunResult::add_env(const std::string& key, const std::string& value) {
  env.push_back(json_string(key) + ": " + value);
}

void RunResult::add_detail(const std::string& key, const std::string& value) {
  detail.push_back(json_string(key) + ": " + value);
}

void RunResult::add_wall_clock(const std::string& name, double value,
                               const std::string& unit) {
  // A short run's tail can fall back to p50; print that figure once.
  for (const auto& [have, figure] : wall_clock) {
    if (have == name) return;
  }
  wall_clock.push_back({name, Figure{value, unit}});
}

void RunResult::add_quantile_detail(const std::string& key,
                                    const Quantile& q) {
  std::ostringstream os;
  os << "{\"percentile\": " << json_string(percentile_name(q.q))
     << ", \"value\": " << json_number(q.value)
     << ", \"samples\": " << q.samples << ", \"beyond\": " << q.beyond
     << ", \"supported\": " << (q.supported() ? "true" : "false") << "}";
  add_detail(key, os.str());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  // JSON has no NaN or infinity; callers guard their divisions, so this
  // only trips on a bug, and 0 keeps the line parseable.
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

double process_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks out;
  if (cpu != "cpu") return out;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) return out;
    out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

std::uint64_t disk_bytes(const fs::path& root) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    struct stat st {};
    if (::stat(it->path().c_str(), &st) == 0) {
      total += static_cast<std::uint64_t>(st.st_blocks) * 512;
    }
  }
  return total;
}

Tracer& disabled_tracer() {
  static Tracer tracer(false);
  return tracer;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::uint64_t Tracer::new_request() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t request,
                            std::uint64_t parent) {
  if (!enabled_) return 0;
  const double start_us = 1e6 * seconds_between(origin_, Clock::now());
  const auto thread =
      static_cast<std::uint64_t>(
          std::hash<std::thread::id>{}(std::this_thread::get_id())) %
      100000;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, spans_.size() + 1, request, parent, thread,
                        start_us, -1});
  return spans_.size();
}

void Tracer::end(std::uint64_t span) {
  if (span == 0) return;
  const double end_us = 1e6 * seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_.at(span - 1);
  s.dur_us = end_us - s.start_us;
}

void Tracer::add(const char* name, std::uint64_t request,
                 std::uint64_t parent, Clock::time_point start,
                 double seconds) {
  if (!enabled_) return;
  const auto thread =
      static_cast<std::uint64_t>(
          std::hash<std::thread::id>{}(std::this_thread::get_id())) %
      100000;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, spans_.size() + 1, request, parent, thread,
                        1e6 * seconds_between(origin_, start),
                        1e6 * seconds});
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    if (s.name == name && s.dur_us >= 0) out.push_back(s.dur_us / 1e6);
  }
  return out;
}

void Tracer::write_chrome_json(const fs::path& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  std::lock_guard<std::mutex> lock(mu_);
  bool first = true;
  for (const Span& s : spans_) {
    if (s.dur_us < 0) continue;
    out << (first ? "\n" : ",\n") << "{\"name\": " << json_string(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << json_number(s.start_us)
        << ", \"dur\": " << json_number(s.dur_us)
        << ", \"args\": {\"span\": " << s.id << ", \"request\": " << s.request
        << ", \"parent\": " << s.parent << "}}";
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
