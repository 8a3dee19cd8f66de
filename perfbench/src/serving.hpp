// One query-language request through ServeSession: compile_query, then
// run_plan, each in its own span when the request is traced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "serve/session.hpp"

namespace perfbench {

struct QueryRecord {
  double latency_s = 0;  ///< set by the caller
  bool traced = false;
  bool compiled = false;
  bool ok = false;
  bool expired = false;
  bool truncated = false;
  std::string error;
  std::vector<double> values;
  double queue_s = 0;
  double run_s = 0;
  std::uint64_t jobs = 0;
  std::uint64_t tokens = 0;
  std::vector<std::uint64_t> query_ids;

  /// Served without error, expiry or truncation (the answer itself is
  /// checked separately, after the timed phase).
  [[nodiscard]] bool served() const {
    return compiled && ok && !expired && !truncated;
  }
};

/// Runs one request.  `span_name` names the request's root span.
QueryRecord run_query(mssg::serve::ServeSession& session, Tracer& tracer,
                      bool traced, const char* span_name,
                      const std::string& text);

/// Session settings: the default class policies, with the same
/// never-binding token budget as the scheduler (see cluster_config).
mssg::serve::ServeConfig serve_config();

}  // namespace perfbench
