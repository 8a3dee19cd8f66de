#include "serving.hpp"

#include "common.hpp"
#include "serve/query_lang.hpp"

namespace perfbench {

QueryRecord run_query(mssg::serve::ServeSession& session, Tracer& tracer,
                      bool traced, const char* span_name,
                      const std::string& text) {
  Tracer& t = traced ? tracer : disabled_tracer();
  QueryRecord rec;
  rec.traced = traced;
  const std::uint64_t request = t.new_request();
  ScopedSpan root(t, span_name, request);
  mssg::serve::PlanResult compiled;
  {
    ScopedSpan span(t, "compile_query", request, root.id());
    compiled = mssg::serve::compile_query(text);
  }
  if (!compiled.ok()) {
    rec.error = compiled.error.to_string();
    return rec;
  }
  rec.compiled = true;
  const Clock::time_point start = Clock::now();
  mssg::serve::ServeResult result;
  std::uint64_t run_plan_span = 0;
  {
    ScopedSpan span(t, "run_plan", request, root.id());
    run_plan_span = span.id();
    result = session.run_plan(*compiled.plan);
  }
  // The scheduler reports summed admission wait and execution time per
  // plan; they become the run_plan span's two children.
  t.add("queue", request, run_plan_span, start, result.queue_seconds);
  t.add("run", request, run_plan_span, after(start, result.queue_seconds),
        result.run_seconds);
  rec.ok = result.ok();
  rec.expired = result.expired;
  rec.truncated = result.truncated;
  rec.error = result.error;
  rec.queue_s = result.queue_seconds;
  rec.run_s = result.run_seconds;
  rec.jobs = result.jobs;
  rec.tokens = result.tokens_spent;
  rec.query_ids = result.query_ids;
  rec.values = std::move(result.values);
  return rec;
}

mssg::serve::ServeConfig serve_config() {
  mssg::serve::ServeConfig config;
  config.token_budget = std::uint64_t{1} << 50;
  return config;
}

}  // namespace perfbench
