// Spans and round-trip records for the traced pass.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer (nothing inside the program is instrumented), kept in memory and
// written out as JSON when the run ends. A span has a name, a start and end
// on one steady clock, the span that caused it, and the id of the episode
// (cold open or interaction) it belongs to.
#ifndef DASHBENCH_TRACE_H_
#define DASHBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "rewrite/query_service.h"
#include "runtime/middleware.h"

namespace dashbench {

struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;  ///< -1 for a root span
  int64_t episode = -1;  ///< -1 outside any episode (set-up)
  double start_ms = 0;
  double end_ms = 0;
  std::string detail;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Milliseconds since the tracer was created.
  double Now() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     origin_)
        .count();
  }

  /// Open a span starting now; close it with End().
  int64_t Begin(std::string name, int64_t parent = -1);
  void End(int64_t id, std::string detail = "");
  /// Record a span measured elsewhere.
  int64_t Add(std::string name, int64_t parent, double start_ms, double end_ms,
              std::string detail = "");

  /// Spans opened from now on belong to `episode`.
  void set_episode(int64_t episode) { episode_ = episode; }
  int64_t episode() const { return episode_; }

  const Span& span(int64_t id) const { return spans_[static_cast<size_t>(id)]; }
  double DurationMs(int64_t id) const { return span(id).end_ms - span(id).start_ms; }

  /// Write every span as a JSON array of objects.
  vegaplus::Status WriteJson(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  int64_t episode_ = -1;
};

/// One query round trip seen by the recording service.
struct RoundTrip {
  int64_t span = -1;
  int64_t episode = -1;
  std::string sql_template;
  std::vector<vegaplus::rewrite::QueryParam> params;
  vegaplus::rewrite::QueryResponse::Source source =
      vegaplus::rewrite::QueryResponse::Source::kDbms;
  vegaplus::data::TablePtr table;
  double ms = 0;
};

const char* SourceName(vegaplus::rewrite::QueryResponse::Source source);

/// A QueryService that forwards Prepare/Submit to a middleware session and
/// stamps each round trip. Submit waits for the response before returning a
/// resolved ticket, so every span covers exactly one round trip; the overlap
/// the dataflow would otherwise get between queries of one wave is lost,
/// and that loss is part of the measured tracing overhead.
class RecordingService : public vegaplus::rewrite::QueryService {
 public:
  RecordingService(std::shared_ptr<vegaplus::runtime::Session> session, Tracer* tracer)
      : session_(std::move(session)), tracer_(tracer) {}

  vegaplus::Result<vegaplus::rewrite::PreparedHandle> Prepare(
      const std::string& sql_template) override;
  vegaplus::rewrite::QueryTicketPtr Submit(
      const vegaplus::rewrite::QueryRequest& request) override;

  /// Parent span for round trips recorded from now on.
  void set_parent(int64_t parent) { parent_ = parent; }

  const std::vector<RoundTrip>& round_trips() const { return round_trips_; }

 private:
  std::shared_ptr<vegaplus::runtime::Session> session_;
  Tracer* tracer_;
  int64_t parent_ = -1;
  std::unordered_map<vegaplus::rewrite::PreparedHandle, std::string> templates_;
  std::vector<RoundTrip> round_trips_;
};

}  // namespace dashbench

#endif  // DASHBENCH_TRACE_H_
