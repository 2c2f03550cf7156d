#include "trace.h"

#include <fstream>

#include "json/json_value.h"
#include "json/json_writer.h"

namespace dashbench {

using vegaplus::Result;
using vegaplus::Status;
using vegaplus::rewrite::QueryResponse;

int64_t Tracer::Begin(std::string name, int64_t parent) {
  const double now = Now();
  return Add(std::move(name), parent, now, now);
}

void Tracer::End(int64_t id, std::string detail) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ms = Now();
  if (!detail.empty()) s.detail = std::move(detail);
}

int64_t Tracer::Add(std::string name, int64_t parent, double start_ms, double end_ms,
                    std::string detail) {
  Span s;
  s.name = std::move(name);
  s.id = static_cast<int64_t>(spans_.size());
  s.parent = parent;
  s.episode = episode_;
  s.start_ms = start_ms;
  s.end_ms = end_ms;
  s.detail = std::move(detail);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

Status Tracer::WriteJson(const std::string& path) const {
  using vegaplus::json::Value;
  Value out = Value::MakeArray();
  for (const Span& s : spans_) {
    Value v = Value::MakeObject();
    v.Set("name", s.name);
    v.Set("id", static_cast<double>(s.id));
    v.Set("parent", static_cast<double>(s.parent));
    v.Set("episode", static_cast<double>(s.episode));
    v.Set("start_ms", s.start_ms);
    v.Set("end_ms", s.end_ms);
    if (!s.detail.empty()) v.Set("detail", s.detail);
    out.Append(std::move(v));
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::IOError("trace: cannot write '" + path + "'");
  f << vegaplus::json::Write(out) << "\n";
  return f ? Status::OK() : Status::IOError("trace: short write to '" + path + "'");
}

const char* SourceName(QueryResponse::Source source) {
  switch (source) {
    case QueryResponse::Source::kClientCache: return "client_cache";
    case QueryResponse::Source::kServerCache: return "server_cache";
    case QueryResponse::Source::kTileStore: return "tiles";
    case QueryResponse::Source::kStaleCache: return "stale_cache";
    case QueryResponse::Source::kDbms: return "dbms";
  }
  return "?";
}

Result<vegaplus::rewrite::PreparedHandle> RecordingService::Prepare(
    const std::string& sql_template) {
  VP_ASSIGN_OR_RETURN(auto handle, session_->Prepare(sql_template));
  templates_[handle] = sql_template;
  return handle;
}

vegaplus::rewrite::QueryTicketPtr RecordingService::Submit(
    const vegaplus::rewrite::QueryRequest& request) {
  const double start = tracer_->Now();
  Result<QueryResponse> response = session_->Submit(request)->Await();
  const double end = tracer_->Now();
  if (response.ok()) {
    RoundTrip rt;
    rt.sql_template = templates_[request.handle];
    rt.span = tracer_->Add("runtime.roundtrip", parent_, start, end,
                           std::string(SourceName(response->source)) + ": " + rt.sql_template);
    rt.episode = tracer_->episode();
    rt.params = request.params;
    rt.source = response->source;
    rt.table = response->table;
    rt.ms = end - start;
    round_trips_.push_back(std::move(rt));
  }
  return vegaplus::rewrite::QueryTicket::Ready(std::move(response), request.generation);
}

}  // namespace dashbench
