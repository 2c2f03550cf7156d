#include "workload.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "benchdata/workload.h"
#include "common/random.h"
#include "common/str_util.h"
#include "percentile.h"
#include "rewrite/plan_builder.h"
#include "runtime/plan_executor.h"
#include "sql/prepared.h"
#include "storage/reader.h"
#include "storage/table_shard.h"
#include "tiles/tile_store.h"

namespace dashbench {

using vegaplus::Result;
using vegaplus::Status;
using vegaplus::benchdata::TemplateId;
using vegaplus::data::TablePtr;
using vegaplus::rewrite::QueryResponse;
using vegaplus::runtime::Middleware;
using vegaplus::runtime::PlanExecutor;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Failure messages kept per run (the count is always exact).
constexpr size_t kKeptFailures = 5;

// Replays per kind in the traced pass: enough for a median, bounded so the
// replays cost a fraction of the run.
constexpr size_t kMaxEngineReplays = 40;
constexpr size_t kMaxTileReplays = 4;
constexpr size_t kMaxEncodeReplays = 120;
constexpr int kPlanBuilds = 5;

size_t HardwareThreads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

void Fail(RunResult* out, const std::string& what, const Status& st) {
  ++out->failed;
  if (out->failures.size() < kKeptFailures) {
    out->failures.push_back(what + ": " + st.ToString());
  }
}

Status OpenShard(const WorkloadDef& def, Inputs* in) {
  VP_ASSIGN_OR_RETURN(std::shared_ptr<vegaplus::storage::Reader> reader,
                      vegaplus::storage::Reader::Open(in->shard_path));
  reader->set_residency_budget(def.residency_bytes);
  return in->engine->RegisterShardTable(in->dataset.name, std::move(reader));
}

vegaplus::rewrite::ExecutionPlan PlanFor(const WorkloadDef& def,
                                         const vegaplus::rewrite::PlanBuilder& builder) {
  return def.all_client ? builder.AllClientPlan() : builder.FullPushdownPlan();
}

/// One checked episode: the signal state it rendered and each view's output.
struct Snapshot {
  std::string what;
  SignalState signals;
  std::vector<TablePtr> outputs;
  bool failed = false;
};

template <typename OutputOf>
Snapshot Capture(std::string what, const std::vector<View>& views,
                 const SignalState& signals, OutputOf output_of) {
  Snapshot snap{std::move(what), signals, {}, false};
  for (const View& v : views) snap.outputs.push_back(output_of(v.entry));
  return snap;
}

/// Updates that set every bound signal to its value in `state`: applied to a
/// freshly opened dashboard they reproduce the state in one step.
std::vector<vegaplus::runtime::SignalUpdate> StateUpdates(
    const vegaplus::spec::VegaSpec& spec, const SignalState& state) {
  std::vector<vegaplus::runtime::SignalUpdate> updates;
  for (const auto& s : spec.signals) {
    if (s.bind == vegaplus::spec::BindKind::kNone) continue;
    auto it = state.find(s.name);
    if (it != state.end()) updates.emplace_back(s.name, it->second);
  }
  return updates;
}

struct OpenDashboard {
  std::shared_ptr<Middleware> middleware;
  std::unique_ptr<PlanExecutor> executor;
};

/// Open the dashboard on a fresh middleware (and a freshly opened shard
/// reader); `ms` is the wall time from plan construction to first render.
Result<OpenDashboard> ColdOpen(const WorkloadDef& def, Inputs* in, double* ms) {
  if (def.shard) VP_RETURN_IF_ERROR(OpenShard(def, in));
  OpenDashboard open;
  open.middleware = std::make_shared<Middleware>(in->engine.get(), PinnedMiddlewareOptions());
  const auto start = Clock::now();
  open.executor = std::make_unique<PlanExecutor>(in->spec, open.middleware);
  VP_RETURN_IF_ERROR(
      open.executor->Initialize(PlanFor(def, open.executor->builder())).status());
  *ms = MsSince(start);
  return open;
}

struct LoopState {
  double loop_ms = 0;  ///< summed Interact wall time, across segments
  bool reference_done = false;
};

/// The untraced loop of one segment: whole rounds on `exec` until the
/// loop's cumulative time reaches `until_ms` (or `rounds` rounds). The first
/// round of the run is the fixed reference round; its transfer is reported.
void RunSegmentLoop(const WorkloadDef& def, const RunOptions& options, double until_ms,
                    const Inputs& in, PlanExecutor* exec,
                    vegaplus::benchdata::WorkloadGenerator* gen, LoopState* state,
                    RunResult* out, std::vector<Snapshot>* interactions) {
  SignalState signals = InitialSignals(in.spec);
  const auto stats_before = exec->session().stats();
  vegaplus::benchdata::WorkloadGenerator reference(in.spec, kReferenceSeed);
  for (size_t round = 0; options.rounds > 0 ? round < options.rounds : state->loop_ms < until_ms;
       ++round) {
    const bool is_reference = !state->reference_done;
    for (size_t i = 0; i < def.round; ++i) {
      vegaplus::benchdata::Interaction it = is_reference ? reference.Next() : gen->Next();
      const auto start = Clock::now();
      Result<vegaplus::runtime::EpisodeCost> cost = exec->Interact(it.updates);
      const double wall = MsSince(start);
      state->loop_ms += wall;
      ++out->attempted;
      ApplyUpdates(it.updates, &signals);
      if (cost.ok()) {
        out->interaction_ms.push_back(wall);
        out->model_ms.push_back(cost->total_ms);
        interactions->push_back(
            Capture(it.description, in.views, signals,
                    [&](const std::string& e) { return exec->EntryOutput(e); }));
      } else {
        Fail(out, "interaction " + it.description, cost.status());
      }
    }
    if (is_reference) {
      out->transfer_bytes = static_cast<double>(exec->session().stats().bytes_transferred);
      state->reference_done = true;
    }
  }
  const auto stats_after = exec->session().stats();
  out->queries += stats_after.submitted - stats_before.submitted;
  out->dbms_executions += stats_after.dbms_executions - stats_before.dbms_executions;
}

/// Check every snapshot against the independent row counter.
void CheckCounts(const std::vector<View>& views, RowCounter* counter,
                 std::vector<Snapshot>* snaps, RunResult* out) {
  for (Snapshot& snap : *snaps) {
    for (size_t v = 0; v < views.size() && !snap.failed; ++v) {
      Status st = CheckView(views[v], snap.outputs[v], snap.signals, counter);
      if (!st.ok()) {
        snap.failed = true;
        ++out->wrong;
        Fail(out, snap.what, st);
      }
    }
  }
}

/// Compare a fixed sample of interactions bin by bin against the second
/// execution path: the all-client Vega baseline for pushdown plans, the
/// full-pushdown plan for the all-client plan.
Status CompareSampled(const WorkloadDef& def, Inputs* in, std::vector<Snapshot>* snaps,
                      RunResult* out) {
  std::vector<size_t> sample;
  for (size_t k = 0; k < def.compare_count; ++k) {
    if (k * def.compare_stride < snaps->size()) sample.push_back(k * def.compare_stride);
  }
  if (sample.empty()) return Status::OK();

  std::unique_ptr<vegaplus::runtime::VegaBaselineExecutor> baseline;
  OpenDashboard pushdown;
  if (def.all_client) {
    pushdown.middleware =
        std::make_shared<Middleware>(in->engine.get(), PinnedMiddlewareOptions());
    pushdown.executor = std::make_unique<PlanExecutor>(in->spec, pushdown.middleware);
    VP_RETURN_IF_ERROR(
        pushdown.executor->Initialize(pushdown.executor->builder().FullPushdownPlan())
            .status());
  } else {
    baseline = std::make_unique<vegaplus::runtime::VegaBaselineExecutor>(
        in->spec, std::map<std::string, TablePtr>{{in->dataset.name, in->dataset.table}});
    VP_RETURN_IF_ERROR(baseline->Initialize().status());
  }
  for (size_t k : sample) {
    Snapshot& snap = (*snaps)[k];
    auto updates = StateUpdates(in->spec, snap.signals);
    Status st = baseline ? baseline->Interact(updates).status()
                         : pushdown.executor->Interact(updates).status();
    for (size_t v = 0; st.ok() && v < in->views.size(); ++v) {
      const std::string& entry = in->views[v].entry;
      TablePtr other = baseline ? baseline->EntryOutput(entry)
                                : pushdown.executor->EntryOutput(entry);
      if (other == nullptr || snap.outputs[v] == nullptr) {
        st = Status::RuntimeError("compare: no output for '" + entry + "'");
      } else {
        st = SameRows(*snap.outputs[v], *other);
        if (!st.ok()) st = Status::RuntimeError("compare '" + entry + "': " + st.message());
      }
    }
    if (!st.ok() && !snap.failed) {
      snap.failed = true;
      ++out->wrong;
      Fail(out, snap.what + " (second path)", st);
    }
  }
  return Status::OK();
}

struct TracedCounters {
  Middleware::Stats mw;
  vegaplus::sql::ExecStats engine;
};

/// The traced pass: a cold open and an interaction loop on a dashboard whose
/// session is wrapped in a RecordingService, then isolated replays of the
/// recorded round trips. Fills `out->layer`.
Status TracedPass(const WorkloadDef& def, const RunOptions& options, double seconds,
                  Inputs* in, Tracer* tracer, RunResult* out,
                  std::vector<Snapshot>* interactions) {
  if (def.shard) VP_RETURN_IF_ERROR(OpenShard(def, in));
  auto mw = std::make_shared<Middleware>(in->engine.get(), PinnedMiddlewareOptions());
  RecordingService service(mw->CreateSession(), tracer);
  std::map<std::string, double>& L = out->layer;

  // Cold open (episode 0).
  tracer->set_episode(0);
  const int64_t open_span = tracer->Begin("open");
  std::vector<double> build_ms;
  vegaplus::rewrite::PlanDataflow flow;
  for (int b = 0; b < kPlanBuilds; ++b) {
    const int64_t span = tracer->Begin("rewrite.plan_build", open_span);
    vegaplus::rewrite::PlanBuilder builder(in->spec);
    VP_ASSIGN_OR_RETURN(flow, builder.Build(PlanFor(def, builder), &service));
    tracer->End(span);
    build_ms.push_back(tracer->DurationMs(span));
  }
  L["rewrite.plan_build_ms"] = Median(build_ms);
  service.set_parent(open_span);
  ++out->attempted;
  Result<vegaplus::dataflow::RunStats> first = flow.graph->Run();
  tracer->End(open_span);
  auto output_of = [&](const std::string& e) -> TablePtr {
    auto it = flow.entry_tails.find(e);
    return it == flow.entry_tails.end() ? nullptr : it->second->output;
  };
  if (!first.ok()) {
    Fail(out, "traced cold open", first.status());
    return Status::OK();
  }
  const SignalState initial = InitialSignals(in->spec);
  interactions->push_back(Capture("traced cold open", in->views, initial, output_of));
  const vegaplus::tiles::TileStore* tiles = mw->tile_store();
  L["tiles.hits"] = tiles != nullptr ? static_cast<double>(tiles->stats().hits) : 0;

  // Interactions (episodes 1..n): the untraced loop's stream, replayed from
  // the reference round on.
  const TracedCounters before{mw->stats(), in->engine->lifetime_stats()};
  vegaplus::benchdata::WorkloadGenerator reference(in->spec, kReferenceSeed);
  vegaplus::benchdata::WorkloadGenerator gen(in->spec, InteractionSeed(options.seed));
  SignalState signals = initial;
  std::vector<double> wall_ms, client_ms;
  double rows_processed = 0, ops_evaluated = 0;
  size_t next_rt = service.round_trips().size();
  const auto loop_start = Clock::now();
  int64_t episode = 0;
  for (size_t round = 0;
       options.rounds > 0 ? round < options.rounds : MsSince(loop_start) < seconds * 1e3;
       ++round) {
    for (size_t i = 0; i < def.round; ++i) {
      vegaplus::benchdata::Interaction it = round == 0 ? reference.Next() : gen.Next();
      tracer->set_episode(++episode);
      const int64_t span = tracer->Begin("interaction");
      service.set_parent(span);
      Result<vegaplus::dataflow::RunStats> stats = flow.graph->Update(it.updates);
      tracer->End(span, it.description);
      ++out->attempted;
      ApplyUpdates(it.updates, &signals);
      if (!stats.ok()) {
        Fail(out, "traced interaction " + it.description, stats.status());
        continue;
      }
      const double wall = tracer->DurationMs(span);
      double blocked = 0;
      for (; next_rt < service.round_trips().size(); ++next_rt) {
        blocked += service.round_trips()[next_rt].ms;
      }
      wall_ms.push_back(wall);
      client_ms.push_back(wall - blocked);
      rows_processed += static_cast<double>(stats->rows_processed);
      ops_evaluated += stats->ops_evaluated;
      interactions->push_back(Capture("traced " + it.description, in->views, signals,
                                      output_of));
    }
  }
  const TracedCounters after{mw->stats(), in->engine->lifetime_stats()};
  const double n = std::max<double>(1, static_cast<double>(wall_ms.size()));
  const double queries = static_cast<double>(after.mw.submitted - before.mw.submitted);
  const double hits = static_cast<double>(
      after.mw.client_cache_hits + after.mw.server_cache_hits -
      before.mw.client_cache_hits - before.mw.server_cache_hits);
  L["runtime.queries_per_interaction"] = queries / n;
  L["runtime.cache_hit_ratio"] = queries > 0 ? hits / queries : 0;
  L["runtime.dbms_executions"] =
      static_cast<double>(after.mw.dbms_executions - before.mw.dbms_executions) / n;
  L["sql.rows_scanned"] =
      static_cast<double>(after.engine.rows_scanned - before.engine.rows_scanned) / n;
  L["storage.chunks_paged_in"] = static_cast<double>(after.mw.storage_chunks_paged_in);
  L["storage.chunks_pruned"] = static_cast<double>(after.mw.storage_chunks_pruned);
  L["dataflow.client_ms"] = Median(client_ms);
  L["dataflow.rows_processed"] = rows_processed / n;
  L["dataflow.ops_evaluated"] = ops_evaluated / n;
  const double untraced_p50 = Median(out->interaction_ms);
  L["trace.overhead_pct"] =
      untraced_p50 > 0 ? (Median(wall_ms) - untraced_p50) / untraced_p50 * 100 : 0;

  // Replays, each round trip in isolation: engine or tile store, then encode.
  std::map<std::string, vegaplus::sql::PreparedPtr> prepared;
  std::vector<double> engine_ms, tile_build_ms, encode_ms, roundtrip_ms, self_ms;
  size_t engine_replays = 0, tile_replays = 0, encode_replays = 0;
  for (const RoundTrip& rt : service.round_trips()) {
    if (rt.episode > 0) roundtrip_ms.push_back(rt.ms);
    if (rt.source == QueryResponse::Source::kClientCache) {
      if (rt.episode > 0) self_ms.push_back(rt.ms);
      continue;
    }
    double server_ms = 0;
    const bool dbms = rt.source == QueryResponse::Source::kDbms;
    const bool tile = rt.source == QueryResponse::Source::kTileStore;
    if ((dbms && engine_replays >= kMaxEngineReplays) ||
        (tile && tile_replays >= kMaxTileReplays) || encode_replays >= kMaxEncodeReplays) {
      continue;
    }
    if (dbms || tile) {
      auto& stmt = prepared[rt.sql_template];
      if (stmt == nullptr) {
        VP_ASSIGN_OR_RETURN(stmt, in->engine->Prepare(rt.sql_template));
      }
      vegaplus::rewrite::ParamResolver resolver(rt.params);
      if (dbms) {
        const int64_t span = tracer->Begin("sql.execute", rt.span);
        VP_RETURN_IF_ERROR(in->engine->ExecuteBound(*stmt, resolver).status());
        tracer->End(span);
        server_ms = tracer->DurationMs(span);
        engine_ms.push_back(server_ms);
        ++engine_replays;
      } else {
        VP_ASSIGN_OR_RETURN(auto bound, vegaplus::sql::BindStatement(*stmt->stmt, resolver));
        vegaplus::tiles::TileStore fresh(in->engine.get(),
                                         PinnedMiddlewareOptions().tile_options);
        const int64_t cold = tracer->Begin("tiles.build_and_answer", rt.span);
        const bool answered = fresh.TryAnswer(*bound).has_value();
        tracer->End(cold);
        const int64_t warm = tracer->Begin("tiles.answer", rt.span);
        fresh.TryAnswer(*bound);
        tracer->End(warm);
        if (!answered) return Status::RuntimeError("replay: tile store did not answer");
        server_ms = tracer->DurationMs(warm);
        tile_build_ms.push_back(tracer->DurationMs(cold) - server_ms);
        ++tile_replays;
      }
    }
    const int64_t span = tracer->Begin("data.encode", rt.span);
    vegaplus::runtime::EstimateEncodedBytes(*rt.table, /*binary=*/true);
    tracer->End(span);
    const double enc = tracer->DurationMs(span);
    encode_ms.push_back(enc);
    ++encode_replays;
    if (rt.episode > 0) self_ms.push_back(rt.ms - server_ms - enc);
  }
  L["sql.execute_ms"] = Median(engine_ms);
  L["tiles.build_ms"] = Median(tile_build_ms);
  L["data.encode_ms"] = Median(encode_ms);
  L["runtime.roundtrip_ms"] = Median(roundtrip_ms);
  L["runtime.self_ms"] = Median(self_ms);
  return Status::OK();
}

}  // namespace

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = [] {
    std::vector<WorkloadDef> d;
    {
      // In-memory engine: every brush is a fresh interval, so every query
      // misses both cache tiers and straddles tile bins; the cold open pays
      // the first-touch tile builds.
      WorkloadDef w;
      w.name = "crossfilter_brush";
      w.template_id = TemplateId::kCrossfilter;
      w.dataset = "stocks";
      w.rows = 2000000;
      w.template_seed = 7;
      w.round = 20;
      w.segments = 3;
      w.compare_stride = 97;
      w.compare_count = 2;
      d.push_back(w);
    }
    {
      // Out-of-core: a time-ordered shard several times the reader's
      // residency budget; time brushes scan it, bar clicks revisit a few
      // values and hit the client cache.
      WorkloadDef w;
      w.name = "overview_detail_shard";
      w.template_id = TemplateId::kOverviewDetail;
      w.dataset = "movies";
      w.rows = 400000;
      w.template_seed = 2;  // bars group by mpaa: five ratings plus "no selection"
      w.shard = true;
      w.shard_order = "release_date";
      w.residency_bytes = size_t{8} << 20;
      w.round = 5;
      w.segments = 5;
      w.compare_stride = 7;
      w.compare_count = 3;
      d.push_back(w);
    }
    {
      // Client dataflow: the all-client plan ships the base table once at
      // the cold open; every zoom reruns filter -> bin -> aggregate locally.
      WorkloadDef w;
      w.name = "heatmap_client";
      w.template_id = TemplateId::kZoomableHeatmap;
      w.dataset = "taxis";
      w.rows = 250000;
      w.template_seed = 7;
      w.all_client = true;
      w.round = 10;
      w.segments = 7;
      w.compare_stride = 11;
      w.compare_count = 3;
      d.push_back(w);
    }
    return d;
  }();
  return defs;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

vegaplus::runtime::EngineConfig PinnedEngineConfig() {
  vegaplus::runtime::EngineConfig cfg = vegaplus::runtime::EngineConfig::Current();
  cfg.morsel_threads = std::min(kMorselThreads, HardwareThreads());
  return cfg;
}

vegaplus::runtime::MiddlewareOptions PinnedMiddlewareOptions() {
  vegaplus::runtime::MiddlewareOptions options;
  options.worker_threads = std::min(kDbmsWorkers, HardwareThreads());
  options.engine_config = PinnedEngineConfig();
  return options;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

Result<Inputs> SetUp(const WorkloadDef& def, const RunOptions& options, Tracer* tracer) {
  Inputs in;
  const int64_t root = tracer != nullptr ? tracer->Begin("setup") : -1;
  auto span = [&](const char* name, Clock::time_point start) {
    const double ms = MsSince(start);
    if (tracer != nullptr) tracer->Add(name, root, tracer->Now() - ms, tracer->Now());
    return ms;
  };

  auto start = Clock::now();
  const size_t rows = options.rows > 0 ? options.rows : def.rows;
  VP_ASSIGN_OR_RETURN(in.dataset,
                      vegaplus::benchdata::MakeDataset(def.dataset, rows, kDataSeed));
  in.generate_ms = span("benchdata.generate", start);

  start = Clock::now();
  vegaplus::Rng template_rng(def.template_seed);
  VP_ASSIGN_OR_RETURN(in.spec, vegaplus::benchdata::BuildTemplate(
                                   def.template_id, in.dataset, &template_rng));
  VP_ASSIGN_OR_RETURN(in.views, ViewsFor(def.template_id, in.spec));
  span("spec.template", start);

  in.engine = std::make_unique<vegaplus::sql::Engine>();
  if (def.shard) {
    start = Clock::now();
    const vegaplus::data::Column* key = in.dataset.table->ColumnByName(def.shard_order);
    if (key == nullptr) return Status::KeyError("setup: no column '" + def.shard_order + "'");
    std::vector<int32_t> order(in.dataset.table->num_rows());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [key](int32_t a, int32_t b) {
      return key->NumericAt(static_cast<size_t>(a)) < key->NumericAt(static_cast<size_t>(b));
    });
    in.dataset.table = in.dataset.table->Take(order);
    in.shard_path = options.work_dir + "/" + def.name + ".vps1";
    VP_RETURN_IF_ERROR(vegaplus::storage::TableShard::Write(in.shard_path, *in.dataset.table));
    in.shard_write_ms = span("storage.shard_write", start);
  }
  start = Clock::now();
  if (def.shard) {
    VP_RETURN_IF_ERROR(OpenShard(def, &in));
  } else {
    in.engine->RegisterTable(in.dataset.name, in.dataset.table);
  }
  span("sql.register", start);
  if (tracer != nullptr) tracer->End(root);
  return in;
}

Result<RunResult> RunWorkload(const WorkloadDef& def, const RunOptions& options,
                              bool traced, Tracer* tracer) {
  RunResult out;
  auto phase_start = Clock::now();
  auto phase = [&](const char* name) {
    out.phase_ms.emplace_back(
        vegaplus::StrFormat("%s (peak rss %.0f MB)", name, PeakRssMb()), MsSince(phase_start));
    phase_start = Clock::now();
  };

  // Segments: each sets the inputs up afresh, opens the dashboard cold and
  // runs its share of the interaction loop, so set-up and cold-open samples
  // are spread over the whole run instead of sharing one moment's machine
  // load.
  // A traced run reports no end-to-end metrics; its untraced part is one
  // segment, shaped like the traced pass (one dashboard, the same stream),
  // so that trace.overhead_pct compares like with like.
  const double loop_seconds = traced ? options.seconds / 2 : options.seconds;
  const size_t segments = traced ? 1 : std::max<size_t>(1, def.segments);
  std::vector<double> generate_ms, shard_write_ms;
  std::vector<Snapshot> opens, interactions;
  std::unique_ptr<vegaplus::benchdata::WorkloadGenerator> gen;
  LoopState loop;
  Inputs in;
  for (size_t k = 0; k < segments; ++k) {
    in = Inputs();  // release the previous segment's data first
    const auto start = Clock::now();
    VP_ASSIGN_OR_RETURN(in, SetUp(def, options, traced ? tracer : nullptr));
    out.setup_ms.push_back(MsSince(start));
    generate_ms.push_back(in.generate_ms);
    shard_write_ms.push_back(in.shard_write_ms);
    double ms = 0;
    if (k == 0) {
      gen = std::make_unique<vegaplus::benchdata::WorkloadGenerator>(
          in.spec, InteractionSeed(options.seed));
      for (const View& v : in.views) {
        std::string line = v.entry + ":";
        for (const Condition& c : v.conditions) line += " " + c.signal + "(" + c.field + ")";
        out.views.push_back(line);
      }
      // Warm-up: finishes lazy process-wide set-up (morsel pool, first-touch
      // allocations) before anything is timed.
      VP_ASSIGN_OR_RETURN(OpenDashboard warm, ColdOpen(def, &in, &ms));
    }
    ++out.attempted;
    Result<OpenDashboard> open = ColdOpen(def, &in, &ms);
    if (!open.ok()) {
      Fail(&out, "cold open", open.status());
      continue;
    }
    out.cold_open_ms.push_back(ms);
    PlanExecutor* exec = open->executor.get();
    opens.push_back(Capture("cold open", in.views, InitialSignals(in.spec),
                            [&](const std::string& e) { return exec->EntryOutput(e); }));
    RunSegmentLoop(def, options, loop_seconds * 1e3 * static_cast<double>(k + 1) /
                                     static_cast<double>(segments),
                   in, exec, gen.get(), &loop, &out, &interactions);
  }
  out.loop_ms = loop.loop_ms;
  out.peak_rss_mb = PeakRssMb();
  phase("segments: set-up, cold open, loop");

  // The rows are the same in every segment (kDataSeed), so the last
  // segment's table checks every snapshot.
  RowCounter counter(in.dataset.table);
  CheckCounts(in.views, &counter, &opens, &out);
  CheckCounts(in.views, &counter, &interactions, &out);
  phase("row-count checks");
  VP_RETURN_IF_ERROR(CompareSampled(def, &in, &interactions, &out));
  phase("second-path comparisons");

  if (traced) {
    std::vector<double> errors;
    for (size_t i = 0; i < out.interaction_ms.size(); ++i) {
      errors.push_back(std::abs(out.model_ms[i] - out.interaction_ms[i]) /
                       out.interaction_ms[i] * 100);
    }
    out.layer["runtime.model_error_pct"] = Median(errors);
    out.layer["benchdata.generate_ms"] = Median(generate_ms);
    out.layer["storage.shard_write_ms"] = Median(shard_write_ms);
    std::vector<Snapshot> traced_snaps;
    VP_RETURN_IF_ERROR(
        TracedPass(def, options, loop_seconds, &in, tracer, &out, &traced_snaps));
    CheckCounts(in.views, &counter, &traced_snaps, &out);
    phase("traced pass and replays");
  }
  return out;
}

}  // namespace dashbench
