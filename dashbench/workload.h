// The benchmark's workloads and the passes that measure them.
//
// A workload fixes a dashboard template, a dataset and its size, where the
// data lives (memory or a VPS1 shard), and the execution plan. The rows and
// the template's field choices come from fixed seeds; the run seed drives
// the simulated user's interactions. Fixing the rows matters for datasets
// with heavy-tailed fields (stocks' prices and volumes are lognormal): their
// extents, which set the bin layout and the brushable domain, move with the
// largest draw, and with them every figure of the run.
//
// One simulated user drives one dashboard in a closed loop: the next
// interaction is issued only after the previous one has rendered.
#ifndef DASHBENCH_WORKLOAD_H_
#define DASHBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchdata/templates.h"
#include "checks.h"
#include "runtime/engine_config.h"
#include "runtime/middleware.h"
#include "sql/engine.h"
#include "trace.h"

namespace dashbench {

struct WorkloadDef {
  std::string name;
  vegaplus::benchdata::TemplateId template_id;
  std::string dataset;
  size_t rows = 0;
  /// Seeds the template's field choices (not the data or the interactions).
  uint64_t template_seed = 0;
  /// Plan: every transform on the client, or the full-pushdown plan.
  bool all_client = false;
  /// Data written to a VPS1 shard ordered by `shard_order` and scanned
  /// through a storage::Reader with `residency_bytes` of decoded chunks.
  bool shard = false;
  std::string shard_order;
  size_t residency_bytes = 0;
  /// Interactions per round; a run attempts whole rounds only.
  size_t round = 1;
  /// Segments per run. Each sets the inputs up, opens the dashboard cold
  /// (timed) and runs 1/segments of the interaction loop; setup_s and
  /// initial_render_ms are medians over the segments.
  size_t segments = 3;
  /// Every `compare_stride`-th interaction, up to `compare_count` of them, is
  /// compared bin by bin against the second execution path.
  size_t compare_stride = 1;
  size_t compare_count = 0;
};

const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(const std::string& name);

/// Seed of the generated rows, the same for every run.
inline constexpr uint64_t kDataSeed = 2024;

/// Seed of the interaction stream of a run.
inline uint64_t InteractionSeed(uint64_t run_seed) { return run_seed ^ 0x5EED5EEDull; }

/// Seed of the reference round: the first round of every run, the same in
/// every run, over which transfer_kb is measured (bytes over seed-dependent
/// interactions would move with the seed, not with the program).
inline constexpr uint64_t kReferenceSeed = 0x4EFE4E;

struct RunOptions {
  /// Drives the interaction stream (the rows come from kDataSeed).
  uint64_t seed = 1;
  double seconds = 10;
  /// > 0: run exactly this many rounds per segment instead of filling
  /// `seconds` (used by the benchmark's tests).
  size_t rounds = 0;
  /// > 0: overrides the workload's row count (tests).
  size_t rows = 0;
  /// Directory for shard files.
  std::string work_dir = ".";
};

/// Thread counts are pinned, never read from the hardware (each is capped
/// at the hardware thread count). One DBMS worker keeps the peak resident
/// set repeatable: with two, concurrent queries overlap their intermediates
/// by chance and peak RSS moved by 25% between identical runs.
inline constexpr size_t kDbmsWorkers = 1;
inline constexpr size_t kMorselThreads = 2;
vegaplus::runtime::EngineConfig PinnedEngineConfig();
vegaplus::runtime::MiddlewareOptions PinnedMiddlewareOptions();

/// The inputs one set-up produces.
struct Inputs {
  vegaplus::benchdata::Dataset dataset;  ///< generated rows (shard order if sharded)
  vegaplus::spec::VegaSpec spec;
  std::unique_ptr<vegaplus::sql::Engine> engine;
  std::string shard_path;
  std::vector<View> views;
  double generate_ms = 0;
  double shard_write_ms = 0;
};

/// Generate the data, write the shard (if any) and register the table.
/// With a tracer, each step is recorded as a span.
vegaplus::Result<Inputs> SetUp(const WorkloadDef& def, const RunOptions& options,
                               Tracer* tracer = nullptr);

/// Everything one run measured. Times in milliseconds.
struct RunResult {
  size_t attempted = 0;
  size_t failed = 0;
  /// Failed operations whose output was wrong (a subset of `failed`; the
  /// rest returned an error Status).
  size_t wrong = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  // End-to-end (untraced pass).
  std::vector<double> setup_ms;
  std::vector<double> cold_open_ms;
  std::vector<double> interaction_ms;
  std::vector<double> model_ms;  ///< latency model's EpisodeCost per interaction
  double loop_ms = 0;            ///< summed wall time of the timed interactions
  double peak_rss_mb = 0;
  /// Bytes the first segment's session received over its cold open and the
  /// reference round.
  double transfer_bytes = 0;
  size_t dbms_executions = 0;    ///< whole timed loop
  size_t queries = 0;            ///< whole timed loop

  /// The checked views with their filters (for the stderr summary).
  std::vector<std::string> views;
  /// Wall time of each phase of the run, in order (for the stderr summary).
  std::vector<std::pair<std::string, double>> phase_ms;

  // Per layer (traced pass; empty unless traced).
  std::map<std::string, double> layer;
};

/// Run one workload: its segments (set-up, cold open, share of the timed
/// loop; the first segment also opens once untimed to warm up), then the
/// output checks; with `traced`, a traced pass follows (each pass gets half
/// of `seconds`) and `layer` is filled.
vegaplus::Result<RunResult> RunWorkload(const WorkloadDef& def, const RunOptions& options,
                                        bool traced, Tracer* tracer);

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

}  // namespace dashbench

#endif  // DASHBENCH_WORKLOAD_H_
