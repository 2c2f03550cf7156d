// dashbench: wall-clock dashboard benchmark.
//
//   dashbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-out <file.json>]
//
// Prints a human summary on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones (untraced); with --trace 1 the per-layer
// ones from the traced pass. Exits non-zero, printing no result, when the
// workload cannot be set up or run.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "percentile.h"
#include "workload.h"

namespace {

std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Unit of each per-layer metric, by name suffix.
const char* LayerUnit(const std::string& name) {
  auto ends = [&](const char* s) {
    const size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_pct")) return "%";
  if (ends("_ratio")) return "ratio";
  return "count";
}

int Usage(const char* msg) {
  std::fprintf(stderr, "dashbench: %s\n", msg);
  std::fprintf(stderr,
               "usage: dashbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--work-dir <dir>] [--trace-out <file>]\nworkloads:");
  for (const auto& w : dashbench::Workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  dashbench::RunOptions options;
  bool have_seed = false, have_seconds = false;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      options.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n > 0) {
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && ParseUint(value, &n) && n <= 1) {
      trace = static_cast<int>(n);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  const dashbench::WorkloadDef* def = dashbench::FindWorkload(workload);
  if (def == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed || !have_seconds || trace < 0) {
    return Usage("--seed, --seconds and --trace are required");
  }

  dashbench::PinnedEngineConfig().Apply();
  dashbench::Tracer tracer;
  auto result = dashbench::RunWorkload(*def, options, trace == 1, &tracer);
  if (!result.ok()) {
    std::fprintf(stderr, "dashbench: %s: %s\n", workload.c_str(),
                 result.status().ToString().c_str());
    return 1;
  }
  const dashbench::RunResult& r = *result;
  if (trace == 1 && !trace_out.empty()) {
    vegaplus::Status st = tracer.WriteJson(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "dashbench: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  const dashbench::Tail tail = dashbench::TailOf(r.interaction_ms);
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"setup_s", dashbench::Median(r.setup_ms) / 1e3, "s"},
        {"initial_render_ms", dashbench::Median(r.cold_open_ms), "ms"},
        {"interaction_p50_ms", dashbench::Median(r.interaction_ms), "ms"},
        {"interaction_tail_ms", tail.value, "ms"},
        {"interactions_per_s",
         r.loop_ms > 0 ? static_cast<double>(r.interaction_ms.size()) / (r.loop_ms / 1e3) : 0,
         "1/s"},
        {"peak_rss_mb", r.peak_rss_mb, "MB"},
        {"transfer_kb", r.transfer_bytes / 1024.0, "KB"},
    };
  } else {
    for (const auto& [name, value] : r.layer) metrics.push_back({name, value, LayerUnit(name)});
  }

  std::fprintf(stderr,
               "dashbench %s seed=%llu: %zu interactions, p50 %.2f ms, tail p%g %.2f ms "
               "(%zu samples beyond), %zu cold opens, %zu queries, %zu dbms executions\n",
               workload.c_str(), static_cast<unsigned long long>(options.seed),
               r.interaction_ms.size(), dashbench::Median(r.interaction_ms), tail.percentile,
               tail.value, tail.beyond, r.cold_open_ms.size(), r.queries, r.dbms_executions);
  for (const std::string& v : r.views) std::fprintf(stderr, "  view %s\n", v.c_str());
  for (const auto& [name, ms] : r.phase_ms) {
    std::fprintf(stderr, "  phase %-28s %14.1f ms\n", name.c_str(), ms);
  }
  std::string opens;
  for (double ms : r.cold_open_ms) opens += vegaplus::StrFormat(" %.1f", ms);
  std::string setups;
  for (double ms : r.setup_ms) setups += vegaplus::StrFormat(" %.1f", ms);
  std::fprintf(stderr, "  cold opens (ms):%s\n  set-ups (ms):%s\n", opens.c_str(), setups.c_str());
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const std::string& f : r.failures) std::fprintf(stderr, "  FAILED %s\n", f.c_str());

  std::string json = "{\"correct\": " + std::string(r.wrong == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
