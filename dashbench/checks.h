// Output checks that do not trust the program under test.
//
// Each chart the benchmark checks is a "view": one data entry whose output
// carries a count column, plus the interactive conditions that filter the
// rows feeding it. Its counts must sum to the number of base rows inside the
// currently active brushes / zoom window / bar selection. RowCounter counts
// those rows with plain loops over the generated columns — no SQL, no
// expression engine, no dataflow.
#ifndef DASHBENCH_CHECKS_H_
#define DASHBENCH_CHECKS_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "benchdata/templates.h"
#include "common/result.h"
#include "data/table.h"
#include "runtime/plan_executor.h"

namespace dashbench {

/// Current value of every signal, keyed by name.
using SignalState = std::map<std::string, vegaplus::expr::EvalValue>;

/// One interactive filter on a base-table field.
struct Condition {
  enum class Kind {
    kInterval,  ///< inrange(field, signal): inclusive, ends in either order
    kPoint,     ///< signal == null || field == signal
  };
  Kind kind = Kind::kInterval;
  std::string signal;
  std::string field;
};

/// One checked chart: a data entry whose output has a "count" column, and
/// the filters on the rows it counts.
struct View {
  std::string entry;
  std::vector<Condition> conditions;
};

/// The views of a dashboard template, with fields read off the populated
/// spec. Fails on a template the benchmark does not drive.
vegaplus::Result<std::vector<View>> ViewsFor(vegaplus::benchdata::TemplateId id,
                                             const vegaplus::spec::VegaSpec& spec);

/// Initial signal values of a spec.
SignalState InitialSignals(const vegaplus::spec::VegaSpec& spec);

/// Apply one interaction's updates to a signal state.
void ApplyUpdates(const std::vector<vegaplus::runtime::SignalUpdate>& updates,
                  SignalState* state);

/// Counts base rows under a set of conditions with plain column loops.
/// Counts are memoized on the condition values, so unchanged charts of a
/// crossfilter cost nothing to re-check.
class RowCounter {
 public:
  explicit RowCounter(vegaplus::data::TablePtr table) : table_(std::move(table)) {}

  vegaplus::Result<size_t> Count(const std::vector<Condition>& conditions,
                                 const SignalState& signals);

 private:
  /// Numeric column as doubles, NaN for nulls (NaN fails every compare).
  vegaplus::Result<const std::vector<double>*> Numeric(const std::string& field);
  /// String column as per-row codes into `strings_[field]` (-1 for null).
  vegaplus::Result<const std::vector<int32_t>*> Codes(const std::string& field);

  vegaplus::data::TablePtr table_;
  std::unordered_map<std::string, std::vector<double>> numeric_;
  std::unordered_map<std::string, std::vector<int32_t>> codes_;
  std::unordered_map<std::string, std::map<std::string, int32_t>> strings_;
  std::unordered_map<std::string, size_t> memo_;
};

/// Sum of a count column (error when the column is missing or has a null).
vegaplus::Result<double> SumCounts(const vegaplus::data::Table& table,
                                   const std::string& count_field);

/// Check one view's output against the independent row count.
vegaplus::Status CheckView(const View& view, const vegaplus::data::TablePtr& output,
                           const SignalState& signals, RowCounter* counter);

/// Exact equality of two tables up to row order: same column names, and the
/// same multiset of rows with numeric cells compared as doubles.
vegaplus::Status SameRows(const vegaplus::data::Table& a, const vegaplus::data::Table& b);

}  // namespace dashbench

#endif  // DASHBENCH_CHECKS_H_
