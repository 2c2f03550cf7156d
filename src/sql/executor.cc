#include "sql/executor.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel.h"
#include "common/str_util.h"
#include "expr/batch_eval.h"
#include "expr/bin_expr.h"
#include "expr/evaluator.h"
#include "expr/kernels/kernels.h"
#include "storage/reader.h"
#include "storage/stats.h"

namespace vegaplus {
namespace sql {

namespace {

using data::Column;
using data::DataType;
using data::Schema;
using data::Table;
using data::TablePtr;
using data::Value;
using expr::BatchEvaluator;
using expr::Compiler;
using expr::EvalContext;
using expr::EvalValue;
using expr::NodeKind;
using expr::NodePtr;
using expr::RegKind;
using expr::Vec;

Value EvalScalar(const NodePtr& node, const Table& table, size_t row) {
  EvalContext ctx;
  ctx.table = &table;
  ctx.row = row;
  EvalValue v = expr::Evaluate(node, ctx);
  return v.is_array() ? Value::Null() : v.scalar();
}

/// Evaluate `node` into one register indexed by table row id: vectorized
/// over the whole batch when the expression compiles, boxed through the
/// scalar interpreter otherwise. Used for group keys, sort keys, and
/// aggregate arguments. When `rows` is non-null, the scalar fallback only
/// evaluates those rows (cells outside stay null) so selective queries
/// don't pay interpreter cost for filtered-out rows; the vectorized path
/// always computes the full batch, which is cheaper than gathering.
Vec EvalVec(const NodePtr& node, const Table& table,
            const std::vector<int32_t>* rows = nullptr,
            const common::CancelToken* cancel = nullptr) {
  if (expr::VectorizedEnabled()) {
    if (auto program = Compiler::Compile(node, table.schema())) {
      return expr::RunMorselParallel(table, *program, cancel);
    }
  }
  // Scalar fallback: poll the token every few thousand rows; a fired token
  // leaves the remaining cells null/absent, and the caller's checkpoint
  // discards the register before anything reads it.
  if (rows != nullptr) {
    std::vector<Value> values(table.num_rows());
    for (size_t pos = 0; pos < rows->size(); ++pos) {
      if ((pos & 4095u) == 0 && common::Fired(cancel)) break;
      const int32_t r = (*rows)[pos];
      values[static_cast<size_t>(r)] = EvalScalar(node, table, static_cast<size_t>(r));
    }
    return expr::BoxedVec(std::move(values));
  }
  std::vector<Value> values;
  values.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if ((r & 4095u) == 0 && common::Fired(cancel)) break;
    values.push_back(EvalScalar(node, table, r));
  }
  return expr::BoxedVec(std::move(values));
}

/// The fused comparison ops map 1:1 onto zone-map ops; fused_preds never
/// carries anything else, but an unmappable conjunct is simply not pushed
/// down (dropping a conjunct from a conjunction only weakens pruning).
bool ShardCmpOf(expr::BinaryOp cmp, storage::CmpOp* out) {
  switch (cmp) {
    case expr::BinaryOp::kEq: *out = storage::CmpOp::kEq; return true;
    case expr::BinaryOp::kNeq: *out = storage::CmpOp::kNeq; return true;
    case expr::BinaryOp::kLt: *out = storage::CmpOp::kLt; return true;
    case expr::BinaryOp::kLte: *out = storage::CmpOp::kLte; return true;
    case expr::BinaryOp::kGt: *out = storage::CmpOp::kGt; return true;
    case expr::BinaryOp::kGte: *out = storage::CmpOp::kGte; return true;
    default: return false;
  }
}

/// Scan entry point for shard-backed FROM sources: when the WHERE clause
/// compiles to a fused AND-of-conjuncts, push the conjuncts into the
/// storage layer so zone maps prune chunks before decode. The surviving
/// chunks still go through the ordinary FilterRows pass, so pruning only
/// has to be sound, not exact — and disabling it (EngineConfig) degrades
/// to a full materializing scan with identical results.
Result<TablePtr> ShardInput(const storage::Reader& shard, const SelectStmt& stmt,
                            storage::ScanStats* sstats,
                            const common::CancelToken* cancel) {
  if (stmt.where != nullptr && expr::VectorizedEnabled() &&
      storage::ZoneMapPruningEnabled()) {
    if (auto program = Compiler::Compile(stmt.where, shard.schema())) {
      if (!program->fused_preds.empty()) {
        std::vector<storage::Predicate> preds;
        preds.reserve(program->fused_preds.size());
        for (const auto& fp : program->fused_preds) {
          storage::Predicate pred;
          if (!ShardCmpOf(fp.cmp, &pred.cmp)) continue;
          pred.col = fp.col;
          pred.is_str = fp.is_str;
          pred.num_const = fp.num_const;
          if (fp.is_str) {
            pred.str_const = program->str_consts[static_cast<size_t>(fp.str_const)];
          }
          preds.push_back(std::move(pred));
        }
        if (!preds.empty()) {
          return shard.MaterializeMatching(preds, sstats, cancel);
        }
      }
    }
  }
  return shard.ReadAll(cancel, sstats);
}

/// Append the row indices of `table` where `pred` is truthy: the vectorized
/// path emits the selection vector directly (with the fused column-compare
/// fast path when available).
void FilterRows(const NodePtr& pred, const Table& table, std::vector<int32_t>* keep,
                const common::CancelToken* cancel = nullptr) {
  if (expr::VectorizedEnabled()) {
    if (auto program = Compiler::Compile(pred, table.schema())) {
      expr::RunFilterMorselParallel(table, *program, keep, cancel);
      return;
    }
  }
  EvalContext ctx;
  ctx.table = &table;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if ((r & 4095u) == 0 && common::Fired(cancel)) return;
    ctx.row = r;
    if (expr::Evaluate(pred, ctx).Truthy()) {
      keep->push_back(static_cast<int32_t>(r));
    }
  }
}

// ---- Aggregate accumulators ----

struct AggState {
  size_t count = 0;          // non-null (or all rows for COUNT(*))
  double sum = 0;
  double sum_sq = 0;
  Value min = Value::Null();
  Value max = Value::Null();
  std::vector<double> values;  // median only

  void Update(AggOp op, const Value& v, bool count_star) {
    if (op == AggOp::kCount) {
      if (count_star || !v.is_null()) ++count;
      return;
    }
    if (v.is_null()) return;
    ++count;
    switch (op) {
      case AggOp::kSum:
      case AggOp::kAvg: {
        sum += v.AsDouble();
        break;
      }
      case AggOp::kStddev:
      case AggOp::kVariance: {
        double d = v.AsDouble();
        sum += d;
        sum_sq += d * d;
        break;
      }
      case AggOp::kMedian:
        values.push_back(v.AsDouble());
        break;
      case AggOp::kMin:
        if (min.is_null() || v.Compare(min) < 0) min = v;
        break;
      case AggOp::kMax:
        if (max.is_null() || v.Compare(max) > 0) max = v;
        break;
      case AggOp::kCount:
        break;
    }
  }

  /// Fold `other` (a later chunk of the same group's rows) into this state.
  /// Chunks are merged in position order, so `values` concatenation keeps
  /// selection order and min/max keep the first occurrence on ties (the
  /// strict Compare mirrors the per-row update loops, including their
  /// NaN-never-replaces behavior, since Value::Compare treats NaN as equal
  /// to everything). Sums merge by adding per-chunk partials; chunk
  /// boundaries are fixed by AggChunkSize, never by the thread count, so
  /// the float rounding is identical at any parallelism.
  void Merge(AggOp op, AggState&& other) {
    count += other.count;
    switch (op) {
      case AggOp::kCount:
        break;
      case AggOp::kSum:
      case AggOp::kAvg:
        sum += other.sum;
        break;
      case AggOp::kStddev:
      case AggOp::kVariance:
        sum += other.sum;
        sum_sq += other.sum_sq;
        break;
      case AggOp::kMedian:
        values.insert(values.end(), other.values.begin(), other.values.end());
        break;
      case AggOp::kMin:
        if (!other.min.is_null() && (min.is_null() || other.min.Compare(min) < 0)) {
          min = std::move(other.min);
        }
        break;
      case AggOp::kMax:
        if (!other.max.is_null() && (max.is_null() || other.max.Compare(max) > 0)) {
          max = std::move(other.max);
        }
        break;
    }
  }

  Value Finish(AggOp op) {
    switch (op) {
      case AggOp::kCount:
        return Value::Int(static_cast<int64_t>(count));
      case AggOp::kSum:
        return count == 0 ? Value::Null() : Value::Double(sum);
      case AggOp::kAvg:
        return count == 0 ? Value::Null() : Value::Double(sum / static_cast<double>(count));
      case AggOp::kMin:
        return min;
      case AggOp::kMax:
        return max;
      case AggOp::kMedian: {
        if (values.empty()) return Value::Null();
        std::sort(values.begin(), values.end());
        size_t n = values.size();
        double med = (n % 2 == 1) ? values[n / 2]
                                  : 0.5 * (values[n / 2 - 1] + values[n / 2]);
        return Value::Double(med);
      }
      case AggOp::kStddev:
      case AggOp::kVariance: {
        if (count < 2) return Value::Null();
        double n = static_cast<double>(count);
        double var = (sum_sq - sum * sum / n) / (n - 1);  // sample variance
        if (var < 0) var = 0;
        return Value::Double(op == AggOp::kVariance ? var : std::sqrt(var));
      }
    }
    return Value::Null();
  }
};

/// Accumulate one aggregate over the selected positions in `span` with a
/// single typed branch per chunk: the inner loops touch raw doubles, never a
/// per-row Value. `arg` is the argument register over the full input table;
/// `rows` are the selected table row ids; `group_of[pos]` is the group of
/// `rows[pos]`; `states` holds one state per group. Callers run one
/// invocation per chunk (possibly in parallel, each with its own `states`)
/// and merge the chunk states in position order.
void AccumulateAgg(AggOp op, const Vec& arg, const std::vector<int32_t>& rows,
                   const std::vector<uint32_t>& group_of, parallel::Range span,
                   std::vector<AggState>* states) {
  const size_t npos = span.end;
  auto state = [&](size_t pos) -> AggState& { return (*states)[group_of[pos]]; };

  if (arg.kind == RegKind::kNum || arg.kind == RegKind::kBool) {
    // Typed fast path: the inner loops live in the kernel library, which
    // accumulates into dense SoA scratch (one slot per group) in strict
    // position order; the scratch then folds into the chunk's AggStates.
    // Each invocation starts from fresh states (one call per chunk per
    // aggregate), so the fold reproduces the former per-row updates
    // bit-for-bit — including min/max NaN stickiness, which would not
    // survive folding into already-populated extrema.
    const kernels::NumSpan v = expr::NumSpanOf(arg);
    const size_t num_groups = states->size();
    switch (op) {
      case AggOp::kCount: {
        std::vector<uint64_t> counts(num_groups, 0);
        kernels::GroupedCount(v, rows.data(), group_of.data(), span.begin,
                              span.end, counts.data());
        for (size_t g = 0; g < num_groups; ++g) {
          (*states)[g].count += static_cast<size_t>(counts[g]);
        }
        return;
      }
      case AggOp::kSum:
      case AggOp::kAvg: {
        std::vector<double> sums(num_groups, 0.0);
        std::vector<uint64_t> counts(num_groups, 0);
        kernels::GroupedSum(v, rows.data(), group_of.data(), span.begin,
                            span.end, sums.data(), counts.data());
        for (size_t g = 0; g < num_groups; ++g) {
          AggState& st = (*states)[g];
          st.sum += sums[g];
          st.count += static_cast<size_t>(counts[g]);
        }
        return;
      }
      case AggOp::kStddev:
      case AggOp::kVariance: {
        std::vector<double> sums(num_groups, 0.0);
        std::vector<double> sumsqs(num_groups, 0.0);
        std::vector<uint64_t> counts(num_groups, 0);
        kernels::GroupedSumSq(v, rows.data(), group_of.data(), span.begin,
                              span.end, sums.data(), sumsqs.data(),
                              counts.data());
        for (size_t g = 0; g < num_groups; ++g) {
          AggState& st = (*states)[g];
          st.sum += sums[g];
          st.sum_sq += sumsqs[g];
          st.count += static_cast<size_t>(counts[g]);
        }
        return;
      }
      case AggOp::kMedian:
        // Per-group value collection stays here: the kernel scratch is
        // fixed-width, medians are not.
        for (size_t pos = span.begin; pos < npos; ++pos) {
          const size_t r = static_cast<size_t>(rows[pos]);
          if (!arg.ValidAt(r)) continue;
          AggState& st = state(pos);
          st.values.push_back(v.ValueAt(r));
          ++st.count;
        }
        return;
      case AggOp::kMin:
      case AggOp::kMax: {
        std::vector<double> mins(num_groups, 0.0);
        std::vector<double> maxs(num_groups, 0.0);
        std::vector<uint8_t> seen(num_groups, 0);
        kernels::GroupedMinMax(v, rows.data(), group_of.data(), span.begin,
                               span.end, mins.data(), maxs.data(), seen.data());
        // Note: the typed min/max never touches count, matching the former
        // loops (Finish ignores count for them).
        for (size_t g = 0; g < num_groups; ++g) {
          if (seen[g] == 0) continue;
          AggState& st = (*states)[g];
          if (op == AggOp::kMin) {
            const double m = mins[g];
            if (st.min.is_null() || m < st.min.AsDouble()) {
              st.min = Value::Double(m);
            }
          } else {
            const double m = maxs[g];
            if (st.max.is_null() || m > st.max.AsDouble()) {
              st.max = Value::Double(m);
            }
          }
        }
        return;
      }
    }
    return;
  }

  // String / boxed-fallback arguments: per-row boxed update (identical to
  // the scalar interpreter path).
  for (size_t pos = span.begin; pos < npos; ++pos) {
    state(pos).Update(op, arg.CellValue(static_cast<size_t>(rows[pos])),
                      /*count_star=*/false);
  }
}

/// Whether `node` reads the input table only through direct `datum.<name>`
/// member access, collecting the referenced column names (deduped,
/// first-seen order). Bare `datum` or computed `datum[expr]` access could
/// touch arbitrary columns, so they disqualify the caller's gathered
/// (filter-fused) group-by path.
bool CollectProjectedColumns(const NodePtr& node, std::vector<std::string>* cols) {
  if (node == nullptr) return true;
  if (node->kind == expr::NodeKind::kMember && node->a != nullptr &&
      node->a->kind == expr::NodeKind::kIdentifier && node->a->name == "datum") {
    if (std::find(cols->begin(), cols->end(), node->name) == cols->end()) {
      cols->push_back(node->name);
    }
    return true;
  }
  if (node->kind == expr::NodeKind::kIdentifier) return node->name != "datum";
  if (node->kind == expr::NodeKind::kIndex) return false;
  bool ok = CollectProjectedColumns(node->a, cols) &&
            CollectProjectedColumns(node->b, cols) &&
            CollectProjectedColumns(node->c, cols);
  for (const NodePtr& arg : node->args) {
    ok = ok && CollectProjectedColumns(arg, cols);
  }
  return ok;
}

/// Bin-index grouping. When every GROUP BY key is a bin expression over one
/// column with one start/step, or such an expression plus a literal, the
/// rows group by integer bin index through dense tables instead of hashing
/// full-batch key registers, and the keys are evaluated only at each
/// group's representative row (`key_at_group`, indexed by group id). Equal
/// indices give equal keys; the check at the end rejects the plan when two
/// indices give equal keys (a start far larger than the step), so the
/// groups always match the hash path's. Off with the vectorized engine, so
/// the hash path stays the reference.
bool GroupByBinIndex(const std::vector<NodePtr>& group_by, const Table& table,
                     const std::vector<int32_t>& rows, expr::GroupResult* groups,
                     std::vector<Vec>* key_at_group) {
  if (group_by.empty() || !expr::VectorizedEnabled()) return false;
  expr::BinKey bin;
  for (size_t i = 0; i < group_by.size(); ++i) {
    expr::BinKey key;
    if (!expr::MatchBinKey(group_by[i], &key)) return false;
    if (i == 0) {
      bin = key;
    } else if (key.column != bin.column || key.start != bin.start ||
               key.step != bin.step) {
      return false;
    }
  }
  const int idx = table.schema().FieldIndex(bin.column);
  if (idx < 0) return false;
  const Column& column = table.column(static_cast<size_t>(idx));
  if (!expr::BuildGroupsByBins(expr::ColumnVec(column), bin.start, bin.step, rows,
                               groups)) {
    return false;
  }
  const Table reps(Schema({table.schema().field(static_cast<size_t>(idx))}),
                   {column.Take(groups->rep_rows)});
  key_at_group->clear();
  for (const NodePtr& g : group_by) key_at_group->push_back(EvalVec(g, reps));
  std::vector<const Vec*> key_ptrs;
  for (const Vec& v : *key_at_group) key_ptrs.push_back(&v);
  std::vector<int32_t> all(groups->num_groups());
  std::iota(all.begin(), all.end(), 0);
  return expr::BuildGroups(key_ptrs, all).num_groups() == groups->num_groups();
}

DataType AggResultType(AggOp op, const NodePtr& arg, const Schema& input) {
  switch (op) {
    case AggOp::kCount:
      return DataType::kInt64;
    case AggOp::kMin:
    case AggOp::kMax:
      return arg ? InferType(arg, input) : DataType::kFloat64;
    default:
      return DataType::kFloat64;
  }
}

// Sort `order` (row index permutation) by the given keys, stably. Keys are
// evaluated once into typed registers; the comparator never boxes, and
// code-backed string keys order by a precomputed dictionary permutation (one
// int compare per probe instead of a string compare).
void SortIndices(std::vector<int32_t>* order, const Table& table,
                 const std::vector<OrderItem>& keys,
                 const common::CancelToken* cancel = nullptr) {
  std::vector<Vec> key_vecs;
  key_vecs.reserve(keys.size());
  for (const OrderItem& k : keys) {
    key_vecs.push_back(EvalVec(k.expr, table, nullptr, cancel));
  }
  // A fired token leaves short/empty key registers; skip the sort (the
  // caller's checkpoint discards the order anyway).
  if (common::Fired(cancel)) return;
  for (Vec& v : key_vecs) v.BuildDictRanks();
  std::stable_sort(order->begin(), order->end(), [&](int32_t a, int32_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      int cmp = key_vecs[k].CompareCells(static_cast<size_t>(a),
                                         static_cast<size_t>(b));
      if (keys[k].descending) cmp = -cmp;
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
}

}  // namespace

data::DataType InferType(const NodePtr& node, const Schema& input) {
  if (!node) return DataType::kFloat64;
  switch (node->kind) {
    case NodeKind::kLiteral:
      return node->literal.is_null() ? DataType::kFloat64 : node->literal.type();
    case NodeKind::kIdentifier:
      return DataType::kFloat64;  // signal value; numeric in practice
    case NodeKind::kMember: {
      if (node->a && node->a->kind == NodeKind::kIdentifier && node->a->name == "datum") {
        int idx = input.FieldIndex(node->name);
        if (idx >= 0) return input.field(static_cast<size_t>(idx)).type;
      }
      return DataType::kFloat64;
    }
    case NodeKind::kIndex:
      return DataType::kFloat64;
    case NodeKind::kUnary:
      return node->unary_op == expr::UnaryOp::kNot ? DataType::kBool : DataType::kFloat64;
    case NodeKind::kBinary:
      switch (node->binary_op) {
        case expr::BinaryOp::kEq:
        case expr::BinaryOp::kNeq:
        case expr::BinaryOp::kLt:
        case expr::BinaryOp::kLte:
        case expr::BinaryOp::kGt:
        case expr::BinaryOp::kGte:
          return DataType::kBool;
        case expr::BinaryOp::kAnd:
        case expr::BinaryOp::kOr:
          return DataType::kBool;
        case expr::BinaryOp::kAdd: {
          DataType a = InferType(node->a, input);
          DataType b = InferType(node->b, input);
          if (a == DataType::kString || b == DataType::kString) return DataType::kString;
          return DataType::kFloat64;
        }
        default:
          return DataType::kFloat64;
      }
    case NodeKind::kTernary:
      return InferType(node->b, input);
    case NodeKind::kCall: {
      const std::string& fn = node->name;
      if (fn == "isValid" || fn == "inrange") return DataType::kBool;
      if (fn == "lower" || fn == "upper" || fn == "toString" || fn == "format" ||
          fn == "timeFormat") {
        return DataType::kString;
      }
      if (fn == "length" || fn == "year" || fn == "month" || fn == "date" ||
          fn == "day" || fn == "hours" || fn == "minutes" || fn == "seconds" ||
          fn == "indexof") {
        return DataType::kInt64;
      }
      if (fn == "date_trunc" || fn == "date_unit_end") return DataType::kTimestamp;
      if (fn == "if" && node->args.size() == 3) return InferType(node->args[1], input);
      return DataType::kFloat64;
    }
    case NodeKind::kArray:
      return DataType::kFloat64;
  }
  return DataType::kFloat64;
}

Result<TablePtr> ExecuteSelect(const SelectStmt& stmt, const Catalog& catalog,
                               ExecStats* stats,
                               const common::QueryContext* ctx) {
  ExecStats local;
  const common::CancelToken* cancel = ctx != nullptr ? ctx->token() : nullptr;
  // Every cancellation exit funnels through here so the work counters of the
  // stages that DID run reach `stats` — an aborted 4M-row scan reports the
  // rows it touched (strictly below the full count), which is the observable
  // proof that workers were reclaimed mid-flight.
  const auto bail = [&](Status st) {
    if (stats != nullptr) stats->Add(local);
    return st;
  };

  // ---- FROM ----
  TablePtr input;
  if (stmt.from.subquery) {
    Result<TablePtr> sub = ExecuteSelect(*stmt.from.subquery, catalog, stats, ctx);
    if (!sub.ok()) return std::move(sub).status();
    input = std::move(*sub);
  } else if (!stmt.from.table_name.empty()) {
    if (std::shared_ptr<storage::Reader> shard =
            catalog.GetShard(stmt.from.table_name)) {
      storage::ScanStats shard_scan;
      Result<TablePtr> shard_input = ShardInput(*shard, stmt, &shard_scan, cancel);
      if (!shard_input.ok()) {
        // Aborted/failed scan: report the rows actually paged in (a full
        // scan reports the materialized row count below, as before).
        local.rows_scanned += static_cast<size_t>(shard_scan.rows_scanned);
        return bail(std::move(shard_input).status());
      }
      input = std::move(*shard_input);
    } else {
      VP_ASSIGN_OR_RETURN(input, catalog.GetTable(stmt.from.table_name));
    }
    local.rows_scanned += input->num_rows();
  } else {
    return Status::InvalidArgument("SQL exec: missing FROM source");
  }
  ++local.num_operators;
  if (common::Fired(cancel)) return bail(cancel->status());

  // Validate expressions up front (unknown functions etc).
  for (const auto& item : stmt.items) {
    if (item.expr) VP_RETURN_IF_ERROR(expr::Validate(item.expr));
    if (item.agg_arg) VP_RETURN_IF_ERROR(expr::Validate(item.agg_arg));
  }
  if (stmt.where) VP_RETURN_IF_ERROR(expr::Validate(stmt.where));

  // ---- WHERE ----
  std::vector<int32_t> selection;
  selection.reserve(input->num_rows());
  if (stmt.where) {
    ++local.num_operators;
    local.rows_processed += input->num_rows();
    FilterRows(stmt.where, *input, &selection, cancel);
    if (common::Fired(cancel)) return bail(cancel->status());
  } else {
    selection.resize(input->num_rows());
    std::iota(selection.begin(), selection.end(), 0);
  }

  const bool has_aggregates =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(), [](const SelectItem& i) {
        return i.kind == SelectItem::Kind::kAggregate;
      });

  TablePtr output;

  if (has_aggregates) {
    // ---- GROUP BY + aggregate ----
    ++local.num_operators;
    local.rows_processed += selection.size();

    // Match plain expression items to group-by expressions by unparse text.
    std::vector<std::string> group_texts;
    group_texts.reserve(stmt.group_by.size());
    for (const auto& g : stmt.group_by) group_texts.push_back(expr::ToString(g));

    struct ItemPlan {
      bool is_group_expr = false;
      size_t group_index = 0;
      size_t agg_index = 0;
    };
    std::vector<ItemPlan> item_plans(stmt.items.size());
    std::vector<const SelectItem*> agg_items;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      switch (item.kind) {
        case SelectItem::Kind::kStar:
          return Status::InvalidArgument("SQL exec: '*' not allowed with GROUP BY");
        case SelectItem::Kind::kWindow:
          return Status::InvalidArgument(
              "SQL exec: window function not allowed with GROUP BY");
        case SelectItem::Kind::kExpr: {
          std::string text = expr::ToString(item.expr);
          auto it = std::find(group_texts.begin(), group_texts.end(), text);
          if (it == group_texts.end()) {
            return Status::InvalidArgument(
                "SQL exec: select item '" + text + "' is not in GROUP BY");
          }
          item_plans[i].is_group_expr = true;
          item_plans[i].group_index = static_cast<size_t>(it - group_texts.begin());
          break;
        }
        case SelectItem::Kind::kAggregate:
          item_plans[i].agg_index = agg_items.size();
          agg_items.push_back(&item);
          break;
      }
    }

    // Filter fusion: when WHERE kept a minority of rows and every group key
    // and aggregate argument reads the table only through direct
    // `datum.<col>` access, gather just the referenced columns at the
    // selected rows and evaluate keys/arguments over that narrow compacted
    // table, instead of computing full-batch key registers over mostly
    // filtered-out rows. Bit-identical to the unfused path: Column::Take
    // copies cells exactly (dictionaries shared), first-seen group order
    // equals selection order either way, and the aggregate chunk boundaries
    // depend only on the selection size, which is unchanged.
    TablePtr gathered;
    std::vector<int32_t> positions;  // iota over gathered rows
    const Table* key_input = input.get();
    // Positions into group_of/chunks map to rows of `key_input` through
    // this: table row ids when unfused, the identity when fused.
    const std::vector<int32_t>* acc_rows = &selection;
    if (stmt.where && selection.size() * 2 < input->num_rows()) {
      std::vector<std::string> cols;
      bool projectable = true;
      for (const auto& g : stmt.group_by) {
        projectable = projectable && CollectProjectedColumns(g, &cols);
      }
      for (const SelectItem* item : agg_items) {
        if (item->agg_arg) {
          projectable = projectable && CollectProjectedColumns(item->agg_arg, &cols);
        }
      }
      if (projectable) {
        std::vector<data::Field> gfields;
        std::vector<data::Column> gcols;
        for (const std::string& name : cols) {
          int idx = input->schema().FieldIndex(name);
          // Referenced-but-absent columns evaluate to null against either
          // schema; skip them.
          if (idx < 0) continue;
          gfields.push_back(input->schema().field(static_cast<size_t>(idx)));
          gcols.push_back(input->column(static_cast<size_t>(idx)).Take(selection));
        }
        gathered = std::make_shared<Table>(Schema(std::move(gfields)),
                                           std::move(gcols));
        positions.resize(selection.size());
        std::iota(positions.begin(), positions.end(), 0);
        key_input = gathered.get();
        acc_rows = &positions;
      }
    }

    // Bin-shaped keys group by bin index, with key values per group.
    // Otherwise evaluate group keys column-at-a-time (over the gathered
    // table when fused, else over the full input — unselected rows are
    // computed but never read), then hash-group the selection. Group keys
    // live once, in the key registers; groups are ids plus one
    // representative row each.
    std::vector<Vec> key_vecs;
    expr::GroupResult groups;
    const bool keys_per_group =
        GroupByBinIndex(stmt.group_by, *key_input, *acc_rows, &groups, &key_vecs);
    if (!keys_per_group) {
      key_vecs.clear();
      key_vecs.reserve(stmt.group_by.size());
      for (const auto& g : stmt.group_by) {
        key_vecs.push_back(
            EvalVec(g, *key_input, gathered ? nullptr : &selection, cancel));
      }
      if (common::Fired(cancel)) return bail(cancel->status());
      std::vector<const Vec*> key_ptrs;
      key_ptrs.reserve(key_vecs.size());
      for (const Vec& v : key_vecs) key_ptrs.push_back(&v);
      groups = expr::BuildGroups(key_ptrs, *acc_rows);
    }

    size_t num_groups = groups.num_groups();
    // Pure aggregation over zero rows still yields one output row.
    if (stmt.group_by.empty() && num_groups == 0) num_groups = 1;

    // Chunked accumulation: each chunk of selection positions fills its own
    // partial states and the partials merge in chunk order. Chunk boundaries
    // come from AggChunkSize — a function of the data shape only, never the
    // thread count — so the merged result is bit-identical
    // whether the chunks run sequentially or across the morsel pool. One
    // aggregate at a time, so exactly one full-table argument register is
    // live (the boundaries are shared by every aggregate, so the per-agg
    // merge order changes nothing).
    const size_t chunk_rows = parallel::AggChunkSize(
        selection.size(), num_groups * std::max<size_t>(1, agg_items.size()));
    const std::vector<parallel::Range> chunks =
        parallel::SplitRanges(selection.size(), chunk_rows);
    std::vector<std::vector<AggState>> group_states(
        num_groups, std::vector<AggState>(agg_items.size()));
    for (size_t a = 0; a < agg_items.size(); ++a) {
      const SelectItem* item = agg_items[a];
      Vec arg;
      if (item->agg_arg != nullptr) {
        arg = EvalVec(item->agg_arg, *key_input, gathered ? nullptr : &selection,
                      cancel);
        if (common::Fired(cancel)) return bail(cancel->status());
      }
      std::vector<std::vector<AggState>> chunk_states(chunks.size());
      parallel::ParallelFor(
          chunks.size(),
          [&](size_t c) {
            std::vector<AggState>& states = chunk_states[c];
            states.assign(num_groups, AggState());
            if (item->agg_arg == nullptr) {
              // COUNT(*): group cardinalities, no argument to evaluate.
              std::vector<uint64_t> counts(num_groups, 0);
              kernels::GroupedCountStar(groups.group_of.data(), chunks[c].begin,
                                        chunks[c].end, counts.data());
              for (size_t g = 0; g < num_groups; ++g) {
                states[g].count += static_cast<size_t>(counts[g]);
              }
              return;
            }
            AccumulateAgg(item->agg_op, arg, *acc_rows, groups.group_of,
                          chunks[c], &states);
          },
          cancel);
      // Checkpoint before the merge: skipped chunks left default states.
      if (common::Fired(cancel)) return bail(cancel->status());
      for (size_t c = 0; c < chunks.size(); ++c) {
        for (size_t g = 0; g < num_groups; ++g) {
          group_states[g][a].Merge(item->agg_op, std::move(chunk_states[c][g]));
        }
      }
    }

    // Build the output columns group-at-a-time.
    std::vector<data::Field> fields;
    fields.reserve(stmt.items.size());
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      DataType t = item.kind == SelectItem::Kind::kAggregate
                       ? AggResultType(item.agg_op, item.agg_arg, input->schema())
                       : InferType(item.expr, input->schema());
      fields.push_back({DeriveItemName(item, i), t});
    }
    std::vector<Column> columns;
    columns.reserve(fields.size());
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      Column col(fields[i].type);
      col.Reserve(num_groups);
      if (item_plans[i].is_group_expr) {
        const Vec& key = key_vecs[item_plans[i].group_index];
        for (size_t g = 0; g < groups.num_groups(); ++g) {
          key.AppendCellTo(keys_per_group ? g : static_cast<size_t>(groups.rep_rows[g]),
                           &col);
        }
      } else {
        for (size_t g = 0; g < num_groups; ++g) {
          col.Append(group_states[g][item_plans[i].agg_index].Finish(
              stmt.items[i].agg_op));
        }
      }
      columns.push_back(std::move(col));
    }
    output = std::make_shared<Table>(Schema(std::move(fields)), std::move(columns));

    // ---- HAVING (references output column names) ----
    if (stmt.having) {
      VP_RETURN_IF_ERROR(expr::Validate(stmt.having));
      ++local.num_operators;
      local.rows_processed += output->num_rows();
      std::vector<int32_t> keep;
      keep.reserve(output->num_rows());
      FilterRows(stmt.having, *output, &keep, cancel);
      if (common::Fired(cancel)) return bail(cancel->status());
      output = output->Take(keep);
    }
  } else {
    // ---- Projection (+ window functions) ----
    ++local.num_operators;
    local.rows_processed += selection.size();

    TablePtr filtered = selection.size() == input->num_rows()
                            ? input
                            : input->Take(selection);

    std::vector<data::Field> fields;
    std::vector<int> source_col;  // >=0: pass-through input column
    std::vector<const SelectItem*> item_of_field;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.kind == SelectItem::Kind::kStar) {
        for (size_t c = 0; c < filtered->num_columns(); ++c) {
          fields.push_back(filtered->schema().field(c));
          source_col.push_back(static_cast<int>(c));
          item_of_field.push_back(nullptr);
        }
        continue;
      }
      DataType t;
      if (item.kind == SelectItem::Kind::kWindow) {
        t = item.window.op == WindowOp::kRowNumber ? DataType::kInt64
                                                   : DataType::kFloat64;
      } else {
        t = InferType(item.expr, filtered->schema());
      }
      fields.push_back({DeriveItemName(item, i), t});
      source_col.push_back(-1);
      item_of_field.push_back(&item);
    }

    const size_t n = filtered->num_rows();
    std::vector<Column> columns;
    columns.reserve(fields.size());
    for (size_t f = 0; f < fields.size(); ++f) {
      if (source_col[f] >= 0) {
        columns.push_back(filtered->column(static_cast<size_t>(source_col[f])));
        continue;
      }
      const SelectItem& item = *item_of_field[f];
      Column col(fields[f].type);
      if (item.kind == SelectItem::Kind::kExpr) {
        bool vectorized = false;
        if (expr::VectorizedEnabled()) {
          if (auto program = Compiler::Compile(item.expr, filtered->schema())) {
            // Morsel-parallel projection: compute the register across the
            // pool, then build the column once (identical to RunToColumn).
            Vec reg = expr::RunMorselParallel(*filtered, *program, cancel);
            if (common::Fired(cancel)) return bail(cancel->status());
            expr::VecToColumn(std::move(reg), n, &col);
            vectorized = true;
          }
        }
        if (!vectorized) {
          col.Reserve(n);
          for (size_t r = 0; r < n; ++r) {
            col.Append(EvalScalar(item.expr, *filtered, r));
          }
        }
      } else {
        // Window function.
        ++local.num_operators;
        local.rows_processed += n;
        // Partition rows via the typed group index (single key store; the
        // per-partition row lists are built off group ids, no re-hashing).
        std::vector<Vec> part_vecs;
        part_vecs.reserve(item.window.partition_by.size());
        for (const auto& pexpr : item.window.partition_by) {
          part_vecs.push_back(EvalVec(pexpr, *filtered));
        }
        std::vector<const Vec*> part_ptrs;
        part_ptrs.reserve(part_vecs.size());
        for (const Vec& v : part_vecs) part_ptrs.push_back(&v);
        std::vector<int32_t> all_rows(n);
        std::iota(all_rows.begin(), all_rows.end(), 0);
        expr::GroupResult parts = expr::BuildGroups(part_ptrs, all_rows);
        std::vector<std::vector<int32_t>> part_rows(parts.num_groups());
        for (size_t pos = 0; pos < n; ++pos) {
          part_rows[parts.group_of[pos]].push_back(static_cast<int32_t>(pos));
        }

        Vec arg_vec;
        if (item.window.op != WindowOp::kRowNumber) {
          arg_vec = EvalVec(item.window.arg, *filtered);
        }
        std::vector<Value> results(n, Value::Null());
        for (std::vector<int32_t>& rows : part_rows) {
          if (!item.window.order_by.empty()) {
            SortIndices(&rows, *filtered, item.window.order_by);
          }
          double running = 0;
          int64_t rank = 0;
          for (int32_t r : rows) {
            if (item.window.op == WindowOp::kRowNumber) {
              results[static_cast<size_t>(r)] = Value::Int(++rank);
            } else {
              Value v = arg_vec.CellValue(static_cast<size_t>(r));
              if (!v.is_null()) running += v.AsDouble();
              results[static_cast<size_t>(r)] = Value::Double(running);
            }
          }
        }
        col.Reserve(n);
        for (size_t r = 0; r < n; ++r) col.Append(results[r]);
      }
      columns.push_back(std::move(col));
    }
    output = std::make_shared<Table>(Schema(std::move(fields)), std::move(columns));
  }

  // ---- ORDER BY (against output columns) ----
  if (!stmt.order_by.empty()) {
    ++local.num_operators;
    local.rows_processed += output->num_rows();
    if (common::Fired(cancel)) return bail(cancel->status());
    std::vector<int32_t> order(output->num_rows());
    std::iota(order.begin(), order.end(), 0);
    SortIndices(&order, *output, stmt.order_by, cancel);
    if (common::Fired(cancel)) return bail(cancel->status());
    output = output->Take(order);
  }

  // ---- LIMIT / OFFSET ----
  if (stmt.limit >= 0 || stmt.offset > 0) {
    ++local.num_operators;
    size_t begin = std::min(static_cast<size_t>(stmt.offset), output->num_rows());
    size_t end = stmt.limit < 0 ? output->num_rows()
                                : std::min(begin + static_cast<size_t>(stmt.limit),
                                           output->num_rows());
    const size_t kept = end - begin;
    if (kept * 2 >= output->num_rows()) {
      // Zero-copy view; the discarded fraction of the backing storage is
      // bounded, so pinning it (e.g. in the runtime query cache) is fine.
      output = output->Slice(begin, kept);
    } else {
      // A small LIMIT over a large intermediate: compact so a cached result
      // doesn't pin the whole pre-LIMIT table's storage.
      std::vector<int32_t> keep;
      keep.reserve(kept);
      for (size_t r = begin; r < end; ++r) keep.push_back(static_cast<int32_t>(r));
      output = output->Take(keep);
    }
  }

  local.rows_output = output->num_rows();
  if (stats != nullptr) stats->Add(local);
  return output;
}

}  // namespace sql
}  // namespace vegaplus
