#include "tiles/tile_store.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>

#include "common/parallel.h"
#include "expr/ast.h"
#include "json/json_value.h"
#include "json/json_writer.h"
#include "rewrite/tile_shape.h"
#include "sql/engine.h"
#include "storage/reader.h"
#include "storage/table_shard.h"
#include "transforms/binning.h"

namespace vegaplus {
namespace tiles {

namespace {

using data::Column;
using data::DataType;
using data::Table;
using data::TablePtr;
using data::Value;
using expr::BinAggSlots;
using expr::RegKind;
using expr::Vec;
using rewrite::TileShape;
using sql::AggOp;
using sql::SelectItem;
using sql::SelectStmt;

std::atomic<bool> g_tile_serving{true};

std::string TreeKey(const std::string& table, const std::string& column,
                    bool categorical) {
  std::string key = table;
  key.push_back('\0');
  key += column;
  key += categorical ? "#cat" : "#num";
  return key;
}

/// Mirror of the executor's AggResultType for the shapes tiles cover:
/// COUNT is int64, MIN/MAX keep the argument column's type, SUM/AVG widen
/// to float64. The Value cells appended below then coerce exactly like the
/// executor's AggState::Finish output does.
DataType TileAggType(const TileShape::Item& item, const data::Schema& schema) {
  switch (item.op) {
    case AggOp::kCount:
      return DataType::kInt64;
    case AggOp::kMin:
    case AggOp::kMax: {
      int idx = schema.FieldIndex(item.agg_column);
      if (idx >= 0) return schema.field(static_cast<size_t>(idx)).type;
      return DataType::kFloat64;
    }
    default:
      return DataType::kFloat64;
  }
}

/// Classification of one slot against the brush bounds.
enum class SlotCoverage { kIncluded, kExcluded, kPartial };

/// Stable filename stem for a tree key (keys embed '\0', so they cannot be
/// used as path components directly).
std::string Fnv1aHex(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

/// Slot-array footprint of a level: rows + first_row (int64 each) plus four
/// slot-sized arrays per measure (count int64, sum/min/max float64).
size_t LevelApproxBytes(size_t num_bins, size_t num_measures) {
  const size_t slots = num_bins + 1;
  return slots * 16 + num_measures * slots * 32;
}

SlotCoverage ClassifySlot(const TileShape& shape, double vmin, double vmax) {
  bool all = true;
  if (shape.has_lower) {
    const bool all_in = shape.lower_strict ? vmin > shape.lower
                                           : vmin >= shape.lower;
    const bool none_in = shape.lower_strict ? vmax <= shape.lower
                                            : vmax < shape.lower;
    if (none_in) return SlotCoverage::kExcluded;
    all = all && all_in;
  }
  if (shape.has_upper) {
    const bool all_in = shape.upper_strict ? vmax < shape.upper
                                           : vmax <= shape.upper;
    const bool none_in = shape.upper_strict ? vmin >= shape.upper
                                            : vmin > shape.upper;
    if (none_in) return SlotCoverage::kExcluded;
    all = all && all_in;
  }
  return all ? SlotCoverage::kIncluded : SlotCoverage::kPartial;
}

}  // namespace

bool TileServingEnabled() { return g_tile_serving.load(std::memory_order_relaxed); }
void SetTileServingEnabled(bool enabled) {
  g_tile_serving.store(enabled, std::memory_order_relaxed);
}

const expr::BinAggSlots* TileStore::Level::FindMeasure(
    const std::string& name) const {
  for (size_t i = 0; i < measure_names.size(); ++i) {
    if (measure_names[i] == name) return &measure_slots[i];
  }
  return nullptr;
}

TileStore::TileStore(const sql::Engine* engine, TileStoreOptions options)
    : engine_(engine), options_(options) {}

TileStoreStats TileStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void TileStore::Invalidate(const std::string& table_name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = trees_.begin(); it != trees_.end();) {
    // Keys are "<table>\0<column>#kind".
    const std::string& key = it->first;
    if (key.size() > table_name.size() && key[table_name.size()] == '\0' &&
        key.compare(0, table_name.size(), table_name) == 0) {
      it = trees_.erase(it);
    } else {
      ++it;
    }
  }
}

bool TileStore::BuildLevel(const Table& table, const Vec& bin_values,
                           Level* level,
                           const common::CancelToken* cancel) const {
  const size_t n = table.num_rows();
  const size_t slots = level->num_bins + 1;  // + null slot

  // Assign every row to a slot. Chunks are MorselRows()-sized so the merge
  // order below matches the executor's partial-state discipline. A fired
  // token skips the remaining chunks; every post-ParallelFor checkpoint
  // returns false and BuildTree converts that into an aborted (uncached)
  // build.
  std::vector<int32_t> bin_of(n);
  std::vector<parallel::Range> chunks =
      parallel::SplitRanges(n, parallel::MorselRows());
  std::vector<char> chunk_ok(chunks.size(), 1);
  parallel::ParallelFor(
      chunks.size(),
      [&](size_t c) {
        chunk_ok[c] = expr::ComputeBinIndices(bin_values, level->start,
                                              level->step, level->num_bins,
                                              chunks[c], bin_of.data())
                          ? 1
                          : 0;
      },
      cancel);
  if (common::Fired(cancel)) return false;
  for (char ok : chunk_ok) {
    if (!ok) return false;  // out-of-range value: extent/binning mismatch
  }

  // COUNT(*) and first-seen order per slot, merged in chunk order.
  {
    std::vector<std::vector<int64_t>> chunk_rows(chunks.size());
    std::vector<std::vector<int64_t>> chunk_first(chunks.size());
    parallel::ParallelFor(
        chunks.size(),
        [&](size_t c) {
          chunk_rows[c].assign(slots, 0);
          chunk_first[c].assign(slots, -1);
          expr::AccumulateBinRows(bin_of.data(), chunks[c], &chunk_rows[c],
                                  &chunk_first[c]);
        },
        cancel);
    if (common::Fired(cancel)) return false;
    level->rows.assign(slots, 0);
    level->first_row.assign(slots, -1);
    for (size_t c = 0; c < chunks.size(); ++c) {
      for (size_t b = 0; b < slots; ++b) {
        level->rows[b] += chunk_rows[c][b];
        if (level->first_row[b] < 0) level->first_row[b] = chunk_first[c][b];
      }
    }
  }

  // Measure slots: every column the executor's typed aggregate path would
  // accumulate as doubles (numeric, bool, timestamp — ColumnVec widens them
  // all to kNum or kBool). String/unsupported columns are simply absent, so
  // queries aggregating them fall back.
  for (size_t col = 0; col < table.num_columns(); ++col) {
    Vec values = expr::ColumnVec(table.column(col));
    if (values.kind != RegKind::kNum && values.kind != RegKind::kBool) continue;
    std::vector<BinAggSlots> chunk_slots(chunks.size());
    parallel::ParallelFor(
        chunks.size(),
        [&](size_t c) {
          chunk_slots[c].Resize(slots);
          expr::AccumulateBinAggs(values, bin_of.data(), chunks[c],
                                  &chunk_slots[c]);
        },
        cancel);
    if (common::Fired(cancel)) return false;
    BinAggSlots merged;
    merged.Resize(slots);
    for (size_t c = 0; c < chunks.size(); ++c) {
      merged.MergeFrom(chunk_slots[c]);
    }
    level->measure_names.push_back(table.schema().field(col).name);
    level->measure_slots.push_back(std::move(merged));
  }
  return true;
}

std::shared_ptr<TileStore::Tree> TileStore::BuildTree(
    const TablePtr& table, const std::string& column, bool categorical,
    const common::CancelToken* cancel) const {
  auto tree = std::make_shared<Tree>();
  tree->source = table;
  tree->categorical = categorical;
  tree->unbuildable = true;  // cleared on success

  int col_idx = table->schema().FieldIndex(column);
  if (col_idx < 0 || table->num_rows() == 0) return tree;
  const Column& col = table->column(static_cast<size_t>(col_idx));

  if (categorical) {
    if (!col.dict_encoded()) return tree;  // flat strings: not covered
    tree->dict = col.dict_shared();
    const size_t n = table->num_rows();
    const size_t num_codes = tree->dict->values.size();
    // Codes are already bin indices; -1 (null) maps to the trailing slot.
    Vec values = expr::ColumnVec(col);
    Level level;
    level.num_bins = num_codes;
    const int32_t* codes = col.codes_data();
    std::vector<int32_t> bin_of(n);
    for (size_t i = 0; i < n; ++i) {
      if ((i & 16383u) == 0 && common::Fired(cancel)) return nullptr;
      bin_of[i] = codes[i] < 0 ? static_cast<int32_t>(num_codes) : codes[i];
    }
    const size_t slots = num_codes + 1;
    level.rows.assign(slots, 0);
    level.first_row.assign(slots, -1);
    expr::AccumulateBinRows(bin_of.data(), parallel::Range{0, n}, &level.rows,
                            &level.first_row);
    // Measures over the same slot assignment, chunked like the numeric path.
    std::vector<parallel::Range> chunks =
        parallel::SplitRanges(n, parallel::MorselRows());
    for (size_t c = 0; c < table->num_columns(); ++c) {
      Vec mv = expr::ColumnVec(table->column(c));
      if (mv.kind != RegKind::kNum && mv.kind != RegKind::kBool) continue;
      std::vector<BinAggSlots> chunk_slots(chunks.size());
      parallel::ParallelFor(
          chunks.size(),
          [&](size_t ci) {
            chunk_slots[ci].Resize(slots);
            expr::AccumulateBinAggs(mv, bin_of.data(), chunks[ci],
                                    &chunk_slots[ci]);
          },
          cancel);
      if (common::Fired(cancel)) return nullptr;  // aborted: never cached
      BinAggSlots merged;
      merged.Resize(slots);
      for (auto& cs : chunk_slots) merged.MergeFrom(cs);
      level.measure_names.push_back(table->schema().field(c).name);
      level.measure_slots.push_back(std::move(merged));
    }
    tree->levels.push_back(std::move(level));
    tree->unbuildable = false;
    return tree;
  }

  // Numeric tree: extent pass, then one level per distinct nice binning.
  Vec bin_values = expr::ColumnVec(col);
  if (bin_values.kind != RegKind::kNum && bin_values.kind != RegKind::kBool) {
    return tree;
  }
  double lo = 0, hi = 0;
  bool any = false;
  for (size_t i = 0; i < table->num_rows(); ++i) {
    if ((i & 16383u) == 0 && common::Fired(cancel)) return nullptr;
    if (!bin_values.ValidAt(i)) continue;
    const double v = bin_values.kind == RegKind::kBool
                         ? (bin_values.BitAt(i) ? 1.0 : 0.0)
                         : bin_values.NumAt(i);
    if (!std::isfinite(v)) return tree;  // inf/NaN column: not coverable
    if (!any) {
      lo = hi = v;
      any = true;
    } else {
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
  }
  if (!any) return tree;

  for (size_t maxbins = 1; maxbins <= options_.max_maxbins; ++maxbins) {
    transforms::Binning b =
        transforms::ComputeBinning(lo, hi, static_cast<int>(maxbins));
    if (!(b.step > 0) || !std::isfinite(b.start)) continue;
    bool seen = false;
    for (const Level& l : tree->levels) {
      if (l.start == b.start && l.step == b.step) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    const double k_max = std::floor((hi - b.start) / b.step);
    if (!(k_max >= 0) || k_max >= static_cast<double>(options_.max_level_bins)) {
      continue;  // too fine for the slot cap; queries at this zoom fall back
    }
    Level level;
    level.start = b.start;
    level.step = b.step;
    level.num_bins = static_cast<size_t>(k_max) + 1;
    // Guard against catastrophic absorption (start + k*step collapsing for
    // distinct k): the executor would merge such groups by value, tiles
    // would not — so refuse the level.
    bool monotone = true;
    double prev = level.start;
    for (size_t k = 1; k < level.num_bins && monotone; ++k) {
      const double v = level.start + static_cast<double>(k) * level.step;
      monotone = v > prev;
      prev = v;
    }
    if (!monotone) continue;
    const bool built = BuildLevel(*table, bin_values, &level, cancel);
    // Distinguish abort (fired token — the partial tree must not be cached)
    // from an unbuildable level (skip it, keep enumerating zooms).
    if (common::Fired(cancel)) return nullptr;
    if (!built) continue;
    tree->levels.push_back(std::move(level));
  }
  tree->unbuildable = tree->levels.empty();
  return tree;
}

std::pair<size_t, size_t> TileStore::SpillTree(const std::string& key,
                                               Tree* tree) const {
  size_t spilled = 0;
  size_t evicted = 0;
  const std::string stem = options_.spill_dir + "/" + Fnv1aHex(key);
  for (size_t i = 0; i < tree->levels.size(); ++i) {
    Level& level = tree->levels[i];
    const size_t slots = level.num_bins + 1;
    level.approx_bytes = LevelApproxBytes(level.num_bins,
                                          level.measure_slots.size());

    std::vector<data::Field> fields;
    std::vector<Column> columns;
    auto add_ints = [&](const std::string& name,
                        const std::vector<int64_t>& v) {
      Column c(DataType::kInt64);
      c.Reserve(v.size());
      for (int64_t x : v) c.AppendInt(x);
      fields.push_back({name, DataType::kInt64});
      columns.push_back(std::move(c));
    };
    auto add_doubles = [&](const std::string& name,
                           const std::vector<double>& v) {
      fields.push_back({name, DataType::kFloat64});
      columns.push_back(Column::FromDoubles(v, {}));
    };
    add_ints("rows", level.rows);
    add_ints("first_row", level.first_row);
    for (size_t m = 0; m < level.measure_slots.size(); ++m) {
      const BinAggSlots& s = level.measure_slots[m];
      const std::string p = "m" + std::to_string(m) + "_";
      add_ints(p + "count", s.count);
      add_doubles(p + "sum", s.sum);
      add_doubles(p + "min", s.min);
      add_doubles(p + "max", s.max);
    }
    Table slot_table(data::Schema(std::move(fields)), std::move(columns));
    if (slot_table.num_rows() != slots) continue;  // malformed level: keep hot

    json::Value meta = json::Value::MakeObject();
    meta.Set("start", level.start);
    meta.Set("step", level.step);
    meta.Set("num_bins", level.num_bins);
    json::Value names = json::Value::MakeArray();
    for (const std::string& n : level.measure_names) names.Append(n);
    meta.Set("measure_names", std::move(names));

    storage::WriteOptions opts;
    opts.kind = "TILE";
    opts.meta = json::Write(meta);
    const std::string path = stem + "-L" + std::to_string(i) + ".vps";
    if (!storage::TableShard::Write(path, slot_table, opts).ok()) continue;
    level.spill_path = path;
    ++spilled;
  }

  // Evict largest spilled levels until the resident slot arrays fit the
  // budget. Never evicts an unspilled level — there would be nothing to
  // hydrate from.
  if (options_.resident_level_bytes > 0) {
    size_t resident_total = 0;
    std::vector<size_t> order;
    for (size_t i = 0; i < tree->levels.size(); ++i) {
      resident_total += tree->levels[i].approx_bytes;
      if (!tree->levels[i].spill_path.empty()) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return tree->levels[a].approx_bytes > tree->levels[b].approx_bytes;
    });
    for (size_t i : order) {
      if (resident_total <= options_.resident_level_bytes) break;
      Level& level = tree->levels[i];
      resident_total -= level.approx_bytes;
      level.rows.clear();
      level.rows.shrink_to_fit();
      level.first_row.clear();
      level.first_row.shrink_to_fit();
      level.measure_slots.clear();
      level.measure_slots.shrink_to_fit();
      level.resident = false;
      ++evicted;
    }
  }
  return {spilled, evicted};
}

Result<TileStore::Level> TileStore::HydrateLevel(const Level& level) const {
  VP_ASSIGN_OR_RETURN(std::shared_ptr<storage::Reader> reader,
                      storage::Reader::Open(level.spill_path));
  VP_ASSIGN_OR_RETURN(TablePtr t, reader->ReadAll());
  const size_t slots = level.num_bins + 1;
  const size_t want_cols = 2 + 4 * level.measure_names.size();
  if (t->num_rows() != slots || t->num_columns() != want_cols) {
    return Status::IOError("tile level shard " + level.spill_path +
                           " does not match the resident skeleton");
  }
  auto ints = [&](size_t col, std::vector<int64_t>* out) -> Status {
    const Column& c = t->column(col);
    if (c.type() != DataType::kInt64) {
      return Status::IOError("tile level shard " + level.spill_path +
                             ": expected int64 at column " +
                             std::to_string(col));
    }
    out->assign(c.ints_data(), c.ints_data() + slots);
    return Status::OK();
  };
  auto doubles = [&](size_t col, std::vector<double>* out) -> Status {
    const Column& c = t->column(col);
    if (c.type() != DataType::kFloat64) {
      return Status::IOError("tile level shard " + level.spill_path +
                             ": expected float64 at column " +
                             std::to_string(col));
    }
    out->assign(c.doubles_data(), c.doubles_data() + slots);
    return Status::OK();
  };
  Level out = level;  // scalars, measure_names, spill_path carry over
  out.resident = true;
  VP_RETURN_IF_ERROR(ints(0, &out.rows));
  VP_RETURN_IF_ERROR(ints(1, &out.first_row));
  out.measure_slots.resize(level.measure_names.size());
  for (size_t m = 0; m < level.measure_names.size(); ++m) {
    BinAggSlots& s = out.measure_slots[m];
    const size_t base = 2 + 4 * m;
    VP_RETURN_IF_ERROR(ints(base + 0, &s.count));
    VP_RETURN_IF_ERROR(doubles(base + 1, &s.sum));
    VP_RETURN_IF_ERROR(doubles(base + 2, &s.min));
    VP_RETURN_IF_ERROR(doubles(base + 3, &s.max));
  }
  return out;
}

TileStore::TreePtr TileStore::GetOrBuildTree(const std::string& key,
                                             const std::string& table_name,
                                             const std::string& column,
                                             bool categorical,
                                             const TablePtr& table,
                                             const common::CancelToken* cancel) {
  (void)table_name;
  (void)column;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = trees_.find(key);
    if (it != trees_.end() && it->second->source == table) {
      return it->second;
    }
    if (!options_.build_on_miss) return nullptr;
    if (building_.count(key)) {
      ++stats_.build_conflicts;
      return nullptr;  // another thread is building: fall back, don't block
    }
    building_.insert(key);
  }
  std::shared_ptr<Tree> tree = BuildTree(table, column, categorical, cancel);
  if (tree == nullptr) {
    // Build aborted by a fired token. Release the single-flight slot and
    // cache nothing: a leader that dies mid-build must not poison the key —
    // the next requester (or a promoted follower) simply rebuilds.
    std::lock_guard<std::mutex> lock(mu_);
    building_.erase(key);
    ++stats_.builds_aborted;
    return nullptr;
  }
  std::pair<size_t, size_t> spill{0, 0};
  if (!options_.spill_dir.empty() && !tree->unbuildable) {
    spill = SpillTree(key, tree.get());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    trees_[key] = tree;
    building_.erase(key);
    ++stats_.builds;
    stats_.levels_spilled += spill.first;
    stats_.levels_evicted += spill.second;
  }
  return tree;
}

std::optional<TileAnswer> TileStore::TryAnswer(const SelectStmt& stmt,
                                               const common::CancelToken* cancel) {
  TileShape shape;
  if (!rewrite::MatchTileShape(stmt, &shape)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shape_misses;
    return std::nullopt;
  }
  auto coverage_miss = [this]() -> std::optional<TileAnswer> {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.coverage_misses;
    return std::nullopt;
  };

  auto table_r = engine_->catalog().GetTable(shape.table);
  if (!table_r.ok()) return coverage_miss();
  TablePtr table = *table_r;

  const std::string key =
      TreeKey(shape.table, shape.bin_column, shape.categorical);
  TreePtr tree =
      GetOrBuildTree(key, shape.table, shape.bin_column, shape.categorical,
                     table, cancel);
  if (tree == nullptr || tree->unbuildable) return coverage_miss();

  // ---- Level selection ----
  const Level* level = nullptr;
  if (shape.categorical) {
    level = &tree->levels[0];
  } else {
    for (const Level& l : tree->levels) {
      if (l.start == shape.start && l.step == shape.step) {
        level = &l;
        break;
      }
    }
  }
  if (level == nullptr) return coverage_miss();

  // Non-resident level: hydrate a transient copy from its shard file. The
  // copy is not re-cached — residency is governed solely at build time.
  std::optional<TileAnswer> answer;
  if (!level->resident) {
    Result<Level> hydrated = HydrateLevel(*level);
    if (!hydrated.ok()) return coverage_miss();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.level_hydrations;
    }
    answer = AnswerFromLevel(stmt, shape, *tree, *hydrated);
  } else {
    answer = AnswerFromLevel(stmt, shape, *tree, *level);
  }
  if (!answer) return coverage_miss();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
  }
  return answer;
}

std::optional<TileAnswer> TileStore::TryAnswerCoarser(const SelectStmt& stmt) {
  TileShape shape;
  if (!rewrite::MatchTileShape(stmt, &shape)) return std::nullopt;
  if (shape.categorical) return std::nullopt;  // single level: nothing coarser

  auto table_r = engine_->catalog().GetTable(shape.table);
  if (!table_r.ok()) return std::nullopt;
  TablePtr table = *table_r;

  // Lookup only — degraded mode must stay cheap, so never build here.
  TreePtr tree;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = trees_.find(TreeKey(shape.table, shape.bin_column, false));
    if (it == trees_.end() || it->second->source != table) return std::nullopt;
    tree = it->second;
  }
  if (tree->unbuildable) return std::nullopt;

  // Coarsest-acceptable-first would lose resolution needlessly; take the
  // finest level at or above the requested step that can answer.
  std::vector<const Level*> candidates;
  for (const Level& l : tree->levels) {
    if (l.step >= shape.step) candidates.push_back(&l);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Level* a, const Level* b) { return a->step < b->step; });
  for (const Level* level : candidates) {
    std::optional<TileAnswer> answer;
    if (!level->resident) {
      Result<Level> hydrated = HydrateLevel(*level);
      if (!hydrated.ok()) continue;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.level_hydrations;
      }
      answer = AnswerFromLevel(stmt, shape, *tree, *hydrated);
    } else {
      answer = AnswerFromLevel(stmt, shape, *tree, *level);
    }
    if (answer) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.degraded_hits;
      return answer;
    }
  }
  return std::nullopt;
}

std::optional<TileAnswer> TileStore::AnswerFromLevel(const SelectStmt& stmt,
                                                     const TileShape& shape,
                                                     const Tree& tree,
                                                     const Level& level_ref)
    const {
  const Level* level = &level_ref;
  const TablePtr& table = tree.source;

  // ---- Aggregate-argument availability ----
  for (const TileShape::Item& item : shape.items) {
    if (item.kind != TileShape::Item::Kind::kAggregate || item.count_star) {
      continue;
    }
    if (level->FindMeasure(item.agg_column) == nullptr) return std::nullopt;
  }

  // ---- Slot inclusion ----
  const bool has_brush = shape.has_lower || shape.has_upper;
  const BinAggSlots* bin_measure = nullptr;
  if (has_brush) {
    bin_measure = level->FindMeasure(shape.bin_column);
    if (bin_measure == nullptr) return std::nullopt;
  }
  std::vector<size_t> included;
  included.reserve(level->num_bins + 1);
  for (size_t k = 0; k < level->num_bins; ++k) {
    if (level->rows[k] == 0) continue;
    if (has_brush) {
      switch (ClassifySlot(shape, bin_measure->min[k], bin_measure->max[k])) {
        case SlotCoverage::kExcluded:
          continue;
        case SlotCoverage::kPartial:
          return std::nullopt;  // straddling slot: exact answer needs rows
        case SlotCoverage::kIncluded:
          break;
      }
    }
    included.push_back(k);
  }
  // Null bin-column rows survive only an unfiltered scan (any brush
  // comparison on null is null => filtered out).
  if (!has_brush && level->rows[level->num_bins] > 0) {
    included.push_back(level->num_bins);
  }
  std::sort(included.begin(), included.end(), [&](size_t a, size_t b) {
    return level->first_row[a] < level->first_row[b];
  });

  // ---- Emit, replicating the executor's output exactly ----
  std::vector<data::Field> fields;
  fields.reserve(shape.items.size());
  for (size_t i = 0; i < shape.items.size(); ++i) {
    const TileShape::Item& item = shape.items[i];
    DataType t = DataType::kFloat64;
    switch (item.kind) {
      case TileShape::Item::Kind::kBin0:
      case TileShape::Item::Kind::kBin1:
        t = DataType::kFloat64;
        break;
      case TileShape::Item::Kind::kKey:
        t = DataType::kString;
        break;
      case TileShape::Item::Kind::kAggregate:
        t = TileAggType(item, table->schema());
        break;
    }
    fields.push_back({sql::DeriveItemName(stmt.items[i], i), t});
  }

  std::vector<Column> columns;
  columns.reserve(fields.size());
  for (size_t i = 0; i < shape.items.size(); ++i) {
    const TileShape::Item& item = shape.items[i];
    Column out(fields[i].type);
    out.Reserve(included.size());
    const BinAggSlots* m = item.kind == TileShape::Item::Kind::kAggregate &&
                                   !item.count_star
                               ? level->FindMeasure(item.agg_column)
                               : nullptr;
    for (size_t k : included) {
      const bool null_slot = k == level->num_bins;
      Value cell = Value::Null();
      switch (item.kind) {
        case TileShape::Item::Kind::kBin0:
          if (!null_slot) {
            cell = Value::Double(level->start +
                                 static_cast<double>(k) * level->step);
          }
          break;
        case TileShape::Item::Kind::kBin1:
          if (!null_slot) {
            cell = Value::Double(
                (level->start + static_cast<double>(k) * level->step) +
                level->step);
          }
          break;
        case TileShape::Item::Kind::kKey:
          if (!null_slot) cell = Value::String(tree.dict->values[k]);
          break;
        case TileShape::Item::Kind::kAggregate: {
          if (item.count_star) {
            cell = Value::Int(level->rows[k]);
            break;
          }
          const int64_t cnt = m->count[k];
          switch (item.op) {
            case AggOp::kCount:
              cell = Value::Int(cnt);
              break;
            case AggOp::kSum:
              if (cnt > 0) cell = Value::Double(m->sum[k]);
              break;
            case AggOp::kAvg:
              if (cnt > 0) {
                cell = Value::Double(m->sum[k] / static_cast<double>(cnt));
              }
              break;
            case AggOp::kMin:
              if (cnt > 0) cell = Value::Double(m->min[k]);
              break;
            case AggOp::kMax:
              if (cnt > 0) cell = Value::Double(m->max[k]);
              break;
            default:
              break;  // unreachable: matcher rejects other ops
          }
          break;
        }
      }
      out.Append(cell);
    }
    columns.push_back(std::move(out));
  }

  TileAnswer answer;
  answer.table = std::make_shared<Table>(data::Schema(std::move(fields)),
                                         std::move(columns));
  answer.bins_touched = included.size();
  return answer;
}

}  // namespace tiles
}  // namespace vegaplus
