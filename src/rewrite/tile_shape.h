// Tile shape detection: recognizes the post-flatten bin+aggregate SELECT
// statements the VDT rewriter emits for histograms and categorical bar
// charts — the shapes the middleware tile store can answer from
// precomputed per-bin aggregates instead of scanning base rows.
//
// Covered (numeric histogram, the bin+extent+GROUP BY template):
//
//   SELECT <bin0> AS b0, <bin1> AS b1, AGG(...)... FROM t
//   [WHERE range-conjunction over the bin column]
//   GROUP BY <bin0>, <bin1>
//
// where bin0 = A + floor((datum.col - A) / S) * S (expr::MatchBinExpr) and
// bin1 = bin0 + S with A/S already bound to literals (BindStatement has
// run). Covered
// (categorical bar chart):
//
//   SELECT datum.col, AGG(...)... FROM t GROUP BY datum.col
//
// Aggregates may be COUNT(*)/COUNT(col)/SUM/AVG/MIN/MAX over a plain
// datum.<col>. Anything else — HAVING, ORDER BY, LIMIT/OFFSET, subquery
// FROM, extra WHERE conjuncts, computed aggregate arguments — is not a tile
// shape; the caller falls back to base-table execution (which is always
// bit-identical by definition).
#ifndef VEGAPLUS_REWRITE_TILE_SHAPE_H_
#define VEGAPLUS_REWRITE_TILE_SHAPE_H_

#include <string>
#include <vector>

#include "expr/ast.h"
#include "sql/sql_ast.h"

namespace vegaplus {
namespace rewrite {

struct TileShape {
  std::string table;
  /// Numeric form: the binned column. Categorical form: the group key.
  std::string bin_column;
  bool categorical = false;
  /// Numeric form only: the bound bin parameters.
  double start = 0;
  double step = 0;
  /// Whether the statement groups by (bin0, bin1) or bin0 alone.
  bool has_bin1 = false;

  /// Range brush over the bin column (numeric form): at most one lower and
  /// one upper bound, ANDed. Absent bounds leave has_* false.
  bool has_lower = false;
  bool lower_strict = false;
  double lower = 0;
  bool has_upper = false;
  bool upper_strict = false;
  double upper = 0;

  /// One entry per SELECT item, in statement order.
  struct Item {
    enum class Kind { kBin0, kBin1, kKey, kAggregate };
    Kind kind = Kind::kAggregate;
    sql::AggOp op = sql::AggOp::kCount;
    bool count_star = false;
    /// Aggregate argument column (empty for COUNT(*)).
    std::string agg_column;
  };
  std::vector<Item> items;
};

/// Match a bound statement against the covered tile shapes. Returns false
/// (leaving `out` unspecified) when the statement is not covered.
bool MatchTileShape(const sql::SelectStmt& stmt, TileShape* out);

}  // namespace rewrite
}  // namespace vegaplus

#endif  // VEGAPLUS_REWRITE_TILE_SHAPE_H_
