#include "checks.h"

#include <algorithm>

#include "common/str_util.h"

namespace dashbench {

using vegaplus::Result;
using vegaplus::Status;
using vegaplus::benchdata::TemplateId;
using vegaplus::data::DataType;
using vegaplus::data::Table;
using vegaplus::data::TablePtr;
using vegaplus::data::Value;
using vegaplus::expr::EvalValue;

namespace {

Result<std::string> BoundField(const vegaplus::spec::VegaSpec& spec,
                               const std::string& signal) {
  const vegaplus::spec::SignalSpec* s = spec.FindSignal(signal);
  if (s == nullptr || s->bound_field.empty()) {
    return Status::KeyError("checks: no interval signal '" + signal + "'");
  }
  return s->bound_field;
}

// The overview+detail template's bar selection filters on the field its bar
// chart groups by.
Result<std::string> BarField(const vegaplus::spec::VegaSpec& spec) {
  const vegaplus::spec::DataSpec* bars = spec.FindData("bars");
  if (bars == nullptr || bars->transforms.empty()) {
    return Status::KeyError("checks: spec has no 'bars' entry");
  }
  const vegaplus::json::Value* groupby = bars->transforms[0].params.Find("groupby");
  if (groupby == nullptr || !groupby->is_array() || groupby->size() != 1 ||
      !(*groupby)[0].is_string()) {
    return Status::KeyError("checks: 'bars' does not group by one field");
  }
  return (*groupby)[0].AsString();
}

Condition Interval(const std::string& signal, const std::string& field) {
  return Condition{Condition::Kind::kInterval, signal, field};
}

}  // namespace

Result<std::vector<View>> ViewsFor(TemplateId id, const vegaplus::spec::VegaSpec& spec) {
  std::vector<View> views;
  switch (id) {
    case TemplateId::kCrossfilter: {
      // hist_i is filtered by the brushes of the other two charts; gray_i is
      // the unfiltered distribution.
      std::vector<std::string> fields;
      for (int i = 0; i < 3; ++i) {
        VP_ASSIGN_OR_RETURN(std::string f,
                            BoundField(spec, vegaplus::StrFormat("brush_%d", i)));
        fields.push_back(f);
      }
      for (int i = 0; i < 3; ++i) {
        View hist{vegaplus::StrFormat("hist_%d", i), {}};
        for (int other : {(i + 1) % 3, (i + 2) % 3}) {
          hist.conditions.push_back(
              Interval(vegaplus::StrFormat("brush_%d", other), fields[other]));
        }
        views.push_back(hist);
        views.push_back(View{vegaplus::StrFormat("gray_%d", i), {}});
      }
      return views;
    }
    case TemplateId::kOverviewDetail: {
      VP_ASSIGN_OR_RETURN(std::string time_field, BoundField(spec, "time_brush"));
      VP_ASSIGN_OR_RETURN(std::string bar_field, BarField(spec));
      Condition click{Condition::Kind::kPoint, "bar_click", bar_field};
      views.push_back(View{"overview", {click}});
      views.push_back(View{"detail", {click, Interval("time_brush", time_field)}});
      views.push_back(View{"bars", {}});
      return views;
    }
    case TemplateId::kZoomableHeatmap: {
      VP_ASSIGN_OR_RETURN(std::string x, BoundField(spec, "domain_x"));
      VP_ASSIGN_OR_RETURN(std::string y, BoundField(spec, "domain_y"));
      views.push_back(View{"density", {Interval("domain_x", x), Interval("domain_y", y)}});
      return views;
    }
    default:
      return Status::NotImplemented(std::string("checks: no views for template '") +
                                    vegaplus::benchdata::TemplateName(id) + "'");
  }
}

SignalState InitialSignals(const vegaplus::spec::VegaSpec& spec) {
  SignalState state;
  for (const auto& s : spec.signals) state[s.name] = EvalValue::FromJson(s.init);
  return state;
}

void ApplyUpdates(const std::vector<vegaplus::runtime::SignalUpdate>& updates,
                  SignalState* state) {
  for (const auto& [name, value] : updates) (*state)[name] = value;
}

Result<const std::vector<double>*> RowCounter::Numeric(const std::string& field) {
  auto it = numeric_.find(field);
  if (it != numeric_.end()) return &it->second;
  const vegaplus::data::Column* col = table_->ColumnByName(field);
  if (col == nullptr || !vegaplus::data::IsNumericType(col->type())) {
    return Status::KeyError("checks: no numeric column '" + field + "'");
  }
  std::vector<double> values(col->length());
  for (size_t i = 0; i < values.size(); ++i) values[i] = col->NumericAt(i);
  return &numeric_.emplace(field, std::move(values)).first->second;
}

Result<const std::vector<int32_t>*> RowCounter::Codes(const std::string& field) {
  auto it = codes_.find(field);
  if (it != codes_.end()) return &it->second;
  const vegaplus::data::Column* col = table_->ColumnByName(field);
  if (col == nullptr || col->type() != DataType::kString) {
    return Status::KeyError("checks: no string column '" + field + "'");
  }
  std::map<std::string, int32_t>& dict = strings_[field];
  std::vector<int32_t> codes(col->length(), -1);
  for (size_t i = 0; i < codes.size(); ++i) {
    if (col->IsNull(i)) continue;
    auto [pos, inserted] =
        dict.emplace(col->StringAt(i), static_cast<int32_t>(dict.size()));
    codes[i] = pos->second;
  }
  return &codes_.emplace(field, std::move(codes)).first->second;
}

Result<size_t> RowCounter::Count(const std::vector<Condition>& conditions,
                                 const SignalState& signals) {
  std::string key;
  for (const Condition& c : conditions) {
    auto it = signals.find(c.signal);
    if (it == signals.end()) return Status::KeyError("checks: no signal '" + c.signal + "'");
    key += c.field + '\x1f' + c.signal + '=' + it->second.ToString() + '\x1e';
  }
  if (auto hit = memo_.find(key); hit != memo_.end()) return hit->second;

  // Resolve every condition to a per-row test first, then count block by
  // block so the mask stays in cache.
  struct Range {
    const double* x;
    double lo, hi;
  };
  struct Point {
    const int32_t* x;
    int32_t code;
  };
  std::vector<Range> ranges;
  std::vector<Point> points;
  for (const Condition& c : conditions) {
    const EvalValue& v = signals.at(c.signal);
    if (c.kind == Condition::Kind::kInterval) {
      if (!v.is_array() || v.array().size() < 2) {
        return Status::TypeError("checks: signal '" + c.signal + "' is not an interval");
      }
      double lo = v.array()[0].AsDouble();
      double hi = v.array()[1].AsDouble();
      if (lo > hi) std::swap(lo, hi);
      VP_ASSIGN_OR_RETURN(const std::vector<double>* col, Numeric(c.field));
      ranges.push_back(Range{col->data(), lo, hi});
    } else {
      if (v.is_null()) continue;  // no selection: every row passes
      VP_ASSIGN_OR_RETURN(const std::vector<int32_t>* col, Codes(c.field));
      const std::map<std::string, int32_t>& dict = strings_[c.field];
      auto code_it = dict.find(v.scalar().AsString());
      points.push_back(Point{col->data(), code_it == dict.end() ? -2 : code_it->second});
    }
  }
  // 64-bit mask lanes match the width of double compares, which lets the
  // compiler vectorize the loops below.
  constexpr size_t kBlock = 2048;
  int64_t mask[kBlock];
  const size_t n = table_->num_rows();
  size_t count = 0;
  for (size_t begin = 0; begin < n; begin += kBlock) {
    const size_t len = std::min(kBlock, n - begin);
    std::fill(mask, mask + len, int64_t{1});
    for (const Range& r : ranges) {
      const double* x = r.x + begin;
      const double lo = r.lo, hi = r.hi;
      for (size_t i = 0; i < len; ++i) mask[i] &= (x[i] >= lo) & (x[i] <= hi);
    }
    for (const Point& p : points) {
      const int32_t* x = p.x + begin;
      const int32_t code = p.code;
      for (size_t i = 0; i < len; ++i) mask[i] &= x[i] == code;
    }
    for (size_t i = 0; i < len; ++i) count += mask[i];
  }
  memo_.emplace(std::move(key), count);
  return count;
}

Result<double> SumCounts(const Table& table, const std::string& count_field) {
  const vegaplus::data::Column* col = table.ColumnByName(count_field);
  if (col == nullptr) return Status::KeyError("checks: output has no '" + count_field + "'");
  double sum = 0;
  for (size_t i = 0; i < col->length(); ++i) {
    if (col->IsNull(i)) return Status::RuntimeError("checks: null count in output");
    sum += col->NumericAt(i);
  }
  return sum;
}

Status CheckView(const View& view, const TablePtr& output, const SignalState& signals,
                 RowCounter* counter) {
  if (output == nullptr) {
    return Status::RuntimeError("checks: entry '" + view.entry + "' has no output");
  }
  VP_ASSIGN_OR_RETURN(double sum, SumCounts(*output, "count"));
  VP_ASSIGN_OR_RETURN(size_t expected, counter->Count(view.conditions, signals));
  if (sum != static_cast<double>(expected)) {
    return Status::RuntimeError(vegaplus::StrFormat(
        "checks: '%s' counts sum to %.0f, but %zu base rows pass its filters",
        view.entry.c_str(), sum, expected));
  }
  return Status::OK();
}

namespace {

// Order: null < numbers (as doubles) < strings.
int CompareCell(const Value& a, const Value& b) {
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    return v.is_string() ? 2 : 1;
  };
  const int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 1) {
    const double x = a.AsDouble(), y = b.AsDouble();
    if (x < y) return -1;
    if (y < x) return 1;
    return 0;
  }
  if (ra == 2) {
    const int c = a.AsString().compare(b.AsString());
    return (c > 0) - (c < 0);
  }
  return 0;
}

Result<std::vector<std::vector<Value>>> SortedRows(const Table& t,
                                                   const std::vector<std::string>& names) {
  std::vector<const vegaplus::data::Column*> cols;
  for (const std::string& name : names) {
    const vegaplus::data::Column* c = t.ColumnByName(name);
    if (c == nullptr) return Status::KeyError("checks: missing column '" + name + "'");
    cols.push_back(c);
  }
  std::vector<std::vector<Value>> rows(t.num_rows());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (const auto* c : cols) rows[r].push_back(c->ValueAt(r));
  }
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    for (size_t i = 0; i < x.size(); ++i) {
      int c = CompareCell(x[i], y[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return rows;
}

}  // namespace

Status SameRows(const Table& a, const Table& b) {
  std::vector<std::string> names;
  for (size_t i = 0; i < a.num_columns(); ++i) names.push_back(a.schema().field(i).name);
  std::vector<std::string> other;
  for (size_t i = 0; i < b.num_columns(); ++i) other.push_back(b.schema().field(i).name);
  std::vector<std::string> sa = names, sb = other;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  if (sa != sb) {
    return Status::RuntimeError("checks: column sets differ: [" + vegaplus::Join(names, ",") +
                                "] vs [" + vegaplus::Join(other, ",") + "]");
  }
  if (a.num_rows() != b.num_rows()) {
    return Status::RuntimeError(vegaplus::StrFormat("checks: %zu rows vs %zu rows",
                                                    a.num_rows(), b.num_rows()));
  }
  VP_ASSIGN_OR_RETURN(auto ra, SortedRows(a, names));
  VP_ASSIGN_OR_RETURN(auto rb, SortedRows(b, names));
  for (size_t r = 0; r < ra.size(); ++r) {
    for (size_t c = 0; c < names.size(); ++c) {
      if (CompareCell(ra[r][c], rb[r][c]) != 0) {
        return Status::RuntimeError(vegaplus::StrFormat(
            "checks: row %zu column '%s' differs: %s vs %s", r, names[c].c_str(),
            ra[r][c].ToString().c_str(), rb[r][c].ToString().c_str()));
      }
    }
  }
  return Status::OK();
}

}  // namespace dashbench
