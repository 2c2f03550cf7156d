#include "expr/batch_eval.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"
#include "common/parallel.h"
#include "expr/functions.h"
#include "storage/stats.h"
#include "storage/zone_map.h"

namespace vegaplus {
namespace expr {

namespace {

using data::Column;
using data::DataType;
using data::Value;

std::atomic<bool> g_vectorized_enabled{true};

// ---- Vec cell helpers ----

bool NumTruthy(double v) { return v != 0.0 && !std::isnan(v); }

/// Hash one numeric value the way Value::Hash does (so typed and boxed key
/// registers bucket identically), with NaN pinned to one bucket so grouping
/// equality and hashing stay consistent.
size_t NumHash(double d) {
  if (std::isnan(d)) return 0x7FF8DEADu;
  if (d == 0.0) d = 0.0;  // normalize -0.0
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(d));
  bits *= 0xFF51AFD7ED558CCDull;
  bits ^= bits >> 33;
  return static_cast<size_t>(bits);
}

/// Hash of a dictionary code. Only bucketing depends on this (group ids come
/// from the first-seen scan order), so it need not match the flat-string
/// hash — it just has to be consistent within one register.
size_t CodeHash(int32_t c) {
  uint64_t bits = static_cast<uint64_t>(static_cast<uint32_t>(c));
  bits *= 0xFF51AFD7ED558CCDull;
  bits ^= bits >> 33;
  return static_cast<size_t>(bits);
}

constexpr size_t kNullHash = 0x9E3779B9u;

size_t KeyCellHash(const Vec& v, size_t i) {
  switch (v.kind) {
    case RegKind::kNum:
      if (!v.ValidAt(i)) return kNullHash;
      return NumHash(v.NumAt(i));
    case RegKind::kBool:
      return NumHash(v.BitAt(i) ? 1.0 : 0.0);
    case RegKind::kStr: {
      if (v.dict) {
        // Code-backed keys hash the int32 code: one multiply instead of a
        // string walk. Equal strings share a code within a dictionary.
        const int32_t c = v.CodeAt(i);
        return c < 0 ? kNullHash : CodeHash(c);
      }
      const std::string* s = v.StrAt(i);
      return s == nullptr ? kNullHash : std::hash<std::string>{}(*s);
    }
    case RegKind::kBoxed:
      return v.boxed[i].Hash();
  }
  return 0;
}

bool KeyCellEq(const Vec& v, size_t a, size_t b) {
  switch (v.kind) {
    case RegKind::kNum: {
      bool va = v.ValidAt(a), vb = v.ValidAt(b);
      if (va != vb) return false;
      if (!va) return true;
      double x = v.NumAt(a), y = v.NumAt(b);
      return x == y || (std::isnan(x) && std::isnan(y));
    }
    case RegKind::kBool:
      return v.BitAt(a) == v.BitAt(b);
    case RegKind::kStr: {
      // Within one register both cells share the dictionary, so equal codes
      // are equal strings and vice versa (-1 == -1 covers null == null).
      if (v.dict) return v.CodeAt(a) == v.CodeAt(b);
      const std::string* x = v.StrAt(a);
      const std::string* y = v.StrAt(b);
      if ((x == nullptr) != (y == nullptr)) return false;
      return x == nullptr || *x == *y;
    }
    case RegKind::kBoxed:
      return v.boxed[a] == v.boxed[b];
  }
  return false;
}

}  // namespace

bool VectorizedEnabled() { return g_vectorized_enabled.load(std::memory_order_relaxed); }
void SetVectorizedEnabled(bool enabled) {
  g_vectorized_enabled.store(enabled, std::memory_order_relaxed);
}

bool Vec::TruthyAt(size_t i) const {
  switch (kind) {
    case RegKind::kNum:
      return ValidAt(i) && NumTruthy(NumAt(i));
    case RegKind::kBool:
      return BitAt(i);
    case RegKind::kStr: {
      const std::string* s = StrAt(i);
      return s != nullptr && !s->empty();
    }
    case RegKind::kBoxed:
      return boxed[i].Truthy();
  }
  return false;
}

Value Vec::CellValue(size_t i) const {
  switch (kind) {
    case RegKind::kNum:
      return ValidAt(i) ? Value::Double(NumAt(i)) : Value::Null();
    case RegKind::kBool:
      return Value::Bool(BitAt(i));
    case RegKind::kStr: {
      const std::string* s = StrAt(i);
      return s == nullptr ? Value::Null() : Value::String(*s);
    }
    case RegKind::kBoxed:
      return boxed[i];
  }
  return Value::Null();
}

void Vec::AppendCellTo(size_t i, Column* out) const {
  switch (kind) {
    case RegKind::kNum: {
      if (!ValidAt(i)) {
        out->AppendNull();
        return;
      }
      double x = NumAt(i);
      switch (out->type()) {
        case DataType::kBool: out->AppendBool(x != 0.0); return;
        case DataType::kInt64:
        case DataType::kTimestamp: out->AppendInt(static_cast<int64_t>(x)); return;
        case DataType::kFloat64: out->AppendDouble(x); return;
        default: out->Append(Value::Double(x)); return;
      }
    }
    case RegKind::kBool:
      out->Append(Value::Bool(BitAt(i)));
      return;
    case RegKind::kStr: {
      const std::string* s = StrAt(i);
      if (s == nullptr) {
        out->AppendNull();
      } else if (out->type() == DataType::kString) {
        out->AppendString(*s);
      } else {
        // Matches Column::Append(Value::String) into a non-string column.
        out->AppendNull();
      }
      return;
    }
    case RegKind::kBoxed:
      out->Append(boxed[i]);
      return;
  }
}

int Vec::CompareCells(size_t a, size_t b) const {
  switch (kind) {
    case RegKind::kNum: {
      bool va = ValidAt(a), vb = ValidAt(b);
      if (!va && !vb) return 0;
      if (!va) return -1;
      if (!vb) return 1;
      double x = NumAt(a), y = NumAt(b);
      if (x < y) return -1;
      if (x > y) return 1;
      return 0;
    }
    case RegKind::kBool: {
      int x = BitAt(a) ? 1 : 0, y = BitAt(b) ? 1 : 0;
      return x - y;
    }
    case RegKind::kStr: {
      if (dict && dict_ranks) {
        // One int compare per probe: ranks order the dictionary by string,
        // nulls (-1) first — exactly the pointer path's null-then-compare.
        const int32_t ca = CodeAt(a), cb = CodeAt(b);
        const int32_t ra = ca < 0 ? -1 : (*dict_ranks)[static_cast<size_t>(ca)];
        const int32_t rb = cb < 0 ? -1 : (*dict_ranks)[static_cast<size_t>(cb)];
        return ra < rb ? -1 : (ra == rb ? 0 : 1);
      }
      const std::string* x = StrAt(a);
      const std::string* y = StrAt(b);
      if (x == nullptr && y == nullptr) return 0;
      if (x == nullptr) return -1;
      if (y == nullptr) return 1;
      return x->compare(*y) < 0 ? -1 : (*x == *y ? 0 : 1);
    }
    case RegKind::kBoxed:
      return boxed[a].Compare(boxed[b]);
  }
  return 0;
}

void Vec::BuildDictRanks() {
  if (kind != RegKind::kStr || !dict || dict_ranks) return;
  const std::vector<std::string>& values = dict->values;
  std::vector<int32_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&values](int32_t a, int32_t b) {
    return values[static_cast<size_t>(a)] < values[static_cast<size_t>(b)];
  });
  std::vector<int32_t> ranks(values.size());
  for (size_t k = 0; k < order.size(); ++k) {
    ranks[static_cast<size_t>(order[k])] = static_cast<int32_t>(k);
  }
  dict_ranks = std::make_shared<const std::vector<int32_t>>(std::move(ranks));
}

Vec ColumnVec(const Column& col) {
  Vec v;
  const size_t n = col.length();
  switch (col.type()) {
    case DataType::kFloat64:
      v.kind = RegKind::kNum;
      if (auto shared = col.shared_doubles()) {
        // Full-range column: alias the storage, no copy. The column's own
        // copy-on-write keeps the alias stable across later appends.
        v.num = CowVec<double>::Adopt(std::move(shared));
      } else {
        v.num.assign(col.doubles_data(), col.doubles_data() + n);
      }
      break;
    case DataType::kInt64:
    case DataType::kTimestamp:
    case DataType::kBool: {
      v.kind = RegKind::kNum;
      v.num.resize(n);
      double* out = v.num.data();
      const int64_t* ints = col.ints_data();
      for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(ints[i]);
      break;
    }
    case DataType::kString: {
      v.kind = RegKind::kStr;
      if (col.dict_encoded()) {
        // Code-backed register: the dictionary is shared and the codes are
        // aliased (full-range) or copied as int32s — strings never touched.
        v.dict = col.dict_shared();
        if (auto shared = col.shared_codes()) {
          v.codes = CowVec<int32_t>::Adopt(std::move(shared));
        } else {
          v.codes.assign(col.codes_data(), col.codes_data() + n);
        }
        return v;
      }
      v.str.resize(n);
      const std::string** out = v.str.data();
      const std::string* strs = col.strings_data();
      const uint8_t* valid = col.validity_data();
      for (size_t i = 0; i < n; ++i) out[i] = valid[i] ? &strs[i] : nullptr;
      return v;
    }
    case DataType::kNull:
      v.kind = RegKind::kNum;
      v.num.assign(n, 0.0);
      v.valid.assign(n, 0);
      return v;
  }
  if (col.null_count() > 0) {
    if (auto shared = col.shared_validity()) {
      v.valid = CowVec<uint8_t>::Adopt(std::move(shared));
    } else {
      v.valid.assign(col.validity_data(), col.validity_data() + n);
    }
  }
  return v;
}

Vec BoxedVec(std::vector<Value> values) {
  Vec v;
  v.kind = RegKind::kBoxed;
  v.boxed = std::move(values);
  return v;
}

// ---- Program execution ----

namespace {

/// Length of the output register given the operand constness.
size_t OutLen(bool all_const, size_t n) { return all_const ? 1 : n; }

void KeepStrRefs(Vec* out, const Vec& src) {
  if (src.str_store) out->str_refs.push_back(src.str_store);
  if (src.dict) out->str_refs.push_back(src.dict);
  out->str_refs.insert(out->str_refs.end(), src.str_refs.begin(), src.str_refs.end());
}

/// Raw pointer view of a numeric register: `stride` is 0 for broadcast
/// constants, so `v[i * stride]` works uniformly and the compiler hoists the
/// loop-invariant null checks instead of re-branching per element.
struct NumView {
  const double* v;
  const uint8_t* valid;  // nullptr == all valid
  size_t stride;
};

NumView View(const Vec& a) {
  return {a.num.data(), a.valid.empty() ? nullptr : a.valid.data(),
          a.is_const ? size_t{0} : size_t{1}};
}

template <typename F>
Vec NumBin(const Vec& a, const Vec& b, size_t n, bool null_on_zero_rhs, F f) {
  Vec out;
  out.kind = RegKind::kNum;
  out.is_const = a.is_const && b.is_const;
  const size_t m = OutLen(out.is_const, n);
  out.num.resize(m);
  const NumView va = View(a), vb = View(b);
  if (va.valid == nullptr && vb.valid == nullptr && !null_on_zero_rhs) {
    double* o = out.num.data();
    for (size_t i = 0; i < m; ++i) o[i] = f(va.v[i * va.stride], vb.v[i * vb.stride]);
    return out;
  }
  out.valid.assign(m, 1);
  uint8_t* ov = out.valid.data();
  double* o = out.num.data();
  for (size_t i = 0; i < m; ++i) {
    if ((va.valid != nullptr && va.valid[i * va.stride] == 0) ||
        (vb.valid != nullptr && vb.valid[i * vb.stride] == 0)) {
      ov[i] = 0;
      continue;
    }
    const double y = vb.v[i * vb.stride];
    if (null_on_zero_rhs && y == 0) {
      ov[i] = 0;
      continue;
    }
    o[i] = f(va.v[i * va.stride], y);
  }
  return out;
}

template <typename F>
Vec CmpNum(const Vec& a, const Vec& b, size_t n, F f) {
  Vec out;
  out.kind = RegKind::kBool;
  out.is_const = a.is_const && b.is_const;
  const size_t m = OutLen(out.is_const, n);
  out.bits.resize(m);
  const NumView va = View(a), vb = View(b);
  uint8_t* o = out.bits.data();
  if (va.valid == nullptr && vb.valid == nullptr) {
    for (size_t i = 0; i < m; ++i) {
      o[i] = f(va.v[i * va.stride], vb.v[i * vb.stride]) ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < m; ++i) {
      const bool ok = (va.valid == nullptr || va.valid[i * va.stride] != 0) &&
                      (vb.valid == nullptr || vb.valid[i * vb.stride] != 0);
      o[i] = ok && f(va.v[i * va.stride], vb.v[i * vb.stride]) ? 1 : 0;
    }
  }
  return out;
}

Vec EqNum(const Vec& a, const Vec& b, size_t n, bool negate) {
  Vec out;
  out.kind = RegKind::kBool;
  out.is_const = a.is_const && b.is_const;
  const size_t m = OutLen(out.is_const, n);
  out.bits.resize(m);
  const NumView va = View(a), vb = View(b);
  uint8_t* o = out.bits.data();
  for (size_t i = 0; i < m; ++i) {
    const bool av = va.valid == nullptr || va.valid[i * va.stride] != 0;
    const bool bv = vb.valid == nullptr || vb.valid[i * vb.stride] != 0;
    bool eq;
    if (!av || !bv) {
      eq = !av && !bv;  // null == null is true, matching Value::Compare
    } else {
      const double x = va.v[i * va.stride], y = vb.v[i * vb.stride];
      eq = !(x < y) && !(x > y);  // NaN quirk preserved from Value::Compare
    }
    o[i] = (eq != negate) ? 1 : 0;
  }
  return out;
}

/// f receives the strcmp-style result of comparing two non-null cells.
template <typename F>
Vec CmpStr(const Vec& a, const Vec& b, size_t n, F f) {
  Vec out;
  out.kind = RegKind::kBool;
  out.is_const = a.is_const && b.is_const;
  const size_t m = OutLen(out.is_const, n);
  out.bits.resize(m);
  uint8_t* o = out.bits.data();
  for (size_t i = 0; i < m; ++i) {
    const std::string* x = a.StrAt(i);
    const std::string* y = b.StrAt(i);
    o[i] = (x != nullptr && y != nullptr && f(x->compare(*y))) ? 1 : 0;
  }
  return out;
}

/// Code of `s` in `dict`, or -2 when absent (distinct from -1 == null so a
/// missing constant matches no row, including null rows).
int32_t DictCodeOf(const data::StringDictionary& dict, const std::string& s) {
  const int32_t c = dict.Find(s);
  return c < 0 ? -2 : c;
}

Vec EqStr(const Vec& a, const Vec& b, size_t n, bool negate) {
  Vec out;
  out.kind = RegKind::kBool;
  out.is_const = a.is_const && b.is_const;
  const size_t m = OutLen(out.is_const, n);
  out.bits.resize(m);
  uint8_t* o = out.bits.data();
  // Code fast path 1: both operands share one dictionary — equal codes are
  // equal strings (and -1 == -1 covers null == null).
  if (a.dict && b.dict && a.dict.get() == b.dict.get()) {
    for (size_t i = 0; i < m; ++i) {
      o[i] = ((a.CodeAt(i) == b.CodeAt(i)) != negate) ? 1 : 0;
    }
    return out;
  }
  // Code fast path 2: a code-backed register against a broadcast constant.
  // The constant is resolved to a code once; the loop is one int compare per
  // row (the `field == 'const'` shape of every categorical brush filter).
  const Vec* dv = nullptr;
  const Vec* cv = nullptr;
  if (a.dict && !a.is_const && b.is_const) {
    dv = &a;
    cv = &b;
  } else if (b.dict && !b.is_const && a.is_const) {
    dv = &b;
    cv = &a;
  }
  if (dv != nullptr) {
    const std::string* s = cv->StrAt(0);
    const int32_t code = s == nullptr ? -1 : DictCodeOf(*dv->dict, *s);
    const int32_t* codes = dv->codes.data();
    for (size_t i = 0; i < m; ++i) {
      o[i] = ((codes[i] == code) != negate) ? 1 : 0;
    }
    return out;
  }
  for (size_t i = 0; i < m; ++i) {
    const std::string* x = a.StrAt(i);
    const std::string* y = b.StrAt(i);
    bool eq;
    if (x == nullptr || y == nullptr) {
      eq = x == nullptr && y == nullptr;
    } else {
      eq = *x == *y;
    }
    o[i] = (eq != negate) ? 1 : 0;
  }
  return out;
}

Vec Concat(const Vec& a, const Vec& b, size_t n) {
  Vec out;
  out.kind = RegKind::kStr;
  out.is_const = a.is_const && b.is_const;
  const size_t m = OutLen(out.is_const, n);
  out.str.resize(m, nullptr);
  const std::string** os = out.str.data();
  out.str_store = std::make_shared<std::vector<std::string>>();
  out.str_store->reserve(m);
  for (size_t i = 0; i < m; ++i) {
    const std::string* x = a.StrAt(i);
    const std::string* y = b.StrAt(i);
    if (x == nullptr || y == nullptr) continue;  // null propagates
    out.str_store->push_back(*x + *y);
    os[i] = &out.str_store->back();
  }
  return out;
}

/// JS-style && / || value blend: pick_rhs_when_truthy selects which operand
/// wins when `a` is truthy (rhs for &&, lhs for ||).
Vec BlendNum(const Vec& a, const Vec& b, size_t n, bool pick_rhs_when_truthy) {
  Vec out;
  out.kind = RegKind::kNum;
  out.is_const = a.is_const && b.is_const;
  const size_t m = OutLen(out.is_const, n);
  out.num.resize(m);
  double* onum = out.num.data();
  const NumView va = View(a), vb = View(b);
  const bool need_valid = va.valid != nullptr || vb.valid != nullptr;
  uint8_t* ovalid = nullptr;
  if (need_valid) {
    out.valid.assign(m, 1);
    ovalid = out.valid.data();
  }
  for (size_t i = 0; i < m; ++i) {
    const bool av = va.valid == nullptr || va.valid[i * va.stride] != 0;
    const double x = va.v[i * va.stride];
    const bool truthy_a = av && NumTruthy(x);
    const NumView& src = truthy_a == pick_rhs_when_truthy ? vb : va;
    const bool sv = src.valid == nullptr || src.valid[i * src.stride] != 0;
    onum[i] = sv ? src.v[i * src.stride] : 0;
    if (need_valid) ovalid[i] = sv ? 1 : 0;
  }
  return out;
}

/// Per-row truthiness of a register (one kind branch per batch).
std::vector<uint8_t> TruthyMask(const Vec& a, size_t m) {
  std::vector<uint8_t> mask(m);
  switch (a.kind) {
    case RegKind::kBool: {
      for (size_t i = 0; i < m; ++i) mask[i] = a.bits[a.is_const ? 0 : i];
      break;
    }
    case RegKind::kNum: {
      const NumView va = View(a);
      for (size_t i = 0; i < m; ++i) {
        const bool av = va.valid == nullptr || va.valid[i * va.stride] != 0;
        mask[i] = av && NumTruthy(va.v[i * va.stride]) ? 1 : 0;
      }
      break;
    }
    case RegKind::kStr: {
      for (size_t i = 0; i < m; ++i) {
        const std::string* s = a.StrAt(i);
        mask[i] = s != nullptr && !s->empty() ? 1 : 0;
      }
      break;
    }
    case RegKind::kBoxed: {
      for (size_t i = 0; i < m; ++i) mask[i] = a.boxed[i].Truthy() ? 1 : 0;
      break;
    }
  }
  return mask;
}

Vec Select(const Vec& cond, const Vec& t, const Vec& e, size_t n) {
  Vec out;
  out.kind = t.kind;
  out.is_const = cond.is_const && t.is_const && e.is_const;
  const size_t m = OutLen(out.is_const, n);
  const std::vector<uint8_t> mask = TruthyMask(cond, m);
  switch (t.kind) {
    case RegKind::kNum: {
      out.num.resize(m);
      double* onum = out.num.data();
      const NumView vt = View(t), ve = View(e);
      const bool need_valid = vt.valid != nullptr || ve.valid != nullptr;
      uint8_t* ovalid = nullptr;
      if (need_valid) {
        out.valid.assign(m, 1);
        ovalid = out.valid.data();
      }
      for (size_t i = 0; i < m; ++i) {
        const NumView& src = mask[i] ? vt : ve;
        const bool sv = src.valid == nullptr || src.valid[i * src.stride] != 0;
        onum[i] = sv ? src.v[i * src.stride] : 0;
        if (need_valid) ovalid[i] = sv ? 1 : 0;
      }
      return out;
    }
    case RegKind::kBool: {
      out.bits.resize(m);
      uint8_t* o = out.bits.data();
      for (size_t i = 0; i < m; ++i) {
        o[i] = (mask[i] ? t.BitAt(i) : e.BitAt(i)) ? 1 : 0;
      }
      return out;
    }
    case RegKind::kStr: {
      // Blends resolve to pointer views (into operand stores, dictionaries,
      // or column storage); str_refs keeps the owners alive.
      out.str.resize(m);
      const std::string** os = out.str.data();
      for (size_t i = 0; i < m; ++i) {
        os[i] = mask[i] ? t.StrAt(i) : e.StrAt(i);
      }
      KeepStrRefs(&out, t);
      KeepStrRefs(&out, e);
      return out;
    }
    case RegKind::kBoxed:
      break;  // programs never produce boxed registers
  }
  VP_CHECK(false) << "vector select over unsupported register kind";
  return out;
}

template <typename F>
Vec NumUnary(const Vec& a, size_t n, F f) {
  Vec out;
  out.kind = RegKind::kNum;
  out.is_const = a.is_const;
  const size_t m = OutLen(out.is_const, n);
  out.num.resize(m);
  double* o = out.num.data();
  const NumView va = View(a);
  if (va.valid != nullptr) {
    // Shared validity copy (refcount bump); reads go through the operand so
    // the copy is never detached.
    out.valid = a.valid;
    for (size_t i = 0; i < m; ++i) {
      if (va.valid[i * va.stride]) o[i] = f(va.v[i * va.stride]);
    }
  } else {
    for (size_t i = 0; i < m; ++i) o[i] = f(va.v[i * va.stride]);
  }
  return out;
}

Vec StrTransform(const Vec& a, size_t n, bool to_lower) {
  Vec out;
  out.kind = RegKind::kStr;
  out.is_const = a.is_const;
  const size_t m = OutLen(out.is_const, n);
  out.str.resize(m, nullptr);
  const std::string** os = out.str.data();
  out.str_store = std::make_shared<std::vector<std::string>>();
  out.str_store->reserve(m);
  for (size_t i = 0; i < m; ++i) {
    const std::string* s = a.StrAt(i);
    if (s == nullptr) continue;
    std::string t = *s;
    for (char& c : t) {
      c = static_cast<char>(to_lower ? std::tolower(static_cast<unsigned char>(c))
                                     : std::toupper(static_cast<unsigned char>(c)));
    }
    out.str_store->push_back(std::move(t));
    os[i] = &out.str_store->back();
  }
  return out;
}

double ApplyNum1(Num1Fn fn, double x) {
  switch (fn) {
    case Num1Fn::kAbs: return std::fabs(x);
    case Num1Fn::kCeil: return std::ceil(x);
    case Num1Fn::kFloor: return std::floor(x);
    case Num1Fn::kRound: return std::round(x);
    case Num1Fn::kSqrt: return std::sqrt(x);
    case Num1Fn::kExp: return std::exp(x);
    case Num1Fn::kLog: return std::log(x);
  }
  return x;
}

int64_t ApplyDatePart(DatePart part, int64_t millis) {
  switch (part) {
    case DatePart::kYear: return TsYear(millis);
    case DatePart::kMonth: return TsMonth(millis);
    case DatePart::kDate: return TsDayOfMonth(millis);
    case DatePart::kDay: return TsDayOfWeek(millis);
    case DatePart::kHours: return TsHour(millis);
    case DatePart::kMinutes: return TsMinute(millis);
    case DatePart::kSeconds: return TsSecond(millis);
  }
  return 0;
}

Vec MinMaxN(std::vector<Vec> args, size_t n, bool is_min) {
  Vec out;
  out.kind = RegKind::kNum;
  out.is_const = true;
  for (const Vec& a : args) out.is_const = out.is_const && a.is_const;
  const size_t m = OutLen(out.is_const, n);
  out.num.resize(m);
  double* onum = out.num.data();
  bool need_valid = false;
  for (const Vec& a : args) need_valid = need_valid || !a.valid.empty();
  uint8_t* ovalid = nullptr;
  if (need_valid) {
    out.valid.assign(m, 1);
    ovalid = out.valid.data();
  }
  for (size_t i = 0; i < m; ++i) {
    bool any_null = false;
    // Fold from +/-infinity in argument order, like the scalar registry's
    // min()/max() (so NaN arguments behave identically).
    double best = is_min ? std::numeric_limits<double>::infinity()
                         : -std::numeric_limits<double>::infinity();
    for (const Vec& a : args) {
      if (!a.ValidAt(i)) {
        any_null = true;
        break;
      }
      best = is_min ? std::min(best, a.NumAt(i)) : std::max(best, a.NumAt(i));
    }
    if (any_null) {
      ovalid[i] = 0;
    } else {
      onum[i] = best;
    }
  }
  return out;
}

}  // namespace

Vec BatchEvaluator::Run(const Program& p) const {
  const size_t n = table_.num_rows();
  std::vector<Vec> stack;
  stack.reserve(8);
  auto pop = [&stack]() {
    Vec v = std::move(stack.back());
    stack.pop_back();
    return v;
  };

  // CSE cache for columns the program loads repeatedly (p.reused_cols):
  // widen each such column batch once per run. Register buffers are shared
  // copy-on-write (CowVec), so every later load is a refcount bump — no
  // element copies — and the final load moves the register out wholesale.
  struct CachedCol {
    int32_t col;
    int32_t remaining;  // loads left, including the one being served
    Vec vec;
    bool materialized = false;
  };
  std::vector<CachedCol> col_cache;
  col_cache.reserve(p.reused_cols.size());
  for (const auto& [col, count] : p.reused_cols) {
    col_cache.push_back(CachedCol{col, count, Vec{}, false});
  }
  auto load_col = [&](int32_t col) -> Vec {
    for (CachedCol& c : col_cache) {
      if (c.col != col) continue;
      --c.remaining;
      if (!c.materialized) {
        c.vec = ColumnVec(table_.column(static_cast<size_t>(col)));
        c.materialized = true;
      }
      return c.remaining == 0 ? std::move(c.vec) : c.vec;
    }
    return ColumnVec(table_.column(static_cast<size_t>(col)));
  };

  for (const Instr& instr : p.code) {
    switch (instr.op) {
      case VecOp::kLoadCol:
        stack.push_back(load_col(instr.imm));
        break;
      case VecOp::kLoadNumConst: {
        const Program::NumConst& c = p.num_consts[static_cast<size_t>(instr.imm)];
        Vec v;
        v.kind = RegKind::kNum;
        v.is_const = true;
        v.num.push_back(c.value);
        if (c.is_null) v.valid.push_back(0);
        stack.push_back(std::move(v));
        break;
      }
      case VecOp::kLoadNullNum: {
        Vec v;
        v.kind = RegKind::kNum;
        v.is_const = true;
        v.num.push_back(0);
        v.valid.push_back(0);
        stack.push_back(std::move(v));
        break;
      }
      case VecOp::kLoadBoolConst: {
        Vec v;
        v.kind = RegKind::kBool;
        v.is_const = true;
        v.bits.push_back(instr.imm ? 1 : 0);
        stack.push_back(std::move(v));
        break;
      }
      case VecOp::kLoadStrConst: {
        // The register owns a copy of the constant so result Vecs never
        // outlive-dangle into the Program's constant pool.
        Vec v;
        v.kind = RegKind::kStr;
        v.is_const = true;
        v.str_store = std::make_shared<std::vector<std::string>>(
            1, p.str_consts[static_cast<size_t>(instr.imm)]);
        v.str.push_back(&v.str_store->front());
        stack.push_back(std::move(v));
        break;
      }
      case VecOp::kAdd: {
        Vec b = pop(), a = pop();
        stack.push_back(NumBin(a, b, n, false, [](double x, double y) { return x + y; }));
        break;
      }
      case VecOp::kSub: {
        Vec b = pop(), a = pop();
        stack.push_back(NumBin(a, b, n, false, [](double x, double y) { return x - y; }));
        break;
      }
      case VecOp::kMul: {
        Vec b = pop(), a = pop();
        stack.push_back(NumBin(a, b, n, false, [](double x, double y) { return x * y; }));
        break;
      }
      case VecOp::kDiv: {
        Vec b = pop(), a = pop();
        stack.push_back(NumBin(a, b, n, true, [](double x, double y) { return x / y; }));
        break;
      }
      case VecOp::kMod: {
        Vec b = pop(), a = pop();
        stack.push_back(
            NumBin(a, b, n, true, [](double x, double y) { return std::fmod(x, y); }));
        break;
      }
      case VecOp::kLtNum: {
        Vec b = pop(), a = pop();
        stack.push_back(CmpNum(a, b, n, [](double x, double y) { return x < y; }));
        break;
      }
      case VecOp::kLteNum: {
        Vec b = pop(), a = pop();
        stack.push_back(CmpNum(a, b, n, [](double x, double y) { return x <= y; }));
        break;
      }
      case VecOp::kGtNum: {
        Vec b = pop(), a = pop();
        stack.push_back(CmpNum(a, b, n, [](double x, double y) { return x > y; }));
        break;
      }
      case VecOp::kGteNum: {
        Vec b = pop(), a = pop();
        stack.push_back(CmpNum(a, b, n, [](double x, double y) { return x >= y; }));
        break;
      }
      case VecOp::kEqNum: {
        Vec b = pop(), a = pop();
        stack.push_back(EqNum(a, b, n, /*negate=*/false));
        break;
      }
      case VecOp::kNeqNum: {
        Vec b = pop(), a = pop();
        stack.push_back(EqNum(a, b, n, /*negate=*/true));
        break;
      }
      case VecOp::kLtStr: {
        Vec b = pop(), a = pop();
        stack.push_back(CmpStr(a, b, n, [](int c) { return c < 0; }));
        break;
      }
      case VecOp::kLteStr: {
        Vec b = pop(), a = pop();
        stack.push_back(CmpStr(a, b, n, [](int c) { return c <= 0; }));
        break;
      }
      case VecOp::kGtStr: {
        Vec b = pop(), a = pop();
        stack.push_back(CmpStr(a, b, n, [](int c) { return c > 0; }));
        break;
      }
      case VecOp::kGteStr: {
        Vec b = pop(), a = pop();
        stack.push_back(CmpStr(a, b, n, [](int c) { return c >= 0; }));
        break;
      }
      case VecOp::kEqStr: {
        Vec b = pop(), a = pop();
        stack.push_back(EqStr(a, b, n, /*negate=*/false));
        break;
      }
      case VecOp::kNeqStr: {
        Vec b = pop(), a = pop();
        stack.push_back(EqStr(a, b, n, /*negate=*/true));
        break;
      }
      case VecOp::kConcat: {
        Vec b = pop(), a = pop();
        stack.push_back(Concat(a, b, n));
        break;
      }
      case VecOp::kAndBool:
      case VecOp::kOrBool: {
        Vec b = pop(), a = pop();
        Vec out;
        out.kind = RegKind::kBool;
        out.is_const = a.is_const && b.is_const;
        const size_t m = OutLen(out.is_const, n);
        out.bits.resize(m);
        const uint8_t* pa = a.bits.data();
        const uint8_t* pb = b.bits.data();
        const size_t sa = a.is_const ? 0 : 1, sb = b.is_const ? 0 : 1;
        uint8_t* o = out.bits.data();
        if (instr.op == VecOp::kAndBool) {
          for (size_t i = 0; i < m; ++i) o[i] = pa[i * sa] & pb[i * sb];
        } else {
          for (size_t i = 0; i < m; ++i) o[i] = pa[i * sa] | pb[i * sb];
        }
        stack.push_back(std::move(out));
        break;
      }
      case VecOp::kAndNum: {
        Vec b = pop(), a = pop();
        stack.push_back(BlendNum(a, b, n, /*pick_rhs_when_truthy=*/true));
        break;
      }
      case VecOp::kOrNum: {
        Vec b = pop(), a = pop();
        stack.push_back(BlendNum(a, b, n, /*pick_rhs_when_truthy=*/false));
        break;
      }
      case VecOp::kNot: {
        Vec a = pop();
        Vec out;
        out.kind = RegKind::kBool;
        out.is_const = a.is_const;
        const size_t m = OutLen(out.is_const, n);
        out.bits = TruthyMask(a, m);
        uint8_t* o = out.bits.data();
        for (size_t i = 0; i < m; ++i) o[i] ^= 1;
        stack.push_back(std::move(out));
        break;
      }
      case VecOp::kNegNum: {
        Vec a = pop();
        stack.push_back(NumUnary(a, n, [](double x) { return -x; }));
        break;
      }
      case VecOp::kPlusNum: {
        Vec a = pop();
        stack.push_back(NumUnary(a, n, [](double x) { return x; }));
        break;
      }
      case VecOp::kBoolToNum: {
        Vec a = pop();
        Vec out;
        out.kind = RegKind::kNum;
        out.is_const = a.is_const;
        const size_t m = OutLen(out.is_const, n);
        out.num.resize(m);
        double* o = out.num.data();
        for (size_t i = 0; i < m; ++i) o[i] = a.BitAt(i) ? 1.0 : 0.0;
        stack.push_back(std::move(out));
        break;
      }
      case VecOp::kSelect: {
        Vec e = pop(), t = pop(), c = pop();
        stack.push_back(Select(c, t, e, n));
        break;
      }
      case VecOp::kIsValid: {
        Vec a = pop();
        Vec out;
        out.kind = RegKind::kBool;
        out.is_const = a.is_const;
        const size_t m = OutLen(out.is_const, n);
        out.bits.resize(m);
        uint8_t* o = out.bits.data();
        for (size_t i = 0; i < m; ++i) o[i] = a.ValidAt(i) ? 1 : 0;
        stack.push_back(std::move(out));
        break;
      }
      case VecOp::kCallNum1: {
        Vec a = pop();
        Num1Fn fn = static_cast<Num1Fn>(instr.imm);
        stack.push_back(NumUnary(a, n, [fn](double x) { return ApplyNum1(fn, x); }));
        break;
      }
      case VecOp::kCallPow: {
        Vec b = pop(), a = pop();
        stack.push_back(
            NumBin(a, b, n, false, [](double x, double y) { return std::pow(x, y); }));
        break;
      }
      case VecOp::kCallClamp: {
        Vec hi = pop(), lo = pop(), x = pop();
        Vec out;
        out.kind = RegKind::kNum;
        out.is_const = x.is_const && lo.is_const && hi.is_const;
        const size_t m = OutLen(out.is_const, n);
        out.num.resize(m);
        double* onum = out.num.data();
        const bool need_valid =
            !x.valid.empty() || !lo.valid.empty() || !hi.valid.empty();
        uint8_t* ovalid = nullptr;
        if (need_valid) {
          out.valid.assign(m, 1);
          ovalid = out.valid.data();
        }
        for (size_t i = 0; i < m; ++i) {
          if (!x.ValidAt(i) || !lo.ValidAt(i) || !hi.ValidAt(i)) {
            ovalid[i] = 0;
            continue;
          }
          onum[i] = std::min(std::max(x.NumAt(i), lo.NumAt(i)), hi.NumAt(i));
        }
        stack.push_back(std::move(out));
        break;
      }
      case VecOp::kCallMin:
      case VecOp::kCallMax: {
        const size_t k = static_cast<size_t>(instr.imm);
        std::vector<Vec> args(k);
        for (size_t j = k; j-- > 0;) args[j] = pop();
        stack.push_back(MinMaxN(std::move(args), n, instr.op == VecOp::kCallMin));
        break;
      }
      case VecOp::kCallDatePart: {
        Vec a = pop();
        DatePart part = static_cast<DatePart>(instr.imm);
        stack.push_back(NumUnary(a, n, [part](double x) {
          return static_cast<double>(ApplyDatePart(part, static_cast<int64_t>(x)));
        }));
        break;
      }
      case VecOp::kCallDateTrunc: {
        Vec a = pop();
        const std::string& unit = p.str_consts[static_cast<size_t>(instr.imm)];
        stack.push_back(NumUnary(a, n, [&unit](double x) {
          return static_cast<double>(TsTruncate(static_cast<int64_t>(x), unit));
        }));
        break;
      }
      case VecOp::kCallDateUnitEnd: {
        Vec a = pop();
        const std::string& unit = p.str_consts[static_cast<size_t>(instr.imm)];
        stack.push_back(NumUnary(a, n, [&unit](double x) {
          int64_t start = TsTruncate(static_cast<int64_t>(x), unit);
          return static_cast<double>(start + TsUnitWidth(start, unit));
        }));
        break;
      }
      case VecOp::kCallLenStr: {
        Vec a = pop();
        Vec out;
        out.kind = RegKind::kNum;
        out.is_const = a.is_const;
        const size_t m = OutLen(out.is_const, n);
        out.num.resize(m);
        double* onum = out.num.data();
        out.valid.assign(m, 1);
        uint8_t* ovalid = out.valid.data();
        for (size_t i = 0; i < m; ++i) {
          const std::string* s = a.StrAt(i);
          if (s == nullptr) {
            ovalid[i] = 0;
          } else {
            onum[i] = static_cast<double>(s->size());
          }
        }
        stack.push_back(std::move(out));
        break;
      }
      case VecOp::kCallLower: {
        Vec a = pop();
        stack.push_back(StrTransform(a, n, /*to_lower=*/true));
        break;
      }
      case VecOp::kCallUpper: {
        Vec a = pop();
        stack.push_back(StrTransform(a, n, /*to_lower=*/false));
        break;
      }
    }
  }
  VP_CHECK(stack.size() == 1) << "vector program left " << stack.size()
                              << " registers on the stack";
  return std::move(stack.back());
}

// ---- Fused predicate filtering ----

namespace {

/// Per-batch compiled state of one fused conjunct: raw column pointers plus
/// the resolved constant. String constants against dictionary columns
/// resolve to a code once here, so the row loop is one int32 compare.
struct PredState {
  enum class Kind { kDouble, kInt64, kStrCode, kStrFlat };
  Kind kind = Kind::kDouble;
  BinaryOp cmp = BinaryOp::kLt;
  const uint8_t* valid = nullptr;  // nullptr == no nulls
  // kDouble / kInt64
  const double* d = nullptr;
  const int64_t* i64 = nullptr;
  double c = 0;
  // kStrCode
  const int32_t* codes = nullptr;
  int32_t code = -2;
  // kStrFlat
  const std::string* strs = nullptr;
  const std::string* sconst = nullptr;
};

/// Resolve every leaf against the batch's columns. Returns false when a
/// leaf cannot take the fused path (kNull columns, type drift) and the
/// caller must run the general register path.
bool PreparePreds(const Program& p,
                  const std::vector<Program::FusedPred>& leaves,
                  const data::Table& table, std::vector<PredState>* out) {
  out->reserve(leaves.size());
  for (const Program::FusedPred& fp : leaves) {
    const Column& col = table.column(static_cast<size_t>(fp.col));
    PredState s;
    s.cmp = fp.cmp;
    s.valid = col.null_count() > 0 ? col.validity_data() : nullptr;
    if (fp.is_str) {
      if (col.type() != DataType::kString) return false;
      const std::string& cst = p.str_consts[static_cast<size_t>(fp.str_const)];
      if (col.dict_encoded()) {
        s.kind = PredState::Kind::kStrCode;
        s.codes = col.codes_data();
        s.code = DictCodeOf(col.dict(), cst);
      } else {
        s.kind = PredState::Kind::kStrFlat;
        s.strs = col.strings_data();
        s.sconst = &cst;
      }
      out->push_back(s);
      continue;
    }
    switch (col.type()) {
      case DataType::kFloat64:
        s.kind = PredState::Kind::kDouble;
        s.d = col.doubles_data();
        break;
      case DataType::kInt64:
      case DataType::kTimestamp:
      case DataType::kBool:
        s.kind = PredState::Kind::kInt64;
        s.i64 = col.ints_data();
        break;
      default:
        return false;  // kNull columns: general path
    }
    s.c = fp.num_const;
    out->push_back(s);
  }
  return true;
}

kernels::Cmp KernelCmpOf(BinaryOp cmp) {
  switch (cmp) {
    case BinaryOp::kLt: return kernels::Cmp::kLt;
    case BinaryOp::kLte: return kernels::Cmp::kLte;
    case BinaryOp::kGt: return kernels::Cmp::kGt;
    case BinaryOp::kGte: return kernels::Cmp::kGte;
    case BinaryOp::kEq: return kernels::Cmp::kEq;
    default: return kernels::Cmp::kNeq;  // only compare ops reach here
  }
}

/// Evaluate one prepared leaf into a full-width 0/1 bitmap — the same
/// semantics as EqNum/CmpNum/EqStr against a non-null constant: null rows
/// fail every compare except != (which includes them), and NaN rows pass ==
/// (Value::Compare quirk), all owned by the compare kernels.
void PredBits(const PredState& s, size_t n, uint8_t* out) {
  switch (s.kind) {
    case PredState::Kind::kDouble:
      kernels::CompareNumToBits(s.d, s.valid, n, KernelCmpOf(s.cmp), s.c, out);
      return;
    case PredState::Kind::kInt64:
      kernels::CompareInt64ToBits(s.i64, s.valid, n, KernelCmpOf(s.cmp), s.c,
                                  out);
      return;
    case PredState::Kind::kStrCode:
      kernels::CompareCodeToBits(s.codes, n, s.cmp == BinaryOp::kNeq, s.code,
                                 out);
      return;
    case PredState::Kind::kStrFlat:
      kernels::CompareStrToBits(s.strs, s.valid, n, s.cmp == BinaryOp::kNeq,
                                *s.sconst, out);
      return;
  }
}

/// Compact (*sel)[base..] in place, keeping rows that pass the leaf —
/// candidate-list refinement for sparse AND chains.
void RefinePred(const PredState& s, std::vector<int32_t>* sel, size_t base) {
  switch (s.kind) {
    case PredState::Kind::kDouble:
      kernels::RefineNumIndices(s.d, s.valid, KernelCmpOf(s.cmp), s.c, sel,
                                base);
      return;
    case PredState::Kind::kInt64:
      kernels::RefineInt64Indices(s.i64, s.valid, KernelCmpOf(s.cmp), s.c, sel,
                                  base);
      return;
    case PredState::Kind::kStrCode:
      kernels::RefineCodeIndices(s.codes, s.cmp == BinaryOp::kNeq, s.code, sel,
                                 base);
      return;
    case PredState::Kind::kStrFlat:
      kernels::RefineStrIndices(s.strs, s.valid, s.cmp == BinaryOp::kNeq,
                                *s.sconst, sel, base);
      return;
  }
}

/// AND-chain filter with the density heuristic: the first conjunct always
/// evaluates as a branchless bitmap; if its selectivity is dense the chain
/// stays in the bitmap domain (AND-combine every conjunct, convert once),
/// otherwise the bitmap converts to an index vector and later conjuncts
/// refine only the survivors.
void FilterAndChain(const std::vector<PredState>& preds, size_t n,
                    std::vector<int32_t>* sel) {
  std::vector<uint8_t> bits(n);
  PredBits(preds[0], n, bits.data());
  const size_t matches = kernels::CountBits(bits.data(), n);
  if (preds.size() == 1 || kernels::PreferBitmap(matches, n)) {
    kernels::AddBitmapSelections(1);
    if (preds.size() > 1) {
      std::vector<uint8_t> tmp(n);
      for (size_t k = 1; k < preds.size(); ++k) {
        PredBits(preds[k], n, tmp.data());
        kernels::AndBits(bits.data(), tmp.data(), n);
      }
    }
    kernels::BitsToIndices(bits.data(), n, 0, sel);
    return;
  }
  kernels::AddIndexSelections(1);
  const size_t base = sel->size();
  kernels::BitsToIndices(bits.data(), n, 0, sel);
  for (size_t k = 1; k < preds.size(); ++k) RefinePred(preds[k], sel, base);
}

/// Arbitrary AND/OR tree of leaves as one bitmap-combine pass over the
/// postfix program in Program::fused_tree_ops. Equivalent to the general
/// register path because compare registers are two-valued (never null) with
/// exactly the leaf semantics above, and kAndBool/kOrBool are bitwise on
/// them.
void FilterTree(const std::vector<int32_t>& ops,
                const std::vector<PredState>& preds, size_t n,
                std::vector<int32_t>* sel) {
  std::vector<std::vector<uint8_t>> stack;
  for (int32_t op : ops) {
    if (op >= 0) {
      stack.emplace_back(n);
      PredBits(preds[static_cast<size_t>(op)], n, stack.back().data());
      continue;
    }
    std::vector<uint8_t> rhs = std::move(stack.back());
    stack.pop_back();
    if (op == Program::kTreeAnd) {
      kernels::AndBits(stack.back().data(), rhs.data(), n);
    } else {
      kernels::OrBits(stack.back().data(), rhs.data(), n);
    }
  }
  kernels::AddBitmapSelections(1);
  kernels::BitsToIndices(stack.back().data(), n, 0, sel);
}

}  // namespace

void BatchEvaluator::RunFilter(const Program& p, std::vector<int32_t>* sel) const {
  const size_t n = table_.num_rows();
  const bool and_chain = !p.fused_preds.empty();
  if (and_chain || !p.fused_tree_ops.empty()) {
    const std::vector<Program::FusedPred>& leaves =
        and_chain ? p.fused_preds : p.fused_tree_leaves;
    std::vector<PredState> preds;
    if (PreparePreds(p, leaves, table_, &preds) && n > 0) {
      if (and_chain) {
        FilterAndChain(preds, n, sel);
      } else {
        FilterTree(p.fused_tree_ops, preds, n, sel);
      }
      return;
    }
    if (n == 0) return;
  }
  Vec v = Run(p);
  const std::vector<uint8_t> mask = TruthyMask(v, v.is_const ? 1 : n);
  if (v.is_const) {
    if (mask[0]) {
      for (size_t i = 0; i < n; ++i) sel->push_back(static_cast<int32_t>(i));
    }
    return;
  }
  kernels::BitsToIndices(mask.data(), n, 0, sel);
}

void VecToColumn(Vec v, size_t n, Column* out) {
  // Fast path: adopt a freshly-computed float64 register's buffers wholesale
  // (a copy only when the buffers alias shared column storage).
  if (v.kind == RegKind::kNum && out->type() == DataType::kFloat64 &&
      !v.is_const && out->length() == 0) {
    *out = Column::FromDoubles(std::move(v.num).take(), std::move(v.valid).take());
    return;
  }
  // Dictionary passthrough: a code-backed register becomes a dictionary
  // column sharing the same dictionary — no per-row hashing or appends.
  if (v.kind == RegKind::kStr && v.dict && !v.is_const &&
      out->type() == DataType::kString && out->length() == 0) {
    *out = Column::FromDictionary(v.dict, std::move(v.codes).take());
    return;
  }
  out->Reserve(out->length() + n);
  for (size_t i = 0; i < n; ++i) v.AppendCellTo(i, out);
}

void BatchEvaluator::RunToColumn(const Program& p, Column* out) const {
  VecToColumn(Run(p), table_.num_rows(), out);
}

void BatchEvaluator::RunToValues(const Program& p, std::vector<Value>* out) const {
  const size_t n = table_.num_rows();
  Vec v = Run(p);
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) out->push_back(v.CellValue(i));
}

// ---- Morsel-parallel execution ----

namespace {

/// True when a morsel decomposition is worth dispatching at all.
bool MorselWorthIt(size_t num_morsels) {
  return num_morsels > 1 && parallel::EffectiveParallelism() > 1;
}

/// Fused comparison ops map 1:1 onto zone-map ops; anything else (And/Or,
/// arithmetic) never appears in fused_preds.
bool ZoneCmpOf(BinaryOp cmp, storage::CmpOp* out) {
  switch (cmp) {
    case BinaryOp::kEq: *out = storage::CmpOp::kEq; return true;
    case BinaryOp::kNeq: *out = storage::CmpOp::kNeq; return true;
    case BinaryOp::kLt: *out = storage::CmpOp::kLt; return true;
    case BinaryOp::kLte: *out = storage::CmpOp::kLte; return true;
    case BinaryOp::kGt: *out = storage::CmpOp::kGt; return true;
    case BinaryOp::kGte: *out = storage::CmpOp::kGte; return true;
    default: return false;
  }
}

/// Zone-map pruning of whole morsels for a fused AND-of-conjuncts filter:
/// skip[m] == 1 means no row of morsel m can pass the conjunction, so its
/// filter run (which would select nothing) is skipped entirely. Returns an
/// empty vector when nothing is prunable, which keeps the common path free.
///
/// Sound regardless of whether PreparePreds later takes the fused loops or
/// the general register path: fused_preds is only non-empty when the whole
/// program is the AND-tree, both paths implement the same per-row
/// comparison semantics, and ColumnZone::MayMatch* over-approximates them.
/// Conjuncts whose column type does not line up with the zone kind simply
/// never prune (MayMatch* returns true on kind mismatch).
std::vector<uint8_t> ZoneSkipMorsels(const data::Table& table, const Program& p,
                                     const std::vector<parallel::Range>& morsels) {
  if (p.fused_preds.empty() || morsels.size() < 2 ||
      !storage::ZoneMapPruningEnabled()) {
    return {};
  }
  std::vector<uint8_t> skip(morsels.size(), 0);
  size_t pruned = 0;
  for (const Program::FusedPred& fp : p.fused_preds) {
    storage::CmpOp cmp;
    if (!ZoneCmpOf(fp.cmp, &cmp)) continue;
    if (fp.col < 0 || static_cast<size_t>(fp.col) >= table.num_columns()) continue;
    const Column& col = table.column(static_cast<size_t>(fp.col));
    const auto zones = storage::GetMorselZones(col, morsels);
    // Dictionary constants resolve exactly like the fused loop's
    // DictCodeOf: -2 when absent (so == prunes everywhere, != nowhere
    // with nulls present).
    int32_t code = -2;
    const std::string* sconst = nullptr;
    if (fp.is_str) {
      sconst = &p.str_consts[static_cast<size_t>(fp.str_const)];
      if (col.dict_encoded()) code = DictCodeOf(col.dict(), *sconst);
    }
    for (size_t m = 0; m < morsels.size(); ++m) {
      if (skip[m]) continue;
      const storage::ColumnZone& z = (*zones)[m];
      bool may_match = true;
      if (!fp.is_str) {
        may_match = z.MayMatchNumeric(cmp, fp.num_const);
      } else if (col.dict_encoded()) {
        may_match = z.MayMatchDictCode(cmp, code);
      } else {
        may_match = z.MayMatchString(cmp, *sconst);
      }
      if (!may_match) {
        skip[m] = 1;
        ++pruned;
      }
    }
  }
  if (pruned == 0) return {};
  storage::AddMorselsPruned(pruned);
  return skip;
}

/// Stitch per-morsel result registers (in morsel order) into one register of
/// `n` rows. Registers are per-row containers, so concatenation in morsel
/// order reproduces the full-batch register exactly. Constness is structural
/// (a function of the program, not the data), so either every morsel is a
/// broadcast constant — in which case the first stands for the whole batch —
/// or none is. Code-backed string parts share their source column's
/// dictionary (slices of one table), so their codes concatenate under it;
/// a mixed-form input falls back to pointer views.
Vec ConcatVecs(std::vector<Vec> parts, size_t n) {
  VP_CHECK(!parts.empty()) << "no morsel results to stitch";
  if (parts[0].is_const) return std::move(parts[0]);
  Vec out;
  out.kind = parts[0].kind;
  switch (out.kind) {
    case RegKind::kNum: {
      out.num.reserve(n);
      bool need_valid = false;
      for (const Vec& part : parts) need_valid = need_valid || !part.valid.empty();
      if (need_valid) out.valid.reserve(n);
      for (Vec& part : parts) {
        const size_t rows = part.num.size();
        if (need_valid) {
          if (part.valid.empty()) {
            out.valid.append(rows, 1);
          } else {
            out.valid.append(std::move(part.valid));
          }
        }
        out.num.append(std::move(part.num));
      }
      return out;
    }
    case RegKind::kBool: {
      out.bits.reserve(n);
      for (Vec& part : parts) out.bits.append(std::move(part.bits));
      return out;
    }
    case RegKind::kStr: {
      bool all_same_dict = parts[0].dict != nullptr;
      for (const Vec& part : parts) {
        all_same_dict = all_same_dict && part.dict.get() == parts[0].dict.get();
      }
      if (all_same_dict) {
        out.dict = parts[0].dict;
        out.codes.reserve(n);
        for (Vec& part : parts) out.codes.append(std::move(part.codes));
        return out;
      }
      // Pointer views into column storage stay valid because the slices
      // share the caller's table storage; stores and dictionaries owning
      // cell strings move into str_refs so the stitched register keeps them
      // alive. Code-backed parts degrade to views through their dictionary.
      out.str.reserve(n);
      for (Vec& part : parts) {
        if (part.dict) {
          const size_t rows = part.codes.size();
          for (size_t i = 0; i < rows; ++i) out.str.push_back(part.StrAt(i));
          out.str_refs.push_back(std::move(part.dict));
          continue;
        }
        out.str.append(std::move(part.str));
        if (part.str_store) out.str_refs.push_back(std::move(part.str_store));
        out.str_refs.insert(out.str_refs.end(),
                            std::make_move_iterator(part.str_refs.begin()),
                            std::make_move_iterator(part.str_refs.end()));
      }
      return out;
    }
    case RegKind::kBoxed: {
      out.boxed.reserve(n);
      for (Vec& part : parts) out.boxed.append(std::move(part.boxed));
      return out;
    }
  }
  return out;
}

}  // namespace

Vec RunMorselParallel(const data::Table& table, const Program& p,
                      const common::CancelToken* cancel) {
  const size_t n = table.num_rows();
  const std::vector<parallel::Range> morsels = parallel::MorselRanges(n);
  if (!MorselWorthIt(morsels.size())) return BatchEvaluator(table).Run(p);
  std::vector<Vec> parts(morsels.size());
  parallel::ParallelFor(
      morsels.size(),
      [&](size_t m) {
        data::TablePtr slice = table.Slice(morsels[m].begin, morsels[m].size());
        parts[m] = BatchEvaluator(*slice).Run(p);
      },
      cancel);
  // A fired token leaves skipped morsels' slots default-constructed; the
  // stitch would be garbage. Return an empty register instead — the caller
  // polls the token and discards the result.
  if (common::Fired(cancel)) return Vec{};
  return ConcatVecs(std::move(parts), n);
}

void RunFilterMorselParallel(const data::Table& table, const Program& p,
                             std::vector<int32_t>* sel,
                             const common::CancelToken* cancel) {
  const std::vector<parallel::Range> morsels = parallel::MorselRanges(table.num_rows());
  // Zone-map morsel pruning: a pruned morsel's filter run would select
  // nothing, so skipping it leaves the stitched selection vector
  // bit-identical while saving the scan.
  const std::vector<uint8_t> skip = ZoneSkipMorsels(table, p, morsels);
  if (!MorselWorthIt(morsels.size())) {
    if (!skip.empty()) {
      // Sequential, but still morsel-at-a-time so pruning pays off (zone
      // maps accelerate the in-memory case independent of parallelism).
      for (size_t m = 0; m < morsels.size(); ++m) {
        if (skip[m]) continue;
        if (common::Fired(cancel)) return;
        data::TablePtr slice = table.Slice(morsels[m].begin, morsels[m].size());
        std::vector<int32_t> part;
        BatchEvaluator(*slice).RunFilter(p, &part);
        const int32_t offset = static_cast<int32_t>(morsels[m].begin);
        sel->reserve(sel->size() + part.size());
        for (int32_t r : part) sel->push_back(r + offset);
      }
      return;
    }
    BatchEvaluator(table).RunFilter(p, sel);
    return;
  }
  std::vector<std::vector<int32_t>> parts(morsels.size());
  parallel::ParallelFor(
      morsels.size(),
      [&](size_t m) {
        if (!skip.empty() && skip[m]) return;  // zone-pruned: selects nothing
        data::TablePtr slice = table.Slice(morsels[m].begin, morsels[m].size());
        BatchEvaluator(*slice).RunFilter(p, &parts[m]);
        // Slice-local row ids -> table row ids.
        const int32_t offset = static_cast<int32_t>(morsels[m].begin);
        for (int32_t& r : parts[m]) r += offset;
      },
      cancel);
  if (common::Fired(cancel)) return;  // partial parts; caller discards sel
  // Ordered stitch: morsel order == ascending row order, exactly the
  // sequential selection vector.
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  sel->reserve(sel->size() + total);
  for (const auto& part : parts) sel->insert(sel->end(), part.begin(), part.end());
}

// ---- Grouping ----

namespace {

struct PosHash {
  const std::vector<size_t>* hashes;
  size_t operator()(uint32_t pos) const { return (*hashes)[pos]; }
};

struct PosEq {
  const std::vector<const Vec*>* keys;
  const std::vector<int32_t>* rows;
  bool operator()(uint32_t a, uint32_t b) const {
    const size_t ra = static_cast<size_t>((*rows)[a]);
    const size_t rb = static_cast<size_t>((*rows)[b]);
    for (const Vec* key : *keys) {
      if (!KeyCellEq(*key, ra, rb)) return false;
    }
    return true;
  }
};

constexpr uint32_t kNoGroup = 0xFFFFFFFFu;

/// Dense grouping over a bounded slot domain: `slot_of(pos)` maps each
/// position in `rows` to one of `slots` key slots, and `slot -> group id` is
/// a direct array lookup — no hash map, no hashing pass. First-seen group
/// order is a property of the scan (and, in the parallel branch, of the
/// chunk merge), so the result is identical to the generic hash path for the
/// same key equality.
template <typename SlotOf>
GroupResult BuildDenseGroups(const std::vector<int32_t>& rows,
                             const std::vector<parallel::Range>& chunks,
                             size_t slots, const SlotOf& slot_of) {
  GroupResult result;
  const size_t n = rows.size();
  result.group_of.resize(n);

  if (!MorselWorthIt(chunks.size())) {
    std::vector<uint32_t> gid_of_slot(slots, kNoGroup);
    for (size_t pos = 0; pos < n; ++pos) {
      uint32_t& gid = gid_of_slot[slot_of(pos)];
      if (gid == kNoGroup) {
        gid = static_cast<uint32_t>(result.rep_rows.size());
        result.rep_rows.push_back(rows[pos]);
      }
      result.group_of[pos] = gid;
    }
    return result;
  }

  // Parallel: chunk-local dense tables, merged in chunk order — the same
  // merge shape (and therefore the same group ids) as the generic path.
  std::vector<std::vector<uint32_t>> chunk_gid(
      chunks.size(), std::vector<uint32_t>(slots, kNoGroup));
  std::vector<std::vector<uint32_t>> chunk_reps(chunks.size());
  parallel::ParallelFor(chunks.size(), [&](size_t c) {
    std::vector<uint32_t>& gid_of_slot = chunk_gid[c];
    std::vector<uint32_t>& reps = chunk_reps[c];
    for (size_t pos = chunks[c].begin; pos < chunks[c].end; ++pos) {
      uint32_t& gid = gid_of_slot[slot_of(pos)];
      if (gid == kNoGroup) {
        gid = static_cast<uint32_t>(reps.size());
        reps.push_back(static_cast<uint32_t>(pos));
      }
      result.group_of[pos] = gid;
    }
  });
  std::vector<uint32_t> global_gid(slots, kNoGroup);
  std::vector<std::vector<uint32_t>> remap(chunks.size());
  for (size_t c = 0; c < chunks.size(); ++c) {
    remap[c].resize(chunk_reps[c].size());
    for (size_t k = 0; k < chunk_reps[c].size(); ++k) {
      const uint32_t pos = chunk_reps[c][k];
      uint32_t& gid = global_gid[slot_of(pos)];
      if (gid == kNoGroup) {
        gid = static_cast<uint32_t>(result.rep_rows.size());
        result.rep_rows.push_back(rows[pos]);
      }
      remap[c][k] = gid;
    }
  }
  parallel::ParallelFor(chunks.size(), [&](size_t c) {
    for (size_t pos = chunks[c].begin; pos < chunks[c].end; ++pos) {
      result.group_of[pos] = remap[c][result.group_of[pos]];
    }
  });
  return result;
}

/// Whether `slots`-wide dense tables (one per chunk plus the merge table)
/// are cheaper than hashing `n` positions.
bool DenseTablesFit(size_t slots, size_t num_chunks, size_t n) {
  const size_t tables = MorselWorthIt(num_chunks) ? num_chunks + 1 : 1;
  return slots <= (4 * n + 4096) / tables;
}

}  // namespace

bool BuildGroupsByBins(const Vec& values, double start, double step,
                       const std::vector<int32_t>& rows, GroupResult* out) {
  if (values.kind != RegKind::kNum || values.is_const || !std::isfinite(start) ||
      !std::isfinite(step) || !(step > 0)) {
    return false;
  }
  const size_t n = rows.size();
  const std::vector<parallel::Range> chunks = parallel::MorselRanges(n);
  const double* v = values.num.data();
  const uint8_t* valid = values.valid.empty() ? nullptr : values.valid.data();
  // The key expression's own ops, so `index` is exactly its floor() result.
  const auto index = [&](size_t r) { return std::floor((v[r] - start) / step); };

  // Pass 1: the index range of the valid rows; a non-finite index (NaN or
  // infinite input, or an overflowing quotient) rejects the plan.
  struct Span {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    bool finite = true;
  };
  std::vector<Span> spans(chunks.size());
  parallel::ParallelFor(chunks.size(), [&](size_t c) {
    Span& s = spans[c];
    for (size_t pos = chunks[c].begin; pos < chunks[c].end; ++pos) {
      const size_t r = static_cast<size_t>(rows[pos]);
      if (valid != nullptr && valid[r] == 0) continue;
      const double k = index(r);
      if (!std::isfinite(k)) {
        s.finite = false;
        return;
      }
      s.lo = std::min(s.lo, k);
      s.hi = std::max(s.hi, k);
    }
  });
  Span all;
  for (const Span& s : spans) {
    if (!s.finite) return false;
    all.lo = std::min(all.lo, s.lo);
    all.hi = std::max(all.hi, s.hi);
  }
  // Slot 0 is the null bin; slot k - lo + 1 is bin index k. Integral
  // doubles a few thousand apart subtract exactly, so slots are distinct
  // per index. The span is bounded as a double first so the cast is safe.
  const double width = all.lo <= all.hi ? all.hi - all.lo + 1 : 0;
  if (!(width <= static_cast<double>(n) * 4 + 4096)) return false;
  const size_t slots = static_cast<size_t>(width) + 1;
  if (!DenseTablesFit(slots, chunks.size(), n)) return false;

  const double lo = all.lo;
  *out = BuildDenseGroups(rows, chunks, slots, [&](size_t pos) -> size_t {
    const size_t r = static_cast<size_t>(rows[pos]);
    if (valid != nullptr && valid[r] == 0) return 0;
    return static_cast<size_t>(index(r) - lo) + 1;
  });
  return true;
}

GroupResult BuildGroups(const std::vector<const Vec*>& keys,
                        const std::vector<int32_t>& rows) {
  GroupResult result;
  const size_t n = rows.size();
  result.group_of.resize(n);
  if (keys.empty()) {
    if (n > 0) result.rep_rows.push_back(rows[0]);
    return result;  // group_of already zero-initialized
  }

  const std::vector<parallel::Range> chunks = parallel::MorselRanges(n);

  // Single code-backed key: group by direct code lookup instead of a hash
  // map (unless the dictionary vastly outnumbers the rows — a slice sharing
  // a huge dictionary — where the dense tables would cost more than they
  // save).
  if (keys.size() == 1 && keys[0]->kind == RegKind::kStr && keys[0]->dict &&
      !keys[0]->is_const) {
    const size_t slots = keys[0]->dict->values.size() + 1;
    if (DenseTablesFit(slots, chunks.size(), n)) {
      // Slot 0 holds null (code -1).
      const int32_t* codes = keys[0]->codes.data();
      return BuildDenseGroups(rows, chunks, slots, [&](size_t pos) {
        return static_cast<size_t>(codes[static_cast<size_t>(rows[pos])] + 1);
      });
    }
  }

  std::vector<size_t> hashes(n);
  parallel::ParallelFor(chunks.size(), [&](size_t c) {
    for (size_t pos = chunks[c].begin; pos < chunks[c].end; ++pos) {
      size_t h = 0x12345;
      const size_t r = static_cast<size_t>(rows[pos]);
      for (const Vec* key : keys) {
        h = h * 1099511628211ull + KeyCellHash(*key, r);
      }
      hashes[pos] = h;
    }
  });

  if (!MorselWorthIt(chunks.size())) {
    std::unordered_map<uint32_t, uint32_t, PosHash, PosEq> seen(
        /*bucket_count=*/std::max<size_t>(16, n / 4), PosHash{&hashes},
        PosEq{&keys, &rows});
    for (size_t pos = 0; pos < n; ++pos) {
      auto [it, inserted] = seen.try_emplace(
          static_cast<uint32_t>(pos), static_cast<uint32_t>(result.rep_rows.size()));
      if (inserted) result.rep_rows.push_back(rows[pos]);
      result.group_of[pos] = it->second;
    }
    return result;
  }

  // Parallel path: each worker hash-groups one chunk of positions into a
  // local table (group_of holds chunk-local ids, reps in chunk-first-seen
  // order), then the chunk tables merge sequentially in chunk order.
  // Iterating chunks in order and each chunk's reps in local first-seen
  // order visits every group exactly at its global first occurrence, so the
  // assigned global ids and representative rows are identical to the
  // sequential scan.
  std::vector<std::vector<uint32_t>> chunk_reps(chunks.size());
  parallel::ParallelFor(chunks.size(), [&](size_t c) {
    std::unordered_map<uint32_t, uint32_t, PosHash, PosEq> seen(
        /*bucket_count=*/std::max<size_t>(16, chunks[c].size() / 4),
        PosHash{&hashes}, PosEq{&keys, &rows});
    std::vector<uint32_t>& reps = chunk_reps[c];
    for (size_t pos = chunks[c].begin; pos < chunks[c].end; ++pos) {
      auto [it, inserted] = seen.try_emplace(static_cast<uint32_t>(pos),
                                             static_cast<uint32_t>(reps.size()));
      if (inserted) reps.push_back(static_cast<uint32_t>(pos));
      result.group_of[pos] = it->second;
    }
  });

  std::unordered_map<uint32_t, uint32_t, PosHash, PosEq> global(
      /*bucket_count=*/std::max<size_t>(16, n / 4), PosHash{&hashes},
      PosEq{&keys, &rows});
  std::vector<std::vector<uint32_t>> remap(chunks.size());
  for (size_t c = 0; c < chunks.size(); ++c) {
    remap[c].resize(chunk_reps[c].size());
    for (size_t k = 0; k < chunk_reps[c].size(); ++k) {
      const uint32_t pos = chunk_reps[c][k];
      auto [it, inserted] =
          global.try_emplace(pos, static_cast<uint32_t>(result.rep_rows.size()));
      if (inserted) result.rep_rows.push_back(rows[pos]);
      remap[c][k] = it->second;
    }
  }
  parallel::ParallelFor(chunks.size(), [&](size_t c) {
    for (size_t pos = chunks[c].begin; pos < chunks[c].end; ++pos) {
      result.group_of[pos] = remap[c][result.group_of[pos]];
    }
  });
  return result;
}

// ---- Per-bin accumulation kernels ----
//
// Thin wrappers: the loop bodies live in kernels/ (shared with the SQL
// executor's grouped accumulation), these adapt a Vec to the kernels'
// NumSpan view.

kernels::NumSpan NumSpanOf(const Vec& values) {
  kernels::NumSpan span;
  span.stride = values.is_const ? 0 : 1;
  if (values.kind == RegKind::kBool) {
    span.bits = values.bits.data();
  } else {
    span.vals = values.num.data();
    span.valid = values.valid.empty() ? nullptr : values.valid.data();
  }
  return span;
}

bool ComputeBinIndices(const Vec& values, double start, double step,
                       size_t num_bins, parallel::Range span, int32_t* bin_of) {
  return kernels::ComputeBinIndices(NumSpanOf(values), start, step, num_bins,
                                    span.begin, span.end, bin_of);
}

void AccumulateBinRows(const int32_t* bin_of, parallel::Range span,
                       std::vector<int64_t>* rows,
                       std::vector<int64_t>* first_row) {
  kernels::AccumulateBinRows(bin_of, span.begin, span.end, rows->data(),
                             first_row->data());
}

void AccumulateBinAggs(const Vec& values, const int32_t* bin_of,
                       parallel::Range span, BinAggSlots* slots) {
  kernels::AccumulateBinAggs(NumSpanOf(values), bin_of, span.begin, span.end,
                             slots);
}

}  // namespace expr
}  // namespace vegaplus
