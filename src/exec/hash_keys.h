#ifndef WIMPI_EXEC_HASH_KEYS_H_
#define WIMPI_EXEC_HASH_KEYS_H_

// Internal to the hash operators (HashJoin, HashAggregate): the hash of a
// key row and the key readers that compile their build, probe and group
// loops once per key shape.
//
// Every reader hashes a row exactly as RowHash does, so a table and its
// chain order do not depend on which reader built it.

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/hash.h"
#include "storage/column.h"

namespace wimpi::exec {

inline uint64_t HashI32(int32_t v) {
  return HashInt64(static_cast<uint64_t>(static_cast<uint32_t>(v)));
}

inline uint64_t HashI64(int64_t v) {
  return HashInt64(static_cast<uint64_t>(v));
}

// Hashes the bit pattern with zero canonicalized: -0.0 == +0.0, so both
// must land in one bucket.
inline uint64_t HashF64(double d) {
  if (d == 0) d = 0;
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return HashInt64(bits);
}

inline uint64_t ValueHash(const storage::Column& col, int64_t row) {
  switch (col.type()) {
    case storage::DataType::kInt64:
      return HashI64(col.I64Data()[row]);
    case storage::DataType::kFloat64:
      return HashF64(col.F64Data()[row]);
    default:
      return HashI32(col.I32Data()[row]);
  }
}

inline uint64_t RowHash(const std::vector<const storage::Column*>& keys,
                        int64_t row) {
  uint64_t h = ValueHash(*keys[0], row);
  for (size_t i = 1; i < keys.size(); ++i) {
    h = HashCombine(h, ValueHash(*keys[i], row));
  }
  return h;
}

inline bool ValueEq(const storage::Column& a, int64_t ra,
                    const storage::Column& b, int64_t rb) {
  switch (a.type()) {
    case storage::DataType::kInt64:
      return a.I64Data()[ra] == b.I64Data()[rb];
    case storage::DataType::kFloat64:
      return a.F64Data()[ra] == b.F64Data()[rb];
    default:
      return a.I32Data()[ra] == b.I32Data()[rb];
  }
}

inline bool RowEq(const std::vector<const storage::Column*>& a, int64_t ra,
                  const std::vector<const storage::Column*>& b, int64_t rb) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ValueEq(*a[i], ra, *b[i], rb)) return false;
  }
  return true;
}

inline int KeyWidth(const std::vector<const storage::Column*>& keys) {
  int w = 0;
  for (const storage::Column* c : keys) w += storage::TypeWidth(c->type());
  return w;
}

// Key readers. Each one reads a row's key as a `Value` that can be kept
// inline in a hash table entry:
//   Load(r)        the key of row r;
//   HashValue(v)   RowHash of the row the value was loaded from;
//   Same(v, w)     key equality of two loaded values;
//   Eq(r, o, ro)   key equality of row r and row ro of reader o (same shape).

// One column of int32, date or string code.
struct I32Key {
  using Value = int32_t;
  const int32_t* d;
  static I32Key Make(const std::vector<const storage::Column*>& keys) {
    return {keys[0]->I32Data()};
  }
  Value Load(int64_t r) const { return d[r]; }
  uint64_t HashValue(Value v) const { return HashI32(v); }
  uint64_t Hash(int64_t r) const { return HashI32(d[r]); }
  bool Same(Value a, Value b) const { return a == b; }
  bool Eq(int64_t r, const I32Key& o, int64_t orow) const {
    return d[r] == o.d[orow];
  }
};

// One column of int64.
struct I64Key {
  using Value = int64_t;
  const int64_t* d;
  static I64Key Make(const std::vector<const storage::Column*>& keys) {
    return {keys[0]->I64Data()};
  }
  Value Load(int64_t r) const { return d[r]; }
  uint64_t HashValue(Value v) const { return HashI64(v); }
  uint64_t Hash(int64_t r) const { return HashI64(d[r]); }
  bool Same(Value a, Value b) const { return a == b; }
  bool Eq(int64_t r, const I64Key& o, int64_t orow) const {
    return d[r] == o.d[orow];
  }
};

// Two columns of int32, date or string code, packed into one u64 (first
// column in the high word). Both halves go through uint32_t, so a negative
// second value cannot sign-extend over the first.
struct PairKey {
  using Value = uint64_t;
  const int32_t* a;
  const int32_t* b;
  static PairKey Make(const std::vector<const storage::Column*>& keys) {
    return {keys[0]->I32Data(), keys[1]->I32Data()};
  }
  static Value Pack(int32_t x, int32_t y) {
    return static_cast<uint64_t>(static_cast<uint32_t>(x)) << 32 |
           static_cast<uint32_t>(y);
  }
  static int32_t First(Value v) {
    return static_cast<int32_t>(static_cast<uint32_t>(v >> 32));
  }
  static int32_t Second(Value v) {
    return static_cast<int32_t>(static_cast<uint32_t>(v));
  }
  Value Load(int64_t r) const { return Pack(a[r], b[r]); }
  uint64_t HashValue(Value v) const {
    return HashCombine(HashInt64(v >> 32), HashInt64(v & 0xffffffffULL));
  }
  uint64_t Hash(int64_t r) const { return HashValue(Load(r)); }
  bool Same(Value x, Value y) const { return x == y; }
  bool Eq(int64_t r, const PairKey& o, int64_t orow) const {
    return a[r] == o.a[orow] && b[r] == o.b[orow];
  }
};

// Any number of columns of any key type (and single float64 keys). The
// value is the row index itself: hashing and comparing read the columns.
struct MultiKey {
  using Value = int32_t;
  const std::vector<const storage::Column*>* cols;
  static MultiKey Make(const std::vector<const storage::Column*>& keys) {
    return {&keys};
  }
  Value Load(int64_t r) const { return static_cast<int32_t>(r); }
  uint64_t HashValue(Value v) const { return RowHash(*cols, v); }
  uint64_t Hash(int64_t r) const { return RowHash(*cols, r); }
  bool Same(Value a, Value b) const { return RowEq(*cols, a, *cols, b); }
  bool Eq(int64_t r, const MultiKey& o, int64_t orow) const {
    return RowEq(*cols, r, *o.cols, orow);
  }
};

// Calls fn(std::type_identity<Reader>{}) with the reader for `keys`' shape
// and returns its result.
template <typename Fn>
decltype(auto) WithKeyReader(const std::vector<const storage::Column*>& keys,
                             Fn&& fn) {
  auto i32_class = [](const storage::Column* c) {
    return c->type() != storage::DataType::kInt64 &&
           c->type() != storage::DataType::kFloat64;
  };
  if (keys.size() == 1 && i32_class(keys[0])) {
    return fn(std::type_identity<I32Key>{});
  }
  if (keys.size() == 1 && keys[0]->type() == storage::DataType::kInt64) {
    return fn(std::type_identity<I64Key>{});
  }
  if (keys.size() == 2 && i32_class(keys[0]) && i32_class(keys[1])) {
    return fn(std::type_identity<PairKey>{});
  }
  return fn(std::type_identity<MultiKey>{});
}

}  // namespace wimpi::exec

#endif  // WIMPI_EXEC_HASH_KEYS_H_
