#include "tpch/dbgen.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>
#include <vector>

#include "common/date.h"
#include "common/decimal.h"
#include "common/hash.h"
#include "common/rng.h"
#include "parallel/pipeline.h"
#include "tpch/text.h"

namespace wimpi::tpch {
namespace {

using storage::DataType;
using storage::Schema;
using storage::Table;

// Fixed nation -> region assignment from the TPC-H specification.
struct NationSpec {
  const char* name;
  int32_t regionkey;
};
constexpr NationSpec kNations[25] = {
    {"ALGERIA", 0},  {"ARGENTINA", 1}, {"BRAZIL", 1},    {"CANADA", 1},
    {"EGYPT", 4},    {"ETHIOPIA", 0},  {"FRANCE", 3},    {"GERMANY", 3},
    {"INDIA", 2},    {"INDONESIA", 2}, {"IRAN", 4},      {"IRAQ", 4},
    {"JAPAN", 2},    {"JORDAN", 4},    {"KENYA", 0},     {"MOROCCO", 0},
    {"MOZAMBIQUE", 0}, {"PERU", 1},    {"CHINA", 2},     {"ROMANIA", 3},
    {"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},  {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1}};

constexpr const char* kRegions[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                     "MIDDLE EAST"};

constexpr const char* kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                      "MACHINERY", "HOUSEHOLD"};

constexpr const char* kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                        "4-NOT SPECIFIED", "5-LOW"};

constexpr const char* kShipModes[7] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                                       "TRUCK",   "MAIL", "FOB"};

constexpr const char* kShipInstructs[4] = {"DELIVER IN PERSON", "COLLECT COD",
                                           "NONE", "TAKE BACK RETURN"};

constexpr const char* kTypeSyl1[6] = {"STANDARD", "SMALL",   "MEDIUM",
                                      "LARGE",    "ECONOMY", "PROMO"};
constexpr const char* kTypeSyl2[5] = {"ANODIZED", "BURNISHED", "PLATED",
                                      "POLISHED", "BRUSHED"};
constexpr const char* kTypeSyl3[5] = {"TIN", "NICKEL", "BRASS", "STEEL",
                                      "COPPER"};

constexpr const char* kContainer1[5] = {"SM", "MED", "LG", "JUMBO", "WRAP"};
constexpr const char* kContainer2[8] = {"CASE", "BOX", "BAG", "JAR",
                                        "PKG",  "PACK", "CAN", "DRUM"};

// Per-entity RNG: values depend only on (seed, table tag, key).
Rng EntityRng(uint64_t seed, uint64_t table_tag, int64_t key) {
  uint64_t h = HashCombine(HashInt64(seed), table_tag);
  h = HashCombine(h, static_cast<uint64_t>(key));
  return Rng(h);
}

enum TableTag : uint64_t {
  kTagSupplier = 1,
  kTagPart = 2,
  kTagPartsupp = 3,
  kTagCustomer = 4,
  kTagOrders = 5,
  kTagLineitem = 6,
};

double MoneyUniform(Rng* rng, int64_t lo_cents, int64_t hi_cents) {
  return static_cast<double>(rng->Uniform(lo_cents, hi_cents)) / 100.0;
}

// ------------------------------------------------------------ key ranges
//
// Every entity is a pure function of (seed, table, key) — see EntityRng —
// so tables are generated over key ranges in parallel. Orders and their
// lineitems share a range (lineitem is co-clustered on the order key).

// Keys per range. A constant, never derived from the pool width: the
// range boundaries fix the order in which range dictionaries are merged,
// so they must be the same on every machine.
constexpr int64_t kRangeKeys = 8192;

int NumRanges(int64_t num_keys) {
  return static_cast<int>((num_keys + kRangeKeys - 1) / kRangeKeys);
}

// Keys first..last (inclusive, 1-based) of range r.
struct KeyRange {
  int64_t first;
  int64_t last;
};
KeyRange KeysOf(int r, int64_t num_keys) {
  return {r * kRangeKeys + 1, std::min<int64_t>((r + 1) * kRangeKeys,
                                                num_keys)};
}

// Runs fn(i) for i in [0, n) as one pipeline on PipelineScheduler::Default()
// with every hardware thread. Started on a pool worker, the pipeline runs
// inline and in order (the scheduler's rule for nested pipelines). Each
// task writes only its own output slots, so the result never depends on
// which thread ran it.
template <typename Fn>
void RunTasks(int n, const Fn& fn) {
  const std::function<void(const parallel::Morsel&)> body =
      [&fn](const parallel::Morsel& m) {
        for (int64_t i = m.begin; i < m.end; ++i) fn(static_cast<int>(i));
      };
  parallel::PipelineSpec spec;
  spec.total_rows = n;
  spec.morsel_rows = 1;
  spec.max_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  spec.body = &body;
  parallel::PipelineScheduler::Default().RunPipeline(spec);
}

// A table written range by range. The calling thread sizes every column
// to its final row count; each range then writes its rows in place from
// its first row on. String values take codes from range-local
// dictionaries, so ranges share nothing while they run. Finish() merges
// each column's range dictionaries in range order, which reproduces the
// codes a sequential load assigns (first appearance), then remaps the
// codes range by range.
class RangeTable {
 public:
  // Writes one range's rows in order; used by one thread.
  class Writer {
   public:
    void Int32(int c, int32_t v) { t_->i32_[c][row_] = v; }
    void Int64(int c, int64_t v) { t_->i64_[c][row_] = v; }
    void Float64(int c, double v) { t_->f64_[c][row_] = v; }
    void String(int c, std::string_view v) {
      t_->i32_[c][row_] = dicts_[c].GetOrAdd(v);
    }
    void EndRow() { ++row_; }

   private:
    friend class RangeTable;
    Writer(RangeTable* t, int r)
        : t_(t), row_(t->first_row_[r]), dicts_(&t->RangeDict(r, 0)) {}

    RangeTable* t_;
    int64_t row_;
    storage::Dictionary* dicts_;  // this range's, indexed by column
  };

  // range_rows[r] is the row count of range r.
  RangeTable(const char* name, Schema schema,
             const std::vector<int64_t>& range_rows)
      : table_(std::make_shared<Table>(name, std::move(schema))),
        num_cols_(table_->schema().num_fields()),
        first_row_(range_rows.size() + 1, 0),
        dicts_(range_rows.size() * num_cols_),
        i32_(num_cols_, nullptr),
        i64_(num_cols_, nullptr),
        f64_(num_cols_, nullptr) {
    for (size_t r = 0; r < range_rows.size(); ++r) {
      first_row_[r + 1] = first_row_[r] + range_rows[r];
    }
    for (int c = 0; c < num_cols_; ++c) {
      storage::Column& col = table_->column(c);
      col.Resize(first_row_.back());
      switch (col.type()) {
        case DataType::kInt64:
          i64_[c] = col.MutableI64().data();
          break;
        case DataType::kFloat64:
          f64_[c] = col.MutableF64().data();
          break;
        default:
          i32_[c] = col.MutableI32().data();
          break;
      }
    }
  }

  int num_ranges() const { return static_cast<int>(first_row_.size()) - 1; }

  // Runs fill(writer) for range r; it must write exactly the range's rows.
  template <typename Fn>
  void Fill(int r, const Fn& fill) {
    Writer w(this, r);
    fill(w);
    WIMPI_CHECK_EQ(w.row_, first_row_[r + 1])
        << "range " << r << " of " << table_->name();
  }

  std::shared_ptr<Table> Finish() {
    std::vector<int> string_cols;
    for (int c = 0; c < num_cols_; ++c) {
      if (table_->column(c).type() == DataType::kString) {
        string_cols.push_back(c);
      }
    }
    const int n = num_ranges();
    // Merge serially, on the calling thread: the table's dictionary index
    // and value arrays are then allocated where the rest of the table is
    // (merging columns on pool workers instead measured ~10% more peak RSS
    // at SF 0.25, from memory left in the workers' malloc arenas).
    // remaps[s * n + r] maps range r's codes in string column s; it stays
    // empty when the merge kept them (always so for the first range).
    std::vector<std::vector<int32_t>> remaps(string_cols.size() * n);
    for (size_t s = 0; s < string_cols.size(); ++s) {
      const int c = string_cols[s];
      storage::Dictionary& dict = *table_->column(c).dict();
      int64_t bound = 0;
      for (int r = 0; r < n; ++r) bound += RangeDict(r, c).size();
      dict.Reserve(bound);
      for (int r = 0; r < n; ++r) {
        std::vector<int32_t> remap = dict.Merge(std::move(RangeDict(r, c)));
        bool identity = true;
        for (size_t i = 0; i < remap.size() && identity; ++i) {
          identity = remap[i] == static_cast<int32_t>(i);
        }
        if (!identity) remaps[s * n + r] = std::move(remap);
      }
    }
    dicts_ = {};
    RunTasks(n, [&](int r) {
      for (size_t s = 0; s < string_cols.size(); ++s) {
        const std::vector<int32_t>& remap = remaps[s * n + r];
        if (remap.empty()) continue;
        int32_t* codes = i32_[string_cols[s]];
        for (int64_t row = first_row_[r]; row < first_row_[r + 1]; ++row) {
          codes[row] = remap[codes[row]];
        }
      }
    });
    table_->FinishLoad();
    return std::move(table_);
  }

 private:
  storage::Dictionary& RangeDict(int r, int c) {
    return dicts_[static_cast<size_t>(r) * num_cols_ + c];
  }

  std::shared_ptr<Table> table_;
  int num_cols_;
  std::vector<int64_t> first_row_;  // per range, plus the total at the end
  std::vector<storage::Dictionary> dicts_;  // [range * num_cols_ + column]
  // Column data by type; null where the column has another type.
  std::vector<int32_t*> i32_;
  std::vector<int64_t*> i64_;
  std::vector<double*> f64_;
};

// A table of `rows_per_key` rows for each key 1..num_keys, written range
// by range: fill(key, writer) writes one key's rows.
template <typename Fn>
std::shared_ptr<Table> GenerateByKey(const char* name, Schema schema,
                                     int64_t num_keys, int rows_per_key,
                                     const Fn& fill) {
  const int n = NumRanges(num_keys);
  std::vector<int64_t> rows(n);
  for (int r = 0; r < n; ++r) {
    const KeyRange keys = KeysOf(r, num_keys);
    rows[r] = (keys.last - keys.first + 1) * rows_per_key;
  }
  RangeTable t(name, std::move(schema), rows);
  RunTasks(n, [&](int r) {
    const KeyRange keys = KeysOf(r, num_keys);
    t.Fill(r, [&](RangeTable::Writer& w) {
      for (int64_t k = keys.first; k <= keys.last; ++k) fill(k, w);
    });
  });
  return t.Finish();
}

// The draws that open every order, in order: the count pass repeats them
// to size lineitem before generation proper.
struct OrderHeader {
  int64_t custkey = 0;
  int32_t odate = 0;
  int n_lines = 0;
};
OrderHeader DrawOrderHeader(Rng* rng, int64_t num_customers) {
  // o_orderdate range leaves room for the longest shipping chain
  // (121 + 30 days) before END_DATE, per the spec.
  static const int32_t start = StartDate();
  static const int32_t last_order_date = EndDate() - 151;
  OrderHeader h;
  // Customers with custkey % 3 == 0 never place orders (dbgen rule that
  // Q13/Q22 depend on).
  do {
    h.custkey = rng->Uniform(1, num_customers);
  } while (h.custkey % 3 == 0 && num_customers >= 3);
  h.odate = static_cast<int32_t>(rng->Uniform(start, last_order_date));
  h.n_lines = static_cast<int>(rng->Uniform(1, 7));
  return h;
}

}  // namespace

RowCounts RowCountsFor(double sf) {
  RowCounts c;
  c.supplier = std::max<int64_t>(1, std::llround(10000 * sf));
  c.part = std::max<int64_t>(4, std::llround(200000 * sf));
  c.customer = std::max<int64_t>(3, std::llround(150000 * sf));
  c.orders = std::max<int64_t>(1, std::llround(1500000 * sf));
  c.partsupp = 4 * c.part;
  return c;
}

int32_t SupplierForPart(int32_t partkey, int i, int64_t num_suppliers) {
  const int64_t s = num_suppliers;
  const int64_t step = std::max<int64_t>(1, s / 4);
  return static_cast<int32_t>((partkey - 1 + i * step) % s + 1);
}

double RetailPrice(int32_t p) {
  return (90000.0 + ((p / 10) % 20001) + 100.0 * (p % 1000)) / 100.0;
}

int32_t StartDate() { return DateFromCivil(1992, 1, 1); }
int32_t CurrentDate() { return DateFromCivil(1995, 6, 17); }
int32_t EndDate() { return DateFromCivil(1998, 12, 31); }

std::shared_ptr<Table> GenerateRegion(const GenOptions& opts) {
  Schema schema({{"r_regionkey", DataType::kInt32},
                 {"r_name", DataType::kString},
                 {"r_comment", DataType::kString}});
  auto t = std::make_shared<Table>("region", schema);
  Rng rng(opts.seed ^ 0xfeed);
  for (int32_t r = 0; r < 5; ++r) {
    t->column(0).AppendInt32(r);
    t->column(1).AppendString(kRegions[r]);
    t->column(2).AppendString(
        opts.include_unused_text ? RandomText(&rng, 40) : "");
  }
  t->FinishLoad();
  return t;
}

std::shared_ptr<Table> GenerateNation(const GenOptions& opts) {
  Schema schema({{"n_nationkey", DataType::kInt32},
                 {"n_name", DataType::kString},
                 {"n_regionkey", DataType::kInt32},
                 {"n_comment", DataType::kString}});
  auto t = std::make_shared<Table>("nation", schema);
  Rng rng(opts.seed ^ 0xbeef);
  for (int32_t n = 0; n < 25; ++n) {
    t->column(0).AppendInt32(n);
    t->column(1).AppendString(kNations[n].name);
    t->column(2).AppendInt32(kNations[n].regionkey);
    t->column(3).AppendString(
        opts.include_unused_text ? RandomText(&rng, 40) : "");
  }
  t->FinishLoad();
  return t;
}

std::shared_ptr<Table> GenerateSupplier(const GenOptions& opts) {
  const RowCounts counts = RowCountsFor(opts.scale_factor);
  Schema schema({{"s_suppkey", DataType::kInt32},
                 {"s_name", DataType::kString},
                 {"s_address", DataType::kString},
                 {"s_nationkey", DataType::kInt32},
                 {"s_phone", DataType::kString},
                 {"s_acctbal", DataType::kFloat64},
                 {"s_comment", DataType::kString}});
  return GenerateByKey(
      "supplier", std::move(schema), counts.supplier, 1,
      [&](int64_t k, RangeTable::Writer& w) {
        Rng rng = EntityRng(opts.seed, kTagSupplier, k);
        const auto nation = static_cast<int32_t>(rng.Uniform(0, 24));
        w.Int32(0, static_cast<int32_t>(k));
        w.String(1, NumberedName("Supplier", k));
        w.String(2, AddressText(&rng));
        w.Int32(3, nation);
        w.String(4, PhoneNumber(&rng, nation));
        w.Float64(5, MoneyUniform(&rng, -99999, 999999));
        w.String(6, SupplierComment(&rng));
        w.EndRow();
      });
}

std::shared_ptr<Table> GeneratePart(const GenOptions& opts) {
  const RowCounts counts = RowCountsFor(opts.scale_factor);
  Schema schema({{"p_partkey", DataType::kInt32},
                 {"p_name", DataType::kString},
                 {"p_mfgr", DataType::kString},
                 {"p_brand", DataType::kString},
                 {"p_type", DataType::kString},
                 {"p_size", DataType::kInt32},
                 {"p_container", DataType::kString},
                 {"p_retailprice", DataType::kFloat64},
                 {"p_comment", DataType::kString}});
  return GenerateByKey(
      "part", std::move(schema), counts.part, 1,
      [&](int64_t k, RangeTable::Writer& w) {
        Rng rng = EntityRng(opts.seed, kTagPart, k);
        // p_name: five distinct colors.
        int idx[5];
        for (int i = 0; i < 5; ++i) {
          bool dup;
          do {
            idx[i] = static_cast<int>(rng.Uniform(0, kNumColors - 1));
            dup = false;
            for (int j = 0; j < i; ++j) dup = dup || idx[j] == idx[i];
          } while (dup);
        }
        std::string name;
        for (int i = 0; i < 5; ++i) {
          if (i > 0) name += ' ';
          name += kColors[idx[i]];
        }
        const int m = static_cast<int>(rng.Uniform(1, 5));
        const int n = static_cast<int>(rng.Uniform(1, 5));
        char mfgr[32], brand[32];
        std::snprintf(mfgr, sizeof(mfgr), "Manufacturer#%d", m);
        std::snprintf(brand, sizeof(brand), "Brand#%d%d", m, n);
        std::string type = kTypeSyl1[rng.Uniform(0, 5)];
        type += ' ';
        type += kTypeSyl2[rng.Uniform(0, 4)];
        type += ' ';
        type += kTypeSyl3[rng.Uniform(0, 4)];
        std::string container = kContainer1[rng.Uniform(0, 4)];
        container += ' ';
        container += kContainer2[rng.Uniform(0, 7)];

        w.Int32(0, static_cast<int32_t>(k));
        w.String(1, name);
        w.String(2, mfgr);
        w.String(3, brand);
        w.String(4, type);
        w.Int32(5, static_cast<int32_t>(rng.Uniform(1, 50)));
        w.String(6, container);
        w.Float64(7, RetailPrice(static_cast<int32_t>(k)));
        w.String(8, opts.include_unused_text ? RandomText(&rng, 15) : "");
        w.EndRow();
      });
}

std::shared_ptr<Table> GeneratePartsupp(const GenOptions& opts) {
  const RowCounts counts = RowCountsFor(opts.scale_factor);
  Schema schema({{"ps_partkey", DataType::kInt32},
                 {"ps_suppkey", DataType::kInt32},
                 {"ps_availqty", DataType::kInt32},
                 {"ps_supplycost", DataType::kFloat64},
                 {"ps_comment", DataType::kString}});
  return GenerateByKey(
      "partsupp", std::move(schema), counts.part, 4,
      [&](int64_t p, RangeTable::Writer& w) {
        for (int i = 0; i < 4; ++i) {
          Rng rng = EntityRng(opts.seed, kTagPartsupp, p * 4 + i);
          w.Int32(0, static_cast<int32_t>(p));
          w.Int32(1, SupplierForPart(static_cast<int32_t>(p), i,
                                     counts.supplier));
          w.Int32(2, static_cast<int32_t>(rng.Uniform(1, 9999)));
          w.Float64(3, MoneyUniform(&rng, 100, 100000));
          w.String(4, opts.include_unused_text ? RandomText(&rng, 30) : "");
          w.EndRow();
        }
      });
}

std::shared_ptr<Table> GenerateCustomer(const GenOptions& opts) {
  const RowCounts counts = RowCountsFor(opts.scale_factor);
  Schema schema({{"c_custkey", DataType::kInt32},
                 {"c_name", DataType::kString},
                 {"c_address", DataType::kString},
                 {"c_nationkey", DataType::kInt32},
                 {"c_phone", DataType::kString},
                 {"c_acctbal", DataType::kFloat64},
                 {"c_mktsegment", DataType::kString},
                 {"c_comment", DataType::kString}});
  return GenerateByKey(
      "customer", std::move(schema), counts.customer, 1,
      [&](int64_t k, RangeTable::Writer& w) {
        Rng rng = EntityRng(opts.seed, kTagCustomer, k);
        const auto nation = static_cast<int32_t>(rng.Uniform(0, 24));
        w.Int32(0, static_cast<int32_t>(k));
        w.String(1, NumberedName("Customer", k));
        w.String(2, AddressText(&rng));
        w.Int32(3, nation);
        w.String(4, PhoneNumber(&rng, nation));
        w.Float64(5, MoneyUniform(&rng, -99999, 999999));
        w.String(6, kSegments[rng.Uniform(0, 4)]);
        w.String(7, opts.include_unused_text ? RandomText(&rng, 40) : "");
        w.EndRow();
      });
}

void GenerateOrdersAndLineitem(const GenOptions& opts,
                               std::shared_ptr<Table>* orders_out,
                               std::shared_ptr<Table>* lineitem_out) {
  const RowCounts counts = RowCountsFor(opts.scale_factor);

  Schema oschema({{"o_orderkey", DataType::kInt64},
                  {"o_custkey", DataType::kInt32},
                  {"o_orderstatus", DataType::kString},
                  {"o_totalprice", DataType::kFloat64},
                  {"o_orderdate", DataType::kDate},
                  {"o_orderpriority", DataType::kString},
                  {"o_clerk", DataType::kString},
                  {"o_shippriority", DataType::kInt32},
                  {"o_comment", DataType::kString}});
  Schema lschema({{"l_orderkey", DataType::kInt64},
                  {"l_partkey", DataType::kInt32},
                  {"l_suppkey", DataType::kInt32},
                  {"l_linenumber", DataType::kInt32},
                  {"l_quantity", DataType::kFloat64},
                  {"l_extendedprice", DataType::kFloat64},
                  {"l_discount", DataType::kFloat64},
                  {"l_tax", DataType::kFloat64},
                  {"l_returnflag", DataType::kString},
                  {"l_linestatus", DataType::kString},
                  {"l_shipdate", DataType::kDate},
                  {"l_commitdate", DataType::kDate},
                  {"l_receiptdate", DataType::kDate},
                  {"l_shipinstruct", DataType::kString},
                  {"l_shipmode", DataType::kString},
                  {"l_comment", DataType::kString}});

  // Count pass: re-draw each order's header to size lineitem per range.
  const int num_ranges = NumRanges(counts.orders);
  std::vector<int64_t> order_rows(num_ranges), line_rows(num_ranges);
  RunTasks(num_ranges, [&](int r) {
    const KeyRange keys = KeysOf(r, counts.orders);
    int64_t lines = 0;
    for (int64_t okey = keys.first; okey <= keys.last; ++okey) {
      Rng rng = EntityRng(opts.seed, kTagOrders, okey);
      lines += DrawOrderHeader(&rng, counts.customer).n_lines;
    }
    order_rows[r] = keys.last - keys.first + 1;
    line_rows[r] = lines;
  });
  RangeTable orders("orders", std::move(oschema), order_rows);
  RangeTable lineitem("lineitem", std::move(lschema), line_rows);

  const int32_t current = CurrentDate();
  RunTasks(num_ranges, [&](int r) {
    const KeyRange keys = KeysOf(r, counts.orders);
    orders.Fill(r, [&](RangeTable::Writer& o) {
      lineitem.Fill(r, [&](RangeTable::Writer& l) {
        for (int64_t okey = keys.first; okey <= keys.last; ++okey) {
          Rng rng = EntityRng(opts.seed, kTagOrders, okey);
          const OrderHeader h = DrawOrderHeader(&rng, counts.customer);
          double total = 0;
          int n_open = 0;
          for (int ln = 1; ln <= h.n_lines; ++ln) {
            Rng lrng = EntityRng(opts.seed, kTagLineitem, okey * 8 + ln);
            const auto partkey =
                static_cast<int32_t>(lrng.Uniform(1, counts.part));
            const int supp_i = static_cast<int>(lrng.Uniform(0, 3));
            const int32_t suppkey =
                SupplierForPart(partkey, supp_i, counts.supplier);
            const double qty = static_cast<double>(lrng.Uniform(1, 50));
            const double price = RetailPrice(partkey) * qty;
            const double discount =
                static_cast<double>(lrng.Uniform(0, 10)) / 100.0;
            const double tax =
                static_cast<double>(lrng.Uniform(0, 8)) / 100.0;
            const auto shipdate =
                static_cast<int32_t>(h.odate + lrng.Uniform(1, 121));
            const auto commitdate =
                static_cast<int32_t>(h.odate + lrng.Uniform(30, 90));
            const auto receiptdate =
                static_cast<int32_t>(shipdate + lrng.Uniform(1, 30));
            const bool shipped = shipdate <= current;
            const char* returnflag =
                receiptdate <= current ? (lrng.Bernoulli(0.5) ? "R" : "A")
                                       : "N";
            const char* linestatus = shipped ? "F" : "O";
            if (!shipped) ++n_open;
            total += price * (1.0 - discount) * (1.0 + tax);

            l.Int64(0, okey);
            l.Int32(1, partkey);
            l.Int32(2, suppkey);
            l.Int32(3, ln);
            l.Float64(4, qty);
            l.Float64(5, price);
            l.Float64(6, discount);
            l.Float64(7, tax);
            l.String(8, returnflag);
            l.String(9, linestatus);
            l.Int32(10, shipdate);
            l.Int32(11, commitdate);
            l.Int32(12, receiptdate);
            l.String(13, kShipInstructs[lrng.Uniform(0, 3)]);
            l.String(14, kShipModes[lrng.Uniform(0, 6)]);
            l.String(15,
                     opts.include_unused_text ? RandomText(&lrng, 20) : "");
            l.EndRow();
          }

          const char* status =
              n_open == 0 ? "F" : (n_open == h.n_lines ? "O" : "P");
          o.Int64(0, okey);
          o.Int32(1, static_cast<int32_t>(h.custkey));
          o.String(2, status);
          o.Float64(3, total);
          o.Int32(4, h.odate);
          o.String(5, kPriorities[rng.Uniform(0, 4)]);
          o.String(6, opts.include_unused_text
                          ? NumberedName("Clerk", rng.Uniform(1, 1000))
                          : "");
          o.Int32(7, 0);
          // Spec average o_comment length is ~48 chars; ~1% carry the
          // "special ... requests" phrase Q13 filters on.
          o.String(8, CommentText(&rng, 48, 0.01));
          o.EndRow();
        }
      });
    });
  });

  *orders_out = orders.Finish();
  *lineitem_out = lineitem.Finish();
}

engine::Database GenerateDatabase(const GenOptions& opts) {
  engine::Database db;
  db.AddTable(GenerateRegion(opts));
  db.AddTable(GenerateNation(opts));
  db.AddTable(GenerateSupplier(opts));
  db.AddTable(GeneratePart(opts));
  db.AddTable(GeneratePartsupp(opts));
  db.AddTable(GenerateCustomer(opts));
  std::shared_ptr<Table> orders, lineitem;
  GenerateOrdersAndLineitem(opts, &orders, &lineitem);
  db.AddTable(std::move(orders));
  db.AddTable(std::move(lineitem));
  return db;
}

double LogicalTableBytes(const std::string& table, double sf) {
  // Approximate per-row in-memory bytes of a full (all text populated)
  // dictionary-encoded columnar representation, derived from the spec's
  // average row widths.
  const RowCounts c = RowCountsFor(sf);
  if (table == "lineitem") return static_cast<double>(c.orders) * 4 * 120;
  if (table == "orders") return static_cast<double>(c.orders) * 130;
  if (table == "customer") return static_cast<double>(c.customer) * 230;
  if (table == "part") return static_cast<double>(c.part) * 180;
  if (table == "partsupp") return static_cast<double>(c.partsupp) * 170;
  if (table == "supplier") return static_cast<double>(c.supplier) * 230;
  if (table == "nation") return 25 * 150.0;
  if (table == "region") return 5 * 150.0;
  return 0;
}

}  // namespace wimpi::tpch
