// TPC-H generator tests: cardinalities, determinism, referential
// integrity, and the value distributions the queries depend on.
#include <cstring>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/date.h"
#include "common/hash.h"
#include "common/strings.h"
#include "gtest/gtest.h"
#include "parallel/thread_pool.h"
#include "tpch/dbgen.h"

namespace wimpi::tpch {
namespace {

const engine::Database& Db() {
  static engine::Database* db = [] {
    GenOptions opts;
    opts.scale_factor = 0.01;
    return new engine::Database(GenerateDatabase(opts));
  }();
  return *db;
}

TEST(DbgenTest, RowCounts) {
  const RowCounts c = RowCountsFor(0.01);
  EXPECT_EQ(Db().table("supplier").num_rows(), c.supplier);
  EXPECT_EQ(Db().table("part").num_rows(), c.part);
  EXPECT_EQ(Db().table("customer").num_rows(), c.customer);
  EXPECT_EQ(Db().table("orders").num_rows(), c.orders);
  EXPECT_EQ(Db().table("partsupp").num_rows(), c.partsupp);
  EXPECT_EQ(Db().table("nation").num_rows(), 25);
  EXPECT_EQ(Db().table("region").num_rows(), 5);
  // 1..7 lineitems per order.
  EXPECT_GE(Db().table("lineitem").num_rows(), c.orders);
  EXPECT_LE(Db().table("lineitem").num_rows(), 7 * c.orders);
}

// Everything a generated database holds, folded into one hash: for every
// table and column the values (doubles by bit pattern), a string column's
// dictionary in code order, and each dictionary's and table's
// MemoryBytes() (summed separately, so an accounting change is told apart
// from a data change).
struct Fingerprint {
  uint64_t data = 0;
  int64_t memory_bytes = 0;
};

Fingerprint FingerprintOf(const engine::Database& db) {
  Fingerprint f;
  for (const char* name : {"region", "nation", "supplier", "part", "partsupp",
                           "customer", "orders", "lineitem"}) {
    const storage::Table& t = db.table(name);
    f.data = HashCombine(f.data, HashString(name));
    f.data = HashCombine(f.data, static_cast<uint64_t>(t.num_rows()));
    f.memory_bytes += t.MemoryBytes();
    for (int c = 0; c < t.schema().num_fields(); ++c) {
      const storage::Column& col = t.column(c);
      for (int64_t r = 0; r < t.num_rows(); ++r) {
        uint64_t v = 0;
        switch (col.type()) {
          case storage::DataType::kInt64:
            v = static_cast<uint64_t>(col.I64Data()[r]);
            break;
          case storage::DataType::kFloat64:
            std::memcpy(&v, &col.F64Data()[r], sizeof(v));
            break;
          default:
            v = static_cast<uint32_t>(col.I32Data()[r]);
            break;
        }
        f.data = HashCombine(f.data, v);
      }
      if (col.dict() != nullptr) {
        const storage::Dictionary& d = *col.dict();
        f.data = HashCombine(f.data, static_cast<uint64_t>(d.size()));
        for (int32_t code = 0; code < d.size(); ++code) {
          f.data = HashCombine(f.data, HashString(d.ValueAt(code)));
        }
        f.memory_bytes += d.MemoryBytes();
      }
    }
  }
  return f;
}

struct GoldenCase {
  double sf;
  bool include_unused_text;
  Fingerprint want;
};

// Recorded from the sequential generator this range-parallel one replaced;
// generation must reproduce it byte for byte. The scale factors cover a
// database below one key range (0.0001), several ranges with a ragged last
// one (0.06: 90000 orders, 12000 parts, 9000 customers), and the unused
// text columns. The MemoryBytes() sums assume libstdc++'s 15-byte
// small-string capacity.
const GoldenCase kGolden[] = {
    {0.01, false, {0xab6fa2aca11fc90dULL, 12200888}},
    {0.06, false, {0x528f63f211194c40ULL, 72856918}},
    {0.0001, false, {0x7b427ff56f7a9a97ULL, 149784}},
    {0.002, true, {0xb2b35fb3fb2cf6b5ULL, 6069926}},
};

GenOptions GoldenOptions(const GoldenCase& g) {
  GenOptions opts;
  opts.scale_factor = g.sf;
  opts.include_unused_text = g.include_unused_text;
  return opts;
}

TEST(DbgenTest, GoldenDatabase) {
  for (const GoldenCase& g : kGolden) {
    SCOPED_TRACE("sf " + std::to_string(g.sf) +
                 (g.include_unused_text ? " with unused text" : ""));
    const Fingerprint got = FingerprintOf(GenerateDatabase(GoldenOptions(g)));
    EXPECT_EQ(got.data, g.want.data) << std::hex << "0x" << got.data;
    EXPECT_EQ(got.memory_bytes, g.want.memory_bytes);
  }
}

TEST(DbgenTest, GoldenDatabaseFromPoolWorker) {
  // A generator started on a pool worker runs its ranges inline; the
  // database must not depend on that.
  parallel::ThreadPool pool(2);
  const GoldenCase& g = kGolden[1];
  Fingerprint got;
  pool.Submit([&] { got = FingerprintOf(GenerateDatabase(GoldenOptions(g))); })
      .get();
  EXPECT_EQ(got.data, g.want.data) << std::hex << "0x" << got.data;
  EXPECT_EQ(got.memory_bytes, g.want.memory_bytes);
}

TEST(DbgenTest, DeterministicAcrossRuns) {
  GenOptions opts;
  opts.scale_factor = 0.005;
  const Fingerprint a = FingerprintOf(GenerateDatabase(opts));
  const Fingerprint b = FingerprintOf(GenerateDatabase(opts));
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
}

TEST(DbgenTest, SeedChangesData) {
  GenOptions a, b;
  a.scale_factor = b.scale_factor = 0.005;
  b.seed = a.seed + 1;
  const engine::Database da = GenerateDatabase(a);
  const engine::Database db = GenerateDatabase(b);
  int diff = 0;
  for (int64_t i = 0; i < 100; ++i) {
    diff += da.table("orders").column("o_custkey").I32Data()[i] !=
            db.table("orders").column("o_custkey").I32Data()[i];
  }
  EXPECT_GT(diff, 50);
}

TEST(DbgenTest, LineitemForeignKeysAreValid) {
  const auto& l = Db().table("lineitem");
  const RowCounts c = RowCountsFor(0.01);
  // Every (l_partkey, l_suppkey) must exist in partsupp (Q9 depends on it).
  std::unordered_set<int64_t> ps;
  const auto& pst = Db().table("partsupp");
  for (int64_t i = 0; i < pst.num_rows(); ++i) {
    ps.insert((static_cast<int64_t>(
                   pst.column("ps_partkey").I32Data()[i]) << 32) |
              pst.column("ps_suppkey").I32Data()[i]);
  }
  for (int64_t i = 0; i < l.num_rows(); ++i) {
    const int32_t pk = l.column("l_partkey").I32Data()[i];
    const int32_t sk = l.column("l_suppkey").I32Data()[i];
    ASSERT_GE(pk, 1);
    ASSERT_LE(pk, c.part);
    ASSERT_TRUE(ps.count((static_cast<int64_t>(pk) << 32) | sk))
        << "lineitem row " << i << " has no partsupp (" << pk << "," << sk
        << ")";
  }
}

TEST(DbgenTest, CustomersDivisibleByThreeHaveNoOrders) {
  const auto& o = Db().table("orders");
  for (int64_t i = 0; i < o.num_rows(); ++i) {
    EXPECT_NE(o.column("o_custkey").I32Data()[i] % 3, 0);
  }
}

TEST(DbgenTest, OrderStatusMatchesLineitems) {
  const auto& o = Db().table("orders");
  const auto& l = Db().table("lineitem");
  std::unordered_map<int64_t, std::pair<int, int>> per_order;  // open, total
  for (int64_t i = 0; i < l.num_rows(); ++i) {
    auto& [open, total] = per_order[l.column("l_orderkey").I64Data()[i]];
    open += l.column("l_linestatus").StringAt(i) == "O";
    ++total;
  }
  for (int64_t i = 0; i < o.num_rows(); ++i) {
    const auto [open, total] =
        per_order.at(o.column("o_orderkey").I64Data()[i]);
    const std::string_view status = o.column("o_orderstatus").StringAt(i);
    if (open == 0) {
      EXPECT_EQ(status, "F");
    } else if (open == total) {
      EXPECT_EQ(status, "O");
    } else {
      EXPECT_EQ(status, "P");
    }
  }
}

TEST(DbgenTest, TotalPriceMatchesLineitems) {
  const auto& o = Db().table("orders");
  const auto& l = Db().table("lineitem");
  std::unordered_map<int64_t, double> totals;
  for (int64_t i = 0; i < l.num_rows(); ++i) {
    totals[l.column("l_orderkey").I64Data()[i]] +=
        l.column("l_extendedprice").F64Data()[i] *
        (1 - l.column("l_discount").F64Data()[i]) *
        (1 + l.column("l_tax").F64Data()[i]);
  }
  for (int64_t i = 0; i < o.num_rows(); i += 13) {
    EXPECT_NEAR(o.column("o_totalprice").F64Data()[i],
                totals.at(o.column("o_orderkey").I64Data()[i]), 1e-6);
  }
}

TEST(DbgenTest, DateChainsAreConsistent) {
  const auto& l = Db().table("lineitem");
  const int32_t start = StartDate();
  const int32_t end = EndDate();
  for (int64_t i = 0; i < l.num_rows(); ++i) {
    const int32_t ship = l.column("l_shipdate").I32Data()[i];
    const int32_t receipt = l.column("l_receiptdate").I32Data()[i];
    ASSERT_GT(receipt, ship);
    ASSERT_LE(receipt - ship, 30);
    ASSERT_GE(ship, start);
    ASSERT_LE(receipt, end);
    // Return flags follow the receipt-date rule.
    const std::string_view rf = l.column("l_returnflag").StringAt(i);
    if (receipt <= CurrentDate()) {
      ASSERT_TRUE(rf == "R" || rf == "A");
    } else {
      ASSERT_EQ(rf, "N");
    }
  }
}

TEST(DbgenTest, RetailPriceFormula) {
  EXPECT_DOUBLE_EQ(RetailPrice(1), (90000 + 0 + 100 * 1) / 100.0);
  const auto& p = Db().table("part");
  for (int64_t i = 0; i < p.num_rows(); i += 11) {
    EXPECT_DOUBLE_EQ(p.column("p_retailprice").F64Data()[i],
                     RetailPrice(p.column("p_partkey").I32Data()[i]));
  }
}

TEST(DbgenTest, PartNamesUseFiveDistinctColors) {
  const auto& p = Db().table("part");
  int green = 0, forest_prefix = 0;
  for (int64_t i = 0; i < p.num_rows(); ++i) {
    const auto words = Split(std::string(p.column("p_name").StringAt(i)), ' ');
    EXPECT_EQ(words.size(), 5u);
    EXPECT_EQ(std::set<std::string>(words.begin(), words.end()).size(), 5u);
    green += Contains(p.column("p_name").StringAt(i), "green");
    forest_prefix += StartsWith(p.column("p_name").StringAt(i), "forest");
  }
  // ~5/92 of parts contain "green" somewhere; ~1/92 start with "forest".
  EXPECT_GT(green, p.num_rows() / 40);
  EXPECT_GT(forest_prefix, 0);
}

TEST(DbgenTest, PhoneCountryCodeFollowsNation) {
  const auto& c = Db().table("customer");
  for (int64_t i = 0; i < c.num_rows(); i += 7) {
    const int32_t nk = c.column("c_nationkey").I32Data()[i];
    const std::string_view phone = c.column("c_phone").StringAt(i);
    const int code = (phone[0] - '0') * 10 + (phone[1] - '0');
    EXPECT_EQ(code, 10 + nk);
  }
}

TEST(DbgenTest, NationRegionFixedMapping) {
  const auto& n = Db().table("nation");
  std::map<std::string, int32_t> got;
  for (int64_t i = 0; i < n.num_rows(); ++i) {
    got[std::string(n.column("n_name").StringAt(i))] =
        n.column("n_regionkey").I32Data()[i];
  }
  EXPECT_EQ(got.at("BRAZIL"), 1);    // AMERICA
  EXPECT_EQ(got.at("GERMANY"), 3);   // EUROPE
  EXPECT_EQ(got.at("CHINA"), 2);     // ASIA
  EXPECT_EQ(got.at("SAUDI ARABIA"), 4);
  EXPECT_EQ(got.at("ALGERIA"), 0);
}

TEST(DbgenTest, SupplierForPartGivesFourDistinctSuppliers) {
  for (const int32_t part : {1, 57, 1999}) {
    std::set<int32_t> supps;
    for (int i = 0; i < 4; ++i) {
      const int32_t s = SupplierForPart(part, i, 100);
      EXPECT_GE(s, 1);
      EXPECT_LE(s, 100);
      supps.insert(s);
    }
    EXPECT_EQ(supps.size(), 4u);
  }
}

TEST(DbgenTest, LogicalBytesScaleWithSf) {
  for (const char* t : {"lineitem", "orders", "customer", "partsupp"}) {
    EXPECT_NEAR(LogicalTableBytes(t, 10.0) / LogicalTableBytes(t, 1.0), 10.0,
                0.5);
  }
  EXPECT_GT(LogicalTableBytes("lineitem", 1.0),
            LogicalTableBytes("orders", 1.0));
}

TEST(DbgenTest, UnusedTextSkippedByDefault) {
  // l_comment is empty by default but present with include_unused_text.
  EXPECT_EQ(Db().table("lineitem").column("l_comment").StringAt(0), "");
  GenOptions opts;
  opts.scale_factor = 0.001;
  opts.include_unused_text = true;
  const engine::Database full = GenerateDatabase(opts);
  EXPECT_NE(full.table("lineitem").column("l_comment").StringAt(0), "");
}

}  // namespace
}  // namespace wimpi::tpch
