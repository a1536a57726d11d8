#include <string>
#include <vector>

#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/memory_tracker.h"
#include "storage/table.h"

#include "gtest/gtest.h"

namespace wimpi::storage {
namespace {

TEST(DictionaryTest, CodesAreDenseAndStable) {
  Dictionary d;
  EXPECT_EQ(d.GetOrAdd("AIR"), 0);
  EXPECT_EQ(d.GetOrAdd("MAIL"), 1);
  EXPECT_EQ(d.GetOrAdd("AIR"), 0);
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.ValueAt(1), "MAIL");
  EXPECT_EQ(d.Find("MAIL"), 1);
  EXPECT_EQ(d.Find("SHIP"), -1);
}

TEST(DictionaryTest, FreezeKeepsLookup) {
  Dictionary d;
  d.GetOrAdd("a");
  d.GetOrAdd("b");
  const int64_t before = d.MemoryBytes();
  d.FreezeForRead();
  EXPECT_LT(d.MemoryBytes(), before);
  EXPECT_EQ(d.Find("b"), 1);  // falls back to linear scan
  EXPECT_EQ(d.ValueAt(0), "a");
}

TEST(DictionaryTest, CodesStayInFirstSeenOrderAcrossGrowth) {
  // 5000 values force several doublings of the index; every re-add and
  // every Find must still see the first-seen code.
  Dictionary d;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(d.GetOrAdd("v" + std::to_string(i * 7919 % 5000)), i);
  }
  for (int i = 0; i < 5000; ++i) {
    const std::string v = "v" + std::to_string(i * 7919 % 5000);
    EXPECT_EQ(d.GetOrAdd(v), i);
    EXPECT_EQ(d.Find(v), i);
    EXPECT_EQ(d.ValueAt(i), v);
  }
  EXPECT_EQ(d.size(), 5000);
  EXPECT_EQ(d.Find("v5000"), -1);
}

TEST(DictionaryTest, FindBeforeAndAfterFreeze) {
  Dictionary d;
  EXPECT_EQ(d.Find("x"), -1);  // empty, before any index exists
  for (const char* v : {"x", "y", "z"}) d.GetOrAdd(v);
  EXPECT_EQ(d.Find("y"), 1);
  EXPECT_EQ(d.Find("w"), -1);
  d.FreezeForRead();
  EXPECT_EQ(d.Find("y"), 1);
  EXPECT_EQ(d.Find("w"), -1);
  EXPECT_EQ(d.size(), 3);
}

TEST(DictionaryTest, EmptyAndEmbeddedNulStrings) {
  Dictionary d;
  const std::string nul_a("a\0b", 3);
  const std::string nul_c("a\0c", 3);
  EXPECT_EQ(d.GetOrAdd(""), 0);
  EXPECT_EQ(d.GetOrAdd(nul_a), 1);
  EXPECT_EQ(d.GetOrAdd(nul_c), 2);
  EXPECT_EQ(d.GetOrAdd("a"), 3);  // a prefix of both, up to the NUL
  EXPECT_EQ(d.GetOrAdd(""), 0);
  EXPECT_EQ(d.Find(nul_c), 2);
  EXPECT_EQ(d.ValueAt(1), nul_a);
  EXPECT_EQ(d.ValueAt(0), "");
}

TEST(DictionaryTest, MergeKeepsFirstSeenOrder) {
  // Merging the dictionaries of consecutive slices in slice order gives
  // the codes one sequential pass over all slices would.
  const std::vector<std::vector<std::string>> slices = {
      {"b", "a", "b"}, {"c", "a"}, {"a", "d", "c"}};
  Dictionary sequential;
  for (const auto& slice : slices) {
    for (const auto& v : slice) sequential.GetOrAdd(v);
  }
  Dictionary merged;
  for (const auto& slice : slices) {
    Dictionary part;
    std::vector<int32_t> local;
    for (const auto& v : slice) local.push_back(part.GetOrAdd(v));
    const std::vector<int32_t> remap = merged.Merge(std::move(part));
    EXPECT_EQ(part.size(), 0);
    for (size_t i = 0; i < slice.size(); ++i) {
      EXPECT_EQ(remap[local[i]], sequential.Find(slice[i]));
    }
  }
  ASSERT_EQ(merged.size(), sequential.size());
  for (int32_t c = 0; c < merged.size(); ++c) {
    EXPECT_EQ(merged.ValueAt(c), sequential.ValueAt(c));
  }
  EXPECT_EQ(merged.MemoryBytes(), sequential.MemoryBytes());
}

TEST(DictionaryDeathTest, GetOrAddOnFrozenAborts) {
  Dictionary d;
  d.GetOrAdd("a");
  d.FreezeForRead();
  EXPECT_DEATH(d.GetOrAdd("b"), "frozen");
}

TEST(DictionaryTest, MemoryBytesIsTheModeledCharge) {
  // Not the heap bytes of the index: a fixed 64 B per entry while the
  // index exists, on top of each string's capacity and object.
  Dictionary d;
  for (int i = 0; i < 300; ++i) {
    d.GetOrAdd(std::string(static_cast<size_t>(i % 40), 'x') +
               std::to_string(i));
  }
  int64_t strings = 0;
  for (int32_t c = 0; c < d.size(); ++c) {
    strings += static_cast<int64_t>(std::string(d.ValueAt(c)).capacity()) +
               static_cast<int64_t>(sizeof(std::string));
  }
  EXPECT_EQ(d.MemoryBytes(), strings + 64 * d.size());
  d.FreezeForRead();
  EXPECT_EQ(d.MemoryBytes(), strings);
}

TEST(ColumnTest, TypedStorage) {
  Column c32(DataType::kInt32);
  c32.AppendInt32(7);
  EXPECT_EQ(c32.size(), 1);
  EXPECT_EQ(c32.I32Data()[0], 7);

  Column c64(DataType::kInt64);
  c64.AppendInt64(1LL << 40);
  EXPECT_EQ(c64.I64Data()[0], 1LL << 40);

  Column cf(DataType::kFloat64);
  cf.AppendFloat64(2.5);
  EXPECT_DOUBLE_EQ(cf.F64Data()[0], 2.5);

  Column cs(DataType::kString);
  cs.AppendString("x");
  cs.AppendString("y");
  cs.AppendString("x");
  EXPECT_EQ(cs.size(), 3);
  EXPECT_EQ(cs.I32Data()[2], cs.I32Data()[0]);
  EXPECT_EQ(cs.StringAt(1), "y");
}

TEST(ColumnTest, ValueBytesTracksCapacity) {
  Column c(DataType::kInt64);
  for (int i = 0; i < 100; ++i) c.AppendInt64(i);
  c.ShrinkToFit();
  EXPECT_EQ(c.ValueBytes(), 100 * 8);
}

TEST(TableTest, FinishLoadComputesRows) {
  Schema s({{"k", DataType::kInt32}, {"v", DataType::kFloat64}});
  Table t("t", s);
  for (int i = 0; i < 10; ++i) {
    t.column(0).AppendInt32(i);
    t.column(1).AppendFloat64(i * 0.5);
  }
  t.FinishLoad();
  EXPECT_EQ(t.num_rows(), 10);
  EXPECT_EQ(t.ColumnIndex("v"), 1);
  EXPECT_GT(t.MemoryBytes(), 0);
}

TEST(TableTest, NewTableLikeSharesDictionaries) {
  Schema s({{"name", DataType::kString}});
  Table t("t", s);
  t.column(0).AppendString("alpha");
  t.FinishLoad();
  auto like = NewTableLike(t, "t2");
  EXPECT_EQ(like->column(0).dict().get(), t.column(0).dict().get());
  like->column(0).AppendCode(0);
  like->FinishLoad();
  EXPECT_EQ(like->column(0).StringAt(0), "alpha");
}

TEST(TableTest, SharedDictionaryCountedOnce) {
  Schema s({{"a", DataType::kString}});
  Table t("t", s);
  for (int i = 0; i < 100; ++i) t.column("a").AppendString("v" + std::to_string(i));
  t.FinishLoad();
  auto part = NewTableLike(t, "part");
  part->column(0).AppendCode(0);
  part->FinishLoad();
  // The partition's memory is its codes plus the (shared) dictionary; it
  // must not be larger than the source table's memory.
  EXPECT_LE(part->MemoryBytes(), t.MemoryBytes());
}

TEST(MemoryTrackerTest, BudgetAndPeak) {
  MemoryTracker m(1000);
  m.Consume(600);
  EXPECT_FALSE(m.over_budget());
  m.Consume(600);
  EXPECT_TRUE(m.over_budget());
  EXPECT_EQ(m.peak(), 1200);
  EXPECT_EQ(m.PeakOvershoot(), 200);
  EXPECT_FALSE(m.CheckBudget("x").ok());
  m.Release(600);
  EXPECT_FALSE(m.over_budget());
  EXPECT_EQ(m.peak(), 1200);  // peak is sticky
  m.Reset();
  EXPECT_EQ(m.used(), 0);
  EXPECT_EQ(m.peak(), 0);
}

TEST(MemoryTrackerTest, UnlimitedNeverOverBudget) {
  MemoryTracker m;
  m.Consume(1LL << 40);
  EXPECT_FALSE(m.over_budget());
  EXPECT_EQ(m.PeakOvershoot(), 0);
  EXPECT_TRUE(m.CheckBudget("x").ok());
}

}  // namespace
}  // namespace wimpi::storage
