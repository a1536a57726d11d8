#include "tpch/query_utils.h"

namespace wimpi::tpch {

std::vector<std::pair<std::string, std::string>> Cols(
    const std::vector<std::string>& names) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(names.size());
  for (const auto& n : names) out.emplace_back(n, n);
  return out;
}

Relation ScanGather(const storage::Table& t,
                    const std::vector<Predicate>& preds,
                    const std::vector<std::string>& cols,
                    QueryStats* stats) {
  const ColumnSource src(t);
  const SelVec sel = exec::Filter(src, preds, stats);
  return exec::GatherColumns(src, Cols(cols), sel, stats);
}

Relation JoinGather(const Relation& build,
                    const std::vector<std::string>& build_keys,
                    const std::vector<std::string>& build_cols,
                    const Relation& probe,
                    const std::vector<std::string>& probe_keys,
                    const std::vector<std::string>& probe_cols,
                    JoinKind kind, QueryStats* stats) {
  std::vector<const storage::Column*> bk, pk;
  for (const auto& k : build_keys) bk.push_back(&build.column(k));
  for (const auto& k : probe_keys) pk.push_back(&probe.column(k));
  const exec::JoinResult jr = exec::HashJoin(bk, pk, kind, stats);

  Relation out;
  if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter) {
    WIMPI_CHECK(kind != JoinKind::kLeftOuter || !build_cols.empty() ||
                !probe_cols.empty());
    for (const auto& c : build_cols) {
      if (kind == JoinKind::kLeftOuter) {
        out.AddColumn(c, exec::GatherWithDefault(build.column(c),
                                                 jr.build_idx, 0, stats));
      } else {
        out.AddColumn(c, exec::Gather(build.column(c), jr.build_idx, stats));
      }
    }
    for (const auto& c : probe_cols) {
      out.AddColumn(c, exec::Gather(probe.column(c), jr.probe_idx, stats));
    }
  } else {  // semi / anti: probe rows only
    WIMPI_CHECK(build_cols.empty()) << "semi/anti join cannot emit build side";
    for (const auto& c : probe_cols) {
      out.AddColumn(c, exec::Gather(probe.column(c), jr.probe_idx, stats));
    }
  }
  return out;
}

void AddRevenue(Relation* r, const std::string& name, QueryStats* stats) {
  auto one_minus = exec::ConstMinusF64(1.0, r->column("l_discount"), stats);
  r->AddColumn(name,
               exec::MulF64(r->column("l_extendedprice"), *one_minus, stats));
}

Relation ScalarRelation(const std::vector<std::string>& names,
                        const std::vector<double>& values) {
  WIMPI_CHECK_EQ(names.size(), values.size());
  Relation r;
  for (size_t i = 0; i < names.size(); ++i) {
    auto col = std::make_unique<storage::Column>(storage::DataType::kFloat64);
    col->AppendFloat64(values[i]);
    r.AddColumn(names[i], std::move(col));
  }
  return r;
}

Relation ScalarSums(const Relation& in, const std::vector<AggSpec>& aggs,
                    QueryStats* stats) {
  std::vector<std::string> names;
  std::vector<double> sums;
  for (const AggSpec& a : aggs) {
    WIMPI_CHECK(a.fn == AggFn::kSum) << "scalar sums take kSum specs only";
    names.push_back(a.out);
    sums.push_back(exec::SumF64(in.column(a.in), stats));
  }
  return ScalarRelation(names, sums);
}

int32_t NationKey(const engine::Database& db, const std::string& name) {
  const storage::Table& nation = db.table("nation");
  const auto& names = nation.column("n_name");
  for (int64_t i = 0; i < nation.num_rows(); ++i) {
    if (names.StringAt(i) == name) {
      return nation.column("n_nationkey").I32Data()[i];
    }
  }
  WIMPI_CHECK(false) << "unknown nation " << name;
  return -1;
}

std::vector<int32_t> NationKeysInRegion(const engine::Database& db,
                                        const std::string& region_name) {
  const storage::Table& region = db.table("region");
  int32_t rkey = -1;
  for (int64_t i = 0; i < region.num_rows(); ++i) {
    if (region.column("r_name").StringAt(i) == region_name) {
      rkey = region.column("r_regionkey").I32Data()[i];
    }
  }
  WIMPI_CHECK_GE(rkey, 0) << "unknown region " << region_name;
  std::vector<int32_t> out;
  const storage::Table& nation = db.table("nation");
  for (int64_t i = 0; i < nation.num_rows(); ++i) {
    if (nation.column("n_regionkey").I32Data()[i] == rkey) {
      out.push_back(nation.column("n_nationkey").I32Data()[i]);
    }
  }
  return out;
}

}  // namespace wimpi::tpch
