// Plan-quality bench (DESIGN.md §13): runs all 22 TPC-H queries with
// column statistics collected and a cardinality estimator installed, and
// records the resulting Q-error residuals plus sketch-accuracy checks in a
// bench artifact. Two hard properties are enforced, exiting nonzero:
//   * every answer with stats collection + cardinality capture enabled is
//     bit-identical to the same plan run on the seed path (no estimator);
//   * the artifact's series are fully deterministic (counts and ratios
//     derived from modeled execution, never wall time), so CI gates them
//     at zero tolerance via `wimpi_check compare` and checks their
//     invariants via `wimpi_check stats`.
//
// Artifact (--json=<path>, unit "ratio"):
//   series "cardinality": per query Q<n>.qerror.max / .qerror.geomean /
//     .ops.estimated / .ops.recorded, plus cross-query per-operator-class
//     aggregates class.<cls>.qerror.max / .ops;
//   series "sketch": HLL NDV relative errors and equi-depth histogram
//     rank errors on representative lineitem columns (uniform-ish keys,
//     skewed l_orderkey, low-NDV l_returnflag).
//
//   ./bench/bench_stats_qerror [--physical-sf 0.01] [--threads 1]
//                              [--sampled] [--json out.json]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/table_printer.h"
#include "engine/executor.h"
#include "obs/residual.h"
#include "stats/registry.h"
#include "tpch/queries.h"

namespace {

using wimpi::stats::ColumnStats;

// Exact distinct count of a column (over dictionary codes for strings —
// the same domain the HLL sketch sees).
int64_t ExactNdv(const wimpi::storage::Column& col) {
  const int64_t n = col.size();
  switch (col.type()) {
    case wimpi::storage::DataType::kInt64: {
      std::unordered_set<int64_t> s(col.I64Data(), col.I64Data() + n);
      return static_cast<int64_t>(s.size());
    }
    case wimpi::storage::DataType::kFloat64: {
      std::unordered_set<double> s(col.F64Data(), col.F64Data() + n);
      return static_cast<int64_t>(s.size());
    }
    default: {
      std::unordered_set<int32_t> s(col.I32Data(), col.I32Data() + n);
      return static_cast<int64_t>(s.size());
    }
  }
}

double ValueAt(const wimpi::storage::Column& col, int64_t row) {
  switch (col.type()) {
    case wimpi::storage::DataType::kInt64:
      return static_cast<double>(col.I64Data()[row]);
    case wimpi::storage::DataType::kFloat64:
      return col.F64Data()[row];
    default:
      return static_cast<double>(col.I32Data()[row]);
  }
}

// Worst rank error of the histogram over a quantile grid: for each q the
// histogram's Quantile(q) is mapped back through the *exact* CDF of the
// column; a perfect histogram lands within one point mass of q.
double MaxQuantileRankError(const wimpi::storage::Column& col,
                            const ColumnStats& cs) {
  const int64_t n = col.size();
  if (n == 0 || cs.histogram.empty()) return 1;
  std::vector<double> sorted(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) sorted[static_cast<size_t>(i)] = ValueAt(col, i);
  std::sort(sorted.begin(), sorted.end());
  double worst = 0;
  for (int i = 1; i <= 9; ++i) {
    const double q = i / 10.0;
    const double v = cs.histogram.Quantile(q);
    // Exact CDF bracket of v: rank error is 0 when q lies inside
    // [P(x < v), P(x <= v)] (a point mass at v legitimately covers the
    // whole span), else the distance to the nearest edge.
    const double lt =
        static_cast<double>(std::lower_bound(sorted.begin(), sorted.end(), v) -
                            sorted.begin()) /
        static_cast<double>(n);
    const double le =
        static_cast<double>(std::upper_bound(sorted.begin(), sorted.end(), v) -
                            sorted.begin()) /
        static_cast<double>(n);
    const double err = q < lt ? lt - q : (q > le ? q - le : 0);
    worst = std::max(worst, err);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  using wimpi::TablePrinter;
  const wimpi::CommandLine cli(argc, argv);
  const double physical_sf = cli.GetDouble("physical-sf", 0.01);
  const int threads = static_cast<int>(cli.GetInt("threads", 1));
  const bool sampled = cli.GetBool("sampled", false);
  const std::string json_path = cli.GetString("json", "");

  const wimpi::engine::Database db = wimpi::bench::LoadDb(physical_sf);
  const std::vector<int> queries = wimpi::bench::AllQueryNumbers();

  // ---- Phase 0: seed-path reference answers (no estimator) ----
  std::map<int, uint64_t> reference_checksum;
  for (const int q : queries) {
    wimpi::engine::Executor ex;
    ex.set_num_threads(threads);
    const wimpi::exec::Relation r = ex.Run([&](wimpi::exec::QueryStats* s) {
      return wimpi::tpch::RunQuery(q, db, s);
    });
    reference_checksum[q] = wimpi::bench::RelationChecksum(r);
  }

  // ---- Phase 1: collect statistics ----
  wimpi::stats::StatsRegistry registry;
  wimpi::stats::StatsBuildOptions build_opts;
  if (sampled) build_opts.scan_stride = 16;
  registry.CollectDatabase(db, build_opts);

  // ---- Phase 2: the same queries with cardinality capture armed ----
  int64_t mismatches = 0;
  std::map<int, wimpi::obs::CardinalityReport> reports;
  for (const int q : queries) {
    wimpi::engine::Executor ex;
    ex.set_num_threads(threads);
    ex.set_cardinality_estimator(&registry);
    wimpi::exec::QueryStats stats;
    const wimpi::exec::Relation r = ex.Run(
        [&](wimpi::exec::QueryStats* s) {
          return wimpi::tpch::RunQuery(q, db, s);
        },
        &stats);
    if (wimpi::bench::RelationChecksum(r) != reference_checksum[q]) {
      ++mismatches;
      std::fprintf(stderr,
                   "ANSWER MISMATCH: Q%d differs with the estimator "
                   "installed\n",
                   q);
    }
    reports[q] =
        wimpi::obs::CardinalityResiduals(stats, "Q" + std::to_string(q));
  }

  // ---- Phase 3: sketch accuracy on representative lineitem columns ----
  const wimpi::storage::Table& li = db.table("lineitem");
  const wimpi::stats::TableStats* li_stats = registry.Find("lineitem");
  struct SketchCheck {
    std::string column;
    double ndv_rel_err = 0;
    double quantile_rank_err = -1;  // numeric columns only
  };
  std::vector<SketchCheck> sketch_checks;
  for (const std::string& col_name :
       {std::string("l_orderkey"), std::string("l_partkey"),
        std::string("l_quantity"), std::string("l_extendedprice"),
        std::string("l_shipdate"), std::string("l_returnflag")}) {
    const wimpi::storage::Column& col = li.column(col_name);
    const ColumnStats* cs = li_stats->Find(col_name);
    SketchCheck check;
    check.column = col_name;
    const double exact = static_cast<double>(ExactNdv(col));
    check.ndv_rel_err = exact > 0 ? std::abs(cs->ndv - exact) / exact : 0;
    if (cs->numeric()) check.quantile_rank_err = MaxQuantileRankError(col, *cs);
    sketch_checks.push_back(std::move(check));
  }

  // ---- Report ----
  std::printf("\nCardinality Q-error per query (SF %.3g, %d thread%s%s)\n\n",
              physical_sf, threads, threads == 1 ? "" : "s",
              sampled ? ", sampled stats" : "");
  TablePrinter t({"Query", "Ops est/rec", "Max Q", "Geomean Q", "Worst class"});
  std::map<std::string, double> class_max;
  std::map<std::string, double> class_ops;
  for (const auto& [q, rep] : reports) {
    t.AddRow({"Q" + std::to_string(q),
              std::to_string(rep.estimated) + "/" + std::to_string(rep.recorded),
              TablePrinter::Fixed(rep.max_q, 2),
              TablePrinter::Fixed(rep.geomean_q, 2),
              rep.classes.empty() ? "-" : rep.classes.front().op_class});
    for (const auto& c : rep.classes) {
      class_max["class." + c.op_class] =
          std::max(class_max["class." + c.op_class], c.max_q);
      class_ops["class." + c.op_class] += c.ops;
    }
  }
  t.Print(std::cout);

  std::printf("\nSketch accuracy (lineitem)\n\n");
  TablePrinter st({"Column", "NDV rel err", "Quantile rank err"});
  for (const auto& c : sketch_checks) {
    st.AddRow({c.column, TablePrinter::Fixed(c.ndv_rel_err, 4),
               c.quantile_rank_err < 0
                   ? "-"
                   : TablePrinter::Fixed(c.quantile_rank_err, 4)});
  }
  st.Print(std::cout);

  // ---- Machine-readable artifact ----
  if (!json_path.empty()) {
    wimpi::bench::RunArtifact artifact =
        wimpi::bench::MakeArtifact("stats_qerror", physical_sf);
    artifact.unit = "ratio";
    auto& card = artifact.rows["cardinality"];
    card["answer_mismatches"] = static_cast<double>(mismatches);
    for (const auto& [q, rep] : reports) {
      const std::string p = "Q" + std::to_string(q);
      card[p + ".qerror.max"] = rep.max_q;
      card[p + ".qerror.geomean"] = rep.geomean_q;
      card[p + ".ops.estimated"] = static_cast<double>(rep.estimated);
      card[p + ".ops.recorded"] = static_cast<double>(rep.recorded);
    }
    for (const auto& [cls, v] : class_max) card[cls + ".qerror.max"] = v;
    for (const auto& [cls, v] : class_ops) card[cls + ".ops"] = v;
    auto& sketch = artifact.rows["sketch"];
    for (const auto& c : sketch_checks) {
      sketch["lineitem." + c.column + ".ndv_rel_err"] = c.ndv_rel_err;
      if (c.quantile_rank_err >= 0) {
        sketch["lineitem." + c.column + ".quantile_rank_err"] =
            c.quantile_rank_err;
      }
    }
    if (!wimpi::bench::WriteArtifact(json_path, artifact)) return 1;
    std::printf("\nWrote artifact to %s\n", json_path.c_str());
  }

  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %lld answers differed with stats collection on\n",
                 static_cast<long long>(mismatches));
    return 1;
  }
  return 0;
}
