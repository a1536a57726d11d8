#include "artifact.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/file_util.h"
#include "common/json.h"
#include "obs/perf_counters.h"

#ifndef WIMPI_GIT_SHA
#define WIMPI_GIT_SHA "unknown"
#endif

namespace wimpi::bench {

namespace {

// Measured quantities carry host noise; the comparer gates them separately
// (CompareOptions.wall_tol). Matched on the metric name by convention.
bool IsMeasuredMetric(const std::string& metric) {
  return metric.find("wall") != std::string::npos ||
         metric.find("seconds") != std::string::npos ||
         metric.find("speedup") != std::string::npos;
}

void WriteStringMap(JsonWriter& w, const char* key,
                    const std::map<std::string, double>& m) {
  w.Key(key).BeginObject();
  for (const auto& [k, v] : m) w.Key(k).Double(v);
  w.EndObject();
}

bool ReadStringMap(const JsonValue& obj, const std::string& key,
                   std::map<std::string, double>* out) {
  const JsonValue* m = obj.Find(key);
  if (m == nullptr) return true;  // optional section
  if (!m->is_object()) return false;
  for (const auto& [k, v] : m->AsObject()) {
    if (!v.is_number()) return false;
    (*out)[k] = v.AsDouble();
  }
  return true;
}

}  // namespace

RunArtifact MakeArtifact(const std::string& bench, double model_sf) {
  RunArtifact a;
  a.bench = bench;
  a.model_sf = model_sf;
  a.git_sha = WIMPI_GIT_SHA;
  char host[256] = "unknown";
  if (gethostname(host, sizeof(host) - 1) != 0) {
    std::snprintf(host, sizeof(host), "unknown");
  }
  a.hostname = host;
  a.host_threads =
      std::max(1u, std::thread::hardware_concurrency());
  a.perf_available = obs::PerfCounters::Available();
  return a;
}

bool WriteArtifact(const std::string& path, const RunArtifact& a) {
  JsonWriter w;
  w.BeginObject()
      .Key("schema_version").Int(a.schema_version)
      .Key("bench").String(a.bench)
      .Key("git_sha").String(a.git_sha)
      .Key("model_sf").Double(a.model_sf)
      .Key("unit").String(a.unit)
      .Key("host").BeginObject()
          .Key("hostname").String(a.hostname)
          .Key("threads").Int(a.host_threads)
      .EndObject()
      .Key("perf_available").Bool(a.perf_available);
  WriteStringMap(w, "perf", a.perf);
  WriteStringMap(w, "metrics", a.metrics);
  WriteStringMap(w, "rollups", a.rollups);
  w.Key("rows").BeginObject();
  for (const auto& [series, metrics] : a.rows) {
    w.Key(series).BeginObject();
    for (const auto& [metric, value] : metrics) {
      w.Key(metric).Double(value);
    }
    w.EndObject();
  }
  w.EndObject().EndObject();

  std::string error;
  if (!WriteTextFile(path, w.str() + "\n", &error)) {
    std::fprintf(stderr, "[bench] artifact: %s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr, "[bench] wrote artifact %s\n", path.c_str());
  return true;
}

bool ReadArtifact(const std::string& path, RunArtifact* out,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();

  JsonValue doc;
  std::string parse_error;
  if (!JsonValue::Parse(text.str(), &doc, &parse_error)) {
    *error = path + ": " + parse_error;
    return false;
  }
  if (!doc.is_object()) {
    *error = path + ": artifact root must be an object";
    return false;
  }
  *out = RunArtifact{};
  out->schema_version =
      static_cast<int>(doc.GetDouble("schema_version", -1));
  if (out->schema_version < kArtifactMinSchemaVersion ||
      out->schema_version > kArtifactSchemaVersion) {
    *error = path + ": schema_version " +
             std::to_string(out->schema_version) + " (supported " +
             std::to_string(kArtifactMinSchemaVersion) + ".." +
             std::to_string(kArtifactSchemaVersion) + ")";
    return false;
  }
  out->bench = doc.GetString("bench", "");
  out->git_sha = doc.GetString("git_sha", "unknown");
  out->model_sf = doc.GetDouble("model_sf", 0);
  out->unit = doc.GetString("unit", "seconds");
  if (const JsonValue* host = doc.Find("host"); host != nullptr) {
    out->hostname = host->GetString("hostname", "unknown");
    out->host_threads = static_cast<int>(host->GetDouble("threads", 0));
  }
  if (const JsonValue* pa = doc.Find("perf_available"); pa != nullptr) {
    out->perf_available = pa->AsBool();
  }
  if (!ReadStringMap(doc, "perf", &out->perf) ||
      !ReadStringMap(doc, "metrics", &out->metrics) ||
      !ReadStringMap(doc, "rollups", &out->rollups)) {
    *error = path + ": malformed perf/metrics/rollups section";
    return false;
  }
  const JsonValue* rows = doc.Find("rows");
  if (rows == nullptr || !rows->is_object()) {
    *error = path + ": missing rows object";
    return false;
  }
  for (const auto& [series, metrics] : rows->AsObject()) {
    if (!metrics.is_object()) {
      *error = path + ": series " + series + " is not an object";
      return false;
    }
    for (const auto& [metric, value] : metrics.AsObject()) {
      if (!value.is_number()) {
        *error = path + ": " + series + "/" + metric + " is not a number";
        return false;
      }
      out->rows[series][metric] = value.AsDouble();
    }
  }
  return true;
}

CompareResult CompareArtifacts(const RunArtifact& base,
                               const RunArtifact& current,
                               const CompareOptions& opts) {
  CompareResult r;
  if (base.bench != current.bench) {
    r.errors.push_back("bench mismatch: baseline '" + base.bench +
                       "' vs current '" + current.bench + "'");
  }
  if (base.model_sf != current.model_sf) {
    r.errors.push_back("model_sf mismatch: baseline " +
                       std::to_string(base.model_sf) + " vs current " +
                       std::to_string(current.model_sf));
  }
  if (base.unit != current.unit) {
    r.errors.push_back("unit mismatch: baseline '" + base.unit +
                       "' vs current '" + current.unit + "'");
  }
  if (base.git_sha != current.git_sha) {
    r.notes.push_back("comparing " + base.git_sha + " -> " +
                      current.git_sha);
  }
  if (base.hostname != current.hostname) {
    r.notes.push_back(
        "different hosts (" + base.hostname + " vs " + current.hostname +
        "): measured metrics are not comparable, modeled ones are");
  }

  int compared = 0;
  // Measured metrics present in both artifacts: all compared when
  // --wall-tol > 0, all skipped otherwise.
  int measured_count = 0;
  // Which series were actually gated, and how many metrics in each: the
  // summary prints this so a shrinking comparison (wrong --only filter,
  // series silently dropped) is visible even when nothing regressed.
  std::map<std::string, int> compared_by_series;
  const auto selected = [&opts](const std::string& metric) {
    return opts.only.empty() || metric.find(opts.only) != std::string::npos;
  };
  for (const auto& [series, metrics] : base.rows) {
    for (const auto& [metric, base_v] : metrics) {
      if (!selected(metric)) continue;
      const double* cur_v = FindMetric(current, series, metric);
      if (cur_v == nullptr) {
        if (opts.fail_on_missing) {
          r.errors.push_back("missing in current artifact: " + series +
                             "/" + metric);
        }
        continue;
      }
      const bool measured = IsMeasuredMetric(metric);
      const double tol = measured ? opts.wall_tol : opts.rel_tol;
      if (measured) ++measured_count;
      if (measured && opts.wall_tol <= 0) continue;
      ++compared;
      ++compared_by_series[series];
      const double diff = *cur_v - base_v;
      if (std::fabs(diff) <= opts.abs_floor) continue;
      const double denom = std::max(std::fabs(base_v), opts.abs_floor);
      if (std::fabs(diff) / denom <= tol) continue;
      CompareResult::Diff d;
      d.series = series;
      d.metric = metric;
      d.base = base_v;
      d.current = *cur_v;
      d.regression = diff > 0;  // unit is seconds: higher is worse
      r.diffs.push_back(std::move(d));
    }
  }
  // Rollups (v2+) are modeled cluster aggregations: deterministic, gated
  // at rel_tol. A v1 baseline has none, so nothing is compared against it;
  // once a baseline carries them, coverage must not shrink.
  for (const auto& [name, base_v] : base.rollups) {
    if (!selected(name)) continue;
    const auto it = current.rollups.find(name);
    if (it == current.rollups.end()) {
      if (opts.fail_on_missing) {
        r.errors.push_back("missing in current artifact: rollups/" + name);
      }
      continue;
    }
    ++compared;
    ++compared_by_series["rollups"];
    const double diff = it->second - base_v;
    if (std::fabs(diff) <= opts.abs_floor) continue;
    const double denom = std::max(std::fabs(base_v), opts.abs_floor);
    if (std::fabs(diff) / denom <= opts.rel_tol) continue;
    CompareResult::Diff d;
    d.series = "rollups";
    d.metric = name;
    d.base = base_v;
    d.current = it->second;
    d.regression = diff > 0;
    r.diffs.push_back(std::move(d));
  }

  // New metrics in the current artifact are fine (coverage grew).
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "compared %d metric(s), %d measured metric(s) %s", compared,
                measured_count,
                opts.wall_tol > 0 ? "gated" : "informational (no --wall-tol)");
  r.notes.push_back(buf);
  if (compared > 0) {
    std::string by_series = "gated series:";
    for (const auto& [series, n] : compared_by_series) {
      by_series += " " + series + " (" + std::to_string(n) + ")";
    }
    r.notes.push_back(std::move(by_series));
  }
  if (!opts.only.empty()) {
    r.notes.push_back("filter --only '" + opts.only +
                      "' restricted the comparison");
  }

  for (const auto& d : r.diffs) {
    if (d.regression) {
      r.ok = false;
      break;
    }
  }
  if (!r.errors.empty()) r.ok = false;
  return r;
}

std::string CompareResult::Format() const {
  std::ostringstream out;
  for (const auto& e : errors) out << "ERROR: " << e << "\n";
  for (const auto& d : diffs) {
    char buf[220];
    const double pct =
        d.base != 0 ? 100.0 * (d.current - d.base) / std::fabs(d.base) : 0;
    std::snprintf(buf, sizeof(buf), "%s: %s/%s %.6g -> %.6g (%+.1f%%)\n",
                  d.regression ? "REGRESSION" : "improvement",
                  d.series.c_str(), d.metric.c_str(), d.base, d.current,
                  pct);
    out << buf;
  }
  for (const auto& n : notes) out << "note: " << n << "\n";
  out << (ok ? "PASS" : "FAIL") << "\n";
  return out.str();
}

bool Fail(std::string* error, const std::string& msg) {
  if (!error->empty()) *error += '\n';
  *error += msg;
  return false;
}

const double* FindMetric(const RunArtifact& a, const std::string& series,
                         const std::string& metric) {
  const auto s = a.rows.find(series);
  if (s == a.rows.end()) return nullptr;
  const auto m = s->second.find(metric);
  return m == s->second.end() ? nullptr : &m->second;
}

namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Fetches series/metric into *out, or fails naming it: chaos artifacts
// must be complete.
bool Require(const RunArtifact& a, const std::string& series,
             const std::string& metric, double* out, std::string* error) {
  const double* v = FindMetric(a, series, metric);
  if (v == nullptr) {
    return Fail(error, "series '" + series + "' misses metric '" + metric +
                           "'");
  }
  *out = *v;
  return true;
}

bool CheckSweep(const RunArtifact& a, const std::string& series,
                double min_seeds, std::string* error) {
  double v = 0;
  if (!Require(a, series, "seeds", &v, error)) return false;
  if (v < min_seeds) {
    return Fail(error, series + ": only " + Num(v) + " seeds (need >= " +
                           Num(min_seeds) + ")");
  }
  if (!Require(a, series, "checksum_mismatches", &v, error)) return false;
  if (v != 0) {
    return Fail(error, series + ": " + Num(v) +
                           " checksum mismatch(es) — answers are not "
                           "bit-identical");
  }
  // The sweep must exercise every recovery mechanism, or the "200 green
  // seeds" claim is hollow: a regression that silently disables stealing
  // (or checkpointing, or membership changes) would still pass checksums.
  for (const char* counter : {"steals", "stolen_morsels", "checkpoints",
                              "recovered_morsels", "joins", "leaves"}) {
    if (!Require(a, series, counter, &v, error)) return false;
    if (v <= 0) {
      return Fail(error, series + ": counter '" + counter +
                             "' is zero — the sweep never exercised it");
    }
  }
  return true;
}

}  // namespace

bool CheckChaosArtifact(const RunArtifact& a, std::string* error) {
  if (!CheckSweep(a, "chaos", kMinSeeds, error) ||
      !CheckSweep(a, "chaos_sf10", kMinSf10Seeds, error)) {
    return false;
  }
  // The recovery series is the point of the whole subsystem: at the tail,
  // re-executing only unacknowledged morsels (plus stealing from
  // stragglers) must beat re-running whole partitions. Strict inequality
  // at p95 and above; the median may tie (mild faults recover cheaply
  // either way).
  double fine = 0, retry = 0;
  for (const std::string p : {"p95", "p99", "max"}) {
    if (!Require(a, "recovery", "fine_" + p + "_s", &fine, error) ||
        !Require(a, "recovery", "retry_" + p + "_s", &retry, error)) {
      return false;
    }
    if (!(fine < retry)) {
      return Fail(error, "recovery: fine_" + p + "_s (" + Num(fine) +
                             ") does not beat retry_" + p + "_s (" +
                             Num(retry) + ")");
    }
  }
  if (!Require(a, "recovery", "fine_p50_s", &fine, error) ||
      !Require(a, "recovery", "retry_p50_s", &retry, error)) {
    return false;
  }
  if (fine > retry * 1.05) {
    return Fail(error, "recovery: fine-grained median is more than 5% worse "
                       "than retry (" + Num(fine) + " vs " + Num(retry) +
                       ") — checkpoint overhead regressed");
  }
  return true;
}

bool CheckStatsArtifact(const RunArtifact& a, std::string* error) {
  bool ok = true;
  const auto check = [&](bool cond, const std::string& msg) {
    if (!cond) ok = Fail(error, msg);
  };
  check(a.bench == "stats_qerror",
        "artifact bench is '" + a.bench + "', want 'stats_qerror'");

  if (a.rows.count("cardinality") == 0) {
    check(false, "artifact has no 'cardinality' series");
  } else {
    const double* mismatches =
        FindMetric(a, "cardinality", "answer_mismatches");
    check(mismatches != nullptr && *mismatches == 0,
          "cardinality.answer_mismatches must be present and 0 (got " +
              (mismatches != nullptr ? Num(*mismatches) : "none") + ")");
    for (int q = 1; q <= 22; ++q) {
      const std::string p = "Q" + std::to_string(q);
      const double* maxq = FindMetric(a, "cardinality", p + ".qerror.max");
      const double* geo = FindMetric(a, "cardinality", p + ".qerror.geomean");
      const double* est = FindMetric(a, "cardinality", p + ".ops.estimated");
      const double* rec = FindMetric(a, "cardinality", p + ".ops.recorded");
      if (maxq == nullptr || geo == nullptr || est == nullptr ||
          rec == nullptr) {
        check(false, "cardinality series is missing metrics for " + p);
        continue;
      }
      check(*est >= 1, p + ": no operators were estimated");
      check(*rec >= *est, p + ": recorded ops (" + Num(*rec) +
                              ") < estimated (" + Num(*est) + ")");
      check(*maxq >= 1 && std::isfinite(*maxq),
            p + ": qerror.max " + Num(*maxq) +
                " is not a finite value >= 1");
      check(*geo >= 1 && *geo <= *maxq + 1e-9,
            p + ": qerror.geomean " + Num(*geo) + " outside [1, max=" +
                Num(*maxq) + "]");
    }
  }

  const auto sketch = a.rows.find("sketch");
  if (sketch == a.rows.end()) {
    check(false, "artifact has no 'sketch' series");
  } else {
    int ndv_metrics = 0;
    for (const auto& [metric, value] : sketch->second) {
      if (metric.find("ndv_rel_err") != std::string::npos) {
        ++ndv_metrics;
        check(value <= kMaxNdvErr, "sketch." + metric + " = " + Num(value) +
                                       " exceeds NDV-error bound " +
                                       Num(kMaxNdvErr));
      }
      if (metric.find("quantile_rank_err") != std::string::npos) {
        check(value <= kMaxRankErr, "sketch." + metric + " = " + Num(value) +
                                        " exceeds rank-error bound " +
                                        Num(kMaxRankErr));
      }
    }
    check(ndv_metrics > 0, "sketch series has no ndv_rel_err metrics");
  }
  return ok;
}

}  // namespace wimpi::bench
