#ifndef WIMPI_BENCH_ARTIFACT_H_
#define WIMPI_BENCH_ARTIFACT_H_

#include <map>
#include <string>
#include <vector>

namespace wimpi::bench {

// Schema-versioned benchmark run artifact: the stable machine-readable
// record every runtime bench emits with --json=<path>, compared across
// commits by `wimpi_check compare`. Documented in README.md ("Benchmark
// artifacts & regression gate"). Bump kArtifactSchemaVersion on any
// incompatible change; the reader accepts every version back to
// kArtifactMinSchemaVersion (older artifacts simply lack the newer
// optional sections) and refuses anything newer than it knows.
//
// Values are grouped as series -> metric -> value (all doubles, unit
// `unit`, lower is better). Conventions:
//   * modeled runtimes: series = hardware profile ("pi3b+", "wimpi-24"),
//     metric = "Q<n>";
//   * measured host quantities: metric name contains "wall", "seconds",
//     or "speedup" — the comparer treats those as noisy and only gates
//     them when --wall-tol is set.
//
// v2 adds the optional "rollups" section: cluster-level aggregations of
// per-node scalars (DistributedRun::node_rollups merged across queries),
// e.g. "Q1.node.busy_s.skew". Deterministic (modeled), so gateable.
inline constexpr int kArtifactSchemaVersion = 2;
inline constexpr int kArtifactMinSchemaVersion = 1;

struct RunArtifact {
  int schema_version = kArtifactSchemaVersion;
  std::string bench;            // e.g. "table2_sf1"
  std::string git_sha;          // build-time sha, "unknown" outside git
  double model_sf = 0;          // scale factor the numbers are modeled at
  std::string unit = "seconds";

  // Host fingerprint (informational; comparisons never require equality).
  std::string hostname;
  int host_threads = 0;

  // Whole-run perf-counter summary (from obs::PerfCounters); values keyed
  // by PerfEventName. perf_available false = counters could not be opened
  // (the map is then empty).
  bool perf_available = false;
  std::map<std::string, double> perf;

  // Optional process metrics snapshot (obs::MetricsRegistry scalars).
  std::map<std::string, double> metrics;

  // Optional (v2+) cluster rollups: per-node scalars aggregated to
  // min/max/sum/mean/skew, keyed "Q<n>.node.<metric>.<stat>".
  std::map<std::string, double> rollups;

  std::map<std::string, std::map<std::string, double>> rows;
};

// Fills the environment-derived fields: bench name, model_sf, git sha,
// hostname, thread count, and perf availability (one cheap probe).
RunArtifact MakeArtifact(const std::string& bench, double model_sf);

// Writes `a` as pretty-stable JSON (sorted keys via std::map). Returns
// false and logs to stderr when the file cannot be written.
bool WriteArtifact(const std::string& path, const RunArtifact& a);

// Parses an artifact written by WriteArtifact. Returns false and fills
// `*error` on unreadable files, malformed JSON, or a wrong schema version.
bool ReadArtifact(const std::string& path, RunArtifact* out,
                  std::string* error);

// ---------- comparison ----------

struct CompareOptions {
  // Relative tolerance for deterministic (modeled) metrics.
  double rel_tol = 0.02;
  // Absolute floor below which differences never count (noise in values
  // that are essentially zero).
  double abs_floor = 1e-6;
  // Tolerance for measured metrics (name contains wall/seconds/speedup);
  // <= 0 leaves them informational only.
  double wall_tol = 0;
  // A series/metric present in the baseline but missing from the current
  // artifact fails the comparison (coverage must not silently shrink).
  bool fail_on_missing = true;
  // When non-empty, only metrics whose name contains this substring are
  // compared (missing-metric checks included). Lets CI gate one measured
  // metric (e.g. "mean_latency") without gating the whole artifact.
  std::string only;
};

struct CompareResult {
  struct Diff {
    std::string series;
    std::string metric;
    double base = 0;
    double current = 0;
    bool regression = false;  // worse beyond tolerance (higher = worse)
  };
  bool ok = true;  // no regressions, no structural mismatch
  std::vector<Diff> diffs;           // beyond-tolerance changes (both ways)
  std::vector<std::string> errors;   // structural problems (version, ...)
  std::vector<std::string> notes;    // informational lines

  // Human-readable multi-line summary of the comparison.
  std::string Format() const;
};

// Compares `current` against `base`. Improvements beyond tolerance are
// reported but do not fail; regressions and structural mismatches set
// ok=false (`wimpi_check compare` exits nonzero).
CompareResult CompareArtifacts(const RunArtifact& base,
                               const RunArtifact& current,
                               const CompareOptions& opts);

// ---------- checks (wimpi_check) ----------

// Appends `msg` as one line of *error and returns false: how every
// wimpi_check rule, on artifacts or traces, reports a violation.
bool Fail(std::string* error, const std::string& msg);

// The value of series/metric in `a`'s rows, or nullptr when absent.
const double* FindMetric(const RunArtifact& a, const std::string& series,
                         const std::string& metric);

// Seed floors of the chaos soak (bench_chaos --seeds 200 --sf10-seeds 16).
inline constexpr double kMinSeeds = 200;
inline constexpr double kMinSf10Seeds = 16;

// The chaos-soak artifact (bench_chaos --json): in the "chaos" and
// "chaos_sf10" series the sweep met its seed floor, every scenario gave
// the bit-identical answer (zero checksum_mismatches), and every recovery
// mechanism fired (steals, stolen_morsels, checkpoints, recovered_morsels,
// joins, leaves all nonzero); in the "recovery" series fine-grained
// recovery strictly beats whole-partition retry at p95, p99 and max, and
// its median is at most 5% above retry's. Stops at the first violation.
bool CheckChaosArtifact(const RunArtifact& a, std::string* error);

// Sketch error bounds of the plan-quality artifact: NDV relative error
// (target < 3% at the default 2^14-register HLL; the bound leaves
// headroom) and quantile rank error (one equi-depth bucket of 64 holds
// ~1.6% of the mass; a few buckets of slack for sampled builds and
// duplicate-heavy columns).
inline constexpr double kMaxNdvErr = 0.05;
inline constexpr double kMaxRankErr = 0.08;

// The plan-quality artifact (bench_stats_qerror --json): bench is
// "stats_qerror"; the "cardinality" series has answer_mismatches == 0 and,
// for each of Q1..Q22, qerror.max finite and >= 1, qerror.geomean in
// [1, max], ops.estimated >= 1 and ops.recorded >= ops.estimated; the
// "sketch" series has at least one ndv_rel_err, every ndv_rel_err is
// <= kMaxNdvErr and every quantile_rank_err <= kMaxRankErr. Reports every
// violation, one per line.
bool CheckStatsArtifact(const RunArtifact& a, std::string* error);

}  // namespace wimpi::bench

#endif  // WIMPI_BENCH_ARTIFACT_H_
