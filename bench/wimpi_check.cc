// wimpi_check: the one checker behind the CI gates (bench/CMakeLists.txt
// registers each deterministic gate as a ctest; scripts/ci.sh runs the
// host-timing ones). The first argument names the kind of check. Exit
// codes: 0 ok, 1 violation, 2 usage or read error.
//
//   wimpi_check compare <baseline.json> <current.json>
//       [--rel-tol 0.02]   relative tolerance for modeled metrics
//       [--abs-floor 1e-6] ignore absolute differences below this
//       [--wall-tol 0]     gate measured (wall/seconds/speedup) metrics;
//                          0 leaves them informational (different hosts)
//       [--allow-missing]  don't fail when baseline metrics disappeared
//       [--only <substr>]  compare only metrics whose name contains this
//
// Diffs two benchmark artifacts (the --json output of the runtime benches)
// with noise-aware thresholds (CompareArtifacts in artifact.h).
//
//   wimpi_check chaos <BENCH_chaos.json>
//   wimpi_check stats <BENCH_stats.json>
//
// The chaos-soak and plan-quality artifact rules: CheckChaosArtifact and
// CheckStatsArtifact in artifact.h.
//
//   wimpi_check cluster <trace.json>
//
// A distributed cluster trace (`bench_table3_sf10 --trace`, `bench_chaos
// --trace`): every span's parent resolves inside the same trace, retry
// attempts chain to the attempt they retried, and every flow arrow has
// both ends. Fine-grained recovery traces get three more causality
// checks: every cluster.steal instant must hang off the thief's stolen
// segment (or its partition span), every steal instant must have a
// matching victim->thief flow arrow, and per partition the cluster.ckpt
// "morsels" args must sum to the partition span's morsel count — the
// trace-level form of the checkpoint invariant (every morsel acknowledged
// exactly once).
//
//   wimpi_check flight <dump.json> [--slow-log <path>] [--expo <path>]
//                      [--min-slow N]
//
// A flight-recorder dump (`bench_throughput --flight-dump`):
//   * it contains at least one flight.query span, on the query-lane pid;
//   * per query, lifecycle instants are causally ordered
//     (submit <= admit <= finish) and fall inside that query's span;
//   * flight.pipeline spans nest inside their query's span window.
// Checks on the slow-query log (--slow-log):
//   * every line is JSON with the full resource-report key set;
//   * wall >= queue wait, cpu == driver + worker cpu, and total CPU time
//     never exceeds threads x wall (with slack for clock granularity);
//   * at least one slow query's id also appears in the dump (each trigger
//     writes its own dump file — the base path, then ".1", ".2", ... —
//     and only the base path is checked here, so later slow queries may
//     live in sibling dumps; but the checked dump must cover its trigger);
//   * at least --min-slow entries (straggler injection must be visible).
// Checks on the exposition (--expo): parses via ExpositionFormat with
// HELP/TYPE metadata, and slo.* burn-rate/attainment samples are present.
// Any timeline.* counter tracks in the dump (the triggering query's
// sampled series) must have monotone timestamps and non-negative GB/s.
//
//   wimpi_check timeline <dump.json>
//
// A roofline timeline dump (`bench_timeline --dump`):
//   * a timeline.meta instant carries the host roofline (peak_gbps > 0);
//   * each timeline.* counter track has monotone timestamps, and every
//     timeline.gbps value lies in [0, peak x 1.5] (a sampler computing
//     impossible bandwidth has broken counter differencing);
//   * Q1 and Q6 — the paper's memory-bound poster children — have a
//     timeline.query span whose modeled class is known (the cost model
//     must commit to a verdict), and no query span runs backwards;
//   * across query spans whose measured class is known, it matches the
//     modeled class on at least half of them, and the summed per-operator
//     agree/disagree tallies (each profiled operator measured over its own
//     window against the model's verdict for its own OpStats) meet the
//     same floor. On hosts without a PMU the measured side is "unknown"
//     and the floor is vacuously met.
//
// Each trace kind fails on a trace of the other two (only a cluster trace
// has cluster.attempt spans, only a flight dump flight.query spans, only
// a timeline dump a timeline.meta instant), so a refactor that silently
// drops spans or breaks causality fails the gate.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "artifact.h"
#include "common/cli.h"
#include "common/json.h"
#include "obs/export/exposition.h"
#include "obs/trace.h"

namespace {

using wimpi::JsonValue;
using wimpi::bench::Fail;
using wimpi::bench::RunArtifact;

// Tolerance for lifecycle instants vs the query span they belong to: the
// span and its events are stamped by different NowMicros() calls.
constexpr double kWindowSlackUs = 2000;
// CPU time vs threads x wall slack: CLOCK_THREAD_CPUTIME_ID granularity
// plus scheduler noise on loaded hosts.
constexpr double kCpuSlack = 1.25;
// Timeline dumps: measured GB/s may exceed the host's nominal peak by
// this factor, and measured-vs-modeled bound classes must agree on at
// least this fraction of queries / operators.
constexpr double kBandwidthTolerance = 1.5;
constexpr double kAgreeFloor = 0.5;
constexpr int kRequiredQueries[] = {1, 6};

bool ReadText(const std::string& path, std::string* text,
              std::string* error) {
  std::ifstream in(path);
  if (!in) return Fail(error, "cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  *text = buf.str();
  return true;
}

// Parses the Chrome trace at `path` into *doc and returns its traceEvents
// array, or nullptr (after Fail) when it cannot.
const JsonValue* LoadTraceEvents(const std::string& path, JsonValue* doc,
                                 std::string* error) {
  std::string text, parse_error;
  if (!ReadText(path, &text, error)) return nullptr;
  if (!JsonValue::Parse(text, doc, &parse_error)) {
    Fail(error, path + " does not parse: " + parse_error);
    return nullptr;
  }
  const JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    Fail(error, path + " has no traceEvents array");
    return nullptr;
  }
  return events;
}

uint64_t HexField(const JsonValue& args, const char* key) {
  const JsonValue* v = args.Find(key);
  if (v == nullptr || !v->is_string()) return 0;
  return std::strtoull(v->AsString().c_str(), nullptr, 16);
}

// Per timeline.* counter track (one per event name): timestamps never go
// backwards, and every timeline.gbps value lies in [0, max_gbps].
bool CheckCounterTracks(const JsonValue& events, double max_gbps,
                        int* counters, std::string* error) {
  std::map<std::string, double> last_ts;
  for (const JsonValue& e : events.AsArray()) {
    if (e.GetString("ph", "") != "C") continue;
    const std::string name = e.GetString("name", "");
    if (name.rfind("timeline.", 0) != 0) continue;
    ++*counters;
    const double ts = e.GetDouble("ts", 0);
    const auto [it, first] = last_ts.emplace(name, ts);
    if (!first && ts < it->second) {
      return Fail(error, "counter track " + name + " goes back in time at ts " +
                         std::to_string(static_cast<int64_t>(ts)));
    }
    it->second = ts;
    if (name == "timeline.gbps") {
      const JsonValue* args = e.Find("args");
      const double gbps = args != nullptr ? args->GetDouble("value", -1) : -1;
      if (gbps < 0 || gbps > max_gbps) {
        return Fail(error, std::to_string(gbps) + " GB/s at ts " +
                           std::to_string(static_cast<int64_t>(ts)) +
                           " is outside [0, " + std::to_string(max_gbps) + "]");
      }
    }
  }
  return true;
}

bool CheckClusterTrace(const std::string& path, const JsonValue& events,
                       std::string* error) {
  // Everything the fine-grained causality checks need about one span.
  struct SpanInfo {
    std::string cat;
    int partition = -1;
    int morsels = -1;
    bool stolen = false;
  };

  // First pass: collect every span id per trace (plus the category /
  // partition / morsel args the fine-grained checks consume).
  std::map<uint64_t, std::set<uint64_t>> spans_by_trace;
  std::map<std::pair<uint64_t, uint64_t>, SpanInfo> span_info;
  std::map<std::string, int> flow_sides;  // "s"/"f" balance per flow id
  // (trace, partition) -> summed cluster.ckpt morsels / partition span's
  // declared morsel count.
  std::map<std::pair<uint64_t, int>, int> ckpt_sum;
  std::map<std::pair<uint64_t, int>, int> partition_morsels;
  struct StealRef {
    uint64_t trace = 0;
    uint64_t parent = 0;
    int partition = -1;
  };
  std::vector<StealRef> steal_refs;
  int spans = 0, attempts = 0, faults = 0, steals = 0, ckpts = 0;
  int steal_flow_starts = 0;
  for (const JsonValue& e : events.AsArray()) {
    if (!e.is_object()) return Fail(error, "non-object trace event");
    const std::string ph = e.GetString("ph", "");
    if (ph == "M") continue;  // metadata
    const JsonValue* args = e.Find("args");
    const uint64_t trace = args != nullptr ? HexField(*args, "trace") : 0;
    const uint64_t span = args != nullptr ? HexField(*args, "span") : 0;
    const std::string cat = e.GetString("cat", "");
    if (span != 0) {
      spans_by_trace[trace].insert(span);
      SpanInfo info;
      info.cat = cat;
      if (args != nullptr) {
        info.partition =
            static_cast<int>(args->GetDouble("partition", -1));
        info.morsels = static_cast<int>(args->GetDouble("morsels", -1));
        const JsonValue* st = args->Find("stolen");
        info.stolen = st != nullptr && st->AsBool();
      }
      span_info[{trace, span}] = info;
      if (cat == "cluster.partition" && info.partition >= 0 &&
          info.morsels >= 0) {
        partition_morsels[{trace, info.partition}] = info.morsels;
      }
    }
    if (ph == "X") ++spans;
    if (cat == "cluster.attempt") ++attempts;
    if (cat == "cluster.fault") ++faults;
    if (cat == "cluster.steal") {
      ++steals;
      StealRef ref;
      ref.trace = trace;
      ref.parent = args != nullptr ? HexField(*args, "parent") : 0;
      ref.partition =
          args != nullptr
              ? static_cast<int>(args->GetDouble("partition", -1))
              : -1;
      steal_refs.push_back(ref);
    }
    if (cat == "cluster.ckpt" && args != nullptr) {
      ++ckpts;
      ckpt_sum[{trace, static_cast<int>(args->GetDouble("partition", -1))}] +=
          static_cast<int>(args->GetDouble("morsels", 0));
    }
    if (ph == "s" || ph == "f") {
      const JsonValue* id = e.Find("id");
      if (id == nullptr || !id->is_string()) {
        return Fail(error, "flow event without id");
      }
      flow_sides[id->AsString()] += ph == "s" ? 1 : -1;
      if (ph == "s" && e.GetString("name", "") == "steal") {
        ++steal_flow_starts;
      }
    }
  }
  if (spans == 0) return Fail(error, path + " contains no spans");
  if (attempts == 0) {
    return Fail(error, path + " contains no cluster.attempt spans");
  }

  // Second pass: every parent reference must resolve within its trace.
  int orphans = 0;
  for (const JsonValue& e : events.AsArray()) {
    const JsonValue* args = e.Find("args");
    if (args == nullptr) continue;
    const uint64_t trace = HexField(*args, "trace");
    const uint64_t parent = HexField(*args, "parent");
    if (parent == 0) continue;
    if (spans_by_trace[trace].count(parent) == 0) {
      ++orphans;
      std::fprintf(stderr,
                   "[wimpi_check] orphan: event '%s' parent %llx not in "
                   "trace %llx\n",
                   e.GetString("name", "?").c_str(),
                   static_cast<unsigned long long>(parent),
                   static_cast<unsigned long long>(trace));
    }
  }
  if (orphans > 0) {
    return Fail(error, std::to_string(orphans) +
                       " orphaned parent reference(s)");
  }
  for (const auto& [id, balance] : flow_sides) {
    if (balance != 0) return Fail(error, "unbalanced flow id " + id);
  }

  // Fine-grained causality: each steal instant hangs off the thief's
  // stolen attempt span (or the partition span when the stolen range was
  // folded into a larger segment), and each steal has its flow arrow.
  for (const StealRef& s : steal_refs) {
    const auto it = span_info.find({s.trace, s.parent});
    if (it == span_info.end()) {
      return Fail(error, "cluster.steal parent does not resolve");
    }
    const SpanInfo& parent = it->second;
    const bool ok_attempt = parent.cat == "cluster.attempt" &&
                            parent.stolen && parent.partition == s.partition;
    const bool ok_partition =
        parent.cat == "cluster.partition" && parent.partition == s.partition;
    if (!ok_attempt && !ok_partition) {
      return Fail(error, "cluster.steal for partition " +
                         std::to_string(s.partition) +
                         " hangs off a non-stolen span (cat '" + parent.cat +
                         "')");
    }
  }
  if (steals != steal_flow_starts) {
    return Fail(error, std::to_string(steals) +
                       " cluster.steal instant(s) but " +
                       std::to_string(steal_flow_starts) +
                       " steal flow arrow(s): victim->thief link missing");
  }

  // Trace-level checkpoint invariant: in a trace that checkpoints at all,
  // each partition's published morsels must sum to the partition span's
  // declared morsel count — no morsel acknowledged twice or dropped.
  for (const auto& [key, declared] : partition_morsels) {
    bool trace_has_ckpts = false;
    for (const auto& [ck_key, sum] : ckpt_sum) {
      if (ck_key.first == key.first && sum > 0) trace_has_ckpts = true;
    }
    if (!trace_has_ckpts) continue;  // retry-mode trace: no checkpoints
    const auto it = ckpt_sum.find(key);
    const int published = it == ckpt_sum.end() ? 0 : it->second;
    if (published != declared) {
      return Fail(error, "partition " + std::to_string(key.second) +
                         ": checkpoints acknowledge " +
                         std::to_string(published) +
                         " morsels, span declares " + std::to_string(declared));
    }
  }

  std::fprintf(stderr,
               "[wimpi_check] %s OK: %d spans (%d attempts, %d faults, "
               "%d steals, %d ckpts), %zu trace(s), %zu flow(s)\n",
               path.c_str(), spans, attempts, faults, steals, ckpts,
               spans_by_trace.size(), flow_sides.size());
  return true;
}

struct QueryWindow {
  double start_us = 0;
  double end_us = 0;
  bool has_span = false;
  double submit_us = -1;
  double admit_us = -1;
  double finish_us = -1;
};

bool CheckFlightDump(const std::string& path, const JsonValue& events,
                     std::set<int64_t>* dumped_queries, std::string* error) {
  // Pass 1: query spans establish each query's [submit, finish] window.
  std::map<int64_t, QueryWindow> windows;
  int query_spans = 0, pipeline_spans = 0, instants = 0;
  for (const JsonValue& e : events.AsArray()) {
    if (!e.is_object()) return Fail(error, "non-object trace event");
    if (e.GetString("cat", "") != "flight.query") continue;
    if (e.GetString("ph", "") != "X") continue;
    const JsonValue* args = e.Find("args");
    if (args == nullptr) return Fail(error, "flight.query span without args");
    const int64_t q = static_cast<int64_t>(args->GetDouble("query", -1));
    if (q < 0) return Fail(error, "flight.query span without query id");
    if (e.GetDouble("pid", 0) != wimpi::obs::kTracePidQueryLanes) {
      return Fail(error, "flight.query span of query " + std::to_string(q) +
                         " is not on the query-lane pid");
    }
    QueryWindow& w = windows[q];
    w.start_us = e.GetDouble("ts", 0);
    w.end_us = w.start_us + e.GetDouble("dur", 0);
    w.has_span = true;
    ++query_spans;
    dumped_queries->insert(q);
  }
  if (query_spans == 0) {
    return Fail(error, path + " contains no flight.query spans");
  }

  // Pass 2: instants and pipeline spans against their query's window.
  for (const JsonValue& e : events.AsArray()) {
    const std::string cat = e.GetString("cat", "");
    const JsonValue* args = e.Find("args");
    const int64_t q =
        args != nullptr ? static_cast<int64_t>(args->GetDouble("query", 0))
                        : 0;
    if (q > 0) dumped_queries->insert(q);
    if (cat == "flight.event") {
      ++instants;
      const auto it = windows.find(q);
      // Events for queries whose span fell outside the dump window (e.g.
      // still running at dump time) have nothing to check against.
      if (it == windows.end() || !it->second.has_span) continue;
      const double ts = e.GetDouble("ts", 0);
      QueryWindow& w = it->second;
      const std::string name = e.GetString("name", "");
      // Lifecycle events must fall inside the span they define.
      if (name == "query.submit" || name == "query.admit" ||
          name == "query.finish" || name == "queue.enter" ||
          name == "morsel.batch" || name == "pipeline") {
        if (ts < w.start_us - kWindowSlackUs ||
            ts > w.end_us + kWindowSlackUs) {
          return Fail(error, "event '" + name + "' of query " +
                             std::to_string(q) + " at ts " +
                             std::to_string(ts) + " outside its span [" +
                             std::to_string(w.start_us) + ", " +
                             std::to_string(w.end_us) + "]");
        }
      }
      if (name == "query.submit") w.submit_us = ts;
      if (name == "query.admit") w.admit_us = ts;
      if (name == "query.finish" || name == "query.reject" ||
          name == "query.cancel_queued") {
        w.finish_us = ts;
      }
    } else if (cat == "flight.pipeline" && e.GetString("ph", "") == "X") {
      ++pipeline_spans;
      const auto it = windows.find(q);
      if (it == windows.end() || !it->second.has_span) continue;
      const double ts = e.GetDouble("ts", 0);
      const double end = ts + e.GetDouble("dur", 0);
      if (ts < it->second.start_us - kWindowSlackUs ||
          end > it->second.end_us + kWindowSlackUs) {
        return Fail(error, "pipeline span of query " + std::to_string(q) +
                           " escapes its query span");
      }
    }
  }

  // Causal order per query: submit <= admit <= finish for every query
  // whose lifecycle is fully inside the dump.
  for (const auto& [q, w] : windows) {
    if (w.submit_us >= 0 && w.admit_us >= 0 && w.admit_us < w.submit_us) {
      return Fail(error, "query " + std::to_string(q) +
                         " admitted before submit");
    }
    if (w.admit_us >= 0 && w.finish_us >= 0 && w.finish_us < w.admit_us) {
      return Fail(error, "query " + std::to_string(q) +
                         " finished before admit");
    }
    if (w.submit_us >= 0 && w.finish_us >= 0 && w.finish_us < w.submit_us) {
      return Fail(error, "query " + std::to_string(q) +
                         " finished before submit");
    }
  }

  int counters = 0;
  if (!CheckCounterTracks(events, std::numeric_limits<double>::infinity(),
                          &counters, error)) {
    return false;
  }

  std::fprintf(stderr,
               "[wimpi_check] %s OK: %d query span(s), %d pipeline "
               "span(s), %d instant(s), %d counter(s)\n",
               path.c_str(), query_spans, pipeline_spans, instants, counters);
  return true;
}

bool CheckTimelineDump(const std::string& path, const JsonValue& events,
                       std::string* error) {
  struct Summary {
    std::string modeled;
    std::string measured;
    int agree = 0;
    int disagree = 0;
  };
  double peak_gbps = -1;
  std::map<int, Summary> summaries;
  for (const JsonValue& e : events.AsArray()) {
    if (!e.is_object()) return Fail(error, "non-object trace event");
    const std::string ph = e.GetString("ph", "");
    const JsonValue* args = e.Find("args");
    if (ph == "i" && e.GetString("name", "") == "timeline.meta") {
      peak_gbps = args != nullptr ? args->GetDouble("peak_gbps", -1) : -1;
      if (peak_gbps <= 0) {
        return Fail(error, "timeline.meta has no positive peak_gbps");
      }
    } else if (ph == "X" && e.GetString("cat", "") == "timeline.query") {
      const int q = args != nullptr
                        ? static_cast<int>(args->GetDouble("q", -1))
                        : -1;
      if (q < 1) return Fail(error, "timeline.query span without query number");
      if (e.GetDouble("dur", 0) < 0) {
        return Fail(error, "Q" + std::to_string(q) + ": span runs backwards");
      }
      Summary& s = summaries[q];
      s.modeled = args->GetString("modeled", "unknown");
      s.measured = args->GetString("measured", "unknown");
      s.agree = static_cast<int>(args->GetDouble("agree", 0));
      s.disagree = static_cast<int>(args->GetDouble("disagree", 0));
    }
  }
  if (peak_gbps <= 0) {
    return Fail(error, path + " has no timeline.meta instant");
  }
  int counters = 0;
  if (!CheckCounterTracks(events, peak_gbps * kBandwidthTolerance,
                          &counters, error)) {
    return false;
  }

  for (const int q : kRequiredQueries) {
    const auto it = summaries.find(q);
    if (it == summaries.end()) {
      return Fail(error, "required query Q" + std::to_string(q) +
                         " has no timeline.query span");
    }
    if (it->second.modeled == "unknown") {
      return Fail(error, "Q" + std::to_string(q) +
                         ": cost model did not commit to a bound class");
    }
  }
  int known = 0, matched = 0, agree = 0, disagree = 0;
  for (const auto& [q, s] : summaries) {
    agree += s.agree;
    disagree += s.disagree;
    if (s.measured == "unknown") continue;
    ++known;
    if (s.measured == s.modeled) ++matched;
  }
  if (known > 0 && static_cast<double>(matched) / known < kAgreeFloor) {
    return Fail(error, "measured bound class agrees with the model on only " +
                       std::to_string(matched) + "/" + std::to_string(known) +
                       " queries (floor " + std::to_string(kAgreeFloor) + ")");
  }
  if (agree + disagree > 0 &&
      static_cast<double>(agree) / (agree + disagree) < kAgreeFloor) {
    return Fail(error, "per-operator agreement " + std::to_string(agree) + "/" +
                       std::to_string(agree + disagree) +
                       " is below the floor");
  }

  std::fprintf(stderr,
               "[wimpi_check] %s OK: %zu query span(s), %d counter(s), "
               "%d measured-class quer(ies)\n",
               path.c_str(), summaries.size(), counters, known);
  return true;
}

bool CheckSlowLog(const std::string& path, const std::string& text,
                  int min_slow, const std::set<int64_t>& dumped_queries,
                  std::string* error) {
  std::istringstream in(text);
  std::string line;
  int n = 0;
  int in_dump = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++n;
    JsonValue doc;
    std::string parse_error;
    if (!JsonValue::Parse(line, &doc, &parse_error)) {
      return Fail(error, path + " line " + std::to_string(n) +
                         " does not parse: " + parse_error);
    }
    for (const char* key :
         {"ts_us", "query", "label", "status", "trigger", "wall_us",
          "queue_wait_us", "exec_us", "cpu_us", "driver_cpu_us",
          "worker_cpu_us", "pipelines", "tasks", "rows", "threads"}) {
      if (doc.Find(key) == nullptr) {
        return Fail(error, path + " line " + std::to_string(n) + " misses '" +
                           std::string(key) + "'");
      }
    }
    const double wall = doc.GetDouble("wall_us", 0);
    const double queue_wait = doc.GetDouble("queue_wait_us", 0);
    const double cpu = doc.GetDouble("cpu_us", 0);
    const double driver = doc.GetDouble("driver_cpu_us", 0);
    const double worker = doc.GetDouble("worker_cpu_us", 0);
    const double threads = doc.GetDouble("threads", 1);
    if (queue_wait > wall) {
      return Fail(error, path + " line " + std::to_string(n) +
                         ": queue wait exceeds wall time");
    }
    if (cpu != driver + worker) {
      return Fail(error, path + " line " + std::to_string(n) +
                         ": cpu_us != driver_cpu_us + worker_cpu_us");
    }
    // A query cannot burn more CPU than all its threads running for its
    // whole wall time (the accounting would be double-counting).
    if (cpu > threads * wall * kCpuSlack + 1000) {
      return Fail(error, path + " line " + std::to_string(n) + ": cpu " +
                         std::to_string(cpu) + "us exceeds " +
                         std::to_string(threads) + " threads x wall " +
                         std::to_string(wall) + "us");
    }
    const int64_t q = static_cast<int64_t>(doc.GetDouble("query", 0));
    if (dumped_queries.count(q) != 0) ++in_dump;
  }
  // Each trigger writes its own dump (base path, then ".1", ".2", ...);
  // only the base dump was parsed, so later slow queries may live in
  // sibling dumps — but at least one entry must appear in the checked
  // dump (a dump containing none of them means the trigger dumped the
  // wrong window).
  if (n > 0 && in_dump == 0) {
    return Fail(error, "no slow query has events in the flight dump");
  }
  if (n < min_slow) {
    return Fail(error, path + " has " + std::to_string(n) +
                       " entr(ies), expected " + std::to_string(min_slow) +
                       "+");
  }
  std::fprintf(stderr, "[wimpi_check] %s OK: %d slow quer(ies)\n",
               path.c_str(), n);
  return true;
}

bool CheckExposition(const std::string& path, const std::string& text,
                     std::string* error) {
  std::vector<wimpi::obs::ExpositionSample> samples;
  std::map<std::string, wimpi::obs::ExpositionMeta> meta;
  std::string parse_error;
  if (!wimpi::obs::ExpositionFormat::Parse(text, &samples, &meta,
                                           &parse_error)) {
    return Fail(error, path + " does not parse: " + parse_error);
  }
  int slo = 0, helped = 0;
  bool burn = false, attain = false;
  for (const auto& s : samples) {
    if (s.name.rfind("wimpi_slo_", 0) == 0) {
      ++slo;
      if (s.name.find("burn_rate") != std::string::npos) burn = true;
      if (s.name.find("attainment") != std::string::npos) attain = true;
    }
  }
  for (const auto& [name, m] : meta) {
    (void)name;
    if (!m.help.empty() && !m.type.empty()) ++helped;
  }
  if (slo == 0) return Fail(error, path + " has no slo.* samples");
  if (!burn) return Fail(error, path + " has no SLO burn-rate sample");
  if (!attain) return Fail(error, path + " has no SLO attainment sample");
  if (helped == 0) return Fail(error, path + " has no HELP/TYPE metadata");
  std::fprintf(stderr,
               "[wimpi_check] %s OK: %zu sample(s), %d slo sample(s), "
               "%d documented famil(ies)\n",
               path.c_str(), samples.size(), slo, helped);
  return true;
}

constexpr char kUsage[] =
    "usage: wimpi_check compare <baseline.json> <current.json> "
    "[--rel-tol 0.02] [--wall-tol 0] [--abs-floor 1e-6] [--allow-missing] "
    "[--only <substr>]\n"
    "       wimpi_check cluster <trace.json>\n"
    "       wimpi_check flight <dump.json> [--slow-log <path>] "
    "[--expo <path>] [--min-slow N]\n"
    "       wimpi_check timeline <dump.json>\n"
    "       wimpi_check chaos <BENCH_chaos.json>\n"
    "       wimpi_check stats <BENCH_stats.json>\n";

// Runs check `kind` on the files named in `args`. Returns 0/1 like the
// exit code, or 2 (with *error set) when an input cannot be read.
int RunCheck(const std::string& kind, const std::vector<std::string>& args,
             const wimpi::CommandLine& cli, std::string* error) {
  if (kind == "compare") {
    wimpi::bench::CompareOptions opts;
    opts.rel_tol = cli.GetDouble("rel-tol", opts.rel_tol);
    opts.abs_floor = cli.GetDouble("abs-floor", opts.abs_floor);
    opts.wall_tol = cli.GetDouble("wall-tol", opts.wall_tol);
    opts.fail_on_missing = !cli.GetBool("allow-missing", false);
    opts.only = cli.GetString("only", "");
    RunArtifact base, current;
    if (!wimpi::bench::ReadArtifact(args[1], &base, error) ||
        !wimpi::bench::ReadArtifact(args[2], &current, error)) {
      return 2;
    }
    const wimpi::bench::CompareResult result =
        wimpi::bench::CompareArtifacts(base, current, opts);
    std::printf("%s", result.Format().c_str());
    if (result.ok) return 0;
    Fail(error, "artifacts differ beyond tolerance");
    return 1;
  }
  if (kind == "chaos" || kind == "stats") {
    RunArtifact a;
    if (!wimpi::bench::ReadArtifact(args[1], &a, error)) return 2;
    const bool ok = kind == "chaos"
                        ? wimpi::bench::CheckChaosArtifact(a, error)
                        : wimpi::bench::CheckStatsArtifact(a, error);
    return ok ? 0 : 1;
  }

  JsonValue doc;
  const JsonValue* events = LoadTraceEvents(args[1], &doc, error);
  if (events == nullptr) return 2;
  if (kind == "cluster") {
    return CheckClusterTrace(args[1], *events, error) ? 0 : 1;
  }
  if (kind == "timeline") {
    return CheckTimelineDump(args[1], *events, error) ? 0 : 1;
  }

  // flight
  const std::string slow_path = cli.GetString("slow-log", "");
  const std::string expo_path = cli.GetString("expo", "");
  const int min_slow = static_cast<int>(cli.GetInt("min-slow", 1));
  std::string slow_text, expo_text;
  if ((!slow_path.empty() && !ReadText(slow_path, &slow_text, error)) ||
      (!expo_path.empty() && !ReadText(expo_path, &expo_text, error))) {
    return 2;
  }
  std::set<int64_t> dumped_queries;
  const bool ok =
      CheckFlightDump(args[1], *events, &dumped_queries, error) &&
      (slow_path.empty() ||
       CheckSlowLog(slow_path, slow_text, min_slow, dumped_queries,
                    error)) &&
      (expo_path.empty() || CheckExposition(expo_path, expo_text, error));
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const wimpi::CommandLine cli(argc, argv);
  const std::vector<std::string>& args = cli.positional();
  const std::string kind = args.empty() ? "" : args[0];
  const std::set<std::string> one_file = {"chaos", "stats", "cluster",
                                          "flight", "timeline"};
  if (!(kind == "compare" && args.size() == 3) &&
      !(one_file.count(kind) != 0 && args.size() == 2)) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  std::string error;
  const int code = RunCheck(kind, args, cli, &error);
  if (code != 0) {
    std::fprintf(stderr, "[wimpi_check] %s %s: %s\n", kind.c_str(),
                 code == 2 ? "cannot read input" : "FAIL", error.c_str());
  } else if (kind != "compare") {
    std::fprintf(stderr, "[wimpi_check] %s %s OK\n", kind.c_str(),
                 args[1].c_str());
  }
  return code;
}
