// bench_perf: the measured benchmark of the engine, end to end and per
// layer. README.md in this directory defines the workloads, every metric,
// the layer -> end-to-end map and how self time is computed.
//
//   bench_perf --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//              [--spans <path>] [--sf <sf>] [--laps <n>] [--answers <path>]
//              [--record-answers]
//
// --trace 0 measures the end-to-end metrics. --trace 1 is a separate run
// that measures the per-layer split: it records spans around every call
// into a layer, imports the profiler's operator tree under each query,
// runs the layer probes, and writes the spans as JSONL (--spans; default
// next to the binary) when the run ends. Every answer is checksummed and
// compared against the answers file (--answers; default
// expected_answers.json), or against the first lap when the file has no
// entry for this (sf, seed, threads) or --record-answers replaces it.
// Query latencies and set-up times are reported at a nominal host speed
// (host_speed.h), and the process keeps the memory it frees
// (RetainFreedMemory), so that runs of the same code agree.
//
// Output: one config line, one "name value unit" line per metric, and as
// the last line a JSON object {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. A completed run exits 0 whether
// or not the answers were correct; bad flags exit 2, setup errors 1.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/status.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "exec/exec_options.h"
#include "host_speed.h"
#include "obs/flight/flight_recorder.h"
#include "obs/profiler.h"
#include "parallel/pipeline.h"
#include "probes.h"
#include "service/admission.h"
#include "service/query_service.h"
#include "spans.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wimpi::perf {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 19921201;
constexpr int kNumQueries = 22;
// Set-up runs at least kSetups times and for at least kSetupSeconds, and
// its median is reported, so that set-up time is as steady as the query
// metrics even where one set-up takes a fraction of a second.
constexpr int kSetups = 3;
constexpr double kSetupSeconds = 2;
constexpr int64_t kMorselRows = 64 * 1024;
// streams_*: closed-loop clients sharing one service, and the service's
// concurrency. kStreamClients client threads block in Wait(); at most
// kMaxActive x threads query threads run, which is nproc = 4.
constexpr int kStreamClients = 4;
constexpr int kMaxActive = 2;
// The paper's 1 GB wimpy node holds SF 1; the budget scales with the
// physical SF so admission binds the way it does on those nodes.
constexpr double kBudgetBytesPerSf = 1024.0 * 1024 * 1024;
constexpr double kNoWaitSeconds = 1e-3;

enum class Kind { kPower, kStreams };

struct Workload {
  const char* name;
  Kind kind;
  double sf;
  int threads;     // per query
  int min_laps;    // timed laps at least, however short --seconds is
};

constexpr Workload kWorkloads[] = {
    {"power_sf025_t1", Kind::kPower, 0.25, 1, 3},
    {"power_sf025_t4", Kind::kPower, 0.25, 4, 3},
    {"streams_sf01", Kind::kStreams, 0.1, 2, 1},
    {"cached_sf005_t4", Kind::kPower, 0.05, 4, 3},
};

struct Config {
  const Workload* w = nullptr;
  uint64_t seed = kDefaultSeed;
  double seconds = 20;
  bool trace = false;
  std::string spans;
  double sf = 0;
  int min_laps = 0;
  std::string answers = WIMPI_PERF_ANSWERS;
  bool record_answers = false;
};

// ---------------------------------------------------------------- CLI

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseNonNegative(const std::string& s, double* out) {
  if (s.empty() || !(std::isdigit(static_cast<unsigned char>(s[0])) ||
                     s[0] == '.')) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(v) || v < 0) return false;
  *out = v;
  return true;
}

// Strict: every flag is known and given once, every number parses whole.
bool ParseArgs(int argc, char** argv, Config* cfg, std::string* err) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      *err = "unexpected argument '" + arg + "'";
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "record-answers") {
      if (i + 1 >= argc) {
        *err = "--" + arg + " needs a value";
        return false;
      }
      value = argv[++i];
    }
    if (!flags.emplace(arg, value).second) {
      *err = "--" + arg + " given twice";
      return false;
    }
  }
  for (const auto& [k, v] : flags) {
    bool ok = true;
    if (k == "workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) cfg->w = &w;
      }
      if (cfg->w == nullptr) {
        *err = "unknown workload '" + v + "'; one of:";
        for (const Workload& w : kWorkloads) *err += std::string(" ") + w.name;
        return false;
      }
    } else if (k == "seed") {
      ok = ParseU64(v, &cfg->seed);
    } else if (k == "seconds") {
      ok = ParseNonNegative(v, &cfg->seconds);
    } else if (k == "trace") {
      ok = v == "0" || v == "1";
      cfg->trace = v == "1";
    } else if (k == "spans") {
      ok = !v.empty();
      cfg->spans = v;
    } else if (k == "sf") {
      // Generated data takes about 1.5 GB of memory per unit of SF.
      ok = ParseNonNegative(v, &cfg->sf) && cfg->sf > 0 && cfg->sf <= 10;
    } else if (k == "laps") {
      uint64_t laps = 0;
      ok = ParseU64(v, &laps) && laps >= 1 && laps <= 100000;
      cfg->min_laps = static_cast<int>(laps);
    } else if (k == "answers") {
      ok = !v.empty();
      cfg->answers = v;
    } else if (k == "record-answers") {
      ok = v.empty();
      cfg->record_answers = true;
    } else {
      *err = "unknown flag --" + k;
      return false;
    }
    if (!ok) {
      *err = "bad value for --" + k + ": '" + v + "'";
      return false;
    }
  }
  if (cfg->w == nullptr) {
    *err = "--workload is required";
    return false;
  }
  if (cfg->sf == 0) cfg->sf = cfg->w->sf;
  if (cfg->min_laps == 0) cfg->min_laps = cfg->w->min_laps;
  return true;
}

// ---------------------------------------------------------------- host

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Peak resident set (VmHWM) in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

// Makes the process keep and reuse every page it has touched. By default
// glibc hands large blocks back to the kernel and moves its mmap threshold
// with the sizes it has freed, so whether a query's intermediates land on
// fresh pages, and pay a page fault per 4 KiB, differs from process to
// process: at SF 0.25 on 4 threads, Q1, Q8, Q9 and Q17 ran 1.8x slower in
// 3 of 8 runs. With the pages kept, that cost is paid once, in set-up and
// warm-up, and runs measure the same thing.
void RetainFreedMemory() {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
}

std::string ExeDir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<size_t>(n));
  return path.substr(0, path.rfind('/'));
}

// ---------------------------------------------------------------- stats

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear interpolation between closest ranks (numpy's default).
double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// (query, wall seconds) of the executions in one lap or streams round.
using LapTimes = std::vector<std::pair<int, double>>;

// Latencies of one measured phase.
struct Latencies {
  std::map<int, std::vector<double>> by_query;  // at the nominal host speed
  std::vector<double> wall_all;  // every execution, wall seconds
  double wall = 0;               // of the whole phase

  // `factor` is HostSpeed::Scale() for the lap.
  void AddLap(const LapTimes& lap, double factor) {
    for (const auto& [q, s] : lap) {
      by_query[q].push_back(s * factor);
      wall_all.push_back(s);
    }
  }
  // Each query's typical latency: the geometric mean of its executions. On
  // streams a query's latencies split into executions that queued and
  // those that did not, and a median jumps between the two groups from run
  // to run; a mean of logs moves only with their proportion.
  std::map<int, double> PerQuery() const {
    std::map<int, double> out;
    for (const auto& [q, v] : by_query) out[q] = GeoMean(v);
    return out;
  }
  // One lap at typical speed.
  double Total() const {
    double t = 0;
    for (const auto& [q, s] : PerQuery()) t += s;
    return t;
  }
  // Over the queries (TPC-H Power style).
  double Geomean() const {
    std::vector<double> v;
    for (const auto& [q, s] : PerQuery()) v.push_back(s);
    return GeoMean(v);
  }
};

// ---------------------------------------------------------------- answers

// "q<n>": query n's name in labels, answer files and metric names.
std::string QueryLabel(int q) {
  return std::string("q").append(std::to_string(q));
}

using Answers = std::map<int, uint64_t>;

std::string AnswerKey(double sf, uint64_t seed, int threads) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "sf=%g seed=%llu threads=%d", sf,
                static_cast<unsigned long long>(seed), threads);
  return buf;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool ReadAnswerFile(const std::string& path, JsonValue* doc,
                    std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot read " + path;
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  if (!JsonValue::Parse(ss.str(), doc, err) || !doc->is_object()) {
    *err = path + ": " + (err->empty() ? "not a JSON object" : *err);
    return false;
  }
  return true;
}

// Expected checksums for `key`; empty when the file has no entry for it.
bool LoadAnswers(const std::string& path, const std::string& key,
                 Answers* out, std::string* err) {
  JsonValue doc;
  if (!ReadAnswerFile(path, &doc, err)) return false;
  const JsonValue* entry = doc.Find(key);
  if (entry == nullptr) return true;
  for (int q = 1; q <= kNumQueries; ++q) {
    const std::string hex = entry->GetString(QueryLabel(q), "");
    char* end = nullptr;
    const unsigned long long v = std::strtoull(hex.c_str(), &end, 16);
    if (hex.size() != 16 || *end != '\0') {
      *err = path + ": bad checksum for " + QueryLabel(q) + " in " + key;
      return false;
    }
    (*out)[q] = v;
  }
  return true;
}

// Replaces `key`'s entry in the answer file, one entry per line.
bool RecordAnswers(const std::string& path, const std::string& key,
                   const Answers& answers, std::string* err) {
  JsonValue doc;
  if (!ReadAnswerFile(path, &doc, err)) return false;
  std::map<std::string, std::string> lines;
  for (const auto& [k, v] : doc.AsObject()) {
    JsonWriter w;
    w.BeginObject();
    for (const auto& [qk, qv] : v.AsObject()) w.Key(qk).String(qv.AsString());
    w.EndObject();
    lines[k] = w.str();
  }
  JsonWriter w;
  w.BeginObject();
  for (const auto& [q, sum] : answers) w.Key(QueryLabel(q)).String(Hex(sum));
  w.EndObject();
  lines[key] = w.str();
  std::ofstream out(path);
  out << "{\n";
  size_t i = 0;
  for (const auto& [k, v] : lines) {
    out << "  \"" << JsonEscape(k) << "\": " << v
        << (++i < lines.size() ? ",\n" : "\n");
  }
  out << "}\n";
  out.flush();
  if (!out) {
    *err = "cannot write " + path;
    return false;
  }
  return true;
}

// Compares every answer against the expected checksums, or against the
// first answer seen for that query. Thread-safe (stream clients share it).
class AnswerCheck {
 public:
  explicit AnswerCheck(Answers expected) : ref_(std::move(expected)) {}

  void Check(int q, const exec::Relation& r, const char* where) {
    const uint64_t sum = bench::RelationChecksum(r);
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    const auto [it, inserted] = ref_.emplace(q, sum);
    if (!inserted && it->second != sum) {
      ++failed_;
      std::fprintf(stderr, "WRONG ANSWER: q%d (%s) checksum %s, expected %s\n",
                   q, where, Hex(sum).c_str(), Hex(it->second).c_str());
    }
  }
  void Fail(int q, const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    ++failed_;
    std::fprintf(stderr, "FAILED: q%d: %s\n", q, why.c_str());
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const Answers& reference() const { return ref_; }

 private:
  std::mutex mu_;
  Answers ref_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---------------------------------------------------------------- runs

auto Plan(const engine::Database& db, int q) {
  return [&db, q](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); };
}

// Counts the pipelines (and their morsels) a plan hands to the scheduler.
class CountingScheduler : public parallel::PipelineScheduler {
 public:
  void RunPipeline(const parallel::PipelineSpec& spec) override {
    ++pipelines;
    morsels += (spec.total_rows + spec.morsel_rows - 1) / spec.morsel_rows;
    parallel::PipelineScheduler::Default().RunPipeline(spec);
  }
  int64_t pipelines = 0;
  int64_t morsels = 0;
};

// What profiled runs leave behind besides their spans.
struct ProfiledExtras {
  std::map<int, int64_t> estimate;  // EstimateWorkingSetBytes per query
  int laps = 0;
  int queries = 0;
};

// One lap of Q1..Q22 under a "lap" span. With `extras`, every query runs
// under the profiler and its operator tree is imported into `log`.
LapTimes RunLap(const engine::Executor& ex, const engine::Database& db,
                AnswerCheck* check, SpanLog* log, int64_t parent,
                ProfiledExtras* extras) {
  LapTimes times;
  SpanScope lap_span(log, "lap", parent);
  for (int q = 1; q <= kNumQueries; ++q) {
    const int64_t span =
        log != nullptr ? log->Begin("query", lap_span.id()) : 0;
    exec::Relation r;
    obs::QueryProfile profile;
    exec::QueryStats stats;
    const auto t0 = Clock::now();
    if (extras != nullptr) {
      r = ex.RunProfiled(Plan(db, q), obs::ProfileOptions{}, &profile,
                         &stats, QueryLabel(q));
    } else {
      r = ex.Run(Plan(db, q));
    }
    times.emplace_back(q, Seconds(t0));
    if (log != nullptr) {
      log->End(span, {{"q", q}});
      if (extras != nullptr) log->ImportProfile(profile, span);
    }
    if (extras != nullptr) {
      extras->estimate[q] = service::EstimateWorkingSetBytes(stats);
      ++extras->queries;
    }
    check->Check(q, r, "lap");
  }
  if (extras != nullptr) ++extras->laps;
  return times;
}

// Runs laps until `min_laps` laps are done and `seconds` have passed,
// timing the host's speed between laps.
Latencies RunLaps(const engine::Executor& ex, const engine::Database& db,
                  double seconds, int min_laps, HostSpeed* speed,
                  AnswerCheck* check, SpanLog* log, int64_t parent,
                  ProfiledExtras* extras) {
  Latencies lat;
  speed->Mark();
  const auto start = Clock::now();
  for (int lap = 0; lap < min_laps || Seconds(start) < seconds; ++lap) {
    const LapTimes times = RunLap(ex, db, check, log, parent, extras);
    lat.AddLap(times, speed->Scale());
  }
  lat.wall = Seconds(start);
  return lat;
}

// Executions through a QueryService, with what their tickets report.
struct ServiceRun {
  Latencies latency;
  std::vector<double> queue_s, exec_s;
  double cpu_s = 0, worker_cpu_s = 0;
  int64_t completed = 0, pipelines = 0, tasks = 0, flight_records = 0;
};

using QueryOrder = std::function<std::vector<int>(int client, int round)>;

// `clients` closed-loop sessions on one service, in rounds: in a round
// every client runs the 22 queries once, in the order `order(c, round)`,
// waiting for each reply before it submits the next, and the round ends
// when all have finished (a TPC-H throughput test). Rounds repeat until
// `min_rounds` are done and `seconds` have passed; the host's speed is
// timed between rounds, with the service idle.
ServiceRun RunClients(service::QueryService* svc, const engine::Database& db,
                      int clients, const QueryOrder& order, double seconds,
                      int min_rounds,
                      const std::map<int, int64_t>& estimate,
                      HostSpeed* speed, AnswerCheck* check, SpanLog* log,
                      int64_t parent) {
  ServiceRun run;
  std::mutex mu;
  const int64_t records0 =
      obs::flight::FlightRecorder::Global().TotalRecorded();
  speed->Mark();
  const auto start = Clock::now();
  for (int round = 0; round < min_rounds || Seconds(start) < seconds;
       ++round) {
    LapTimes times;
    {
      SpanScope round_span(log, "round", parent);
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          const int tid = c + 1;
          service::ClientSession session(
              svc, std::string("client").append(std::to_string(c)));
          SpanScope client_span(log, "client", round_span.id(), tid);
          for (const int q : order(c, round)) {
            SpanScope query_span(log, "query", client_span.id(), tid);
            service::QuerySpec spec;
            spec.label = QueryLabel(q);
            spec.plan = Plan(db, q);
            spec.estimated_bytes = estimate.at(q);
            const auto t0 = Clock::now();
            service::QueryTicket ticket;
            {
              SpanScope s(log, "submit", query_span.id(), tid);
              ticket = session.Submit(std::move(spec));
            }
            Status status;
            {
              SpanScope s(log, "wait", query_span.id(), tid);
              status = ticket.Wait();
            }
            const double latency = Seconds(t0);
            if (!status.ok()) {
              check->Fail(q, status.ToString());
              continue;
            }
            check->Check(q, ticket.TakeResult(), "service");
            const auto& res = ticket.resources();
            query_span.Attr("q", q);
            query_span.Attr("queue_wait_us",
                            static_cast<double>(res.queue_wait_us));
            query_span.Attr("exec_us", static_cast<double>(res.exec_us));
            std::lock_guard<std::mutex> lock(mu);
            times.emplace_back(q, latency);
            run.queue_s.push_back(res.queue_wait_us * 1e-6);
            run.exec_s.push_back(res.exec_us * 1e-6);
            run.cpu_s += res.cpu_us * 1e-6;
            run.worker_cpu_s += res.worker_cpu_us * 1e-6;
            run.pipelines += ticket.pipelines();
            run.tasks += ticket.tasks();
            ++run.completed;
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    run.latency.AddLap(times, speed->Scale());
  }
  run.latency.wall = Seconds(start);
  run.flight_records =
      obs::flight::FlightRecorder::Global().TotalRecorded() - records0;
  return run;
}

std::vector<int> AllQueries() {
  std::vector<int> qs(kNumQueries);
  std::iota(qs.begin(), qs.end(), 1);
  return qs;
}

// Client c's query order in round `round`: a Fisher-Yates shuffle seeded
// by (seed, c, round).
std::vector<int> StreamOrder(uint64_t seed, int client, int round) {
  std::vector<int> qs = AllQueries();
  Rng rng(seed * 0x9E3779B97F4A7C15ull +
          static_cast<uint64_t>(client) * 0x100000001B3ull +
          static_cast<uint64_t>(round) + 1);
  for (size_t i = qs.size() - 1; i > 0; --i) {
    const int64_t j = rng.Uniform(0, static_cast<int64_t>(i));
    std::swap(qs[i], qs[static_cast<size_t>(j)]);
  }
  return qs;
}

// ---------------------------------------------------------------- metrics

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"}, {"geomean_s", "s"}, {"peak_rss_mb", "MB"}};
  return defs;
}

// Operator scope names (obs::OpScope) folded into classes. Unlisted scopes
// are expression and scalar kernels.
const char* OpClass(const std::string& scope) {
  static const std::map<std::string, const char*> classes = {
      {"HashAggregate", "hash_aggregate"},
      {"Gather", "gather"},
      {"GatherColumns", "gather"},
      {"GatherWithDefault", "gather"},
      {"hash_probe", "hash_probe"},
      {"hash_build", "hash_build"},
      {"HashJoin", "hash_join"},
      {"Filter", "filter"},
      {"UnionSel", "filter"},
      {"FilterColCmpCol", "filter_cmp_col"},
      {"SortPerm", "sort"},
      {"SortRelation", "sort"}};
  const auto it = classes.find(scope);
  return it != classes.end() ? it->second : "expr";
}

const char* const kSelfClasses[] = {
    "hash_aggregate", "gather", "hash_probe", "hash_build", "hash_join",
    "filter",         "filter_cmp_col", "sort", "expr", "plan_glue"};
const char* const kRateClasses[] = {"hash_aggregate", "gather", "hash_probe",
                                    "hash_build", "filter"};
const char* const kModelClasses[] = {"hash_aggregate", "gather", "hash_probe",
                                     "filter"};
const char* const kKernels[] = {"filter", "agg_lowcard", "agg_highcard",
                                "join_probe", "gather", "sort"};

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {{"tpch.gen.orders_lineitem_s", "s"},
                                {"tpch.gen.other_s", "s"}};
    for (int q = 1; q <= kNumQueries; ++q) {
      d.push_back({"tpch." + QueryLabel(q) + "_s", "s"});
    }
    d.push_back({"storage.table_mb", "MB"});
    for (const char* c : kSelfClasses) {
      d.push_back({std::string("exec.") + c + ".self_s", "s"});
    }
    for (const char* c : kRateClasses) {
      d.push_back({std::string("exec.") + c + ".ns_per_row", "ns"});
      d.push_back({std::string("exec.") + c + ".gbps", "GB/s"});
    }
    for (const char* k : kKernels) {
      d.push_back({std::string("exec.kernel.") + k + "_ns_per_row", "ns"});
    }
    d.push_back({"exec.op_covered_frac", "ratio"});
    for (const MetricDef& m : std::vector<MetricDef>{
             {"parallel.dispatch_us_per_pipeline", "us"},
             {"parallel.dispatch_ns_per_morsel", "ns"},
             {"parallel.serial_frac", "ratio"},
             {"parallel.pipelines_per_query", "count"},
             {"parallel.morsels_per_query", "count"},
             {"service.qps", "1/s"},
             {"service.queue_wait_mean_s", "s"},
             {"service.queue_frac", "ratio"},
             {"service.exec_p50_s", "s"},
             {"service.exec_p90_s", "s"},
             {"service.no_wait_frac", "ratio"},
             {"service.peak_reserved_mb", "MB"},
             {"service.reserved_frac", "ratio"},
             {"service.cpu_per_query_s", "s"},
             {"service.worker_cpu_frac", "ratio"},
             {"service.solo_overhead_ms", "ms"},
             {"service.latency_accounted_frac", "ratio"},
             {"service.lane_dispatch_ns_per_morsel", "ns"},
             {"obs.flight.records_per_query", "count"},
             {"obs.traced_over_untraced", "ratio"},
             {"host.ref_ms", "ms"},
             {"hw.model_over_measured", "ratio"}}) {
      d.push_back(m);
    }
    for (const char* c : kModelClasses) {
      d.push_back({std::string("hw.") + c + ".model_over_measured", "ratio"});
    }
    return d;
  }();
  return defs;
}

using Metrics = std::map<std::string, double>;

void AddServiceMetrics(const ServiceRun& run, int64_t peak_reserved,
                       int64_t budget, Metrics* m) {
  const double n = static_cast<double>(std::max<int64_t>(run.completed, 1));
  (*m)["service.qps"] = run.completed / run.latency.wall;
  // The service reports whole microseconds; a solo query waits only a few,
  // so queue waits are summarised by their mean and their share of the
  // latency rather than by quantiles of a handful of distinct values.
  (*m)["service.queue_wait_mean_s"] = Sum(run.queue_s) / n;
  (*m)["service.queue_frac"] = Sum(run.queue_s) / Sum(run.latency.wall_all);
  (*m)["service.exec_p50_s"] = Quantile(run.exec_s, 0.5);
  (*m)["service.exec_p90_s"] = Quantile(run.exec_s, 0.9);
  (*m)["service.no_wait_frac"] =
      std::count_if(run.queue_s.begin(), run.queue_s.end(),
                    [](double s) { return s < kNoWaitSeconds; }) / n;
  (*m)["service.peak_reserved_mb"] = peak_reserved / (1024.0 * 1024.0);
  (*m)["service.reserved_frac"] =
      static_cast<double>(peak_reserved) / static_cast<double>(budget);
  (*m)["service.cpu_per_query_s"] = run.cpu_s / n;
  (*m)["service.worker_cpu_frac"] =
      run.cpu_s > 0 ? run.worker_cpu_s / run.cpu_s : 0;
  (*m)["service.latency_accounted_frac"] =
      (Sum(run.queue_s) + Sum(run.exec_s)) / Sum(run.latency.wall_all);
  (*m)["obs.flight.records_per_query"] = run.flight_records / n;
}

// Service latency of each query run alone minus its Executor::Run time,
// median over the 22 queries.
double SoloOverheadMs(const Latencies& solo, const Latencies& direct) {
  const std::map<int, double> base = direct.PerQuery();
  std::vector<double> diffs;
  for (const auto& [q, s] : solo.PerQuery()) diffs.push_back(s - base.at(q));
  return Median(diffs) * 1e3;
}

// Per-layer metrics derived from the operator spans of `profiled_laps`
// profiled laps: self time per operator class, rates, the model ratio,
// the serial share and how much of the query wall the operators cover.
void AddOperatorMetrics(const std::vector<Span>& spans, int profiled_laps,
                        Metrics* m) {
  const std::map<int64_t, int64_t> self = SelfNs(spans);
  std::map<std::string, double> self_s, rows, bytes, model;
  double op_self = 0, serial_self = 0, profiled_wall = 0, query_wall = 0;
  double model_total = 0;
  for (const Span& s : spans) {
    if (s.cat != "op") continue;
    const double sec = self.at(s.id) * 1e-9;
    const Span& parent = spans[static_cast<size_t>(s.parent - 1)];
    if (parent.cat != "op") {  // the query's root: its self time is glue
      self_s["plan_glue"] += sec;
      profiled_wall += s.dur_ns * 1e-9;
      query_wall += parent.dur_ns * 1e-9;
      continue;
    }
    const std::string cls = OpClass(s.name);
    self_s[cls] += sec;
    rows[cls] += s.attrs.at("rows_in");
    bytes[cls] += s.attrs.at("seq_bytes");
    model[cls] += s.attrs.at("model_s");
    model_total += s.attrs.at("model_s");
    op_self += sec;
    if (s.attrs.at("threads") <= 1) serial_self += sec;
  }
  for (const char* c : kSelfClasses) {
    (*m)[std::string("exec.") + c + ".self_s"] = self_s[c] / profiled_laps;
  }
  for (const char* c : kRateClasses) {
    (*m)[std::string("exec.") + c + ".ns_per_row"] =
        self_s[c] * 1e9 / std::max(rows[c], 1.0);
    (*m)[std::string("exec.") + c + ".gbps"] =
        bytes[c] / std::max(self_s[c], 1e-9) / 1e9;
  }
  for (const char* c : kModelClasses) {
    (*m)[std::string("hw.") + c + ".model_over_measured"] =
        model[c] / std::max(self_s[c], 1e-9);
  }
  // Plan glue is the profiler root's time outside its operators, so glue
  // plus operators is the profiler's wall by construction. What the
  // operators alone cover of the benchmark's own query span is not.
  (*m)["exec.op_covered_frac"] = op_self / std::max(query_wall, 1e-9);
  (*m)["parallel.serial_frac"] = serial_self / std::max(op_self, 1e-9);
  (*m)["hw.model_over_measured"] = model_total / std::max(profiled_wall, 1e-9);
}

// ---------------------------------------------------------------- setup

// Set-up times are at the nominal host speed, like query latencies.
struct Setup {
  engine::Database db;
  std::vector<double> seconds;          // per repetition
  std::vector<double> orders_lineitem;  // traced split
  std::vector<double> other;
};

// Generates the database repeatedly (see kSetups) and keeps the last. The
// traced run calls the per-table generators (what GenerateDatabase does)
// so that the split can be timed.
Setup RunSetup(const Config& cfg, HostSpeed* speed, SpanLog* log,
               int64_t parent) {
  tpch::GenOptions opts;
  opts.scale_factor = cfg.sf;
  opts.seed = cfg.seed;
  Setup s;
  speed->Mark();
  const auto start = Clock::now();
  for (int i = 0; i < kSetups || Seconds(start) < kSetupSeconds; ++i) {
    s.db = engine::Database();
    double total = 0, other = 0, orders_lineitem = 0;
    {
      SpanScope span(log, "setup", parent);
      const auto t0 = Clock::now();
      if (log == nullptr) {
        s.db = tpch::GenerateDatabase(opts);
      } else {
        {
          SpanScope gen(log, "gen.other", span.id());
          const auto g0 = Clock::now();
          s.db.AddTable(tpch::GenerateRegion(opts));
          s.db.AddTable(tpch::GenerateNation(opts));
          s.db.AddTable(tpch::GenerateSupplier(opts));
          s.db.AddTable(tpch::GeneratePart(opts));
          s.db.AddTable(tpch::GeneratePartsupp(opts));
          s.db.AddTable(tpch::GenerateCustomer(opts));
          other = Seconds(g0);
        }
        SpanScope gen(log, "gen.orders_lineitem", span.id());
        const auto g0 = Clock::now();
        std::shared_ptr<storage::Table> orders, lineitem;
        tpch::GenerateOrdersAndLineitem(opts, &orders, &lineitem);
        s.db.AddTable(std::move(orders));
        s.db.AddTable(std::move(lineitem));
        orders_lineitem = Seconds(g0);
      }
      total = Seconds(t0);
    }
    const double factor = speed->Scale();
    s.seconds.push_back(total * factor);
    s.other.push_back(other * factor);
    s.orders_lineitem.push_back(orders_lineitem * factor);
  }
  return s;
}

// ---------------------------------------------------------------- workloads

service::ServiceOptions ServiceOpts(const Config& cfg, int max_active,
                                    int max_queue) {
  service::ServiceOptions o;
  o.budget_bytes = static_cast<int64_t>(kBudgetBytesPerSf * cfg.sf);
  o.max_active = max_active;
  o.max_queue = max_queue;
  o.query_threads = cfg.w->threads;
  o.morsel_rows = kMorselRows;
  return o;
}

void AddQueryTimes(const Latencies& lat, Metrics* m) {
  for (const auto& [q, s] : lat.PerQuery()) {
    (*m)["tpch." + QueryLabel(q) + "_s"] = s;
  }
}

// A solo lap through the service (one client, nothing else running);
// records the service's overhead over `direct`.
ServiceRun SoloServiceLap(const engine::Database& db,
                          service::QueryService* svc,
                          const std::map<int, int64_t>& estimate,
                          const Latencies& direct, HostSpeed* speed,
                          AnswerCheck* check, SpanLog* log, int64_t parent,
                          Metrics* m) {
  SpanScope span(log, "service_solo", parent);
  ServiceRun solo =
      RunClients(svc, db, 1, [](int, int) { return AllQueries(); }, 0, 1,
                 estimate, speed, check, log, span.id());
  (*m)["service.solo_overhead_ms"] = SoloOverheadMs(solo.latency, direct);
  return solo;
}

void RunPower(const Config& cfg, const engine::Database& db,
              HostSpeed* speed, AnswerCheck* check, SpanLog* log,
              int64_t root, Metrics* m) {
  exec::ExecOptions opts;
  opts.num_threads = cfg.w->threads;
  opts.morsel_rows = kMorselRows;
  const engine::Executor ex(opts);
  {
    // One untimed lap touches every page the measured laps will reuse.
    SpanScope warm(log, "warmup", root);
    RunLaps(ex, db, 0, 1, speed, check, log, warm.id(), nullptr);
  }
  if (log == nullptr) {
    const Latencies lat = RunLaps(ex, db, cfg.seconds, cfg.min_laps, speed,
                                  check, nullptr, 0, nullptr);
    (*m)["geomean_s"] = lat.Geomean();
    return;
  }
  // Traced: half the time untraced (per-query medians), half profiled.
  Latencies plain;
  {
    SpanScope phase(log, "phase.untraced", root);
    plain = RunLaps(ex, db, cfg.seconds / 2, 1, speed, check, log,
                    phase.id(), nullptr);
  }
  AddQueryTimes(plain, m);
  CountingScheduler counting;
  exec::ExecOptions counted = opts;
  counted.pipeline_scheduler = &counting;
  ProfiledExtras extras;
  Latencies profiled;
  {
    SpanScope phase(log, "phase.profiled", root);
    profiled = RunLaps(engine::Executor(counted), db, cfg.seconds / 2, 1,
                       speed, check, log, phase.id(), &extras);
  }
  (*m)["obs.traced_over_untraced"] = profiled.Total() / plain.Total();
  (*m)["parallel.pipelines_per_query"] =
      static_cast<double>(counting.pipelines) / extras.queries;
  (*m)["parallel.morsels_per_query"] =
      static_cast<double>(counting.morsels) / extras.queries;
  AddOperatorMetrics(log->Snapshot(), extras.laps, m);

  service::QueryService svc(ServiceOpts(cfg, 1, kNumQueries));
  const ServiceRun solo =
      SoloServiceLap(db, &svc, extras.estimate, plain, speed, check, log,
                     root, m);
  AddServiceMetrics(solo, svc.admission().tracker().peak(),
                    svc.admission().budget_bytes(), m);
}

void RunStreams(const Config& cfg, const engine::Database& db,
                HostSpeed* speed, AnswerCheck* check, SpanLog* log,
                int64_t root, Metrics* m) {
  // Calibration, untimed: each query once as the service will run it,
  // for its admission estimate and its answer. It also warms the pages the
  // streams reuse.
  exec::ExecOptions opts;
  opts.num_threads = cfg.w->threads;
  opts.morsel_rows = kMorselRows;
  const engine::Executor ex(opts);
  std::map<int, int64_t> estimate;
  {
    SpanScope span(log, "calibration", root);
    for (int q = 1; q <= kNumQueries; ++q) {
      SpanScope qspan(log, "query", span.id());
      exec::QueryStats stats;
      const exec::Relation r = ex.Run(Plan(db, q), &stats);
      estimate[q] = service::EstimateWorkingSetBytes(stats);
      check->Check(q, r, "calibration");
    }
  }
  // Traced: one lap each plain and profiled, as the service runs the
  // queries, for the operator split and the service's solo overhead.
  Latencies direct;
  if (log != nullptr) {
    {
      SpanScope phase(log, "phase.untraced", root);
      direct = RunLaps(ex, db, 0, 1, speed, check, log, phase.id(), nullptr);
    }
    ProfiledExtras extras;
    Latencies profiled;
    {
      SpanScope phase(log, "phase.profiled", root);
      profiled = RunLaps(ex, db, 0, 1, speed, check, log, phase.id(), &extras);
    }
    (*m)["obs.traced_over_untraced"] = profiled.Total() / direct.Total();
    AddOperatorMetrics(log->Snapshot(), extras.laps, m);
  }

  const int max_queue = kStreamClients * kNumQueries;
  service::QueryService svc(ServiceOpts(cfg, kMaxActive, max_queue));
  const QueryOrder order = [&](int c, int round) {
    return StreamOrder(cfg.seed, c, round);
  };
  {
    // One untimed round touches the pages that concurrent queries reuse.
    SpanScope warm(log, "warmup", root);
    RunClients(&svc, db, kStreamClients, order, 0, 1, estimate, speed, check,
               log, warm.id());
  }
  ServiceRun run;
  {
    SpanScope span(log, "streams", root);
    run = RunClients(&svc, db, kStreamClients, order, cfg.seconds,
                     cfg.min_laps, estimate, speed, check, log, span.id());
  }
  if (log == nullptr) {
    (*m)["geomean_s"] = run.latency.Geomean();
    return;
  }
  AddQueryTimes(run.latency, m);
  AddServiceMetrics(run, svc.admission().tracker().peak(),
                    svc.admission().budget_bytes(), m);
  const double n = static_cast<double>(std::max<int64_t>(run.completed, 1));
  (*m)["parallel.pipelines_per_query"] = run.pipelines / n;
  (*m)["parallel.morsels_per_query"] = run.tasks / n;
  SoloServiceLap(db, &svc, estimate, direct, speed, check, log, root, m);
}

// ---------------------------------------------------------------- main

int Main(int argc, char** argv) {
  Config cfg;
  std::string err;
  if (!ParseArgs(argc, argv, &cfg, &err)) {
    std::fprintf(stderr, "bench_perf: %s\n", err.c_str());
    return 2;
  }
  RetainFreedMemory();
  const int threads = cfg.w->threads;
  const std::string key = AnswerKey(cfg.sf, cfg.seed, threads);
  // Recording takes the first lap as the reference, so that an entry whose
  // answers changed is replaced with what the run computed.
  Answers expected;
  if (!cfg.record_answers &&
      !LoadAnswers(cfg.answers, key, &expected, &err)) {
    std::fprintf(stderr, "bench_perf: %s\n", err.c_str());
    return 1;
  }
  const std::string cache = "/sys/devices/system/cpu/cpu0/cache/index";
  std::printf(
      "config workload=%s sf=%g threads=%d min_laps=%d seconds=%g seed=%llu "
      "trace=%d answers=%s nproc=%u cpu=\"%s\" l2=%s l3=%s\n",
      cfg.w->name, cfg.sf, threads, cfg.min_laps, cfg.seconds,
      static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0,
      expected.empty() ? "first-lap" : cfg.answers.c_str(),
      std::thread::hardware_concurrency(), CpuModel().c_str(),
      ReadFirstLine(cache + "2/size").c_str(),
      ReadFirstLine(cache + "3/size").c_str());
  std::fflush(stdout);

  std::unique_ptr<SpanLog> log;
  if (cfg.trace) log = std::make_unique<SpanLog>();
  AnswerCheck check(expected);
  HostSpeed speed;
  Metrics m;
  {
    SpanScope root(log.get(), "workload", 0);
    root.Attr("sf", cfg.sf);
    root.Attr("threads", threads);
    root.Attr("seed", static_cast<double>(cfg.seed));
    Setup setup = RunSetup(cfg, &speed, log.get(), root.id());
    if (cfg.trace) {
      m["tpch.gen.orders_lineitem_s"] = Median(setup.orders_lineitem);
      m["tpch.gen.other_s"] = Median(setup.other);
      m["storage.table_mb"] = setup.db.MemoryBytes() / (1024.0 * 1024.0);
    } else {
      m["setup_s"] = Median(setup.seconds);
    }
    if (cfg.w->kind == Kind::kPower) {
      RunPower(cfg, setup.db, &speed, &check, log.get(), root.id(), &m);
    } else {
      RunStreams(cfg, setup.db, &speed, &check, log.get(), root.id(), &m);
    }
    if (cfg.trace) {
      SpanScope probes(log.get(), "probes", root.id());
      m.merge(KernelProbes(setup.db, threads, log.get(), probes.id()));
      m.merge(DispatchProbes(threads, log.get(), probes.id()));
      m["host.ref_ms"] = speed.MedianSeconds() * 1e3;
    }
  }
  bool spans_ok = true;
  if (cfg.trace) {
    const std::string path =
        cfg.spans.empty() ? ExeDir() + "/spans-" + cfg.w->name + ".jsonl"
                          : cfg.spans;
    const std::string trace_id =
        std::string(cfg.w->name) + "-" + std::to_string(cfg.seed);
    const int64_t n = log->WriteJsonl(path, trace_id, &err)
                          ? CheckSpanFile(path, &err)
                          : -1;
    spans_ok = n > 0;
    if (spans_ok) {
      std::fprintf(stderr, "bench_perf: %lld spans written to %s\n",
                   static_cast<long long>(n), path.c_str());
    } else {
      std::fprintf(stderr, "bench_perf: span file check failed: %s\n",
                   err.c_str());
    }
  } else {
    m["peak_rss_mb"] = PeakRssMb();
  }
  if (cfg.record_answers) {
    if (!RecordAnswers(cfg.answers, key, check.reference(), &err)) {
      std::fprintf(stderr, "bench_perf: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "bench_perf: recorded answers for %s\n", key.c_str());
  }

  const auto& defs = cfg.trace ? PerLayerMetrics() : EndToEndMetrics();
  JsonWriter json;
  json.BeginObject();
  for (const MetricDef& d : defs) {
    const auto it = m.find(d.name);
    if (it == m.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "bench_perf: metric %s was not measured\n",
                   d.name.c_str());
      return 1;
    }
    std::printf("%s %s %s\n", d.name.c_str(), JsonNumber(it->second).c_str(),
                d.unit.c_str());
    json.Key(d.name).BeginObject().Key("value").Double(it->second)
        .Key("unit").String(d.unit).EndObject();
  }
  json.EndObject();
  const bool correct = check.failed() == 0 && check.attempted() > 0 && spans_ok;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(check.attempted()),
              static_cast<long long>(check.failed()), json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace wimpi::perf

int main(int argc, char** argv) { return wimpi::perf::Main(argc, argv); }
