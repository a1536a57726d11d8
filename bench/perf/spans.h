#ifndef WIMPI_BENCH_PERF_SPANS_H_
#define WIMPI_BENCH_PERF_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/profiler.h"

namespace wimpi::perf {

// One timed interval of the traced run. Spans of one run form a tree
// through `parent` (0 = top level).
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  std::string name;
  // "bench": timed by bench_perf around a call into a layer. "op": an
  // operator invocation imported from the engine's profiler tree.
  std::string cat;
  int64_t start_ns = 0;  // since the log was created
  int64_t dur_ns = 0;
  int tid = 0;           // client index (streams) or 0
  std::map<std::string, double> attrs;
};

// Spans kept in memory for the whole run and written out once at the end.
// Begin/End may be called from several client threads.
class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  int64_t Begin(std::string name, int64_t parent, int tid = 0);
  void End(int64_t id, std::map<std::string, double> attrs = {});

  // Imports a profiled query as child spans of the closed span `parent`,
  // starting where `parent` starts. The profiler records durations and
  // order but not start times, so each node's children are laid back to
  // back from the node's own start; the gap left at the end of a node is
  // its self time (for the root: plan glue). Attributes per node: rows_in,
  // seq_bytes and model_s (the hardware model's seconds for the node's own
  // OpStats on the host profile), threads and morsels of its widest
  // parallel phase.
  void ImportProfile(const obs::QueryProfile& profile, int64_t parent);

  std::vector<Span> Snapshot() const;

  // Writes one JSON object per span (with its self time) to `path`.
  bool WriteJsonl(const std::string& path, const std::string& trace_id,
                  std::string* error) const;

 private:
  int64_t NowNs() const;
  int64_t Add(Span s);  // assigns the id
  int64_t ImportNode(const obs::ProfileNode& node, int64_t parent,
                     int64_t start_ns, int tid);

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
};

// Self time of every span: its duration minus the part of its interval
// that its children cover (union of the children, clipped to the span).
// Keyed by span id.
std::map<int64_t, int64_t> SelfNs(const std::vector<Span>& spans);

// Opens a span on construction and closes it on destruction; a no-op when
// `log` is null (the untraced run), so timed code is the same either way.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, int64_t parent, int tid = 0)
      : log_(log),
        id_(log != nullptr ? log->Begin(std::move(name), parent, tid) : 0) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->End(id_, std::move(attrs_));
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int64_t id() const { return id_; }
  void Attr(const std::string& key, double value) { attrs_[key] = value; }

 private:
  SpanLog* log_;
  int64_t id_;
  std::map<std::string, double> attrs_;
};

// Reads a span file written by WriteJsonl back and checks its structure:
// every line parses, ids are unique and dense, every parent exists and was
// written before its child, children lie inside their parent's interval,
// and each written self time equals the one recomputed from the children.
// Returns the span count, or -1 with *error.
int64_t CheckSpanFile(const std::string& path, std::string* error);

}  // namespace wimpi::perf

#endif  // WIMPI_BENCH_PERF_SPANS_H_
