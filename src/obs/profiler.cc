#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"
#include "obs/clock.h"
#include "obs/flight/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stats_hook.h"

namespace wimpi::obs {

namespace internal {
std::atomic<bool> g_stats_hook_armed{false};
}  // namespace internal

namespace {

// The profiler is single-owner: only the thread that constructed the
// active ScopedProfiling opens scopes or receives OpStats, so the mutable
// state below needs no locking — other threads only ever read the two
// atomics (g_active, g_op_label).
std::atomic<bool> g_active{false};
std::atomic<const char*> g_op_label{"plan"};
thread_local bool t_owner = false;
QueryProfile* g_profile = nullptr;
ProfileNode* g_current = nullptr;
// Live counter set of the active ScopedProfiling (nullptr when counters
// were not requested or could not be opened). Only the owning thread reads
// it, same single-owner discipline as the rest of the profiler state.
PerfCounters* g_perf = nullptr;

bool OwnerActive() {
  return g_active.load(std::memory_order_relaxed) && t_owner;
}

}  // namespace

namespace internal {

void OpStatsAdded(const exec::OpStats& s) {
  if (!OwnerActive() || g_current == nullptr) return;
  g_current->op_stats.push_back(s);
}

}  // namespace internal

double ProfileNode::ChildSeconds() const {
  double t = 0;
  for (const auto& c : children) t += c->wall_seconds;
  return t;
}

double ProfileNode::TotalComputeOps() const {
  double t = 0;
  for (const auto& s : op_stats) t += s.compute_ops;
  for (const auto& c : children) t += c->TotalComputeOps();
  return t;
}

double ProfileNode::TotalSeqBytes() const {
  double t = 0;
  for (const auto& s : op_stats) t += s.seq_bytes;
  for (const auto& c : children) t += c->TotalSeqBytes();
  return t;
}

double ProfileNode::TotalRandCount() const {
  double t = 0;
  for (const auto& s : op_stats) t += s.rand_count;
  for (const auto& c : children) t += c->TotalRandCount();
  return t;
}

ScopedProfiling::ScopedProfiling(const ProfileOptions& opts,
                                 QueryProfile* out, std::string label)
    : out_(out), opts_(opts) {
  WIMPI_CHECK(out != nullptr);
  WIMPI_CHECK(!g_active.load(std::memory_order_relaxed))
      << "nested ScopedProfiling is not supported";
  out_->root = ProfileNode{};
  out_->root.name = std::move(label);
  out_->wall_seconds = 0;
  out_->tid = flight::CurrentThreadId();
  if (opts_.operator_profile) {
    g_profile = out_;
    g_current = &out_->root;
    t_owner = true;
    g_op_label.store("plan", std::memory_order_relaxed);
    g_active.store(true, std::memory_order_relaxed);
    internal::g_stats_hook_armed.store(true, std::memory_order_relaxed);
  }
  prev_pool_metrics_ = PoolMetricsEnabled();
  if (opts_.pool_metrics) SetPoolMetricsEnabled(true);
  if (opts_.perf_counters) {
    if (perf_.Open()) {
      if (opts_.operator_profile) g_perf = &perf_;
    } else {
      out_->perf_note = "counters unavailable: " + perf_.error();
    }
  }
  out_->root.start_us = NowMicros();
}

ScopedProfiling::~ScopedProfiling() {
  const double wall = MicrosToSeconds(NowMicros() - out_->root.start_us);
  out_->wall_seconds = wall;
  out_->root.wall_seconds = wall;
  if (perf_.open()) {
    out_->perf = perf_.Read();
    out_->perf_valid = out_->perf.AnyAvailable();
    out_->root.perf = out_->perf;
    out_->root.perf_valid = out_->perf_valid;
    g_perf = nullptr;
    perf_.Close();
  }
  if (opts_.operator_profile) {
    internal::g_stats_hook_armed.store(false, std::memory_order_relaxed);
    g_active.store(false, std::memory_order_relaxed);
    t_owner = false;
    g_current = nullptr;
    g_profile = nullptr;
  }
  SetPoolMetricsEnabled(prev_pool_metrics_);
}

OpScope::OpScope(const char* name, int64_t rows_in) {
  if (!OwnerActive()) return;
  parent_ = g_current;
  auto node = std::make_unique<ProfileNode>();
  node->name = name;
  node->rows_in = rows_in;
  node_ = node.get();
  parent_->children.push_back(std::move(node));
  g_current = node_;
  prev_label_ = g_op_label.load(std::memory_order_relaxed);
  g_op_label.store(name, std::memory_order_relaxed);
  if (g_perf != nullptr) perf_start_ = g_perf->Read();
  node_->start_us = NowMicros();
}

OpScope::~OpScope() {
  if (node_ == nullptr) return;
  node_->wall_seconds = MicrosToSeconds(NowMicros() - node_->start_us);
  if (g_perf != nullptr) {
    node_->perf = g_perf->Read().Delta(perf_start_);
    node_->perf_valid = node_->perf.AnyAvailable();
  }
  g_current = parent_;
  g_op_label.store(prev_label_, std::memory_order_relaxed);
}

bool ProfilerActive() { return g_active.load(std::memory_order_relaxed); }

void NoteParallelPhase(int threads, int morsels) {
  if (!OwnerActive() || g_current == nullptr) return;
  g_current->threads = std::max(g_current->threads, threads);
  g_current->morsels = std::max(g_current->morsels, morsels);
}

const char* CurrentOpLabel() {
  return g_op_label.load(std::memory_order_relaxed);
}

namespace {

std::string HumanCount(double v) {
  char buf[32];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.1fG", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

void FormatNode(const ProfileNode& n, const std::string& prefix, bool last,
                bool root, std::ostringstream& out) {
  if (root) {
    out << n.name;
  } else {
    out << prefix << (last ? "`- " : "|- ") << n.name;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %.3f ms", n.wall_seconds * 1e3);
  out << buf;
  if (!root) {
    out << "  rows " << n.rows_in << "->" << n.rows_out;
    if (n.threads > 1) {
      out << "  threads " << n.threads << "  morsels " << n.morsels;
    }
  }
  // The model-side view of the same invocation (this node only, so the
  // numbers do not double count what child lines already show).
  double ops = 0, seq = 0, rnd = 0;
  for (const auto& s : n.op_stats) {
    ops += s.compute_ops;
    seq += s.seq_bytes;
    rnd += s.rand_count;
  }
  if (ops > 0 || seq > 0 || rnd > 0) {
    out << "  [" << HumanCount(ops) << " ops, " << HumanCount(seq)
        << "B seq, " << HumanCount(rnd) << " rand]";
  }
  if (!n.op_stats.empty()) {
    out << "  {";
    for (size_t i = 0; i < n.op_stats.size(); ++i) {
      if (i > 0) out << ", ";
      out << n.op_stats[i].op;
    }
    out << "}";
  }
  // The physical view of the same invocation (root totals print in the
  // footer instead, next to the availability note).
  if (!root && n.perf_valid) {
    const std::string perf = n.perf.Summary();
    if (!perf.empty()) out << "  (perf: " << perf << ")";
  }
  out << "\n";
  const std::string child_prefix =
      root ? "" : prefix + (last ? "   " : "|  ");
  for (size_t i = 0; i < n.children.size(); ++i) {
    FormatNode(*n.children[i], child_prefix, i + 1 == n.children.size(),
               false, out);
  }
}

}  // namespace

std::string QueryProfile::FormatTree() const {
  std::ostringstream out;
  FormatNode(root, "", true, true, out);
  const double op_s = OperatorSeconds();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "wall %.3f ms, operators %.3f ms (%.1f%%), plan glue "
                "%.3f ms\n",
                wall_seconds * 1e3, op_s * 1e3,
                wall_seconds > 0 ? 100.0 * op_s / wall_seconds : 0.0,
                (wall_seconds - op_s) * 1e3);
  out << buf;
  if (perf_valid) {
    out << "perf: " << perf.Summary() << "\n";
  } else if (!perf_note.empty()) {
    out << "perf: " << perf_note << "\n";
  }
  return out.str();
}

namespace {

void NodeToJson(const ProfileNode& n, JsonWriter& w) {
  w.BeginObject()
      .Key("name").String(n.name)
      .Key("wall_seconds").Double(n.wall_seconds)
      .Key("rows_in").Int(n.rows_in)
      .Key("rows_out").Int(n.rows_out)
      .Key("threads").Int(n.threads)
      .Key("morsels").Int(n.morsels);
  double ops = 0, seq = 0, rnd = 0;
  for (const auto& s : n.op_stats) {
    ops += s.compute_ops;
    seq += s.seq_bytes;
    rnd += s.rand_count;
  }
  w.Key("compute_ops").Double(ops)
      .Key("seq_bytes").Double(seq)
      .Key("rand_count").Double(rnd);
  if (n.perf_valid) {
    w.Key("perf").BeginObject();
    for (int i = 0; i < PerfCounts::kNumEvents; ++i) {
      const auto e = static_cast<PerfEvent>(i);
      if (n.perf.Has(e)) {
        w.Key(PerfEventName(e)).Double(static_cast<double>(n.perf.Get(e)));
      }
    }
    w.EndObject();
  }
  w.Key("children").BeginArray();
  for (const auto& c : n.children) NodeToJson(*c, w);
  w.EndArray().EndObject();
}

// Appends `n` and its subtree in pre-order; span ids count events in
// trace order from 1, so a node's id is the vector size after its push.
void NodeToTrace(const ProfileNode& n, uint64_t trace_id, uint64_t parent,
                 int tid, std::vector<TraceEvent>* out) {
  JsonWriter args;
  args.BeginObject()
      .Key("rows_in").Int(n.rows_in)
      .Key("rows_out").Int(n.rows_out)
      .Key("threads").Int(n.threads)
      .Key("morsels").Int(n.morsels)
      .EndObject();
  out->push_back({.name = n.name,
                  .category = parent == 0 ? "query" : "op",
                  .ts_us = n.start_us,
                  .dur_us = static_cast<int64_t>(n.wall_seconds * 1e6),
                  .tid = tid,
                  .trace_id = trace_id,
                  .span_id = out->size() + 1,
                  .parent_id = parent,
                  .args_json = args.str()});
  const uint64_t id = out->size();
  for (const auto& c : n.children) NodeToTrace(*c, trace_id, id, tid, out);
}

}  // namespace

std::vector<TraceEvent> QueryProfile::ToTraceEvents(uint64_t trace_id) const {
  std::vector<TraceEvent> out;
  NodeToTrace(root, trace_id, 0, tid, &out);
  return out;
}

std::string QueryProfile::ToJson() const {
  JsonWriter w;
  w.BeginObject()
      .Key("wall_seconds").Double(wall_seconds)
      .Key("operator_seconds").Double(OperatorSeconds())
      .Key("perf_valid").Bool(perf_valid);
  if (!perf_note.empty()) w.Key("perf_note").String(perf_note);
  w.Key("root");
  NodeToJson(root, w);
  w.EndObject();
  return w.str();
}

}  // namespace wimpi::obs
