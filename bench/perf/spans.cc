#include "spans.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "hw/cost_model.h"
#include "hw/host_anchor.h"

namespace wimpi::perf {

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int64_t SpanLog::Begin(std::string name, int64_t parent, int tid) {
  Span s;
  s.name = std::move(name);
  s.cat = "bench";
  s.parent = parent;
  s.tid = tid;
  s.start_ns = NowNs();
  return Add(std::move(s));
}

void SpanLog::End(int64_t id, std::map<std::string, double> attrs) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<size_t>(id - 1)];
  s.dur_ns = now - s.start_ns;
  s.attrs.merge(attrs);
}

int64_t SpanLog::Add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::ImportProfile(const obs::QueryProfile& profile,
                            int64_t parent) {
  Span enclosing;
  {
    std::lock_guard<std::mutex> lock(mu_);
    enclosing = spans_[static_cast<size_t>(parent - 1)];
  }
  // The profiler's microsecond clock can read a little past the enclosing
  // span's nanosecond end; every imported node is clipped to its parent so
  // the tree stays nested.
  Span root;
  root.name = profile.root.name;
  root.cat = "op";
  root.parent = parent;
  root.start_ns = enclosing.start_ns;
  root.dur_ns = std::min(static_cast<int64_t>(profile.wall_seconds * 1e9),
                         enclosing.dur_ns);
  root.tid = enclosing.tid;
  const int64_t start = root.start_ns;
  const int64_t root_id = Add(std::move(root));
  int64_t cursor = start;
  for (const auto& c : profile.root.children) {
    cursor += ImportNode(*c, root_id, cursor, enclosing.tid);
  }
}

int64_t SpanLog::ImportNode(const obs::ProfileNode& node, int64_t parent,
                            int64_t start_ns, int tid) {
  static const hw::CostModel kModel;
  static const hw::HardwareProfile kHost = hw::HostProfile();
  Span parent_span;
  {
    std::lock_guard<std::mutex> lock(mu_);
    parent_span = spans_[static_cast<size_t>(parent - 1)];
  }
  const int64_t parent_end = parent_span.start_ns + parent_span.dur_ns;
  Span s;
  s.name = node.name;
  s.cat = "op";
  s.parent = parent;
  s.tid = tid;
  s.start_ns = std::min(start_ns, parent_end);
  s.dur_ns = std::min(static_cast<int64_t>(node.wall_seconds * 1e9),
                      parent_end - s.start_ns);
  double seq_bytes = 0;
  double model_s = 0;
  for (const auto& op : node.op_stats) {
    seq_bytes += op.seq_bytes;
    model_s += kModel.OpSeconds(kHost, op, node.threads);
  }
  s.attrs = {{"rows_in", static_cast<double>(node.rows_in)},
             {"seq_bytes", seq_bytes},
             {"model_s", model_s},
             {"threads", static_cast<double>(node.threads)},
             {"morsels", static_cast<double>(node.morsels)}};
  const int64_t dur = s.dur_ns;
  const int64_t start = s.start_ns;
  const int64_t id = Add(std::move(s));
  int64_t cursor = start;
  for (const auto& c : node.children) {
    cursor += ImportNode(*c, id, cursor, tid);
  }
  return dur;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<int64_t, int64_t> SelfNs(const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      kids[s.parent].emplace_back(s.start_ns, s.start_ns + s.dur_ns);
    }
  }
  std::map<int64_t, int64_t> self;
  for (const Span& s : spans) {
    const int64_t lo = s.start_ns;
    const int64_t hi = s.start_ns + s.dur_ns;
    int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t run_lo = 0, run_hi = -1;
      for (const auto& [a0, b0] : iv) {
        const int64_t a = std::max(a0, lo), b = std::min(b0, hi);
        if (b <= a) continue;
        if (a > run_hi) {
          if (run_hi > run_lo) covered += run_hi - run_lo;
          run_lo = a;
          run_hi = b;
        } else {
          run_hi = std::max(run_hi, b);
        }
      }
      if (run_hi > run_lo) covered += run_hi - run_lo;
    }
    self[s.id] = s.dur_ns - covered;
  }
  return self;
}

bool SpanLog::WriteJsonl(const std::string& path, const std::string& trace_id,
                         std::string* error) const {
  const std::vector<Span> spans = Snapshot();
  const std::map<int64_t, int64_t> self = SelfNs(spans);
  std::ofstream out(path);
  if (!out) {
    *error = "cannot open " + path;
    return false;
  }
  for (const Span& s : spans) {
    JsonWriter w;
    w.BeginObject()
        .Key("trace").String(trace_id)
        .Key("id").Int(s.id)
        .Key("parent").Int(s.parent)
        .Key("name").String(s.name)
        .Key("cat").String(s.cat)
        .Key("tid").Int(s.tid)
        .Key("start_ns").Int(s.start_ns)
        .Key("dur_ns").Int(s.dur_ns)
        .Key("self_ns").Int(self.at(s.id))
        .Key("attrs").BeginObject();
    for (const auto& [k, v] : s.attrs) w.Key(k).Double(v);
    w.EndObject().EndObject();
    out << w.str() << '\n';
  }
  out.flush();
  if (!out) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

int64_t CheckSpanFile(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return -1;
  }
  std::vector<Span> spans;
  std::vector<int64_t> written_self;
  std::string line;
  while (std::getline(in, line)) {
    JsonValue v;
    std::string perr;
    if (!JsonValue::Parse(line, &v, &perr) || !v.is_object()) {
      *error = std::string("line ").append(std::to_string(spans.size() + 1));
      *error += ": " + perr;
      return -1;
    }
    Span s;
    s.id = static_cast<int64_t>(v.GetDouble("id", -1));
    s.parent = static_cast<int64_t>(v.GetDouble("parent", -1));
    s.name = v.GetString("name", "");
    s.start_ns = static_cast<int64_t>(v.GetDouble("start_ns", -1));
    s.dur_ns = static_cast<int64_t>(v.GetDouble("dur_ns", -1));
    std::ostringstream where;
    where << "span " << s.id << " (" << s.name << "): ";
    if (s.id != static_cast<int64_t>(spans.size()) + 1) {
      *error = where.str() + "ids must be dense and in order";
      return -1;
    }
    if (s.name.empty() || s.start_ns < 0 || s.dur_ns < 0) {
      *error = where.str() + "missing name or negative time";
      return -1;
    }
    if (s.parent < 0 || s.parent >= s.id) {
      *error = where.str() + "parent must be written before its child";
      return -1;
    }
    if (s.parent > 0) {
      const Span& p = spans[static_cast<size_t>(s.parent - 1)];
      if (s.start_ns < p.start_ns ||
          s.start_ns + s.dur_ns > p.start_ns + p.dur_ns) {
        *error = where.str() + "lies outside its parent";
        return -1;
      }
    }
    written_self.push_back(static_cast<int64_t>(v.GetDouble("self_ns", -1)));
    spans.push_back(std::move(s));
  }
  if (spans.empty()) {
    *error = "no spans in " + path;
    return -1;
  }
  const std::map<int64_t, int64_t> self = SelfNs(spans);
  for (const Span& s : spans) {
    const int64_t got = written_self[static_cast<size_t>(s.id - 1)];
    if (got != self.at(s.id) || got < 0 || got > s.dur_ns) {
      *error = std::string("span ").append(std::to_string(s.id));
      *error += ": self time " + std::to_string(got) +
                " does not match its children";
      return -1;
    }
  }
  return static_cast<int64_t>(spans.size());
}

}  // namespace wimpi::perf
