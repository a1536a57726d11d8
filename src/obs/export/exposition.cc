#include "obs/export/exposition.h"

#include <cctype>
#include <cstdlib>
#include <utility>

#include "common/json.h"

namespace wimpi::obs {

namespace {

void WriteSample(std::string& out, const std::string& name,
                 const std::string& labels, double value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += JsonNumber(value);
  out += '\n';
}

// Help text is escaped like label values minus the quote rule: the
// exposition format only requires backslash and line-feed escapes here.
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void WriteFamilyHeader(std::string& out, const std::string& raw_name,
                       const std::string& sanitized, const char* type) {
  out += "# HELP ";
  out += sanitized;
  out += ' ';
  out += EscapeHelp(ExpositionFormat::HelpFor(raw_name));
  out += '\n';
  out += "# TYPE ";
  out += sanitized;
  out += ' ';
  out += type;
  out += '\n';
}

// Matches `name` against `pattern` where '*' spans any run of characters
// (used for one-level metric families like service.session.*.latency_us).
bool MatchesPattern(const std::string& name, const std::string& pattern) {
  const size_t star = pattern.find('*');
  if (star == std::string::npos) return name == pattern;
  const std::string prefix = pattern.substr(0, star);
  const std::string suffix = pattern.substr(star + 1);
  return name.size() >= prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

struct HelpEntry {
  const char* pattern;
  const char* help;
};

// Descriptions for the exposition's `# HELP` lines. Exact names first,
// then starred families; order matters (first match wins).
constexpr HelpEntry kHelpTable[] = {
    {"service.submitted", "Queries submitted to the query service"},
    {"service.completed", "Queries that finished with OK status"},
    {"service.rejected", "Queries rejected by admission control"},
    {"service.cancelled", "Queries cancelled by their client"},
    {"service.timeout", "Queries that exceeded their deadline"},
    {"service.failed", "Queries that failed with an internal error"},
    {"service.active", "Queries currently running on driver threads"},
    {"service.queued", "Queries waiting in the admission queue"},
    {"service.pipelines", "Parallel pipelines run by the fair scheduler"},
    {"service.tasks", "Morsel tasks run by the fair scheduler"},
    {"service.queue_wait_us",
     "Microseconds from submit to admission (or to rejection for queries "
     "that never ran)"},
    {"service.exec_us", "Microseconds from admission to completion"},
    {"service.latency_us", "Microseconds from submit to completion"},
    {"service.session.*.latency_us",
     "Per-session microseconds from submit to completion"},
    {"pool.tasks", "Tasks executed by the shared thread pool"},
    {"pool.queue_depth", "Tasks waiting in the thread pool queue"},
    {"pool.task.queue_wait_us",
     "Microseconds pool tasks spent queued before a worker picked them up"},
    {"pool.task.run_us", "Microseconds pool tasks spent executing"},
    {"pool.worker*.busy_us", "Microseconds this pool worker spent running "
                             "tasks"},
    {"pool.worker*.idle_us", "Microseconds this pool worker spent waiting "
                             "for work"},
    {"flight.dumps", "Retroactive flight-recorder dumps written"},
    {"flight.trigger.latency",
     "Flight triggers fired by queries over their latency threshold"},
    {"flight.trigger.status",
     "Flight triggers fired by cancelled/timed-out/rejected queries"},
    {"flight.trigger.fault", "Flight triggers fired by cluster faults"},
    {"slowlog.entries", "Entries appended to the slow-query log"},
    {"slo.p*.objective_us", "Latency objective for this priority class"},
    {"slo.p*.attainment",
     "Fraction of window queries meeting the class objective"},
    {"slo.p*.burn_rate",
     "Error-budget burn rate: (1 - attainment) / (1 - target)"},
    {"slo.p*.total", "Queries counted against this class objective"},
    {"slo.p*.breaches", "Queries that missed this class objective"},
    {"cluster.fault.attempts", "Partition attempts under the fault plan"},
    {"cluster.fault.retries", "Failed attempts that were retried"},
    {"cluster.fault.reassigned_partitions",
     "Partitions moved to another node after repeated failures"},
    {"cluster.fault.nodes_failed", "Nodes lost during the run"},
    {"host.info",
     "Host fingerprint (constant 1; labels identify cpu model and thread "
     "count so series from different hosts are distinguishable)"},
    {"stats.qerror",
     "Cardinality Q-error max(est/act, act/est) per estimated operator"},
    {"stats.qerror.max", "Worst cardinality Q-error observed"},
    {"stats.qerror.ops.estimated",
     "Operator invocations with both an estimate and an actual"},
    {"stats.qerror.ops.recorded",
     "Operator invocations with actual cardinalities recorded"},
    {"stats.qerror.class.*",
     "Cardinality Q-error per estimated operator of this class"},
};

}  // namespace

std::string ExpositionFormat::SanitizeName(const std::string& name) {
  std::string out = "wimpi_";
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string ExpositionFormat::HelpFor(const std::string& name) {
  for (const HelpEntry& e : kHelpTable) {
    if (MatchesPattern(name, e.pattern)) return e.help;
  }
  return "wimpi metric " + name;
}

std::string ExpositionFormat::EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string ExpositionFormat::Write(const RegistrySnapshot& snapshot) {
  std::string out;
  for (const auto& [name, labels] : snapshot.infos) {
    const std::string n = SanitizeName(name);
    WriteFamilyHeader(out, name, n, "gauge");
    std::string label_str;
    for (const auto& [k, v] : labels) {
      if (!label_str.empty()) label_str += ',';
      label_str += SanitizeName(k).substr(6);  // drop the wimpi_ prefix
      label_str += "=\"";
      label_str += EscapeLabelValue(v);
      label_str += '"';
    }
    WriteSample(out, n, label_str, 1);
  }
  for (const auto& [name, value] : snapshot.counters) {
    const std::string n = SanitizeName(name);
    WriteFamilyHeader(out, name, n, "counter");
    WriteSample(out, n, "", static_cast<double>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string n = SanitizeName(name);
    WriteFamilyHeader(out, name, n, "gauge");
    WriteSample(out, n, "", value);
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string n = SanitizeName(name);
    WriteFamilyHeader(out, name, n, "histogram");
    // Prometheus buckets are cumulative: each le bound counts everything
    // at or below it, ending in the le="+Inf" total.
    int64_t cum = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cum += i < h.bucket_counts.size() ? h.bucket_counts[i] : 0;
      WriteSample(out, n + "_bucket",
                  "le=\"" + EscapeLabelValue(JsonNumber(h.bounds[i])) + "\"",
                  static_cast<double>(cum));
    }
    WriteSample(out, n + "_bucket", "le=\"+Inf\"",
                static_cast<double>(h.count));
    WriteSample(out, n + "_sum", "", h.sum);
    WriteSample(out, n + "_count", "", static_cast<double>(h.count));
  }
  return out;
}

std::string ExpositionFormat::WriteGlobal() {
  return Write(MetricsRegistry::Global().SnapshotAll());
}

namespace {

// Unescapes a `# HELP` payload: `\\` -> backslash, `\n` -> line feed.
std::string UnescapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      out += s[i] == 'n' ? '\n' : s[i];
    } else {
      out += s[i];
    }
  }
  return out;
}

}  // namespace

bool ExpositionFormat::Parse(const std::string& text,
                             std::vector<ExpositionSample>* out,
                             std::string* error) {
  return Parse(text, out, nullptr, error);
}

bool ExpositionFormat::Parse(const std::string& text,
                             std::vector<ExpositionSample>* out,
                             std::map<std::string, ExpositionMeta>* meta,
                             std::string* error) {
  out->clear();
  if (meta != nullptr) meta->clear();
  size_t pos = 0;
  int line_no = 0;
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "exposition line " + std::to_string(line_no) + ": " + what;
    }
    return false;
  };
  while (pos < text.size()) {
    ++line_no;
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // `# HELP <name> <text>` / `# TYPE <name> <kind>`; anything else
      // is a free-form comment and is skipped either way.
      if (meta != nullptr) {
        const bool is_help = line.rfind("# HELP ", 0) == 0;
        const bool is_type = line.rfind("# TYPE ", 0) == 0;
        if (is_help || is_type) {
          const size_t name_start = 7;
          const size_t name_end = line.find(' ', name_start);
          if (name_end != std::string::npos && name_end > name_start) {
            const std::string name =
                line.substr(name_start, name_end - name_start);
            const std::string rest = line.substr(name_end + 1);
            if (is_help) {
              (*meta)[name].help = UnescapeHelp(rest);
            } else {
              (*meta)[name].type = rest;
            }
          }
        }
      }
      continue;
    }

    ExpositionSample sample;
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    if (i == 0) return fail("missing metric name");
    sample.name = line.substr(0, i);
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (true) {
        if (i >= line.size()) return fail("unterminated labels");
        if (line[i] == '}') {
          ++i;
          break;
        }
        const size_t eq = line.find('=', i);
        if (eq == std::string::npos || eq == i) {
          return fail("malformed label");
        }
        const std::string key = line.substr(i, eq - i);
        i = eq + 1;
        if (i >= line.size() || line[i] != '"') return fail("malformed label");
        ++i;
        // Escape-aware value scan: \" stays inside the value, and a '}'
        // inside quotes never terminates the label block.
        std::string value;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') {
            if (i + 1 >= line.size()) return fail("unterminated label value");
            const char c = line[i + 1];
            value += c == 'n' ? '\n' : c;
            i += 2;
          } else {
            value += line[i++];
          }
        }
        if (i >= line.size()) return fail("unterminated label value");
        ++i;  // closing quote
        sample.labels[key] = std::move(value);
        if (i < line.size() && line[i] == ',') ++i;
      }
    }
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) return fail("missing sample value");
    char* end = nullptr;
    sample.value = std::strtod(line.c_str() + i, &end);
    if (end == line.c_str() + i) return fail("malformed sample value");
    out->push_back(std::move(sample));
  }
  return true;
}

}  // namespace wimpi::obs
