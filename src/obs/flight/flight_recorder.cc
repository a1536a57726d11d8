#include "obs/flight/flight_recorder.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <memory>
#include <utility>

#include "common/json.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/timeline/sampler.h"

namespace wimpi::obs::flight {

namespace {

constexpr size_t kDefaultRingEvents = 8192;
constexpr size_t kWordsPerEvent = 4;
// Retroactive window for fault-triggered dumps.
constexpr int64_t kFaultWindowUs = 5 * 1000 * 1000;

// word2 packs (kind << 32) | uint32(a).
uint64_t PackKindA(EventKind kind, int32_t a) {
  return (static_cast<uint64_t>(kind) << 32) |
         static_cast<uint32_t>(a);
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kQuerySubmit:
      return "query.submit";
    case EventKind::kQueueEnter:
      return "queue.enter";
    case EventKind::kQueryAdmit:
      return "query.admit";
    case EventKind::kQueryReject:
      return "query.reject";
    case EventKind::kQueryCancelQueued:
      return "query.cancel_queued";
    case EventKind::kQueryFinish:
      return "query.finish";
    case EventKind::kPipeline:
      return "pipeline";
    case EventKind::kMorselBatch:
      return "morsel.batch";
    case EventKind::kPoolTask:
      return "pool.task";
    case EventKind::kClusterFault:
      return "cluster.fault";
    case EventKind::kClusterSteal:
      return "cluster.steal";
    case EventKind::kClusterCkpt:
      return "cluster.ckpt";
  }
  return "unknown";
}

// One thread's ring. Owned (and leaked) by the global registry so a
// reader can snapshot rings of threads that have already exited. Only
// the owning thread writes; head ordering publishes complete events:
// the writer fills the four words with relaxed stores, then bumps head
// with release, and readers load head with acquire before touching
// slots — so every slot *below* head holds a fully written event except
// the currently-overwritten one at the wrap frontier, which the reader
// filters by timestamp plausibility.
struct FlightRecorder::Ring {
  explicit Ring(int thread_id, size_t capacity_events)
      : tid(thread_id),
        capacity(capacity_events),
        words(std::make_unique<std::atomic<uint64_t>[]>(capacity_events *
                                                        kWordsPerEvent)) {}

  const int tid;
  const size_t capacity;
  std::atomic<uint64_t> head{0};  // events ever written by this ring
  std::unique_ptr<std::atomic<uint64_t>[]> words;

  void Push(int64_t ts_us, uint64_t query, EventKind kind, int32_t a,
            int64_t b) {
    const uint64_t h = head.load(std::memory_order_relaxed);
    const size_t base = (h % capacity) * kWordsPerEvent;
    words[base + 0].store(static_cast<uint64_t>(ts_us),
                          std::memory_order_relaxed);
    words[base + 1].store(query, std::memory_order_relaxed);
    words[base + 2].store(PackKindA(kind, a), std::memory_order_relaxed);
    words[base + 3].store(static_cast<uint64_t>(b),
                          std::memory_order_relaxed);
    head.store(h + 1, std::memory_order_release);
  }
};

thread_local FlightRecorder::Ring* FlightRecorder::t_ring_ = nullptr;

FlightRecorder::FlightRecorder() : ring_capacity_(kDefaultRingEvents) {
  const char* env = std::getenv("WIMPI_FLIGHT_DISABLE");
  if (env != nullptr && env[0] == '1') {
    enabled_.store(false, std::memory_order_relaxed);
  }
  const char* fault_path = std::getenv("WIMPI_FLIGHT_FAULT_DUMP");
  if (fault_path != nullptr && fault_path[0] != '\0') {
    fault_dump_path_ = fault_path;
    fault_dumps_left_ = 4;
  }
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::set_ring_capacity(size_t events) {
  ring_capacity_.store(events == 0 ? 1 : events, std::memory_order_relaxed);
}

int CurrentThreadId() {
  static std::atomic<int> next_tid{0};
  thread_local int tid = next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

FlightRecorder::Ring* FlightRecorder::RegisterRing() {
  auto* ring = new Ring(CurrentThreadId(),
                        ring_capacity_.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> lock(rings_mu_);
  rings_.push_back(ring);
  return ring;
}

FlightRecorder::Ring* FlightRecorder::ThreadRing() {
  FlightRecorder& g = Global();
  if (!g.enabled_.load(std::memory_order_relaxed)) return nullptr;
  if (t_ring_ == nullptr) t_ring_ = g.RegisterRing();
  return t_ring_;
}

void FlightRecorder::Record(EventKind kind, uint64_t query, int32_t a,
                            int64_t b) {
  if (Ring* ring = ThreadRing()) ring->Push(NowMicros(), query, kind, a, b);
}

void FlightRecorder::RecordSpan(EventKind kind, uint64_t query,
                                int64_t start_us, int32_t a,
                                uint32_t payload) {
  Ring* ring = ThreadRing();
  if (ring == nullptr) return;
  const int64_t dur_us =
      std::clamp<int64_t>(NowMicros() - start_us, 0, INT32_MAX);
  ring->Push(start_us, query, kind, a, (dur_us << 32) | payload);
}

void FlightRecorder::NoteFault(int32_t node, int64_t detail) {
  FlightRecorder& g = Global();
  if (!g.enabled_.load(std::memory_order_relaxed)) return;
  Record(EventKind::kClusterFault, 0, node, detail);
  MetricsRegistry::Global().counter("flight.trigger.fault").Add(1);
  std::string path;
  {
    std::lock_guard<std::mutex> lock(g.fault_mu_);
    if (g.fault_dump_path_.empty() || g.fault_dumps_left_ <= 0) return;
    --g.fault_dumps_left_;
    path = g.fault_dump_path_;
    if (g.fault_dump_seq_ > 0) {
      path += '.';
      path += std::to_string(g.fault_dump_seq_);
    }
    ++g.fault_dump_seq_;
  }
  const int64_t now = NowMicros();
  timeline::QueryTimeline tl;
  if (timeline::SamplerEnabled()) {
    tl = timeline::TimelineSampler::Global().Slice(now - kFaultWindowUs, now);
  }
  g.DumpSince(now - kFaultWindowUs, path, tl);
}

void FlightRecorder::SetFaultDumpPath(std::string path, int max_dumps) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_dump_path_ = std::move(path);
  fault_dumps_left_ = max_dumps;
  fault_dump_seq_ = 0;
}

void FlightRecorder::AppendRingEvents(const Ring& ring, int64_t since_us,
                                      std::vector<FlightEvent>* out) const {
  const uint64_t head = ring.head.load(std::memory_order_acquire);
  const uint64_t resident = std::min<uint64_t>(head, ring.capacity);
  const int64_t now = NowMicros();
  for (uint64_t i = head - resident; i < head; ++i) {
    const size_t base = (i % ring.capacity) * kWordsPerEvent;
    FlightEvent e;
    e.ts_us = static_cast<int64_t>(
        ring.words[base + 0].load(std::memory_order_relaxed));
    e.query = ring.words[base + 1].load(std::memory_order_relaxed);
    const uint64_t ka = ring.words[base + 2].load(std::memory_order_relaxed);
    e.kind = static_cast<EventKind>(ka >> 32);
    e.a = static_cast<int32_t>(static_cast<uint32_t>(ka));
    e.b = static_cast<int64_t>(
        ring.words[base + 3].load(std::memory_order_relaxed));
    e.tid = ring.tid;
    // Torn-record filter: a slot the writer is overwriting right now can
    // mix words of two events. Timestamps outside (0, now] or kinds off
    // the enum are impossible for a complete record — drop them.
    if (e.ts_us <= 0 || e.ts_us > now) continue;
    if ((ka >> 32) < 1 ||
        (ka >> 32) > static_cast<uint64_t>(EventKind::kClusterCkpt)) {
      continue;
    }
    if (e.ts_us < since_us) continue;
    out->push_back(e);
  }
}

std::vector<FlightEvent> FlightRecorder::SnapshotSince(
    int64_t since_us) const {
  std::vector<FlightEvent> out;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    for (const Ring* ring : rings_) {
      AppendRingEvents(*ring, since_us, &out);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.ts_us < y.ts_us;
                   });
  return out;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  return SnapshotSince(0);
}

int64_t FlightRecorder::TotalRecorded() const {
  std::lock_guard<std::mutex> lock(rings_mu_);
  int64_t total = 0;
  for (const Ring* ring : rings_) {
    total += static_cast<int64_t>(ring->head.load(std::memory_order_relaxed));
  }
  return total;
}

int64_t FlightRecorder::TotalDropped() const {
  std::lock_guard<std::mutex> lock(rings_mu_);
  int64_t dropped = 0;
  for (const Ring* ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_relaxed);
    if (head > ring->capacity) {
      dropped += static_cast<int64_t>(head - ring->capacity);
    }
  }
  return dropped;
}

size_t FlightRecorder::ring_count() const {
  std::lock_guard<std::mutex> lock(rings_mu_);
  return rings_.size();
}

namespace {

// {"k":v,...} for the integer args every flight trace event carries.
std::string IntArgs(
    std::initializer_list<std::pair<const char*, int64_t>> args) {
  JsonWriter w;
  w.BeginObject();
  for (const auto& [key, value] : args) w.Key(key).Int(value);
  w.EndObject();
  return w.str();
}

}  // namespace

std::vector<TraceEvent> FlightRecorder::ToTraceEvents(
    const std::vector<FlightEvent>& events) {
  std::vector<TraceEvent> out;

  // Query lanes: one 'X' span per query whose submit (or first sighting)
  // and finish both fall inside the window; open-ended queries get a
  // zero-length marker at their first event instead.
  struct QuerySpanInfo {
    int64_t first_ts = 0;
    int64_t finish_ts = -1;
    int32_t status = -1;
    int64_t wall_us = 0;
    int lane = 0;
  };
  std::map<uint64_t, QuerySpanInfo> queries;
  int next_lane = 0;
  for (const FlightEvent& e : events) {
    if (e.query == 0) continue;
    auto [it, inserted] = queries.emplace(e.query, QuerySpanInfo{});
    if (inserted) {
      it->second.first_ts = e.ts_us;
      it->second.lane = next_lane++;
    }
    if (e.kind == EventKind::kQueryFinish ||
        e.kind == EventKind::kQueryReject ||
        e.kind == EventKind::kQueryCancelQueued) {
      it->second.finish_ts = e.ts_us;
      it->second.status =
          e.kind == EventKind::kQueryCancelQueued ? -2 : e.a;
      it->second.wall_us = e.b;
    }
  }
  for (const auto& [query, info] : queries) {
    const int64_t end = info.finish_ts >= 0 ? info.finish_ts : info.first_ts;
    out.push_back({.name = "query-" + std::to_string(query),
                   .category = "flight.query",
                   .ts_us = info.first_ts,
                   .dur_us = std::max<int64_t>(end - info.first_ts, 1),
                   .tid = info.lane,
                   .pid = kTracePidQueryLanes,
                   .args_json = IntArgs({{"query", static_cast<int64_t>(query)},
                                         {"status", info.status},
                                         {"wall_us", info.wall_us}})});
  }

  // Span records (host pid, the TraceEvent default): one span each, from
  // the record's own start and duration.
  for (const FlightEvent& e : events) {
    const int64_t query = static_cast<int64_t>(e.query);
    TraceEvent span;
    span.ts_us = e.ts_us;
    span.dur_us = e.span_dur_us();
    span.tid = e.tid;
    if (e.kind == EventKind::kPipeline) {
      span.name = "pipeline";
      span.category = "flight.pipeline";
      span.args_json = IntArgs(
          {{"query", query}, {"morsels", e.a}, {"rows", e.span_payload()}});
    } else if (e.kind == EventKind::kMorselBatch) {
      span.name = "morsel";
      span.category = "flight.morsel";
      span.args_json = IntArgs(
          {{"query", query}, {"morsel", e.a}, {"rows", e.span_payload()}});
    } else if (e.kind == EventKind::kPoolTask) {
      span.name = "task";
      span.category = "flight.task";
      span.args_json = IntArgs({{"worker", e.a}});
    } else {
      continue;
    }
    out.push_back(std::move(span));
  }

  // Every record as an instant on its thread row.
  for (const FlightEvent& e : events) {
    out.push_back(
        {.name = EventKindName(e.kind),
         .category = "flight.event",
         .phase = 'i',
         .ts_us = e.ts_us,
         .tid = e.tid,
         .args_json = IntArgs({{"query", static_cast<int64_t>(e.query)},
                               {"a", e.a},
                               {"b", e.b}})});
  }
  return out;
}

bool FlightRecorder::DumpSince(int64_t since_us, const std::string& path,
                               const timeline::QueryTimeline& slice,
                               std::string* error) const {
  const std::vector<FlightEvent> events = SnapshotSince(since_us);
  if (events.empty()) {
    if (error != nullptr) *error = "flight window is empty";
    return false;
  }
  std::vector<TraceEvent> trace = ToTraceEvents(events);
  slice.AppendCounterTracks(&trace);
  if (!WriteTraceFile(path, trace, error)) return false;
  MetricsRegistry::Global().counter("flight.dumps").Add(1);
  return true;
}

}  // namespace wimpi::obs::flight
