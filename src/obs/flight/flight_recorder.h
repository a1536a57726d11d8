#ifndef WIMPI_OBS_FLIGHT_FLIGHT_RECORDER_H_
#define WIMPI_OBS_FLIGHT_FLIGHT_RECORDER_H_

// Always-on flight recorder (ISSUE #7 tentpole).
//
// Every thread that records gets its own fixed-capacity ring of compact
// 32-byte event records; recording is wait-free and unconditional:
//   one relaxed load (the global enable flag), four relaxed stores (the
//   event words), one release store (the ring head). No lock, no
//   allocation, no clock syscall beyond the monotonic NowMicros read.
// The rings keep the last few thousand events per thread — enough recent
// history that when a query blows its latency objective, gets cancelled,
// times out, or a cluster fault fires, the service can *retroactively*
// dump the window around it as one Chrome trace without anyone having
// asked for tracing up front.
//
// Overwritten events are simply lost (that is the point of a flight
// recorder: bounded memory, newest history wins). A reader snapshotting a
// ring concurrently with its writer can observe a torn event at the wrap
// frontier; Snapshot() drops records whose timestamp is outside the
// plausible window instead of crashing — diagnostics may lose one event,
// the engine never blocks. All ring words are std::atomic so TSan sees
// plain relaxed accesses, not data races.
//
// The recorder is enabled by default (set WIMPI_FLIGHT_DISABLE=1 to turn
// it off); determinism is unaffected either way — recording writes only
// telemetry words, never anything an operator reads.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/timeline/timeline.h"
#include "obs/trace.h"

namespace wimpi::obs::flight {

// Compact event taxonomy. `a` and `b` are kind-specific payloads (see the
// Record call sites); `query` is the service-wide query id (0 = none).
// Span kinds (RecordSpan) are stamped at their start and pack their
// duration into b: b = duration us << 32 | payload.
enum class EventKind : uint32_t {
  kQuerySubmit = 1,   // a = priority permille, b = estimated bytes
  kQueueEnter = 2,    // a = queue depth after the push
  kQueryAdmit = 3,    // a = running count, b = queue wait us
  kQueryReject = 4,   // a = StatusCode, b = queue wait us
  kQueryCancelQueued = 5,  // b = queue wait us
  kQueryFinish = 6,   // a = StatusCode, b = wall us
  kPipeline = 7,      // span: a = morsel count, payload = total rows
  kMorselBatch = 8,   // span: a = morsel index, payload = rows
  kPoolTask = 9,      // span: a = worker index
  kClusterFault = 10, // a = node id, b = fault detail
  kClusterSteal = 11, // a = thief node, b = victim node << 32 | morsels
  kClusterCkpt = 12,  // a = node id, b = partition << 32 | morsels
};

const char* EventKindName(EventKind kind);

// One decoded flight record.
struct FlightEvent {
  int64_t ts_us = 0;
  uint64_t query = 0;
  EventKind kind = EventKind::kQuerySubmit;
  int tid = 0;      // CurrentThreadId() of the recording thread
  int32_t a = 0;
  int64_t b = 0;

  // The two halves of a span kind's b (see RecordSpan).
  int64_t span_dur_us() const { return b >> 32; }
  int64_t span_payload() const { return b & 0xFFFFFFFF; }
};

// Dense id of the calling thread (0 = first thread that asked): the tid of
// its ring and its row in every rendered host trace.
int CurrentThreadId();

class FlightRecorder {
 public:
  static FlightRecorder& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Ring capacity (events per thread) applied to rings created *after*
  // the call; existing rings keep their size. Test/tool knob.
  void set_ring_capacity(size_t events);

  // The hot path: one relaxed load when disabled; four relaxed stores, a
  // release head bump, and one NowMicros read when enabled.
  static void Record(EventKind kind, uint64_t query, int32_t a = 0,
                     int64_t b = 0);
  // One record for a span that began at `start_us` and ends now: stamped
  // at its start, with b = duration us << 32 | payload, so renderings draw
  // it with its duration. Same hot path plus one subtraction.
  static void RecordSpan(EventKind kind, uint64_t query, int64_t start_us,
                         int32_t a, uint32_t payload = 0);

  // Cluster-fault trigger: records a kClusterFault event, bumps the
  // flight.trigger.fault counter, and — when a fault dump path was
  // configured via SetFaultDumpPath or WIMPI_FLIGHT_FAULT_DUMP — dumps
  // the last few seconds of history retroactively (bounded by the same
  // max-dumps cap the service triggers use), with the timeline sampler's
  // slice of that window when the sampler is running.
  static void NoteFault(int32_t node, int64_t detail);
  void SetFaultDumpPath(std::string path, int max_dumps = 4);

  // Point-in-time merge of every thread's ring, oldest first. Torn or
  // implausible records at the wrap frontier are dropped.
  std::vector<FlightEvent> Snapshot() const;
  // Only events with ts_us >= since_us (the retroactive trigger window).
  std::vector<FlightEvent> SnapshotSince(int64_t since_us) const;

  // Lifetime totals across all rings: events recorded, and events lost to
  // ring wrap (recorded minus still resident, clamped at zero per ring).
  int64_t TotalRecorded() const;
  int64_t TotalDropped() const;
  size_t ring_count() const;

  // Renders `events` as trace events: one 'X' span per completed query
  // lifecycle (kTracePidQueryLanes, cat "flight.query"); on the recording
  // thread's row (kTracePidHost) one 'X' span per span record — pipeline
  // (cat "flight.pipeline"), morsel (cat "flight.morsel") and pool task
  // (cat "flight.task"); and every record as an 'i' instant
  // (kTracePidHost, cat "flight.event", args {"query","a","b"} — the whole
  // record).
  static std::vector<TraceEvent> ToTraceEvents(
      const std::vector<FlightEvent>& events);

  // Dumps the window since `since_us` to the one file `path` through
  // obs::WriteTraceFile as one Chrome trace: the ToTraceEvents rendering
  // plus the counter tracks of the timeline `slice` (none when it is
  // empty). Returns false and fills *error when the file cannot be written
  // or the window is empty.
  bool DumpSince(int64_t since_us, const std::string& path,
                 const timeline::QueryTimeline& slice = {},
                 std::string* error = nullptr) const;

 private:
  FlightRecorder();

  struct Ring;
  Ring* RegisterRing();
  // The calling thread's ring (registered on first use); nullptr while
  // the recorder is disabled.
  static Ring* ThreadRing();
  void AppendRingEvents(const Ring& ring, int64_t since_us,
                        std::vector<FlightEvent>* out) const;

  static thread_local Ring* t_ring_;

  std::atomic<bool> enabled_{true};
  std::atomic<size_t> ring_capacity_;

  mutable std::mutex rings_mu_;
  std::vector<Ring*> rings_;  // leaked: rings outlive their threads

  std::mutex fault_mu_;
  std::string fault_dump_path_;
  int fault_dumps_left_ = 0;
  int fault_dump_seq_ = 0;
};

}  // namespace wimpi::obs::flight

#endif  // WIMPI_OBS_FLIGHT_FLIGHT_RECORDER_H_
