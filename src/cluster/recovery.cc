#include "cluster/recovery.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "common/logging.h"

namespace wimpi::cluster {

namespace {

// Fewest un-started morsels a victim must hold before a thief splits
// its range (parallel/steal.h).
constexpr int kMinStealMorsels = 2;
// Publish deadline: a checkpoint publish that would stall longer than
// this (a network-stall fault) is abandoned and the chunk re-executed —
// the fine-grained analogue of the retry path's per-attempt timeout.
// Losing at most `checkpoint_interval` morsels is what bounds a stalled
// link's blast radius; waiting out the stall would not.
constexpr double kPublishTimeoutS = 0.05;

// A contiguous morsel range waiting on some worker's deque.
struct PendingRange {
  int partition = 0;
  parallel::MorselRange range;
  int prev_node = -1;
  bool stolen = false;
};

// An orphaned range: its owner crashed or left. Claimed whole by the
// first idle worker (reassignment, not a steal).
struct Orphan {
  int partition = 0;
  parallel::MorselRange range;
  int prev_node = 0;
  // Modeled time the range became orphaned (owner's clock at death /
  // departure). A claimant cannot start before this: re-execution is
  // causally downstream of the loss.
  double born = 0;
};

struct Worker {
  double clock = 0;
  double spill = 0;
  bool alive = true;
  int lifetime_executed = 0;   // morsels ever executed (crash trigger)
  int transient_failures = 0;  // failed checkpoint publishes so far
  int stalled_publishes = 0;   // net-stall hits absorbed so far
  std::deque<PendingRange> queue;
  // Progress on queue.front(): morsels executed / checkpointed measured
  // from range.begin, plus the modeled times the range and the current
  // un-checkpointed chunk started.
  int executed = 0;
  int checkpointed = 0;
  bool range_started = false;
  double range_start = 0;
  double chunk_start = 0;
};

}  // namespace

FineSchedule SimulateFineGrained(const FineInputs& in) {
  WIMPI_CHECK_GT(in.pool_nodes, 0);
  const int parts = static_cast<int>(in.work_s.size());
  WIMPI_CHECK_EQ(parts, static_cast<int>(in.morsels.size()));
  WIMPI_CHECK_EQ(parts, static_cast<int>(in.spill_s.size()));
  WIMPI_CHECK_EQ(parts, static_cast<int>(in.partial_bytes.size()));

  FineSchedule out;
  for (int p = 0; p < parts; ++p) {
    WIMPI_CHECK_GT(in.morsels[p], 0);
    out.total_morsels += in.morsels[p];
  }

  std::vector<Worker> workers(in.pool_nodes);
  std::vector<Orphan> orphans;
  int remaining = out.total_morsels;  // morsels not yet checkpointed

  // Initial placement mirrors the retry path: partition p starts on node
  // p mod pool, queued in ascending partition order.
  for (int p = 0; p < parts; ++p) {
    PendingRange pr;
    pr.partition = p;
    pr.range = {0, in.morsels[p]};
    workers[p % in.pool_nodes].queue.push_back(pr);
  }

  // Clean-makespan estimate anchoring resize fractions: the most loaded
  // initial worker's total work (checkpoint overhead ignored — the plan
  // only needs a stable, workload-scaled time base).
  double est = 0;
  for (int n = 0; n < in.pool_nodes; ++n) {
    double sum = 0;
    for (const PendingRange& pr : workers[n].queue) sum += in.work_s[pr.partition];
    est = std::max(est, sum);
  }
  if (est <= 0) est = 1e-6;

  // Crash trigger: a crash-faulted node dies after executing half an
  // average node's share of morsels — the fine-grained analogue of the
  // retry model's "fails after half the partition's work". Uniform in
  // lifetime morsels, so a thief that picked up stolen work can still
  // crash mid-steal.
  const int avg_morsels =
      (out.total_morsels + in.pool_nodes - 1) / in.pool_nodes;
  const int crash_after = std::max(1, (avg_morsels + 1) / 2);

  const auto fault_for = [&](int node) -> const NodeFault* {
    return in.faults == nullptr ? nullptr : in.faults->FaultFor(node);
  };
  const auto per_morsel_cost = [&](int p, int node) {
    double cost = in.work_s[p] / in.morsels[p];
    const NodeFault* f = fault_for(node);
    if (f != nullptr && f->kind == FaultKind::kSlowdown) cost *= f->slowdown;
    return cost;
  };

  // Publishes one merge-ready chunk. Returns false when the publish is
  // lost — a transient fault eats it, or a network stall exceeds the
  // publish deadline — and the chunk must be re-executed.
  const auto publish = [&](int node, int p, int chunk_morsels) {
    Worker& w = workers[node];
    const NodeFault* f = fault_for(node);
    if (f != nullptr && f->kind == FaultKind::kTransient &&
        w.transient_failures < f->fail_attempts) {
      ++w.transient_failures;
      return false;
    }
    const double bytes =
        in.partial_bytes[p] * static_cast<double>(chunk_morsels) /
        static_cast<double>(in.morsels[p]);
    double cost = in.per_node_latency_s + bytes * 8.0 / (in.net_mbps * 1e6);
    if (f != nullptr && f->kind == FaultKind::kNetworkStall &&
        w.stalled_publishes < f->fail_attempts) {
      ++w.stalled_publishes;
      if (f->stall_seconds > kPublishTimeoutS) {
        // Stalled past the publish deadline: abandon the publish (the
        // chunk is lost) instead of waiting out the stall. The caller
        // re-executes at most checkpoint_interval morsels.
        w.clock += kPublishTimeoutS;
        return false;
      }
      cost += f->stall_seconds;
    }
    w.clock += cost;
    CheckpointRecord ck;
    ck.partition = p;
    ck.node = node;
    ck.morsels = chunk_morsels;
    ck.bytes = bytes;
    ck.at_seconds = w.clock;
    out.checkpoints.push_back(ck);
    out.checkpoint_bytes += bytes;
    remaining -= chunk_morsels;
    return true;
  };

  // Closes the worker's current range after a loss or departure: emits
  // the checkpointed prefix (kOk) and the executed-but-lost chunk
  // (kUnavailable), and returns the range that still needs execution.
  const auto close_front = [&](int node) -> PendingRange {
    Worker& w = workers[node];
    PendingRange pr = w.queue.front();
    w.queue.pop_front();
    const int base = pr.range.begin;
    if (w.checkpointed > 0) {
      MorselSegment seg;
      seg.partition = pr.partition;
      seg.node = node;
      seg.begin = base;
      seg.end = base + w.checkpointed;
      seg.start_seconds = w.range_start;
      seg.end_seconds = w.chunk_start;
      seg.prev_node = pr.prev_node;
      seg.stolen = pr.stolen;
      seg.outcome = StatusCode::kOk;
      out.segments.push_back(seg);
    }
    if (w.executed > w.checkpointed) {
      MorselSegment seg;
      seg.partition = pr.partition;
      seg.node = node;
      seg.begin = base + w.checkpointed;
      seg.end = base + w.executed;
      seg.start_seconds = w.chunk_start;
      seg.end_seconds = w.clock;
      seg.prev_node = pr.prev_node;
      seg.stolen = pr.stolen;
      seg.outcome = StatusCode::kUnavailable;
      out.segments.push_back(seg);
      out.recovered_morsels += w.executed - w.checkpointed;
    }
    PendingRange rest;
    rest.partition = pr.partition;
    rest.range = {base + w.checkpointed, pr.range.end};
    rest.prev_node = node;
    w.executed = 0;
    w.checkpointed = 0;
    w.range_started = false;
    return rest;
  };

  const auto orphan_all = [&](int node) {
    Worker& w = workers[node];
    if (!w.queue.empty()) {
      PendingRange rest = close_front(node);
      if (!rest.range.empty()) {
        orphans.push_back({rest.partition, rest.range, node, w.clock});
      }
    }
    while (!w.queue.empty()) {
      PendingRange pr = w.queue.front();
      w.queue.pop_front();
      orphans.push_back({pr.partition, pr.range, node, w.clock});
    }
  };

  // Graceful leave: flush the un-checkpointed chunk as a final checkpoint
  // (a transient fault can still eat it — the chunk is then recovered like
  // any other loss), then orphan whatever the node had not started.
  const auto leave = [&](int node) {
    Worker& w = workers[node];
    if (!w.queue.empty() && w.executed > w.checkpointed) {
      if (publish(node, w.queue.front().partition,
                  w.executed - w.checkpointed)) {
        w.checkpointed = w.executed;
        w.chunk_start = w.clock;
      }
    }
    orphan_all(node);
    w.alive = false;
    ++out.leaves;
  };

  const auto crash = [&](int node) {
    orphan_all(node);
    workers[node].alive = false;
    ++out.nodes_failed;
  };

  size_t next_event = 0;
  const std::vector<ResizeEvent> no_events;
  const std::vector<ResizeEvent>& events =
      in.resize == nullptr ? no_events : in.resize->events;

  const auto fire_event = [&](const ResizeEvent& e, double at) {
    if (e.join) {
      Worker joiner;
      joiner.clock = at;
      workers.push_back(joiner);
      ++out.joins;
    } else if (e.node >= 0 && e.node < static_cast<int>(workers.size()) &&
               workers[e.node].alive) {
      leave(e.node);
    }
  };

  // Bounded: every iteration either executes a morsel, fires an event, or
  // terminates. Losses re-execute at most fail_attempts + 1 times per
  // node, so the generous cap only trips on a logic bug.
  const long max_iters =
      static_cast<long>(out.total_morsels + 16) *
      static_cast<long>(workers.size() + events.size() + 16) * 8;
  long iters = 0;

  while (remaining > 0) {
    WIMPI_CHECK_LT(iters++, max_iters);

    // Fire resize events that are due at the simulation front (or
    // unconditionally once nobody is left alive — a pending join is the
    // only thing that can rescue the run).
    bool any_alive = false;
    double front = std::numeric_limits<double>::infinity();
    for (const Worker& w : workers) {
      if (!w.alive) continue;
      any_alive = true;
      front = std::min(front, w.clock);
    }
    if (next_event < events.size()) {
      const double at = events[next_event].at_fraction * est;
      if (!any_alive || at <= front) {
        fire_event(events[next_event], at);
        ++next_event;
        continue;
      }
    }
    if (!any_alive) break;  // dead cluster, no rescue pending

    // Refill idle workers — earliest-idle first (clock, then id). Orphans
    // are claimed whole before any stealing: recovering lost work beats
    // rebalancing live work.
    for (bool acquired = true; acquired;) {
      acquired = false;
      int thief = -1;
      double thief_clock = 0;
      for (int i = 0; i < static_cast<int>(workers.size()); ++i) {
        if (!workers[i].alive || !workers[i].queue.empty()) continue;
        if (thief < 0 || workers[i].clock < thief_clock) {
          thief = i;
          thief_clock = workers[i].clock;
        }
      }
      if (thief < 0) break;
      Worker& tw = workers[thief];
      if (!orphans.empty()) {
        // Lowest (partition, begin) first: canonical claim order.
        size_t pick = 0;
        for (size_t i = 1; i < orphans.size(); ++i) {
          if (orphans[i].partition < orphans[pick].partition ||
              (orphans[i].partition == orphans[pick].partition &&
               orphans[i].range.begin < orphans[pick].range.begin)) {
            pick = i;
          }
        }
        PendingRange pr;
        pr.partition = orphans[pick].partition;
        pr.range = orphans[pick].range;
        pr.prev_node = orphans[pick].prev_node;
        pr.stolen = false;
        const double born = orphans[pick].born;
        orphans.erase(orphans.begin() + static_cast<long>(pick));
        // Fetch the published partials; the claim cannot predate the loss.
        tw.clock = std::max(tw.clock, born) + in.per_node_latency_s;
        tw.queue.push_back(pr);
        acquired = true;
        continue;
      }
      if (!in.opts.steal) break;
      std::vector<parallel::VictimLoad> loads(workers.size());
      for (int i = 0; i < static_cast<int>(workers.size()); ++i) {
        const Worker& w = workers[i];
        if (!w.alive || w.queue.empty()) continue;
        double work = 0;
        int unstarted_front = 0;
        for (size_t qi = 0; qi < w.queue.size(); ++qi) {
          const PendingRange& pr = w.queue[qi];
          int todo = pr.range.size();
          if (qi == 0) {
            todo -= w.executed;
            unstarted_front = todo;
          }
          work += todo * per_morsel_cost(pr.partition, i);
        }
        loads[i].remaining_work = work;
        loads[i].stealable_morsels =
            w.queue.size() > 1
                ? w.queue.back().range.size()
                : unstarted_front - 1;  // victim keeps the morsel in flight
      }
      const int victim =
          parallel::PickVictim(loads, thief, kMinStealMorsels);
      if (victim < 0) break;
      Worker& vw = workers[victim];
      PendingRange stolen;
      if (vw.queue.size() > 1) {
        // Whole un-started range off the back of the victim's deque.
        stolen = vw.queue.back();
        vw.queue.pop_back();
      } else {
        PendingRange& pr = vw.queue.front();
        parallel::MorselRange rest{pr.range.begin + vw.executed,
                                   pr.range.end};
        parallel::MorselRange taken =
            parallel::StealHalf(&rest, kMinStealMorsels);
        if (taken.empty()) break;
        pr.range.end = rest.end;
        stolen.partition = pr.partition;
        stolen.range = taken;
      }
      stolen.prev_node = victim;
      stolen.stolen = true;
      tw.clock += in.per_node_latency_s;
      StealRecord sr;
      sr.partition = stolen.partition;
      sr.victim = victim;
      sr.thief = thief;
      sr.begin = stolen.range.begin;
      sr.end = stolen.range.end;
      sr.at_seconds = tw.clock;
      out.steals.push_back(sr);
      out.stolen_morsels += stolen.range.size();
      tw.queue.push_back(stolen);
      acquired = true;
    }

    // Actor: smallest clock among alive workers holding work, lowest id
    // on ties. Executes exactly one morsel.
    int actor = -1;
    for (int i = 0; i < static_cast<int>(workers.size()); ++i) {
      if (!workers[i].alive || workers[i].queue.empty()) continue;
      if (actor < 0 || workers[i].clock < workers[actor].clock) actor = i;
    }
    if (actor < 0) {
      if (next_event < events.size()) {
        fire_event(events[next_event], events[next_event].at_fraction * est);
        ++next_event;
        continue;
      }
      break;  // idle survivors, unclaimable work: unrecoverable
    }

    Worker& w = workers[actor];
    PendingRange& pr = w.queue.front();
    const int p = pr.partition;
    if (!w.range_started) {
      w.range_started = true;
      w.range_start = w.clock;
      w.chunk_start = w.clock;
    }
    w.clock += per_morsel_cost(p, actor);
    w.spill += in.spill_s[p] / in.morsels[p];
    ++w.executed;
    ++w.lifetime_executed;

    const NodeFault* f = fault_for(actor);
    if (f != nullptr && f->kind == FaultKind::kCrash &&
        w.lifetime_executed >= crash_after) {
      crash(actor);
      continue;
    }

    const bool at_end = pr.range.begin + w.executed == pr.range.end;
    const int chunk = w.executed - w.checkpointed;
    if (chunk >= in.opts.checkpoint_interval || at_end) {
      if (publish(actor, p, chunk)) {
        w.checkpointed = w.executed;
        w.chunk_start = w.clock;
      } else {
        // The publish was lost (transient fault or stalled past the
        // deadline): re-queue the un-acknowledged tail to this same
        // worker and start over there.
        PendingRange rest = close_front(actor);
        if (!rest.range.empty()) w.queue.push_front(rest);
        continue;
      }
    }
    if (at_end) {
      MorselSegment seg;
      seg.partition = p;
      seg.node = actor;
      seg.begin = pr.range.begin;
      seg.end = pr.range.end;
      seg.start_seconds = w.range_start;
      seg.end_seconds = w.clock;
      seg.prev_node = pr.prev_node;
      seg.stolen = pr.stolen;
      seg.outcome = StatusCode::kOk;
      out.segments.push_back(seg);
      w.queue.pop_front();
      w.executed = 0;
      w.checkpointed = 0;
      w.range_started = false;
    }
  }

  out.completed = remaining == 0;
  out.node_clock.resize(workers.size());
  out.node_spill.resize(workers.size());
  out.alive.resize(workers.size());
  for (size_t i = 0; i < workers.size(); ++i) {
    out.node_clock[i] = workers[i].clock;
    out.node_spill[i] = workers[i].spill;
    out.alive[i] = workers[i].alive ? 1 : 0;
    out.makespan_s = std::max(out.makespan_s, workers[i].clock);
  }
  return out;
}

}  // namespace wimpi::cluster
