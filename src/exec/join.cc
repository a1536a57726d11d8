#include "exec/join.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "exec/estimator.h"
#include "exec/hash_keys.h"
#include "exec/morsel_exec.h"
#include "obs/profiler.h"

namespace wimpi::exec {
namespace {

using storage::Column;

template <typename Key>
JoinResult JoinWith(const Key& build, const Key& probe,
                    const std::vector<const Column*>& build_keys,
                    const std::vector<const Column*>& probe_keys,
                    JoinKind kind, QueryStats* stats) {
  const int64_t n_build = build_keys[0]->size();
  const int64_t n_probe = probe_keys[0]->size();
  obs::OpScope join_scope("HashJoin", n_probe);

  // Bucket-chained table: head[bucket] -> entry index, next[] chains.
  const uint64_t n_buckets =
      std::bit_ceil(static_cast<uint64_t>(std::max<int64_t>(n_build, 1)) * 2);
  const uint64_t mask = n_buckets - 1;
  std::vector<int32_t> head(n_buckets, -1);
  std::vector<int32_t> next(n_build, -1);

  const int bkw = KeyWidth(build_keys);
  const int pkw = KeyWidth(probe_keys);
  const double table_bytes = static_cast<double>(n_buckets) * 4 +
                             static_cast<double>(n_build) * (4 + bkw);

  {
    obs::OpScope build_scope("hash_build", n_build);
    build_scope.set_rows_out(n_build);
    const int build_threads = PlannedThreads(n_build);
    if (build_threads <= 1) {
      RunSequential(n_build, [&] {
        for (int64_t i = 0; i < n_build; ++i) {
          const uint64_t b = build.Hash(i) & mask;
          next[i] = head[b];
          head[b] = static_cast<int32_t>(i);
        }
      });
    } else {
      // Two-phase parallel build. Phase 1 precomputes the row hashes (pure
      // element-wise map). Phase 2 partitions the *bucket* range: each task
      // scans every row in order but links only the rows that land in its
      // own buckets, so no two tasks touch the same chain and every chain
      // ends up in the exact LIFO order the sequential insert produces.
      std::vector<uint64_t> hashes(n_build);
      RunMorsels(n_build, build_threads, [&](const parallel::Morsel& m) {
        for (int64_t i = m.begin; i < m.end; ++i) {
          hashes[i] = build.Hash(i) & mask;
        }
      });
      const int64_t buckets = static_cast<int64_t>(n_buckets);
      const int64_t per_task =
          (buckets + build_threads - 1) / build_threads;
      RunChunks(buckets, per_task, build_threads,
                [&](const parallel::Morsel& m) {
                  const uint64_t lo = static_cast<uint64_t>(m.begin);
                  const uint64_t hi = static_cast<uint64_t>(m.end);
                  for (int64_t i = 0; i < n_build; ++i) {
                    const uint64_t b = hashes[i];
                    if (b < lo || b >= hi) continue;
                    next[i] = head[b];
                    head[b] = static_cast<int32_t>(i);
                  }
                });
    }
    if (stats != nullptr) {
      OpStats op;
      op.op = "hash_build";
      op.compute_ops = static_cast<double>(n_build) * cost::kHashInsert *
                       static_cast<double>(build_keys.size());
      op.seq_bytes = static_cast<double>(n_build) * bkw;
      op.rand_count = static_cast<double>(n_build);
      op.rand_struct_bytes = table_bytes;
      // The build inserts every input row; its cardinality is exact by
      // construction.
      op.rows_in = static_cast<double>(n_build);
      op.rows_out = static_cast<double>(n_build);
      if (CurrentExecOptions().cardinality_estimator != nullptr) {
        op.est_rows = static_cast<double>(n_build);
      }
      stats->Add(std::move(op));
      stats->TrackAlloc(table_bytes);
    }
  }

  JoinResult result;
  double chain_steps = 0;
  const bool want_pairs =
      kind == JoinKind::kInner || kind == JoinKind::kLeftOuter;

  // The finished table is read-only from here on: probe morsels share it
  // and emit per-morsel pair lists that concatenate in morsel order.
  // Returns the number of chain entries visited.
  auto probe_range = [&](int64_t begin, int64_t end,
                         std::vector<int32_t>* build_out,
                         std::vector<int32_t>* probe_out) {
    const int32_t* heads = head.data();
    const int32_t* chain = next.data();
    // Buckets are hashed kAhead rows early and their heads prefetched, so
    // the head loads of consecutive probe rows overlap.
    constexpr int64_t kAhead = 16;
    uint64_t buckets[kAhead];
    for (int64_t p = begin; p < std::min(end, begin + kAhead); ++p) {
      buckets[p - begin] = probe.Hash(p) & mask;
      __builtin_prefetch(heads + buckets[p - begin]);
    }
    int64_t steps = 0;
    for (int64_t p = begin; p < end; ++p) {
      const auto row = static_cast<int32_t>(p);
      uint64_t& slot = buckets[(p - begin) % kAhead];
      const int32_t first = heads[slot];
      if (p + kAhead < end) {
        slot = probe.Hash(p + kAhead) & mask;
        __builtin_prefetch(heads + slot);
      }
      bool matched = false;
      for (int32_t e = first; e >= 0; e = chain[e]) {
        ++steps;
        if (!build.Eq(e, probe, p)) continue;
        matched = true;
        if (want_pairs) {
          build_out->push_back(e);
          probe_out->push_back(row);
        } else if (kind == JoinKind::kSemi) {
          probe_out->push_back(row);
          break;
        } else {  // kAnti: keep walking to be sure, but we can stop early
          break;
        }
      }
      if (!matched) {
        if (kind == JoinKind::kAnti) {
          probe_out->push_back(row);
        } else if (kind == JoinKind::kLeftOuter) {
          build_out->push_back(-1);
          probe_out->push_back(row);
        }
      }
    }
    return steps;
  };

  {
    obs::OpScope probe_scope("hash_probe", n_probe);
    const int probe_threads = PlannedThreads(n_probe);
    if (probe_threads <= 1) {
      RunSequential(n_probe, [&] {
        chain_steps = static_cast<double>(
            probe_range(0, n_probe, &result.build_idx, &result.probe_idx));
      });
    } else {
      struct ProbePart {
        std::vector<int32_t> build_idx;
        std::vector<int32_t> probe_idx;
        int64_t chain_steps = 0;
      };
      std::vector<ProbePart> parts(NumMorsels(n_probe));
      RunMorsels(n_probe, probe_threads, [&](const parallel::Morsel& m) {
        ProbePart& part = parts[m.index];
        part.chain_steps =
            probe_range(m.begin, m.end, &part.build_idx, &part.probe_idx);
      });
      size_t total_b = 0, total_p = 0;
      for (const ProbePart& part : parts) {
        total_b += part.build_idx.size();
        total_p += part.probe_idx.size();
      }
      result.build_idx.reserve(total_b);
      result.probe_idx.reserve(total_p);
      for (const ProbePart& part : parts) {
        result.build_idx.insert(result.build_idx.end(),
                                part.build_idx.begin(),
                                part.build_idx.end());
        result.probe_idx.insert(result.probe_idx.end(),
                                part.probe_idx.begin(),
                                part.probe_idx.end());
        chain_steps += static_cast<double>(part.chain_steps);
      }
    }

    if (stats != nullptr) {
      OpStats op;
      op.op = "hash_probe";
      op.compute_ops =
          (static_cast<double>(n_probe) * cost::kHashProbe + chain_steps) *
          static_cast<double>(probe_keys.size());
      op.seq_bytes = static_cast<double>(n_probe) * pkw;
      op.rand_count = static_cast<double>(n_probe) + chain_steps;
      op.rand_struct_bytes = table_bytes;
      const double out_bytes =
          static_cast<double>(result.build_idx.size() +
                              result.probe_idx.size()) *
          sizeof(int32_t);
      op.output_bytes = out_bytes;
      op.seq_bytes += out_bytes;
      op.rows_in = static_cast<double>(n_probe);
      op.rows_out = static_cast<double>(result.probe_idx.size());
      if (const CardinalityEstimator* est =
              CurrentExecOptions().cardinality_estimator) {
        op.est_rows = est->EstimateJoinRows(build_keys, n_build, probe_keys,
                                            n_probe, kind);
      }
      stats->Add(std::move(op));
      stats->TrackAlloc(out_bytes);
      stats->TrackFree(table_bytes);
    }
    probe_scope.set_rows_out(static_cast<int64_t>(result.probe_idx.size()));
  }
  join_scope.set_rows_out(static_cast<int64_t>(result.probe_idx.size()));
  return result;
}

}  // namespace

JoinResult HashJoin(const std::vector<const Column*>& build_keys,
                    const std::vector<const Column*>& probe_keys,
                    JoinKind kind, QueryStats* stats) {
  WIMPI_CHECK(!build_keys.empty());
  WIMPI_CHECK_EQ(build_keys.size(), probe_keys.size());
  for (size_t i = 0; i < build_keys.size(); ++i) {
    WIMPI_CHECK(build_keys[i]->type() == probe_keys[i]->type())
        << "join key type mismatch at position " << i;
  }
  return WithKeyReader(build_keys, [&](auto reader) {
    using Reader = typename decltype(reader)::type;
    return JoinWith(Reader::Make(build_keys), Reader::Make(probe_keys),
                    build_keys, probe_keys, kind, stats);
  });
}

}  // namespace wimpi::exec
