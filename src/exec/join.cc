#include "exec/join.h"

#include <algorithm>
#include <bit>
#include <memory>

#include "common/logging.h"
#include "exec/estimator.h"
#include "exec/hash_keys.h"
#include "exec/morsel_exec.h"
#include "obs/profiler.h"

namespace wimpi::exec {
namespace {

using storage::Column;

// The parallel build (see JoinWith): `slices` tasks each empty the buckets
// of one contiguous slice of [0, mask] and link the rows that hash there.
template <typename Key>
void BuildPartitioned(const Key& build, int64_t n_build, uint64_t mask,
                      int slices, int32_t* head, int32_t* next) {
  const int shift = std::countr_zero(mask + 1);
  auto slice_of = [&](uint32_t b) {
    return static_cast<int>((static_cast<uint64_t>(b) * slices) >> shift);
  };
  // A row and its bucket (below 2^32: there are at most twice as many
  // buckets as int32 rows); the linking overwrites the bucket with the
  // row's chain link.
  struct Entry {
    int32_t row;
    uint32_t bucket;
  };
  // Each morsel's rows, grouped by slice in row order, in the morsel's own
  // range of `part`: it hashes them once to count them per slice and once
  // to place them. Morsel m's rows of slice s are [at[m][s], at[m][s+1]).
  // `part` is left uninitialized, so the morsels touch their own pages
  // first; it takes 8 bytes per row and is the build's only per-row
  // transient.
  const auto part = std::make_unique_for_overwrite<Entry[]>(n_build);
  const int morsels = NumMorsels(n_build, slices);
  std::vector<int64_t> at(static_cast<size_t>(morsels) * (slices + 1));
  RunMorsels(n_build, slices, [&](const parallel::Morsel& m) {
    auto bucket = [&](int64_t i) {
      return static_cast<uint32_t>(build.Hash(i) & mask);
    };
    std::vector<int64_t> pos(slices + 1);
    for (int64_t i = m.begin; i < m.end; ++i) ++pos[slice_of(bucket(i)) + 1];
    int64_t* start = &at[m.index * (slices + 1)];
    start[0] = m.begin;
    for (int s = 0; s < slices; ++s) start[s + 1] = start[s] + pos[s + 1];
    std::copy(start, start + slices, pos.begin());
    for (int64_t i = m.begin; i < m.end; ++i) {
      const uint32_t b = bucket(i);
      part[pos[slice_of(b)]++] = {static_cast<int32_t>(i), b};
    }
  });
  RunChunks(slices, 1, slices, [&](const parallel::Morsel& m) {
    // Slice s holds the buckets b with b * slices >> shift == s.
    const uint64_t n_buckets = mask + 1;
    auto first_bucket = [&](uint64_t s) {
      return (s * n_buckets + slices - 1) / slices;
    };
    std::fill(head + first_bucket(m.index), head + first_bucket(m.index + 1),
              -1);
    for (int mo = 0; mo < morsels; ++mo) {
      const int64_t* start = &at[mo * (slices + 1) + m.index];
      for (int64_t p = start[0]; p < start[1]; ++p) {
        Entry& e = part[p];
        const int32_t link = head[e.bucket];
        head[e.bucket] = e.row;
        e.bucket = static_cast<uint32_t>(link);
      }
    }
  });
  RunMorsels(n_build, slices, [&](const parallel::Morsel& m) {
    for (int64_t p = m.begin; p < m.end; ++p) {
      next[part[p].row] = static_cast<int32_t>(part[p].bucket);
    }
  });
}

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
  // Neither array is filled here: the build empties `head` in its own
  // tasks and writes every entry of `next`.
  const auto head = std::make_unique_for_overwrite<int32_t[]>(n_buckets);
  const auto next = std::make_unique_for_overwrite<int32_t[]>(n_build);

  const int bkw = KeyWidth(build_keys);
  const int pkw = KeyWidth(probe_keys);
  const double table_bytes = static_cast<double>(n_buckets) * 4 +
                             static_cast<double>(n_build) * (4 + bkw);

  {
    obs::OpScope build_scope("hash_build", n_build);
    build_scope.set_rows_out(n_build);
    // One thread links every row in order at its bucket's head, so each
    // chain lists its rows newest first. Above one thread the build is
    // radix-partitioned on the bucket range, into one contiguous slice
    // per task, and ends with the same chains: each morsel hashes its
    // rows and groups them by slice, stably, in its own range of one
    // buffer; each task links its slice's rows morsel by morsel, so in
    // row order; and each morsel writes next[] for its own rows. No two
    // tasks write one chain, and no two morsels write one row's link.
    // Either way the task that links a bucket first empties it. An empty
    // build side links nothing and runs no pipeline: its two buckets are
    // emptied here.
    const int build_threads = PlannedThreads(n_build);
    if (n_build == 0) {
      std::fill_n(head.get(), n_buckets, -1);
    } else if (build_threads == 1) {
      const auto buckets = static_cast<int64_t>(n_buckets);
      RunChunks(buckets, buckets, 1, [&](const parallel::Morsel&) {
        std::fill_n(head.get(), n_buckets, -1);
        for (int64_t i = 0; i < n_build; ++i) {
          const uint64_t b = build.Hash(i) & mask;
          next[i] = head[b];
          head[b] = static_cast<int32_t>(i);
        }
      });
    } else {
      BuildPartitioned(build, n_build, mask, build_threads, head.get(),
                       next.get());
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
    const int32_t* heads = head.get();
    const int32_t* chain = next.get();
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
    struct ProbePart {
      std::vector<int32_t> build_idx;
      std::vector<int32_t> probe_idx;
      int64_t chain_steps = 0;
    };
    std::vector<ProbePart> parts(NumMorsels(n_probe, probe_threads));
    RunMorsels(n_probe, probe_threads, [&](const parallel::Morsel& m) {
      ProbePart& part = parts[m.index];
      part.chain_steps =
          probe_range(m.begin, m.end, &part.build_idx, &part.probe_idx);
    });
    // The first part becomes the result; the others are appended to it.
    size_t total_b = 0, total_p = 0;
    for (const ProbePart& part : parts) {
      total_b += part.build_idx.size();
      total_p += part.probe_idx.size();
      chain_steps += static_cast<double>(part.chain_steps);
    }
    if (!parts.empty()) {
      result.build_idx = std::move(parts[0].build_idx);
      result.probe_idx = std::move(parts[0].probe_idx);
    }
    result.build_idx.reserve(total_b);
    result.probe_idx.reserve(total_p);
    for (size_t i = 1; i < parts.size(); ++i) {
      result.build_idx.insert(result.build_idx.end(),
                              parts[i].build_idx.begin(),
                              parts[i].build_idx.end());
      result.probe_idx.insert(result.probe_idx.end(),
                              parts[i].probe_idx.begin(),
                              parts[i].probe_idx.end());
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
