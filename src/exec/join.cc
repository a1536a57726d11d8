#include "exec/join.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <type_traits>

#include "common/logging.h"
#include "exec/estimator.h"
#include "exec/hash_keys.h"
#include "exec/morsel_exec.h"
#include "obs/profiler.h"

namespace wimpi::exec {
namespace {

using storage::Column;

// A bucket's filter word (see join.h): the low byte is a tag set, with bit
// h >> 61 set for each row linked into the bucket, and the high byte the
// bucket's chain length, saturating at 255. A saturated length does not
// count, so its bucket is always walked.
constexpr uint16_t kSaturated = 0xff00;

inline uint8_t TagBit(uint64_t h) { return uint8_t{1} << (h >> 61); }

inline void AddToFilter(uint16_t& f, uint8_t tag) {
  f = static_cast<uint16_t>((f | tag) + (f < kSaturated ? 0x100 : 0));
}

// The parallel build (see JoinWith): `slices` tasks each empty the buckets
// of one contiguous slice of [0, mask] and link the rows that hash there,
// folding them into the buckets' filter words when `filter` is not null.
template <typename Key>
void BuildPartitioned(const Key& build, int64_t n_build, uint64_t mask,
                      int slices, int32_t* head, int32_t* next,
                      uint16_t* filter) {
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
  // first; it takes 8 bytes per row. With a filter, the placing pass also
  // writes each entry's tag bit into `tags` (a byte per row), so that the
  // linking does not hash again. These are the build's only per-row
  // transients.
  const auto part = std::make_unique_for_overwrite<Entry[]>(n_build);
  std::unique_ptr<uint8_t[]> tags;
  if (filter != nullptr) {
    tags = std::make_unique_for_overwrite<uint8_t[]>(n_build);
  }
  const int morsels = NumMorsels(n_build, slices);
  std::vector<int64_t> at(static_cast<size_t>(morsels) * (slices + 1));
  RunMorsels(n_build, slices, [&](const parallel::Morsel& m) {
    std::vector<int64_t> pos(slices + 1);
    for (int64_t i = m.begin; i < m.end; ++i) {
      ++pos[slice_of(static_cast<uint32_t>(build.Hash(i) & mask)) + 1];
    }
    int64_t* start = &at[m.index * (slices + 1)];
    start[0] = m.begin;
    for (int s = 0; s < slices; ++s) start[s + 1] = start[s] + pos[s + 1];
    std::copy(start, start + slices, pos.begin());
    for (int64_t i = m.begin; i < m.end; ++i) {
      const uint64_t h = build.Hash(i);
      const auto b = static_cast<uint32_t>(h & mask);
      const int64_t p = pos[slice_of(b)]++;
      part[p] = {static_cast<int32_t>(i), b};
      if (filter != nullptr) tags[p] = TagBit(h);
    }
  });
  RunChunks(slices, 1, slices, [&](const parallel::Morsel& m) {
    // Slice s holds the buckets b with b * slices >> shift == s.
    const uint64_t n_buckets = mask + 1;
    auto first_bucket = [&](uint64_t s) {
      return (s * n_buckets + slices - 1) / slices;
    };
    const uint64_t lo = first_bucket(m.index);
    const uint64_t hi = first_bucket(m.index + 1);
    std::fill(head + lo, head + hi, -1);
    if (filter != nullptr) std::fill(filter + lo, filter + hi, 0);
    for (int mo = 0; mo < morsels; ++mo) {
      const int64_t* start = &at[mo * (slices + 1) + m.index];
      for (int64_t p = start[0]; p < start[1]; ++p) {
        Entry& e = part[p];
        const int32_t link = head[e.bucket];
        head[e.bucket] = e.row;
        if (filter != nullptr) AddToFilter(filter[e.bucket], tags[p]);
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

// The finished build side, read-only while probe morsels share it.
struct JoinTable {
  const int32_t* head;
  const int32_t* next;
  const uint16_t* filter;  // null when every probe row walks its chain
  uint64_t mask;
};

// One probe morsel's output: its pairs (inner, left outer) or its selected
// probe rows (semi, anti, with `build_idx` empty).
struct ProbePart {
  std::vector<int32_t> build_idx;
  std::vector<int32_t> probe_idx;
  int64_t chain_steps = 0;
};

// Probes rows [begin, end), compiled once per key reader, join kind and
// filter use. Inner and left outer joins append their pairs. Semi and anti
// joins select branch-free: every row id is written into a block of kBlock
// rows and the write position advances by the match result, and each full
// block is appended at once, so the selection touches only as much memory
// as it keeps. Counts the chain entries that a walk of every row's bucket
// visits, skipped walks included.
template <JoinKind kKind, bool kFiltered, typename Key>
void ProbeRange(const Key& build, const Key& probe, const JoinTable& t,
                int64_t begin, int64_t end, ProbePart* out) {
  constexpr bool kPairs =
      kKind == JoinKind::kInner || kKind == JoinKind::kLeftOuter;
  // Rows are hashed kAhead rows early and their bucket's head and filter
  // word prefetched, so the loads of consecutive probe rows overlap.
  constexpr int64_t kAhead = 16;
  auto stage = [&](int64_t p) {
    const uint64_t h = probe.Hash(p);
    if constexpr (kFiltered) __builtin_prefetch(t.filter + (h & t.mask));
    __builtin_prefetch(t.head + (h & t.mask));
    return h;
  };
  uint64_t hashes[kAhead];
  for (int64_t p = begin; p < std::min(end, begin + kAhead); ++p) {
    hashes[p - begin] = stage(p);
  }
  constexpr int64_t kBlock = 1024;
  int32_t block[kBlock];
  int64_t steps = 0;
  for (int64_t block_begin = begin; block_begin < end; block_begin += kBlock) {
    const int64_t block_end = std::min(end, block_begin + kBlock);
    int64_t w = 0;
    for (int64_t p = block_begin; p < block_end; ++p) {
      const auto row = static_cast<int32_t>(p);
      uint64_t& slot = hashes[(p - begin) % kAhead];
      const uint64_t h = slot;
      if (p + kAhead < end) slot = stage(p + kAhead);
      const uint64_t b = h & t.mask;
      bool matched = false;
      if (kFiltered && (t.filter[b] & TagBit(h)) == 0 &&
          t.filter[b] < kSaturated) {
        // No row in the bucket has the probe row's tag, so none matches: a
        // walk would visit the whole chain and find nothing.
        steps += t.filter[b] >> 8;
      } else {
        for (int32_t e = t.head[b]; e >= 0; e = t.next[e]) {
          ++steps;
          if (!build.Eq(e, probe, p)) continue;
          matched = true;
          if constexpr (kPairs) {
            out->build_idx.push_back(e);
            out->probe_idx.push_back(row);
          } else {
            break;  // one match decides a semi or anti row
          }
        }
      }
      if constexpr (kKind == JoinKind::kLeftOuter) {
        if (!matched) {
          out->build_idx.push_back(-1);
          out->probe_idx.push_back(row);
        }
      } else if constexpr (!kPairs) {
        block[w] = row;
        w += matched == (kKind == JoinKind::kSemi);
      }
    }
    if constexpr (!kPairs) {
      out->probe_idx.insert(out->probe_idx.end(), block, block + w);
    }
  }
  out->chain_steps = steps;
}

// Calls fn(kind, filtered) with both as compile-time constants.
template <typename Fn>
void WithProbeLoop(JoinKind kind, bool filtered, Fn&& fn) {
  auto with_filter = [&](auto k) {
    if (filtered) {
      fn(k, std::true_type{});
    } else {
      fn(k, std::false_type{});
    }
  };
  switch (kind) {
    case JoinKind::kInner:
      return with_filter(
          std::integral_constant<JoinKind, JoinKind::kInner>{});
    case JoinKind::kSemi:
      return with_filter(std::integral_constant<JoinKind, JoinKind::kSemi>{});
    case JoinKind::kAnti:
      return with_filter(std::integral_constant<JoinKind, JoinKind::kAnti>{});
    case JoinKind::kLeftOuter:
      return with_filter(
          std::integral_constant<JoinKind, JoinKind::kLeftOuter>{});
  }
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
  // The filter pays back its build (one more random read-modify-write per
  // build row, and its pages) only when the probe reads each bucket about
  // once or more; the build empties it beside `head`.
  std::unique_ptr<uint16_t[]> filter;
  if (n_probe >= static_cast<int64_t>(n_buckets)) {
    filter = std::make_unique_for_overwrite<uint16_t[]>(n_buckets);
  }

  const int bkw = KeyWidth(build_keys);
  const int pkw = KeyWidth(probe_keys);
  // The modeled table is `head` and `next` alone: the filter is host-only.
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
    // Either way the task that links a bucket first empties it and its
    // filter word. An empty build side links nothing and runs no
    // pipeline: its two buckets are emptied here.
    const int build_threads = PlannedThreads(n_build);
    uint16_t* words = filter.get();
    if (n_build == 0) {
      std::fill_n(head.get(), n_buckets, -1);
      if (words != nullptr) std::fill_n(words, n_buckets, 0);
    } else if (build_threads == 1) {
      const auto buckets = static_cast<int64_t>(n_buckets);
      RunChunks(buckets, buckets, 1, [&](const parallel::Morsel&) {
        std::fill_n(head.get(), n_buckets, -1);
        if (words != nullptr) std::fill_n(words, n_buckets, 0);
        for (int64_t i = 0; i < n_build; ++i) {
          const uint64_t h = build.Hash(i);
          const uint64_t b = h & mask;
          next[i] = head[b];
          head[b] = static_cast<int32_t>(i);
          if (words != nullptr) AddToFilter(words[b], TagBit(h));
        }
      });
    } else {
      BuildPartitioned(build, n_build, mask, build_threads, head.get(),
                       next.get(), words);
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

  {
    obs::OpScope probe_scope("hash_probe", n_probe);
    const int probe_threads = PlannedThreads(n_probe);
    const JoinTable table{head.get(), next.get(), filter.get(), mask};
    // Probe morsels share the table and emit their own output, which
    // concatenates in morsel order.
    std::vector<ProbePart> parts(NumMorsels(n_probe, probe_threads));
    WithProbeLoop(kind, filter != nullptr, [&](auto k, auto filtered) {
      RunMorsels(n_probe, probe_threads, [&](const parallel::Morsel& m) {
        ProbeRange<decltype(k)::value, decltype(filtered)::value>(
            build, probe, table, m.begin, m.end, &parts[m.index]);
      });
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
  // Row ids are int32_t in the table and in the result.
  constexpr int64_t kMaxRows = std::numeric_limits<int32_t>::max();
  WIMPI_CHECK_LE(build_keys[0]->size(), kMaxRows);
  WIMPI_CHECK_LE(probe_keys[0]->size(), kMaxRows);
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
