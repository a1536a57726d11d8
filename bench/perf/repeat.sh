#!/usr/bin/env bash
# Repeats bench_perf and summarises the spread of every metric.
#
#   bash bench/perf/repeat.sh --out DIR [--runs N] [--seconds S] [--trace 0|1]
#       Runs every workload N times (default 5), alternating the workload
#       order between rounds, round i (from 1) with seed i. Appends each
#       run's JSON result line to DIR/<workload>.jsonl, then prints the
#       summary.
#   bash bench/perf/repeat.sh --summary DIR
#       Per workload and metric: median, quartiles, (q3-q1)/median and
#       (max-min)/median over the runs in DIR.
#   bash bench/perf/repeat.sh --compare DIR_A DIR_B
#       Exits 1 if, on any workload, an end-to-end metric's median in DIR_B
#       is worse than in DIR_A by more than the metric's bound in
#       BENCHMARK.json, or if any run was incorrect.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
workloads="power_sf025_t1 power_sf025_t4 streams_sf01 cached_sf005_t4"

summarise() {
  python3 - "${root}/BENCHMARK.json" "$@" <<'EOF'
import json, os, statistics, sys

bench = json.load(open(sys.argv[1]))
mode, dirs = sys.argv[2], sys.argv[3:]

def load(d):
    runs = {}
    for f in sorted(os.listdir(d)):
        if f.endswith(".jsonl"):
            with open(os.path.join(d, f)) as fh:
                runs[f[:-6]] = [json.loads(l) for l in fh if l.strip()]
    return runs

def stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0, \
        (max(values) - min(values)) / med if med else 0.0

def table(runs):
    out = {}
    for w, rs in runs.items():
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            out[(w, name)] = (stats(vals), rs[0]["metrics"][name]["unit"], len(vals))
    return out

if mode == "summary":
    runs = load(dirs[0])
    bad = sum(1 for rs in runs.values() for r in rs if not r["correct"])
    print(f"{'workload':<16} {'metric':<40} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8} {'rng/med':>8}")
    for (w, name), ((med, q1, q3, iqr, rng), unit, n) in sorted(table(runs).items()):
        print(f"{w:<16} {name:<40} {n:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{iqr:>8.1%} {rng:>8.1%}  {unit}")
    print(f"incorrect runs: {bad}")
    sys.exit(1 if bad else 0)

a, b = table(load(dirs[0])), table(load(dirs[1]))
bad = [r for d in dirs for rs in load(d).values() for r in rs if not r["correct"]]
failed = bool(bad)
for m in bench["end_to_end"]:
    for (w, name), ((med_a, *_), unit, _n) in sorted(a.items()):
        if name != m["name"] or (w, name) not in b:
            continue
        med_b = b[(w, name)][0][0]
        worse = (med_b - med_a) / med_a if m["better"] == "lower" else (med_a - med_b) / med_a
        ok = worse <= m["bound"]
        failed |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {w:<16} {name:<12} A {med_a:.6g} B {med_b:.6g} "
              f"worse by {worse:+.1%} (bound {m['bound']:.0%})")
print(f"incorrect runs: {len(bad)}")
sys.exit(1 if failed else 0)
EOF
}

case "${1:-}" in
  --summary) summarise summary "$2"; exit ;;
  --compare) summarise compare "$2" "$3"; exit ;;
esac

out="" runs=5 seconds=20 trace=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --out) out="$2" ;;
    --runs) runs="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) trace="$2" ;;
    *) echo "repeat.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done
[[ -n "${out}" ]] || { echo "repeat.sh: --out DIR is required" >&2; exit 2; }
mkdir -p "${out}"

read -r -a order <<<"${workloads}"
for ((i = 0; i < runs; i++)); do
  round=("${order[@]}")
  if ((i % 2 == 1)); then
    round=()
    for ((j = ${#order[@]} - 1; j >= 0; j--)); do round+=("${order[j]}"); done
  fi
  for w in "${round[@]}"; do
    seed=$((i + 1))
    echo "repeat.sh: run $((i + 1))/${runs} ${w} seed ${seed}" >&2
    bash "${root}/bench/perf/run.sh" --workload "${w}" --seed "${seed}" \
      --seconds "${seconds}" --trace "${trace}" 2>/dev/null |
      tail -n 1 >>"${out}/${w}.jsonl"
  done
done
summarise summary "${out}"
