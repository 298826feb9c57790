#!/usr/bin/env bash
# A/A check: run the full set of workloads twice on the same code (three
# runs per workload per set, seeds 1-3 and 4-6), print both medians and
# their relative difference per end-to-end metric x workload against the
# metric's bound in BENCHMARK.json, and exit non-zero on any disagreement.
#
#   bash bench/aa.sh            # from the root of a checkout, about 10 min
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/aa"
mkdir -p "$out"
seconds=$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")
workloads=$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))")
for set in 1 2; do
  for w in $workloads; do
    for run in 1 2 3; do
      seed=$(( (set - 1) * 3 + run ))
      bash "$root/bench/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 > "$out/$w.$set.$run.json"
    done
  done
done
python3 - "$root/BENCHMARK.json" "$out" <<'PY'
import json, statistics, sys
bench = json.load(open(sys.argv[1]))
out = sys.argv[2]
bad = 0
print(f"{'workload':14s} {'metric':18s} {'set 1 median':>14s} {'set 2 median':>14s} {'worse by':>9s} {'bound':>6s}")
for w in (x['name'] for x in bench['workloads']):
    sets = []
    for s in (1, 2):
        runs = [json.load(open(f"{out}/{w}.{s}.{r}.json")) for r in (1, 2, 3)]
        for r in runs:
            if not r['correct'] or r['failed']:
                print(f"{w}: set {s}: {r['failed']} of {r['attempted']} ops failed")
                bad += 1
        sets.append(runs)
    for m in bench['end_to_end']:
        a, b = (statistics.median(r['metrics'][m['name']]['value'] for r in runs) for runs in sets)
        worse = (b - a) / a if m['better'] == 'lower' else (a - b) / a
        flag = ''
        if abs(worse) > m['bound']:
            flag = '  DISAGREE'
            bad += 1
        print(f"{w:14s} {m['name']:18s} {a:14.6g} {b:14.6g} {worse:+9.2%} {m['bound']:6.0%}{flag}")
sys.exit(1 if bad else 0)
PY
