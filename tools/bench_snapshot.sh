#!/usr/bin/env bash
# Engine perf-trajectory snapshot.
#
# Runs the engine microbenches (bench_engine_perf) in google-benchmark JSON
# mode and folds the numbers into BENCH_engine.json at the repo root:
#
#   {
#     "baseline":  { "<bench>": {"real_time_ns", "items_per_second"}, ... },
#     "current":   { ... same shape, freshly measured ... },
#     "speedup_vs_baseline": { "<bench>": <baseline_time / current_time> },
#     "history":   [ {"engine", "date", "marks": { ... }}, ... ]
#   }
#
# "baseline" is sticky: it is carried over from the existing file so the
# trajectory is always measured against the recorded reference (the
# pre-overhaul seed engine, captured in PR 1). Pass --rebaseline to promote
# the fresh run to the new baseline (do this when intentionally moving the
# reference point, e.g. after a hardware change). Rebaselines no longer
# discard the prior trajectory: the retired "current" marks are appended to
# the "history" array (stamped with the engine version from
# src/core/version.hpp and today's UTC date), which dring_metrics --bench
# renders as rebaseline eras.
#
# --check turns the snapshot into a CI perf gate: measure, compare against
# the committed "current" entries in BENCH_engine.json, and exit 1 if any
# benchmark's time regressed by more than the tolerance (default 10%,
# override with --tolerance FRAC). Check mode never rewrites the file, so
# the committed trajectory only moves when a developer runs the snapshot
# deliberately. Every benchmark's signed % delta is printed either way;
# on failure the per-benchmark deltas are also written as JSON to
# $BUILD_DIR/bench_delta.json so CI logs and tooling get the same numbers.
#
# Noise handling: each benchmark runs 3 repetitions; the snapshot records
# the median, the gate compares the min, and a failed compare re-measures
# only the regressed benchmarks (up to 2 retries, time-separated) before
# failing for real. See the inline comments at each step.
#
# Usage: tools/bench_snapshot.sh [--build-dir DIR] [--rebaseline]
#                                [--check] [--tolerance FRAC]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build"
REBASELINE=0
CHECK=0
TOLERANCE=0.10
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --rebaseline) REBASELINE=1; shift ;;
    --check) CHECK=1; shift ;;
    --tolerance) TOLERANCE="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
if [[ "$CHECK" == 1 && "$REBASELINE" == 1 ]]; then
  echo "error: --check and --rebaseline are mutually exclusive" >&2
  exit 2
fi

BIN="$BUILD_DIR/bench_engine_perf"
if [[ ! -x "$BIN" ]]; then
  cmake -B "$BUILD_DIR" -S "$ROOT"
  cmake --build "$BUILD_DIR" -j --target bench_engine_perf
fi
# Fail loudly rather than fold an empty run into BENCH_engine.json: the
# binary can still be missing after the build attempt (e.g. the build dir
# was configured with -DDRING_BUILD_BENCHES=OFF, or the build failed in a
# way the caller ignored).
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN is missing or not executable after the build attempt" >&2
  echo "       (configure with -DDRING_BUILD_BENCHES=ON and re-run)" >&2
  exit 1
fi

# Three repetitions per benchmark: the snapshot records the MEDIAN (a
# representative value with headroom) while --check compares the MIN (the
# least noise-inflated estimate). On shared/frequency-scaled hardware a
# single run can swing 30% either way; the median-vs-min asymmetry keeps
# the gate quiet through clock phases while a real regression still lifts
# the min past the tolerance.
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT
"$BIN" \
  --benchmark_filter='RoundsPerSecondRaw|ManyAgentsSnapshot|BatchRoundsPerSecond|QueryCacheLookup|StreamingFold|QueryAggregate' \
  --benchmark_min_time=0.5 \
  --benchmark_repetitions=3 \
  --benchmark_format=json > "$RAW"

if [[ "$CHECK" == 1 ]]; then
  # Compare the min across every raw file gathered so far against the
  # committed medians.  On a sustained-slow machine phase a whole run can
  # measure 30-50% high, so a failed compare retries JUST the regressed
  # benchmarks after a pause and min-merges the new samples in — two
  # time-separated slow phases in a row is what it takes to fail the gate
  # spuriously.  Python exit code 3 = regression (retryable); anything
  # else is a configuration error and aborts immediately.
  RAWS="$RAW"
  ATTEMPT=0
  MAX_RETRIES=2
  while :; do
    set +e
    RAWS="$RAWS" OUT="$ROOT/BENCH_engine.json" TOLERANCE="$TOLERANCE" \
      DELTA="$BUILD_DIR/bench_delta.json" python3 - <<'EOF'
import json, os, sys

out_path = os.environ["OUT"]
delta_path = os.environ["DELTA"]
tolerance = float(os.environ["TOLERANCE"])

if not os.path.exists(out_path):
    print(f"error: --check needs a committed {out_path} to compare against",
          file=sys.stderr)
    sys.exit(1)
committed = json.load(open(out_path)).get("current", {})

# Min over every repetition in every raw file: noise only ever adds
# time, so the smallest observation is the best estimate of the true
# cost for gating purposes.
fresh = {}
for path in os.environ["RAWS"].split(":"):
    raw = json.load(open(path))
    for b in raw["benchmarks"]:
        if (b.get("run_type", "iteration") != "iteration"
                or "real_time" not in b):
            continue
        fresh[b["name"]] = min(fresh.get(b["name"], float("inf")),
                               b["real_time"])

shared = sorted(set(fresh) & set(committed))
if not shared:
    print("error: no benchmark names in common between the run and "
          f"{out_path} (run: {sorted(fresh) or 'nothing'})", file=sys.stderr)
    sys.exit(1)

deltas = {}
regressed = []
print(f"perf gate: tolerance {tolerance:.0%} vs committed {out_path}")
for name in shared:
    recorded = committed[name]["real_time_ns"]
    measured = fresh[name]
    ratio = measured / recorded if recorded > 0 else float("inf")
    delta_pct = (ratio - 1.0) * 100.0
    verdict = "OK" if ratio <= 1.0 + tolerance else "REGRESSED"
    print(f"  {name}: {measured:.0f}ns vs {recorded:.0f}ns recorded "
          f"({delta_pct:+.1f}%) {verdict}")
    deltas[name] = {
        "recorded_ns": round(recorded, 2),
        "measured_ns": round(measured, 2),
        "delta_pct": round(delta_pct, 2),
        "regressed": verdict != "OK",
    }
    if verdict != "OK":
        regressed.append(name)

if regressed:
    doc = {
        "tolerance_pct": round(tolerance * 100.0, 2),
        "regressed": regressed,
        "benchmarks": deltas,
    }
    with open(delta_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {delta_path}")
    print(f"error: {len(regressed)} benchmark(s) regressed more than "
          f"{tolerance:.0%}: {', '.join(regressed)} — fix the hot path, or "
          "re-run tools/bench_snapshot.sh to move the trajectory "
          "deliberately", file=sys.stderr)
    sys.exit(3)
print("perf gate passed")
EOF
    RC=$?
    set -e
    [[ "$RC" == 0 ]] && exit 0
    [[ "$RC" != 3 ]] && exit "$RC"
    ATTEMPT=$((ATTEMPT + 1))
    [[ "$ATTEMPT" -gt "$MAX_RETRIES" ]] && exit 1
    REGRESSED="$(python3 -c 'import json, sys
print("|".join(json.load(open(sys.argv[1]))["regressed"]))' \
      "$BUILD_DIR/bench_delta.json")"
    echo "retry $ATTEMPT/$MAX_RETRIES: re-measuring regressed benchmark(s)" \
         "after a pause: $REGRESSED" >&2
    sleep 10
    EXTRA="$BUILD_DIR/bench_retry_$ATTEMPT.json"
    "$BIN" \
      --benchmark_filter="^(${REGRESSED})\$" \
      --benchmark_min_time=0.5 \
      --benchmark_repetitions=3 \
      --benchmark_format=json > "$EXTRA"
    RAWS="$RAWS:$EXTRA"
  done
fi

# Engine version for history stamps, straight from the source of truth.
ENGINE="dring-$(awk '/constexpr int kEngineVersion(Major|Minor|Patch) =/ {
  gsub(/;/, ""); v[++n] = $NF } END { print v[1] "." v[2] "." v[3] }' \
  "$ROOT/src/core/version.hpp")"

RAW="$RAW" OUT="$ROOT/BENCH_engine.json" REBASELINE="$REBASELINE" \
  ENGINE="$ENGINE" TODAY="$(date -u +%F)" python3 - <<'EOF'
import json, os, sys

raw = json.load(open(os.environ["RAW"]))
out_path = os.environ["OUT"]
rebaseline = os.environ["REBASELINE"] == "1"

# Median over the repetitions: the recorded trajectory should be a
# representative run, not a lucky fast one (--check compares its min
# against these numbers, so a fast-phase record would make the gate cry
# wolf on every ordinary re-measure).
samples = {}
for b in raw["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration" or "real_time" not in b:
        continue
    samples.setdefault(b["name"], []).append(
        (b["real_time"], b.get("items_per_second", 0.0))
    )

def median_sample(pairs):
    pairs = sorted(pairs)
    return pairs[len(pairs) // 2]

current = {}
for name, pairs in samples.items():
    real_time, items = median_sample(pairs)
    current[name] = {
        "real_time_ns": round(real_time, 2),
        "items_per_second": round(items, 1),
    }

# A partial snapshot is worse than no snapshot: if the filter matched
# nothing (renamed benches, wrong binary), abort before touching the file.
expected = ("RoundsPerSecondRaw", "ManyAgentsSnapshot", "BatchRoundsPerSecond",
            "QueryCacheLookup", "StreamingFold", "QueryAggregate")
for fragment in expected:
    if not any(fragment in name for name in current):
        sys.exit(
            f"error: no '{fragment}' benchmarks in the run — refusing to "
            f"write a partial {out_path} (got: {sorted(current) or 'nothing'})"
        )

existing = {}
if os.path.exists(out_path):
    with open(out_path) as f:
        existing = json.load(f)

baseline = existing.get("baseline")
history = existing.get("history", [])
if rebaseline and existing.get("current"):
    # Keep the trajectory: the marks being retired become a history era
    # instead of vanishing.
    history = history + [{
        "engine": os.environ["ENGINE"],
        "date": os.environ["TODAY"],
        "marks": existing["current"],
    }]
if rebaseline or not baseline:
    baseline = current

speedup = {
    name: round(baseline[name]["real_time_ns"] / current[name]["real_time_ns"], 2)
    for name in current
    if name in baseline and current[name]["real_time_ns"] > 0
}

doc = {
    "comment": "Engine perf trajectory; regenerate with tools/bench_snapshot.sh. "
               "baseline = pre-overhaul seed engine unless --rebaseline was used; "
               "history = trajectories retired by past rebaselines.",
    "baseline": baseline,
    "current": current,
    "history": history,
    "speedup_vs_baseline": speedup,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
for name, s in sorted(speedup.items()):
    print(f"  {name}: {s}x vs baseline")
EOF
