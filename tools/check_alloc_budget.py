#!/usr/bin/env python3
"""Gate on the microbenchmarks' heap-allocation counters.

Reads one or more google-benchmark JSON reports and fails when an
allocation counter exceeds its committed budget. Each report is matched to
its binary by the `context.executable` field, and every budget of that
binary must be present in the report:

* micro_rtec, `allocs_per_slide` — BM_CERecognitionWindow (arg 0 = naive
  engine, 1 = incremental, 2 = auto) and BM_SkewedFleetRecognition. The
  budgets hold generous headroom over the measured values (~61 naive / ~107
  incremental — the ~20 allocs over the pre-scoped ~86 are the dependency
  projector's steady-state footprint) but sit an order of magnitude below
  the pre-arena baseline (884.8 / 897.7), so a regression that reintroduces
  per-slide heap churn trips the gate while scheduler noise does not.
* micro_ais, `allocs_per_line` — BM_DecodeFeed. Decoding a position report
  (types 1/2/3/18) must not allocate at all; on the realistic mix only the
  type 5/19 name strings may (~0.054 measured, budget 0.5).
* micro_tracker, `allocs_per_tuple` — BM_ProcessCruise/BM_ProcessAnchored
  at every history size. A vessel's rings are sized once; the counter is
  its one-time setup plus stop-buffer growth amortized over the trace
  (~0.001-0.004 measured, budget 0.01; a per-tuple allocation is >= 1).
* micro_snapshot, `allocs_per_checkpoint` — BM_PipelineCheckpoint: one
  SaveTo + EncodeSnapshotFile of a churned 4-shard pipeline. The budget is
  the measured count (27): the payload and file strings grow geometrically
  and the CRC allocates nothing, so any new allocation on the checkpoint
  path trips the gate.

Allocation counting is a deterministic operator-new interposition, not a
timing, so the check is stable on shared CI runners.

Usage: check_alloc_budget.py BENCHMARK_JSON [BENCHMARK_JSON ...]
Exit status: 0 ok (or counters disabled, e.g. sanitizer builds), 1 over
budget, 2 usage/parse error or a budgeted benchmark missing.
"""

import json
import os
import sys

# executable -> (counter, {benchmark name -> max value})
BUDGETS = {
    "micro_rtec": ("allocs_per_slide", {
        "BM_CERecognitionWindow/0": 150.0,  # naive engine
        "BM_CERecognitionWindow/1": 200.0,  # incremental engine
        # auto resolves to incremental at this window shape (omega = 6 beta);
        # adaptive full-regen slides stay on the same arena, so same budget.
        "BM_CERecognitionWindow/2": 200.0,
        # Skewed fleet (601 vessels, steady-state slides only): ~56
        # allocs/slide measured on both axes. Keeping steady slides
        # O(changes) rather than O(fleet) is the point of the scoped-dirty
        # work, so the budget is deliberately far below fleet size: one
        # stray per-vessel allocation (a capturing callback, a
        # cleared-not-reused scratch map) costs ~600 allocs/slide here and
        # trips the gate at once.
        "BM_SkewedFleetRecognition/0": 300.0,  # fleet-wide regen floor
        "BM_SkewedFleetRecognition/1": 300.0,  # dependency-scoped propagation
    }),
    "micro_ais": ("allocs_per_line", {
        "BM_DecodeFeed/0": 0.0,  # types 1 and 18 only
        "BM_DecodeFeed/1": 0.5,  # with type 5/19 names, corrupt lines
    }),
    "micro_tracker": ("allocs_per_tuple", {
        f"BM_{kind}/{m}": 0.01
        for kind in ("ProcessCruise", "ProcessAnchored")
        for m in (2, 10, 50, 200)
    }),
    "micro_snapshot": ("allocs_per_checkpoint", {
        "BM_PipelineCheckpoint": 27.0,
    }),
}


def matches(name, key):
    """Benchmark `name` is `key`, possibly with /suffixes (manual_time...)."""
    return name == key or name.startswith(key + "/")


def check_report(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"cannot read benchmark json {path}: {e}", file=sys.stderr)
        return 2
    executable = os.path.basename(
        report.get("context", {}).get("executable", ""))
    if executable not in BUDGETS:
        print(f"{path}: no budgets for executable '{executable}'",
              file=sys.stderr)
        return 2
    counter, budgets = BUDGETS[executable]

    seen = {}
    for b in report.get("benchmarks", []):
        name = b.get("name", "")
        for key in budgets:
            if matches(name, key) and counter in b:
                seen[key] = float(b[counter])

    missing = sorted(set(budgets) - set(seen))
    if missing:
        print(f"{path}: missing benchmarks/counters in report: {missing}",
              file=sys.stderr)
        return 2

    if all(v == 0.0 for v in seen.values()):
        # Interposition disabled (sanitizer build): nothing to gate on.
        print(f"{path}: {counter} counters are zero; counting disabled, "
              "skipping")
        return 0

    status = 0
    for key, budget in sorted(budgets.items()):
        value = seen[key]
        verdict = "ok" if value <= budget else "OVER BUDGET"
        print(f"{key}: {counter}={value:.4g} budget={budget:g} [{verdict}]")
        if value > budget:
            status = 1
    return status


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    return max(check_report(path) for path in argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
