#!/usr/bin/env python3
"""Bench regression gate: compare a fresh benchmark run against the
committed trajectory (BENCH_E<k>.json files at the repo root).

Wall-clock numbers are machine-dependent, so raw new/old ratios are
useless across CI runners. Instead the gate normalizes each backend's
rows by the median ratio across that backend's compared *_ms metrics: a
uniformly slower machine shifts all ratios equally and the median
divides that shift out, while a genuine regression in one experiment
sticks out above the rest. The median is taken per backend because the
backends change independently: when the VM rows get a third faster, a
median across both backends would drop and push unchanged tree rows
over the threshold. A metric fails when its normalized ratio exceeds the
threshold (default 1.25, i.e. >25% slower than its backend's overall
speed shift).

Only the experiments named with --gate (default e2 and e11) can fail the
gate; every other shared experiment still contributes to its backend's
median.
Missing baselines are a clean skip (exit 0 with a message), so the gate
never blocks a fresh repo or a new experiment.

Besides the relative (trajectory) gate, --slo rows check absolute bounds
against the fresh run only: "serve/p99_ms/hot<=2000" fails the gate when
the new run's serve experiment reports a hot p99 above 2 seconds, and
"serve/hot_speedup>=2" fails when the compile cache stops paying for
itself. A metric recorded for several backends (the E2 specialization
ratios exist for tree and vm) must satisfy the bound on every backend.
Most SLO bounds are deliberately loose — they catch order-of-magnitude
collapses, not machine noise; the E2 specialization SLOs are exact
claims ("e2/spec_vs_direct/size=100<=1.0": profile-guided clones make
overloaded dispatch no slower than direct calls on both backends, and
"e2/spec_selections/size=100<=0": the dispatch is eliminated, not just
cheapened — ratios are unitless, so they skip median normalization and
compare across machines).

A missing or unparseable BENCH_<EXP>.json on either side (a bench binary
that crashed mid-run, a partial artifact download) is a warning and a
skipped experiment, never an abort: one broken experiment must not mask
the comparison of the others.

--new-dir may be given more than once, one directory per fresh run. Each
(experiment, backend, metric) then takes the median over the runs that
recorded it, for the trajectory ratios and the SLO bounds alike, so one
run slowed by a noisy neighbour cannot fail the gate on its own: with
three runs, a row fails only when two of them are slow.

Usage:
  python3 scripts/bench_gate.py [--baseline-dir .] [--new-dir bench-new ...]
                                [--gate e2 --gate e11] [--threshold 1.25]
                                [--slo EXPR ...]
"""

import argparse
import json
import os
import statistics
import sys


def load(path):
    """BENCH_<EXP>.json -> {(experiment, backend, metric): value},
    or None (with a warning) when the file is missing or malformed."""
    try:
        with open(path) as f:
            rows = json.load(f)
        return {
            (r["experiment"], r["backend"], r["metric"]): float(r["value"])
            for r in rows
        }
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"bench-gate: WARNING — cannot read {path} ({e}); "
              f"skipping this experiment")
        return None


def load_runs(new_dirs, name):
    """BENCH file [name] in every fresh run -> {key: median over the runs
    that recorded key}, or None when no run has a readable copy."""
    runs = [rows for rows in (load(os.path.join(d, name)) for d in new_dirs)
            if rows is not None]
    if not runs:
        return None
    keys = set().union(*runs)
    return {key: statistics.median(r[key] for r in runs if key in r)
            for key in keys}


def parse_slo(expr):
    """'exp/metric<=bound' or 'exp/metric>=bound' ->
    (experiment, metric, op, bound)."""
    for op in ("<=", ">="):
        if op in expr:
            lhs, bound = expr.split(op, 1)
            exp, _, metric = lhs.partition("/")
            if not exp or not metric:
                raise ValueError(f"malformed SLO {expr!r}: want exp/metric")
            return exp, metric, op, float(bound)
    raise ValueError(f"malformed SLO {expr!r}: want <= or >=")


def check_slos(slos, new_dirs):
    """Absolute bounds against the fresh runs' medians. Returns failure
    count; metrics absent from every run warn and skip (the tolerance
    rule)."""
    failures = 0
    for expr in slos:
        exp, metric, op, bound = parse_slo(expr)
        name = f"BENCH_{exp.upper()}.json"
        rows = load_runs(new_dirs, name)
        if rows is None:
            continue
        values = [(b, v) for (e, b, m), v in rows.items()
                  if e == exp and m == metric]
        if not values:
            print(f"bench-gate: WARNING — SLO {expr}: metric "
                  f"{exp}/{metric} not in {name}; skipping")
            continue
        # a metric recorded for several backends must hold on every one
        # (the E2 specialization SLO covers tree and vm with one bound)
        for backend, value in sorted(values):
            ok = value <= bound if op == "<=" else value >= bound
            status = "ok" if ok else "FAIL"
            print(f"  [slo] {exp}/{backend}/{metric} = {value:.3f} "
                  f"{op} {bound:g}: {status}")
            if not ok:
                failures += 1
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline-dir", default=".")
    ap.add_argument("--new-dir", action="append", default=[],
                    help="a fresh run's directory (repeatable: each metric "
                         "takes the median over the runs; default "
                         "bench-new)")
    ap.add_argument("--gate", action="append", default=[],
                    help="experiment that can fail the gate (repeatable; "
                         "default: e2 e11)")
    ap.add_argument("--threshold", type=float, default=1.25,
                    help="max allowed normalized new/old ratio (default 1.25)")
    ap.add_argument("--slo", action="append", default=[],
                    help="absolute bound on the fresh runs' median, e.g. "
                         "'serve/p99_ms/hot<=2000' or 'serve/hot_speedup>=2' "
                         "(repeatable)")
    args = ap.parse_args()
    gated = [g.lower() for g in (args.gate or ["e2", "e11"])]
    new_dirs = args.new_dir or ["bench-new"]
    slo_failures = check_slos(args.slo, new_dirs)

    # pair up BENCH_<EXP>.json files present on both sides
    pairs = []
    for name in sorted(set().union(*map(os.listdir, new_dirs))):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        base = os.path.join(args.baseline_dir, name)
        if os.path.exists(base):
            pairs.append((name, base))
        else:
            print(f"bench-gate: no committed baseline {name}; skipping it")

    if not pairs:
        print("bench-gate: no baselines to compare against — skipping "
              "(commit BENCH_E*.json files to enable the gate)")
        return 1 if slo_failures else 0

    # ratios over every shared wall-clock metric, for the machine-speed
    # medians; tiny baselines are noise, not signal
    ratios = {}
    for name, base in pairs:
        b, n = load(base), load_runs(new_dirs, name)
        if b is None or n is None:
            continue
        for key in sorted(set(b) & set(n)):
            # wall-clock metrics are "<name>_ms" or "<name>_ms/<label>"
            if not key[2].split("/")[0].endswith("_ms"):
                continue
            if b[key] < 0.01 or n[key] <= 0.0:
                continue
            ratios[key] = n[key] / b[key]

    if not ratios:
        print("bench-gate: no comparable *_ms metrics — skipping")
        return 1 if slo_failures else 0

    # one machine-speed shift per backend
    by_backend = {}
    for (_, backend, _), ratio in ratios.items():
        by_backend.setdefault(backend, []).append(ratio)
    medians = {b: statistics.median(rs) for b, rs in by_backend.items()}
    print(f"bench-gate: {len(ratios)} wall-clock metrics; median new/old "
          f"ratio per backend (machine-speed shift): " +
          ", ".join(f"{b} {m:.3f} ({len(by_backend[b])} rows)"
                    for b, m in sorted(medians.items())))

    failures = []
    for (exp, backend, metric), ratio in sorted(ratios.items()):
        norm = ratio / medians[backend]
        flag = ""
        if exp in gated and norm > args.threshold:
            failures.append((exp, backend, metric, norm))
            flag = "  << REGRESSION"
        gate = "gate" if exp in gated else "info"
        print(f"  [{gate}] {exp}/{backend}/{metric}: ratio {ratio:.3f} "
              f"normalized {norm:.3f}{flag}")

    if failures:
        print(f"bench-gate: FAIL — {len(failures)} metric(s) more than "
              f"{(args.threshold - 1) * 100:.0f}% slower than the "
              f"trajectory after per-backend normalization:")
        for exp, backend, metric, norm in failures:
            print(f"  {exp}/{backend}/{metric}: {norm:.2f}x")
        return 1

    if slo_failures:
        print(f"bench-gate: FAIL — {slo_failures} SLO bound(s) violated")
        return 1

    print("bench-gate: OK — no gated metric regressed beyond "
          f"{(args.threshold - 1) * 100:.0f}% and all SLO bounds hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
