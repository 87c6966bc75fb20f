"""rsc-core benchmark.

    python3 bench/run.py --workload corpus --seed 1 --seconds 24 --trace 0

Runs one workload in this process and thread, one input at a time (a
closed loop with one input in flight): one whole pass over the inputs,
then further passes until --seconds have gone by.  An input stopped at
its deadline runs in the first pass only.  Every output is checked against its
reference and every repeat against the first pass.  The last line of
standard output is the result as JSON: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run, which also
writes a per-input report to .bench_out/.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, GeneratorBug, Outcome

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
MIN_INPUT_S = 0.6  # time a pass spends on an input, at least

END_TO_END = {
    "setup_s": "s",
    "input_ms_p50": "ms",
    "input_ms_p90": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "decided_share": "share",
    "verdict_match": "share",
    "ok_share": "share",
}

PER_LAYER = {
    "solver.euf.s": "s",
    "solver.euf.close_calls": "count",
    "solver.normal.s": "s",
    "solver.check.s": "s",
    "solver.queries": "count",
    "solver.distinct_queries": "count",
    "solver.cache_hit_ratio": "ratio",
    "solver.valid": "count",
    "solver.invalid": "count",
    "solver.unknown": "count",
    "solver.fm.s": "s",
    "solver.fm.calls": "count",
    "solver.fm.rows_in_max": "count",
    "solver.fm.vars_in_max": "count",
    "solver.fm.unsat_ratio": "ratio",
    "infer.candidates": "count",
    "infer.weakenings": "count",
    "infer.fixpoint.s": "s",
    "infer.queries": "count",
    "infer.clauses": "count",
    "infer.kvars": "count",
    "infer.split.s": "s",
    "checker.constraint_gen.s": "s",
    "checker.constraints": "count",
    "checker.ctor.s": "s",
    "checker.twophase.s": "s",
    "ssa.translate.s": "s",
    "frontend.parse.s": "s",
    "semantics.simulate.normalize.calls": "count",
    "semantics.simulate.normalize.s": "s",
    "semantics.simulate.translate.s": "s",
    "semantics.simulate.compare.s": "s",
    "semantics.simulate.catchup_ratio": "ratio",
    "semantics.frsc.steps": "count",
    "semantics.frsc.step.s": "s",
    "semantics.irsc.steps": "count",
    "semantics.irsc.step.s": "s",
    "trace.overhead_ratio": "ratio",
}

# The base of every ratio, stated in the report.
RATIO_BASES = {
    "solver.cache_hit_ratio": "solver.queries (check_valid calls)",
    "solver.fm.unsat_ratio": "solver.fm.calls",
    "semantics.simulate.catchup_ratio":
        "target (frsc) steps of all simulations",
    "trace.overhead_ratio":
        "untraced time (both untraced passes) of the inputs decided in"
        " every pass",
}


# ---------------------------------------------------------------------------
# one pass over the inputs


class Sample:
    __slots__ = ("item", "seconds", "outcome", "raised", "self_s", "counts")

    def __init__(self, item, seconds, outcome, raised):
        self.item = item
        self.seconds = seconds
        self.outcome = outcome
        self.raised = raised
        self.self_s = {}
        self.counts = {}


def run_item(item, tracer=None) -> Sample:
    gc.collect()
    if tracer is not None:
        tracer.begin_item(item.name)
    raised = False
    start = time.perf_counter()
    try:
        outcome = item.call()
    except Exception as e:  # an input that raises is a failed operation
        outcome = Outcome(f"raised {type(e).__name__}: {e}", False, False, 0)
        raised = True
    sample = Sample(item, time.perf_counter() - start, outcome, raised)
    if tracer is not None:
        sample.self_s = dict(tracer.self_s)
        sample.counts = dict(tracer.counts)
    return sample


def failed(s: Sample) -> bool:
    return s.raised or (s.outcome.decided and not s.outcome.matches)


def run_input(item, samples: list):
    """Run an input once, or back to back until MIN_INPUT_S have gone by
    in this pass, so that short inputs get more samples."""
    start = time.perf_counter()
    while True:
        s = run_item(item)
        samples.append(s)
        if time.perf_counter() - start >= MIN_INPUT_S or \
                not s.outcome.decided:
            return


def timed_runs(items: list, seconds: float) -> list:
    """The samples of each input: one whole pass, then further passes
    until `seconds` have gone by, the last one cut short.  An input that
    reached no result in the first pass (a check stopped at its deadline)
    is not run again: it would spend its whole deadline in every pass, and
    its first sample stands for it."""
    start = time.perf_counter()
    runs = [[] for _ in items]
    for item, r in zip(items, runs):
        run_input(item, r)
    again = [(item, r) for item, r in zip(items, runs)
             if r[0].outcome.decided]
    while again:
        for item, r in again:
            if time.perf_counter() - start >= seconds:
                return runs
            run_input(item, r)
    return runs


def nondeterministic(runs: list) -> list:
    """Inputs whose output differs between their samples."""
    return sorted({r[0].item.name for r in runs
                   if any(s.outcome.output != r[0].outcome.output
                          for s in r[1:])})


def digest(samples: list) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(f"{s.item.name}\0{s.outcome.output}\0".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up time


def setup_seconds(probe: str) -> list:
    """Import rsccore and make a first call in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        r = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=120)
        if r.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {r.stderr.strip()}")
        times.append(float(r.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# metrics


def median_seconds(r: list) -> float:
    return statistics.median(s.seconds for s in r)


def percentiles_ms(seconds: list) -> tuple:
    """p50 and p90; inclusive, as with fewer than ten values the default
    method extrapolates past the largest one."""
    return (1000 * statistics.median(seconds),
            1000 * statistics.quantiles(seconds, n=10,
                                        method="inclusive")[-1])


def end_to_end(runs: list, wrong: set, setup: list) -> dict:
    """Per input: its median time over its samples, and its state over
    all of them.  Shares are of inputs; `work_per_s` is the work of one
    pass over the sum of the inputs' median times."""
    decided = [r for r in runs if all(s.outcome.decided for s in r)]
    matched = [r for r in decided if all(s.outcome.matches for s in r)]
    ok = [r for r in matched
          if not any(s.raised for s in r) and r[0].item.name not in wrong]
    p50, p90 = percentiles_ms([median_seconds(r) for r in runs])
    return {
        "setup_s": statistics.median(setup),
        "input_ms_p50": p50,
        "input_ms_p90": p90,
        "work_per_s": sum(r[0].outcome.work for r in runs) /
        sum(median_seconds(r) for r in runs),
        "peak_rss_mb": peak_rss_mb(),
        "decided_share": len(decided) / len(runs),
        "verdict_match": len(matched) / len(decided) if decided else 0.0,
        "ok_share": len(ok) / len(runs),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def group_rates(runs: list) -> dict:
    """Work per second of each item group (the machine, on interp-run),
    over the inputs' median times."""
    work, secs = {}, {}
    for r in runs:
        g = r[0].item.group
        if g:
            work[g] = work.get(g, 0) + r[0].outcome.work
            secs[g] = secs.get(g, 0.0) + median_seconds(r)
    return {g: work[g] / secs[g] for g in sorted(work)}


def per_layer(untraced: list, traced: list) -> dict:
    """Self times and counts from the first traced pass: self times over
    every input, counts over the inputs that reached a result, the only
    ones whose counts repeat exactly (a check stopped at its deadline did
    a time-dependent amount of work).  The overhead ratio uses every pass,
    over the inputs decided in all of them."""
    self_s: dict = {}
    counts: dict = {}
    for s in traced[0]:
        for layer, t in s.self_s.items():
            self_s[layer] = self_s.get(layer, 0.0) + t
        if not s.outcome.decided:
            continue
        for k, v in s.counts.items():
            if k.endswith("_max"):
                counts[k] = max(counts.get(k, 0), v)
            else:
                counts[k] = counts.get(k, 0) + v

    def share(num, den):
        return num / den if den else 0.0

    every = [i for i in range(len(traced[0]))
             if all(p[i].outcome.decided for p in untraced + traced)]
    m = {name: counts.get(name, 0) for name, unit in PER_LAYER.items()
         if unit == "count"}
    m.update({name: self_s.get(name[:-len(".s")], 0.0)
              for name, unit in PER_LAYER.items() if unit == "s"})
    m["solver.cache_hit_ratio"] = share(
        m["solver.queries"] - m["solver.distinct_queries"],
        m["solver.queries"])
    m["solver.fm.unsat_ratio"] = share(counts.get("solver.fm.unsat", 0),
                                       m["solver.fm.calls"])
    m["semantics.simulate.catchup_ratio"] = share(
        counts.get("semantics.simulate.irsc_steps", 0),
        counts.get("semantics.simulate.frsc_steps", 0))
    m["trace.overhead_ratio"] = share(
        sum(p[i].seconds for p in traced for i in every),
        sum(p[i].seconds for p in untraced for i in every))
    return m


# ---------------------------------------------------------------------------
# the two kinds of run


def print_metrics(metrics: dict, units: dict, counts: dict, aliases: dict):
    for name, value in metrics.items():
        alias = aliases.get(name)
        note = f"  ({alias})" if alias and alias != name else ""
        n = f" n={counts[name]}" if name in counts else ""
        print(f"  metric {name:<36} {value:>14.6g} {units[name]:<6}{n}{note}")


def untraced_run(wl, seconds: float, setup: list) -> dict:
    runs = timed_runs(wl.items, seconds)
    samples = [s for r in runs for s in r]
    wrong = set(nondeterministic(runs))
    metrics = end_to_end(runs, wrong, setup)
    n_in, n_ex = len(runs), len(samples)
    print(f"workload {wl.name}: {n_in} inputs, {n_ex} executions"
          f" (median of each input's samples), work unit: {wl.work_unit}")
    for note in wl.notes:
        print(f"  note: {note}")
    n_decided = sum(all(s.outcome.decided for s in r) for r in runs)
    print_metrics(metrics, END_TO_END, {
        "setup_s": len(setup), "input_ms_p50": n_in, "input_ms_p90": n_in,
        "work_per_s": n_in, "peak_rss_mb": 1, "decided_share": n_in,
        "verdict_match": n_decided, "ok_share": n_in}, wl.aliases)
    if 0 < n_decided < n_in:
        p50, p90 = percentiles_ms(
            [median_seconds(r) for r in runs
             if all(s.outcome.decided for s in r)])
        print(f"  decided inputs only: input_ms_p50={p50:.6g} ms,"
              f" input_ms_p90={p90:.6g} ms n={n_decided}")
    rates = group_rates(runs)
    if rates:
        print("  work_per_s by machine: " + ", ".join(
            f"{g}_steps_per_s={v:.6g}" for g, v in rates.items()))
    for r in runs:
        s = r[0]
        state = "FAILED" if failed(s) else \
            "ok" if s.outcome.decided else "undecided"
        print(f"  input {s.item.name:<40} {1000 * median_seconds(r):>10.1f}"
              f" ms n={len(r)}  {state} {s.outcome.detail}".rstrip())
    for name in sorted(wrong):
        print(f"  NONDETERMINISTIC: {name}")
    print(f"  output digest: {digest([r[0] for r in runs])}")
    bad = [s for s in samples if failed(s) or s.item.name in wrong]
    return {"correct": not bad, "attempted": n_ex, "failed": len(bad),
            "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in metrics.items()}}


def traced_run(wl, seed: int) -> dict:
    """Untraced and traced passes, alternating, two of each.  Outputs must
    agree across all four, and counts across the two traced ones."""
    from tracer import LAYERS, Tracer
    tracer = Tracer()
    untraced, traced = [], []
    for _ in range(2):
        untraced.append([run_item(item) for item in wl.items])
        tracer.install()
        try:
            traced.append([run_item(item, tracer) for item in wl.items])
        finally:
            tracer.uninstall()
    passes = untraced + traced
    wrong = set(nondeterministic([list(r) for r in zip(*passes)]))
    for a, b in zip(*traced):
        if a.outcome.decided and b.outcome.decided and a.counts != b.counts:
            wrong.add(a.item.name)
    metrics = per_layer(untraced, traced)

    rows = []
    for u, t in zip(untraced[0], traced[0]):
        rows.append({
            "input": t.item.name, "decided": t.outcome.decided,
            "matches": t.outcome.matches,
            "untraced_s": u.seconds, "traced_s": t.seconds,
            "self_s": {k: t.self_s[k] for k in LAYERS if k in t.self_s},
            "counts": dict(sorted(t.counts.items())),
        })
    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    report.write_text(json.dumps({
        "schema": "rsc-bench/trace/v1", "workload": wl.name, "seed": seed,
        "ratio_bases": RATIO_BASES, "metrics": metrics, "inputs": rows,
        "spans": [{"input": i, "layer": l, "start": a, "end": b,
                   "parent": p} for i, l, a, b, p in tracer.spans],
    }, indent=1))

    print(f"workload {wl.name} (traced): {len(wl.items)} inputs, untraced"
          f" and traced passes alternating, 2 each;"
          f" report {report.relative_to(ROOT)}")
    print(f"  {'input':<30} {'wall ms':>9}  top self times (ms)")
    for r in rows:
        top = sorted(r["self_s"].items(), key=lambda kv: -kv[1])[:4]
        print(f"  {r['input']:<30} {1000 * r['traced_s']:>9.1f}  " +
              " ".join(f"{k}={1000 * v:.1f}" for k, v in top) +
              ("" if r["decided"] else "  [undecided]"))
    print_metrics(metrics, PER_LAYER, {}, {
        name: f"base: {base}" for name, base in RATIO_BASES.items()})
    for name in sorted(wrong):
        print(f"  NONDETERMINISTIC: {name}")
    samples = [s for p in passes for s in p]
    bad = [s for s in samples if failed(s) or s.item.name in wrong]
    return {"correct": not bad, "attempted": len(samples),
            "failed": len(bad),
            "metrics": {k: {"value": v, "unit": PER_LAYER[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/rsccore", "corpus") if not (ROOT / p).is_dir()]
    if missing:
        print(f"bench: {', '.join(missing)} not found under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wall = time.perf_counter()
    try:
        wl = WORKLOADS[args.workload](args.seed)
    except GeneratorBug as e:
        print(f"bench: generator bug: {e}", file=sys.stderr)
        return 3
    if args.trace:
        result = traced_run(wl, args.seed)
    else:
        result = untraced_run(wl, args.seconds, setup_seconds(wl.probe))
    print(f"  wall {time.perf_counter() - wall:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
