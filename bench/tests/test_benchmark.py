"""Tests of the benchmark itself:  python3 -m pytest bench/tests -q"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import programs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- generators ----------------------------------------------------------------


def test_ladder_generator_is_deterministic():
    assert programs.ladder_programs() == programs.ladder_programs()
    assert programs.ladder_arrays(7) == programs.ladder_arrays(7)
    assert programs.ladder_arrays(7) != programs.ladder_arrays(8)
    assert [] in programs.ladder_arrays(7)


def test_ladder_has_both_twins_of_every_rung():
    names = {p.name for p in programs.ladder_programs()}
    for join, ks in programs.LADDER_RUNGS:
        for k in ks:
            assert {f"{join}-k{k}-safe", f"{join}-k{k}-off"} <= names


def test_random_program_generator_is_deterministic():
    a = [programs.random_program(random.Random(5)) for _ in range(3)]
    b = [programs.random_program(random.Random(5)) for _ in range(3)]
    assert a == b
    assert programs.random_program(random.Random(6)) != a[0]


def test_simulation_programs_are_the_acceptance_suite_stream():
    sys.path.insert(0, str(ROOT / "tests"))
    from test_semantics import gen_program
    rng = random.Random(programs.SIM_STREAM_SEED)
    assert programs.sim_programs() == \
        [gen_program(rng) for _ in range(programs.SIM_PROGRAMS)]


def test_simulation_inputs_only_rotate_with_the_seed():
    first = [i.name for i in workloads.sim_workload(0).items]
    third = [i.name for i in workloads.sim_workload(2).items]
    assert third == first[2:] + first[:2]


def test_interp_inputs_are_deterministic():
    def outputs(seed):
        return [(i.name, i.call().output) for i in
                workloads.interp_workload(seed).items[:2]]
    assert outputs(2) == outputs(2)


# -- references ------------------------------------------------------------------


def test_manifest_covers_every_corpus_file():
    manifest = workloads.load_manifest()
    files = {p.name for p in (ROOT / "corpus").glob("*.rsc")}
    assert set(manifest) == files
    for name, entry in manifest.items():
        assert entry["verdict"] in ("verified", "errors"), name
        if name.startswith("bad_"):
            assert entry["verdict"] == "errors" and entry["line"], name


def test_ladder_ground_truth_comes_from_the_interpreters():
    arrays = programs.ladder_arrays(1)
    for prog in programs.ladder_programs()[:2]:
        truth = workloads._ladder_truth(prog, arrays)
        assert truth == ("verified" if prog.safe else "errors")


# -- passes ------------------------------------------------------------------------


def fake_item(name, decided):
    calls = []

    def call():
        calls.append(name)
        return workloads.Outcome(name, decided, decided, int(decided))
    return workloads.Item(name, call), calls


def test_an_input_stopped_at_its_deadline_runs_once():
    slow, slow_calls = fake_item("slow", False)
    fast, fast_calls = fake_item("fast", True)
    runs = run.timed_runs([slow, fast], 0.05)
    assert len(slow_calls) == 1 and len(fast_calls) >= 2
    m = run.end_to_end(runs, set(), [0.1])
    assert m["decided_share"] == 0.5
    assert m["ok_share"] == 0.5
    assert m["verdict_match"] == 1.0


# -- metrics -----------------------------------------------------------------------


def test_declared_metrics_match_the_code():
    spec = declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


def small_corpus():
    wl = workloads.corpus_workload(0)
    keep = {"corpus/typeof.rsc", "corpus/head.rsc", "corpus/bad_head0.rsc"}
    wl.items = [i for i in wl.items if i.name in keep]
    return wl


def test_every_printed_metric_is_declared(capsys):
    spec = declared()
    wl = small_corpus()
    plain = run.untraced_run(wl, 0, [0.1, 0.2, 0.3])
    traced = run.traced_run(wl, 0)
    printed = capsys.readouterr().out
    assert plain["correct"] and traced["correct"]
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    shown = {line.split()[1] for line in printed.splitlines()
             if line.split()[:1] == ["metric"]}
    assert shown == set(run.END_TO_END) | set(run.PER_LAYER)
    for m in plain["metrics"].values():
        assert m["value"] > 0


def test_tracing_does_not_change_outputs():
    wl = small_corpus()
    plain = [run.run_item(i).outcome.output for i in wl.items]
    traced = run.traced_run(wl, 0)
    assert traced["failed"] == 0
    assert plain == [run.run_item(i).outcome.output for i in wl.items]


CROSS_RUN = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import run, workloads
from tracer import Tracer
items = workloads.corpus_workload(0).items
items += workloads.ladder_workload(4).items[:2]
items += workloads.sim_workload(0).items[:3]
items = [i for i in items if i.name in {names!r}]
tracer = Tracer()
tracer.install()
out = []
for item in items:
    s = run.run_item(item, tracer)
    out.append([item.name, s.outcome.output, s.counts])
print(json.dumps(out))
"""

# Counters whose value depends on the interpreter's string-hash seed: the
# constant-propagation loop of solver._theory_check_conj walks a set of
# terms, so the number of congruence-closure rounds follows set order
# (bad_field_reset.rsc: 154 close() calls under PYTHONHASHSEED=1, 155 under
# 2).  Within one process every counter repeats exactly.
HASH_ORDER_COUNTERS = {"solver.euf.close_calls"}


def across_hash_seeds(names):
    code = CROSS_RUN.format(bench=str(BENCH), src=str(ROOT / "src"),
                            names=set(names))
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        r = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=600)
        assert r.returncode == 0, r.stderr
        results.append(json.loads(r.stdout))
    return results


def test_outputs_and_counts_repeat_across_processes():
    names = ["corpus/bad_field_reset.rsc", "corpus/head.rsc",
             "corpus/typeof.rsc", "loop-k0-safe", "loop-k0-off",
             "corpus/minindex.rsc:minIndex[[3, 1, 2]]"]
    first, second = across_hash_seeds(names)
    assert [r[0] for r in first] == names
    for (name, out1, counts1), (_, out2, counts2) in zip(first, second):
        assert out1 == out2, name
        for key in HASH_ORDER_COUNTERS:
            counts1.pop(key, None)
            counts2.pop(key, None)
        assert counts1 == counts2, name


@pytest.mark.xfail(strict=True, reason="close() rounds follow set order,"
                   " a program defect the benchmark found")
def test_close_calls_repeat_across_processes():
    first, second = across_hash_seeds(["corpus/bad_field_reset.rsc"])
    assert first[0][2]["solver.euf.close_calls"] == \
        second[0][2]["solver.euf.close_calls"]


# -- the command ---------------------------------------------------------------------


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = declared()["command"]
    r = subprocess.run([sys.executable, *cmd[1:], "--workload", "corpus",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True,
                       timeout=180)
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout


def test_ladder_programs_parse():
    from rsccore.frontend import parse_program
    for prog in programs.ladder_programs():
        parse_program(prog.source, prog.name)
