"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import layers
import run
import tracer
import work

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((BENCH / "spec.json").read_text())
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "serve": dict(SPEC["workloads"]["serve"]["params"], entities=400, triples=1200, queries=8),
    "build": dict(SPEC["workloads"]["build"]["params"], entities=400, triples=1200, queries=8),
    "deletion": dict(SPEC["workloads"]["deletion"]["params"], clusters=8, cases=4),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generator_is_deterministic(workload):
    files, digest = gen.generate(workload, 7, SMALL[workload])
    again, digest_again = gen.generate(workload, 7, SMALL[workload])
    assert files == again and digest == digest_again
    _, other = gen.generate(workload, 8, SMALL[workload])
    assert other != digest


def test_generator_refuses_unstable_output(monkeypatch):
    calls = []

    def unstable(rng, params):
        calls.append(1)
        return {"x": str(len(calls)).encode()}

    monkeypatch.setitem(gen.MAKERS, "serve", unstable)
    with pytest.raises(gen.NondeterministicInputError):
        gen.generate("serve", 1, {})


def test_planted_queries_hold_in_the_generated_graph():
    files, _ = gen.generate("serve", 3, SMALL["serve"])
    graph = set(files["graph.nt"].decode().splitlines(keepends=True))
    for line in files["deletions.nt"].decode().splitlines(keepends=True):
        assert line in graph
    queries = [json.loads(q) for q in files["queries.jsonl"].decode().splitlines()]
    assert [q["shape"] for q in queries[:6]] == ["cycle3", "cycle3", "cycle4", "path", "path", "star"]


def type_classes(text: str) -> list[str]:
    return re.findall(r"\?\w+ a (<[^>]+>)", text)


@pytest.mark.parametrize("seed", [3, 4])
def test_only_the_fixed_slots_share_a_class(seed):
    # every 4th query shares one class between two type leaves; the other
    # cyclic queries alternate a constant leaf and a second type leaf
    params = dict(SMALL["serve"], queries=16, shared_class_every=4)
    files, _ = gen.generate("serve", seed, params)
    queries = [json.loads(q) for q in files["queries.jsonl"].decode().splitlines()]
    for qi, q in enumerate(queries):
        classes = type_classes(q["text"])
        if qi % 4 == 3:
            assert q["shape"] == "cycle3" and len(classes) == 2 and classes[0] == classes[1]
        else:
            assert len(classes) == len(set(classes))
    cyclic = [q for qi, q in enumerate(queries) if qi % 4 != 3 and q["shape"].startswith("cycle")]
    assert [len(type_classes(q["text"])) for q in cyclic][:4] in ([1, 2, 1, 2], [2, 1, 2, 1])


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] that overlap, and c [8, 12]
    # that runs past the root's end; a has one child [2, 3].
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    own = tracer.self_times(parent, start, end)
    # root: covered [1, 6] and [8, 10] -> 7, so 3 of its own
    assert list(own) == [3.0, 2.0, 1.0, 3.0, 4.0]
    summary = tracer.summarize(["root", "a", "leaf", "c"], [0, 1, 2, 1, 3], parent, start, end)
    assert summary["a"] == {"calls": 2, "incl_s": 6.0, "self_s": 5.0}
    assert summary["root"]["self_s"] == 3.0


def test_tracer_records_nesting_and_reports_absent_targets():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    target = tracer.Target("bench.inner", "json", "dumps")
    tr.install([target, tracer.Target("gone", "json", "no_such_function"),
                tracer.Target("gone", "no_such_module", "f")])
    try:
        with tr.span("bench.outer"):
            assert json.dumps([1]) == "[1]"
    finally:
        tr.uninstall()
    assert not hasattr(json.dumps, "__wrapped__")
    assert tr.absent == ["json.no_such_function", "no_such_module.f"]
    summary = tr.summary()
    assert summary["bench.inner"] == {"calls": 1, "incl_s": 1.0, "self_s": 1.0}
    assert summary["bench.outer"] == {"calls": 1, "incl_s": 3.0, "self_s": 2.0}


def test_host_speed_rescales_windows_and_skips_kernel_time():
    hs = work.HostSpeed(interval_s=1.0, loops=1, reference_s=1.0)
    # samples: at t=0 the kernel took 1 s (speed 1), at t=10 it took 2 s
    # (median of the last three: 1.5 s, speed 2/3)
    hs.starts, hs.ends, hs.speeds = [0.0, 10.0], [1.0, 12.0], [1.0, 1.0 / 1.5]
    assert hs.adjusted(2.0, 6.0) == 4.0
    assert hs.adjusted(8.0, 15.0) == 2.0 + 3.0 / 1.5


def test_tracer_file_roundtrip(tmp_path):
    tr = tracer.Tracer()
    with tr.span("a"):
        with tr.span("b"):
            pass
    tr.counts["x"] += 2
    tr.write(tmp_path / "spans")
    header, name, parent, start, end = tracer.read(tmp_path / "spans")
    assert header["names"] == ["a", "b"] and header["counts"] == {"x": 2.0}
    assert list(parent) == [-1, 0] and list(name) == [0, 1]
    assert list(start) == list(tr.start) and list(end) == list(tr.end)


def test_names_are_well_formed():
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += list(SPEC["workloads"]) + list(SPEC["layer_map"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names[: len(DECLARED["workloads"])])) == len(DECLARED["workloads"])
    assert sorted(SPEC["workloads"]) == sorted(w["name"] for w in DECLARED["workloads"])
    assert sorted(SPEC["end_to_end"]) == sorted(m["name"] for m in DECLARED["end_to_end"])
    per_layer = {m["name"] for m in DECLARED["per_layer"]}
    assert set(SPEC["layer_map"]) <= per_layer


def test_metric_functions_cover_the_declared_metrics():
    fake = {
        "setup_adj_s": [0.1, 0.2, 0.3],
        "op_adj_s": [0.01, 0.02, 0.03],
        "loop_adj_s": 1.0,
        "quality": {"mrr": 0.5, "mean_rank": 2.0},
        "peak_rss_mb": 10.0,
    }
    e2e = run.end_to_end(fake)
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    extra = {"bytes_per_triple": 1.0, "snapshot_bytes_per_triple": 1.0, "traced_wall_s": 2.0,
             "untraced_wall_s": 1.0, "spans": 3, "absent": []}
    pl = layers.per_layer({}, {}, extra)
    assert {k: u for k, (_, u) in pl.items()} == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_emits_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "deletion", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
