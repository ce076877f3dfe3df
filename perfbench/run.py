"""trq benchmark: one workload, seeded inputs, end-to-end or per-layer metrics.

Usage, from the root of a trq checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Workloads (``serve``, ``build``, ``deletion``) and their parameters are
in ``perfbench/spec.json``. The run generates its inputs from the seed
under ``.perfbench/``, runs the untimed preparation and then the
measured job in separate child processes (``perfbench/work.py``, with
``PYTHONPATH=src`` and BLAS pinned to one thread), checks the outputs,
prints a human-readable report and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs a
fixed number of operations (``trace_ops`` in the spec) untraced and then
again under the span tracer, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced wall time). The work directory
is removed at the end; the spans of the last traced run of a workload
stay in ``.perfbench/trace-<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import layers  # noqa: E402

CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def child(root: Path, mode: str, workload: str, work: Path, out: str, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "work.py"), mode,
        "--workload", workload,
        "--inputs", str(work / "inputs"),
        "--spec", str(HERE / "spec.json"),
        "--out", str(work / out),
        *extra,
    ]
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} {workload} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads((work / out).read_text())


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res: dict) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from an untraced run; times are host-speed adjusted."""
    ms = [1000.0 * x for x in res["op_adj_s"]]
    return {
        "setup_s": (statistics.median(res["setup_adj_s"]), "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (percentile(ms, 90), "ms"),
        "ops_per_s": (len(ms) / res["loop_adj_s"], "1/s"),
        "mrr": (res["quality"]["mrr"], "ratio"),
        "mean_rank": (res["quality"]["mean_rank"], "rank"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def raw_times(res: dict) -> dict[str, float]:
    """The same times on the wall clock, unadjusted."""
    ms = [1000.0 * x for x in res["op_s"]]
    return {
        "raw_setup_s": statistics.median(res["setup_s"]),
        "raw_op_p50_ms": statistics.median(ms),
        "raw_op_p90_ms": percentile(ms, 90),
        "raw_ops_per_s": len(ms) / res["loop_s"],
        "host_speed": res.get("host_speed", 1.0),
    }


def traced(root: Path, workload: str, work: Path, base: list[dict]) -> tuple[dict, list[dict]]:
    """Repeat prep and run under the tracer, with the untraced run's op count."""
    ops = len(base[-1]["op_s"])
    keep = root / ".perfbench" / f"trace-{workload}"
    keep.mkdir(parents=True, exist_ok=True)
    prep = child(root, "prep", workload, work, "prep-t.json", "--trace", str(keep / "prep.spans"))
    run = child(root, "run", workload, work, "run-t.json", "--ops", str(ops),
                "--trace", str(keep / "run.spans"))
    summary: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    spans, absent = 0, set()
    for res in (prep, run):
        spans += res["trace"]["spans"]
        absent.update(res["trace"]["absent"])
        for k, v in res["trace"]["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
        for nm, row in res["trace"]["summary"].items():
            acc = summary.setdefault(nm, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
    extra = {
        "bytes_per_triple": run["bytes_per_triple"],
        "snapshot_bytes_per_triple": (work / "inputs" / "graph.trqg").stat().st_size / run["details"]["triples"],
        "traced_wall_s": prep["wall_s"] + run["wall_s"],
        "untraced_wall_s": sum(r["wall_s"] for r in base),
        "spans": spans,
        "absent": sorted(absent),
    }
    metrics = layers.per_layer(summary, counts, extra)
    report = {"summary": summary, "absent": sorted(absent), "ops": ops}
    return {"metrics": metrics, "report": report}, [prep, run]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="trq benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "trq" / "__init__.py").is_file():
        print(f"error: no trq sources under {root / 'src'}; run from the root of a trq checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = spec["workloads"][args.workload]

    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        files, digest = gen.generate(args.workload, args.seed, wl["params"])
        gen.write(work / "inputs", files)
        prep = child(root, "prep", args.workload, work, "prep.json")
        # a traced run compares equal work: trace_ops operations, untraced then traced
        budget = ["--ops", str(wl["trace_ops"])] if args.trace else ["--seconds", str(args.seconds)]
        run = child(root, "run", args.workload, work, "run.json", *budget)
        results = [prep, run]
        if args.trace:
            out, more = traced(root, args.workload, work, results)
            metrics = out["metrics"]
            results += more
        else:
            metrics = end_to_end(run)
    except (BenchError, subprocess.TimeoutExpired, gen.NondeterministicInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    print(f"workload {args.workload} seed {args.seed}: inputs {digest[:16]}, output digest {run['digest']}")
    print(f"operations {len(run['op_s'])}, attempted {attempted}, failed {failed}, "
          f"error_rate {failed / max(1, attempted):.6g}")
    details = dict(run["details"])
    if not args.trace:
        details.update(raw_times(run))
    for key, value in sorted(details.items()):
        print(f"  {key} = {value:.6g}" if isinstance(value, float) else f"  {key} = {value}")
    if args.trace:
        print(f"traced ops {out['report']['ops']}; absent targets: {', '.join(out['report']['absent']) or 'none'}")
        print(f"  {'span':28} {'calls':>10} {'self_s':>10} {'incl_s':>10}")
        for nm, row in sorted(out["report"]["summary"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {nm:28} {row['calls']:>10} {row['self_s']:>10.4f} {row['incl_s']:>10.4f}")
    for e in errors[:20]:
        print(f"  FAILED {e}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:>16.6g} {unit}")

    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
