"""One benchmark process: prepares or runs one workload against trq.

Run by ``perfbench/run.py`` with ``PYTHONPATH=src`` and BLAS pinned to
one thread; each invocation is its own process, so peak RSS is the
workload's own. Every trq call goes through a module attribute looked
up at call time (``store.load_snapshot``, ``rec.recommend``), so the
tracer's wrappers see the benchmark's calls as well as trq's internal
ones.

``prep`` does the untimed preparation a user would do before the
measured job (ingest, and for ``serve`` also training). ``run`` sets up,
then repeats the workload's operation until ``--seconds`` have passed
(or ``--ops`` operations are done), checks every output and writes a
JSON result. With ``--trace`` the whole process runs under the tracer.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import checks
import layers
import tracer as tracing

store = importlib.import_module("trq.store")
embedding = importlib.import_module("trq.embedding")
evalkit = importlib.import_module("trq.evalkit")
sparql = importlib.import_module("trq.sparql")
rec = importlib.import_module("trq.recommend")
Triple = importlib.import_module("trq.terms").Triple

clock = time.perf_counter


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def embed_config(cfg: dict):
    return embedding.EmbeddingConfig(**cfg)


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def resolve_deletions(g, nt_path: Path) -> list:
    """Deletion triples as ids of ``g``, the way ``trq bench`` reads them."""
    dg = store.parse_ntriples(nt_path.read_bytes())
    out = []
    for tr in dg.triples():
        ids = [g.id(dg.term(x)) for x in (tr.s, tr.p, tr.o)]
        if None in ids:
            raise ValueError(f"{nt_path}: deletion references a term not in the graph")
        out.append(Triple(*ids))
    return out


class Run:
    """Operation timings, failures and check results of one process."""

    def __init__(self, tr: tracing.Tracer | None):
        self.tr = tr
        # timed windows (start, end) on the perf_counter clock, per sample
        self.setups: list[list[tuple[float, float]]] = []
        self.ops: list[list[tuple[float, float]]] = []
        self.loop = (0.0, 0.0)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.details: dict = {}
        self.quality: dict = {}
        self.digest = ""

    def span(self, name: str):
        return self.tr.span(name) if self.tr is not None else nullcontext()

    def fail(self, what: str, problems: list[str]) -> None:
        """Count one failed operation when a check found problems."""
        if problems:
            self.failed += 1
            self.errors += [f"{what}: {p}" for p in problems[:3]]

    def until(self, seconds: float, ops: int | None, minimum: int):
        """Yield operation indices until the time (or op) budget is used."""
        started = clock()
        i = 0
        while True:
            if ops is not None:
                if i >= ops:
                    break
            elif i >= minimum and clock() - started >= seconds:
                break
            yield i
            i += 1
        self.loop = (started, clock())


@contextmanager
def capture(module, attr: str, sink: list):
    """Record (args, result) of every call to ``module.attr``."""
    original = getattr(module, attr)

    def shim(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append((args, result))
        return result

    setattr(module, attr, shim)
    try:
        yield
    finally:
        setattr(module, attr, original)


class HostSpeed:
    """How fast the host runs a fixed pure-Python kernel, sampled all along.

    On a shared host the CPU this process gets changes speed, in phases
    from a fraction of a second to minutes and by up to ~1.8x, and wall
    time alone cannot tell that from a slower program. A timer signal runs
    :func:`kernel` every ``interval_s`` seconds and records how long it
    took. :meth:`adjusted` turns a wall window into the time it would have
    taken at the kernel's reference speed, holding the speed of the last
    samples (median of three) and leaving out the kernel's own time.
    """

    def __init__(self, interval_s: float, loops: int, reference_s: float):
        self.interval_s, self.loops, self.reference_s = interval_s, loops, reference_s
        self.starts: list[float] = []
        self.speeds: list[float] = []
        self.ends: list[float] = []
        self._recent: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = clock()
        kernel(self.loops)
        t1 = clock()
        self._recent = (self._recent + [t1 - t0])[-3:]
        self.starts.append(t0)
        self.ends.append(t1)
        self.speeds.append(self.reference_s / statistics.median(self._recent))

    def __enter__(self) -> "HostSpeed":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def adjusted(self, t0: float, t1: float) -> float:
        j = max(0, bisect.bisect_right(self.starts, t0) - 1)
        speed, cur, total = self.speeds[j], t0, 0.0
        for j in range(j + 1, bisect.bisect_left(self.starts, t1)):
            total += max(0.0, self.starts[j] - cur) * speed
            speed, cur = self.speeds[j], max(cur, self.ends[j])
        return total + max(0.0, t1 - cur) * speed


def kernel(loops: int) -> int:
    d: dict[tuple[int, int], int] = {}
    for i in range(loops):
        k = (i % 31, i % 17)
        d[k] = d.get(k, 0) + 1
    return len(d)


# -- serve ---------------------------------------------------------------


def prep_serve(inputs: Path, spec: dict, run: Run) -> None:
    """``trq ingest`` of the full graph, the planted deletions removed as
    ``trq bench`` does, then ``trq train``; checks the planted answers."""
    full = store.parse_ntriples(inputs / "graph.nt")
    served = evalkit.corrupt_graph(full, resolve_deletions(full, inputs / "deletions.nt"))
    store.save_snapshot(served, inputs / "graph.trqg")
    emb = embedding.train(served, embed_config(spec["train"]))
    embedding.save_embeddings(emb, inputs / "graph.trqe")
    run.fail("trqe", checks.embeddings_roundtrip(emb, embedding.load_embeddings(inputs / "graph.trqe")))
    for q in read_jsonl(inputs / "queries.jsonl"):
        run.attempted += 1
        run.fail(q["name"], planted_problems(full, served, sparql.parse_query(q["text"]), q))


def planted_problems(full, served, query, q: dict) -> list[str]:
    """The planted answer is exact on the full graph and not on the served one."""
    truth = tuple(q["truth"])
    problems = []
    if truth not in evalkit.exact_solutions(full, query):
        problems.append("planted answer is not an exact solution of the full graph")
    if truth in evalkit.exact_solutions(served, query):
        problems.append("planted answer survived its deletion")
    return problems


def planted_quality(run: Run, g, queries: list[dict], answered: dict, top_k: int, scored: int) -> None:
    """Check every ranking; MRR and mean rank of the planted answers of the
    first ``scored`` queries (rank top_k + 1 when not in the top k)."""
    rr, ranks = [], []
    for qi, (query, result) in sorted(answered.items()):
        run.fail(queries[qi]["name"], checks.ranking(g, query, result.solutions))
        if qi >= scored:
            continue
        keys = [s.binding_key for s in result.solutions]
        truth = tuple(queries[qi]["truth"])
        rr.append(evalkit.reciprocal_rank(keys, {truth}))
        ranks.append(keys.index(truth) + 1 if truth in keys else top_k + 1)
    run.quality = {"mrr": statistics.fmean(rr), "mean_rank": statistics.fmean(ranks)}


def run_serve(inputs: Path, spec: dict, run: Run, seconds: float, ops: int | None) -> None:
    queries = read_jsonl(inputs / "queries.jsonl")
    cli = spec["query"]
    g = emb = None
    for _ in range(spec["setup_repeats"]):
        g = emb = None
        gc.collect()
        with run.span("bench.setup"):
            t0 = clock()
            # what `trq query` does before it reads the query, bind included
            g = store.load_snapshot(inputs / "graph.trqg")
            emb = embedding.load_embeddings(inputs / "graph.trqe")
            emb.bind(g)
            run.setups.append([(t0, clock())])

    first: dict[int, object] = {}
    digests: dict[int, str] = {}
    truncated = 0
    # Queries are answered in list order without repeats (unless the list
    # runs out); the first quality_queries are always answered, so MRR is
    # taken over a fixed set whatever the speed.
    with run.span("bench.loop"):
        for i in run.until(seconds, ops, minimum=spec["quality_queries"]):
            qi = i % len(queries)
            run.attempted += 1
            with run.span("bench.op"):
                t0 = clock()
                try:
                    query = sparql.parse_query(queries[qi]["text"])
                    result = rec.recommend(g, rec.RecommendRequest(query, emb, **cli))
                except Exception as exc:  # noqa: BLE001 - a failed query is counted, not fatal
                    run.ops.append([(t0, clock())])
                    run.failed += 1
                    run.errors.append(f"{queries[qi]['name']}: {type(exc).__name__}: {exc}")
                    continue
                run.ops.append([(t0, clock())])
            key = checks.ranking_digest(result.solutions)
            if qi not in first:
                first[qi] = (query, result)
                digests[qi] = key
                truncated += result.truncated
            elif key != digests[qi]:
                run.fail(queries[qi]["name"], ["repeated query gave a different ranking"])

    with run.span("bench.check"):
        planted_quality(run, g, queries, first, cli["top_k"], spec["quality_queries"])
        run.fail("snapshot", checks.snapshot_roundtrip(g, store))
        run.details.update(
            queries=len(queries),
            truncated_share=truncated / max(1, len(first)),
            triples=g.triple_count,
        )
        fixed = "".join(digests[i] for i in range(spec["quality_queries"]) if i in digests)
        run.digest = hashlib.sha256(fixed.encode()).hexdigest()[:16]


# -- build ---------------------------------------------------------------


def run_build(inputs: Path, spec: dict, run: Run, seconds: float, ops: int | None) -> None:
    trqg, trqe = inputs / "graph.trqg", inputs / "graph.trqe"
    cfg = spec["train"]
    ingest_s, train_s, outputs = [], [], set()
    parsed = emb = None
    with run.span("bench.loop"):
        for _ in run.until(seconds, ops, minimum=1):
            run.attempted += 1
            parsed = emb = g = None
            gc.collect()
            # Each build is a fresh `trq ingest` then `trq train`; their
            # set-up (reading the source, loading the store) is set-up time.
            with run.span("bench.setup"):
                t0 = clock()
                raw = (inputs / "graph.nt").read_bytes()
                t1 = clock()
            with run.span("bench.op"):
                parsed = store.parse_ntriples(raw)
                store.save_snapshot(parsed, trqg)
                t2 = clock()
            with run.span("bench.setup"):
                g = store.load_snapshot(trqg)
                t3 = clock()
            with run.span("bench.op"):
                emb = embedding.train(g, embed_config(cfg))
                embedding.save_embeddings(emb, trqe)
                t4 = clock()
            run.setups.append([(t0, t1), (t2, t3)])
            run.ops.append([(t1, t2), (t3, t4)])
            ingest_s.append(t2 - t1)
            train_s.append(t4 - t2)
            outputs.add(hashlib.sha256(trqg.read_bytes() + trqe.read_bytes()).hexdigest())
    if len(outputs) != 1:
        run.fail("build", ["repeated builds wrote different files"])

    with run.span("bench.check"):
        # Serve the built files: the planted check queries lose one fact
        # each, and their planted answers must come back ranked.
        g = store.load_snapshot(trqg)
        run.fail("snapshot", checks.same_graph(parsed, g))
        loaded = embedding.load_embeddings(trqe)
        run.fail("trqe", checks.embeddings_roundtrip(emb, loaded))
        served = evalkit.corrupt_graph(g, resolve_deletions(g, inputs / "deletions.nt"))
        loaded.bind(served)
        queries = read_jsonl(inputs / "queries.jsonl")
        cli = spec["query"]
        answered = {}
        for qi, q in enumerate(queries):
            run.attempted += 1
            query = sparql.parse_query(q["text"])
            run.fail(q["name"], planted_problems(g, served, query, q))
            answered[qi] = (query, rec.recommend(served, rec.RecommendRequest(query, loaded, **cli)))
        planted_quality(run, served, queries, answered, cli["top_k"], len(queries))
        run.details.update(
            ingest_s=statistics.median(ingest_s),
            train_s=statistics.median(train_s),
            triples=g.triple_count,
        )
        run.digest = sorted(outputs)[0][:16]


# -- deletion ------------------------------------------------------------


def prep_deletion(inputs: Path, spec: dict, run: Run) -> None:
    """``trq ingest`` of the source graph."""
    store.save_snapshot(store.parse_ntriples(inputs / "graph.nt"), inputs / "graph.trqg")


def load_cases(g, manifest: Path) -> list:
    """Bench cases from a manifest, resolved the way ``trq bench`` does."""
    cases = []
    for entry in evalkit.load_manifest(manifest):
        truth = None
        if entry.truth_path is not None:
            truth = {tuple(line.split("\t")) for line in entry.truth_path.read_text().splitlines() if line}
        query = sparql.parse_query(entry.query_path.read_text())
        cases.append(evalkit.BenchCase(entry.name, query, resolve_deletions(g, entry.deletions_path), truth))
    return cases


def run_deletion(inputs: Path, spec: dict, run: Run, seconds: float, ops: int | None) -> None:
    # Each benchmark run loads its store and manifest again, as a fresh
    # `trq bench` would, so set-up samples are spread over the run.
    def setup():
        with run.span("bench.setup"):
            t0 = clock()
            g = store.load_snapshot(inputs / "graph.trqg")
            cases = load_cases(g, inputs / "manifest.txt")
            run.setups.append([(t0, clock())])
        return g, cases

    for _ in range(spec["setup_repeats"]):
        g, cases = setup()

    cfg = embed_config(spec["train"])
    first, ranked, trained = None, [], []
    with run.span("bench.loop"):
        for _ in run.until(seconds, ops, minimum=1):
            g = cases = None
            gc.collect()
            g, cases = setup()
            with run.span("bench.op"):
                t0 = clock()
                if first is None:  # keep the first run's rankings and embeddings for the checks
                    with capture(evalkit, "recommend", ranked), capture(evalkit, "train", trained):
                        report = evalkit.run_benchmark(g, cases, embed_config=cfg, **spec["bench"])
                else:
                    report = evalkit.run_benchmark(g, cases, embed_config=cfg, **spec["bench"])
                run.ops.append([(t0, clock())])
            rows = [(r.name, r.rr, r.mr, r.error) for r in report.rows]
            for r in report.rows:
                run.attempted += 1
                if r.error:
                    run.failed += 1
                    run.errors.append(f"{r.name}: {r.error}")
            if first is None:
                first = (report, rows)
            elif rows != first[1]:
                run.fail("bench", ["repeated benchmark gave different results"])

    with run.span("bench.check"):
        report = first[0]
        for (graph, req), result in ranked:
            run.fail("ranking", checks.ranking(graph, req.query, result.solutions))
        (_, emb_first) = trained[0]
        buf = io.BytesIO()
        embedding.save_embeddings(emb_first, buf)
        buf.seek(0)
        run.fail("trqe", checks.embeddings_roundtrip(emb_first, embedding.load_embeddings(buf)))
        run.fail("snapshot", checks.snapshot_roundtrip(g, store))
        for case in cases:
            run.attempted += 1
            if not case.truth <= evalkit.exact_solutions(g, case.query):
                run.fail(case.name, ["truth is not an exact solution of the source graph"])
        run.quality = {"mrr": report.mean_rr or 0.0, "mean_rank": report.mean_mr or 0.0}
        run.details.update(cases=len(cases), triples=g.triple_count)
        run.digest = hashlib.sha256(repr(first[1]).encode()).hexdigest()[:16]


PREP = {"serve": prep_serve, "deletion": prep_deletion}
RUN = {"serve": run_serve, "build": run_build, "deletion": run_deletion}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("prep", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(RUN))
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--spec", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--trace", type=Path, default=None, help="write spans here")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec_all = json.loads(args.spec.read_text())
    spec = spec_all["workloads"][args.workload]
    tr = None
    if args.trace is not None:
        tr = tracing.Tracer()
        tr.install(layers.targets())
    run = Run(tr)
    # Host speed is sampled in timed runs only (--seconds). A traced run and
    # its untraced reference (--ops) both go without, so they compare equal
    # work, and no sampler time lands in trq's spans.
    speed = HostSpeed(**spec_all["host_speed"]) if args.mode == "run" and args.ops is None else None
    t0 = clock()
    with run.span("bench." + args.mode), speed or nullcontext():
        if args.mode == "prep":
            PREP.get(args.workload, lambda *a: None)(args.inputs, spec, run)
        else:
            RUN[args.workload](args.inputs, spec, run, args.seconds, args.ops)
    wall = clock() - t0

    def seconds(windows, measure):
        return [sum(measure(a, b) for a, b in w) for w in windows]

    def raw(a, b):
        return b - a

    result = {
        "wall_s": wall,
        "setup_s": seconds(run.setups, raw),
        "op_s": seconds(run.ops, raw),
        "loop_s": raw(*run.loop),
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "quality": run.quality,
        "details": run.details,
        "digest": run.digest,
        "peak_rss_mb": peak_rss_mb(),
    }
    if speed is not None:
        result["setup_adj_s"] = seconds(run.setups, speed.adjusted)
        result["op_adj_s"] = seconds(run.ops, speed.adjusted)
        result["loop_adj_s"] = speed.adjusted(*run.loop)
        result["host_speed"] = statistics.median(speed.speeds)
    if tr is not None:
        tr.uninstall()
        tr.write(args.trace)
        result["trace"] = {
            "summary": tr.summary(),
            "counts": dict(tr.counts),
            "absent": tr.absent,
            "spans": len(tr.name),
        }
        if args.mode == "run":
            result["bytes_per_triple"] = checks.graph_bytes_per_triple(store, args.inputs / "graph.trqg")
    if not all(math.isfinite(v) for v in run.quality.values()):
        result["failed"] += 1
        result["errors"].append("non-finite quality metric")
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
