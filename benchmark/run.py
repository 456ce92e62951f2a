#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the rpys pipeline.

Usage (from the repository root):

    python3 benchmark/run.py --workload cli-session --seed 1 --seconds 30 --trace 0

Workloads (benchmark/NOTES.md records why each was chosen):

* ``cli-session``   one tagged export, the CLI session a user runs today
* ``drill-queries`` one tagged export loaded once, closed loop of drill queries
* ``merged-tsv``    tab-delimited batch files merged by glob, CLI session

The inputs are generated from ``--seed``.  Set-up (import rpys, load the
inputs into a Corpus) and the in-process pipeline pass run in fresh
interpreters; the workload runs in one more fresh child, and the parent
interleaves set-up children between its sessions while the ``--seconds``
window lasts.  Every output is checked against the generator's ground
truth.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
one untraced and one traced session and prints per-layer metrics.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; end-to-end times are in reference seconds,
scaled by host-speed probes (``refspeed.py``).  Run metadata, raw wall
times, traces and the history of exact counts are kept under
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
BUDGET_S = 170.0  # every child must be done this long after the run starts

# Sizes at scale 1.0: a 2.5k-record tagged export (about 65k CR lines)
# and 20 tab-delimited batch files of 250 rows (about 130k CR lines),
# small enough for two or more sessions in a run (NOTES.md).
TAGGED_RECORDS = 2500
TSV_FILES, TSV_ROWS = 20, 250
QUERIES_PER_SESSION = 100  # 60 drill_year, 30 author_breakdown, 10 profile_all_peaks
PASSES = 4  # set-up + pipeline-pass children per run
# Exact counts fixed by the workload's size alone, whatever the seed.
SIZE_COUNTS = (
    "wos.load_calls", "wos.malformed_blocks", "corpus.records_kept",
    "corpus.duplicates_skipped", "corpus.excluded_by_filter", "cli.invocations",
    "profiles.queries",
)


class ChildError(Exception):
    pass


class Child:
    """One child interpreter speaking a line protocol on stdin/stdout."""

    def __init__(self, mode: str, spec: dict, work: Path, tag: str, deadline: float):
        self.tag, self.deadline = tag, deadline
        spec_path = work / f"{tag}.spec.json"
        self.result_path = work / f"{tag}.result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        self.stderr = open(work / f"{tag}.stderr", "w+", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, str(spec_path), str(self.result_path)],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            text=True,
        )

    def readline(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], self._remaining())
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise ChildError(f"{self.tag}: {'no reply' if ready else 'timed out'}{self._err()}")
        return line.strip()

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self) -> dict:
        """Wait for the child to exit and read its result; callers close()."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise ChildError(f"{self.tag}: timed out") from None
        if self.proc.returncode != 0 or not self.result_path.exists():
            raise ChildError(f"{self.tag}: exit {self.proc.returncode}{self._err()}")
        return json.loads(self.result_path.read_text(encoding="utf-8"))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()

    def _remaining(self) -> float:
        return max(0.5, self.deadline - time.monotonic())

    def _err(self) -> str:
        if self.stderr.closed:
            return ""
        self.stderr.seek(0)
        return ": " + self.stderr.read()[-800:]


def run_pass(spec: dict, work: Path, tag: str, deadline: float) -> tuple[dict, float]:
    """One set-up + pipeline-pass child; set-up ends when it prints ``loaded``.

    Returns the child's result and the set-up's wall time.  The result
    gains the set-up's and the pass's times in reference seconds, scaled
    by the child's host-speed probes (refspeed.py): one as it starts, one
    when loaded, one at the end of the pass, and the samples in between.
    """
    child = Child("pass", spec, work, tag, deadline)
    try:
        if child.readline() != "loaded":
            raise ChildError(f"{tag}: unexpected reply")
        setup_s = time.perf_counter() - child.started
        result = child.finish()
    finally:
        child.close()
    probes = result["probes"]
    # The first probe runs before the set-up proper; samples are not set-up.
    setup_s -= probes["start"] + result["spent_setup"]
    setup_scale = refspeed.scale([probes["start"], probes["loaded"], *probes["setup"]])
    pass_scale = refspeed.scale([probes["loaded"], probes["end"], *probes["pass"]])
    result["setup_ref_s"] = setup_s * setup_scale
    result["pass_ref_s"] = (
        result["load_s"] * setup_scale + (result["pass_s"] - result["load_s"]) * pass_scale
    )
    if result["trace"]:
        # perf_counter is one system-wide monotonic clock on Linux, so the
        # interpreter's start-up (until the probe) joins the child's own spans.
        result["trace"]["spans"].append(
            ["setup.interpreter", child.started, result["started"] - probes["start"], None,
             "setup"]
        )
    return result, setup_s


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def supported_percentile(n: int) -> str:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}"
    return "max"


def fingerprint() -> str:
    """Hash of the code that produced a result: rpys, generator, benchmark."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "rpys").glob("*.py")) + sorted(HERE.glob("*.py"))
    for path in [*files, ROOT / "scripts" / "demo_pipeline.py"]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def generate(workload: str, seed: int, scale: float, out: Path):
    import workloads

    if workload == "merged-tsv":
        rows = max(10, round(TSV_ROWS * scale))
        files = TSV_FILES if scale >= 1 else max(2, round(TSV_FILES * scale))
        truth = workloads.merged_tsv(out, seed, files, rows)
        return truth, str(out / "savedrecs_*.txt")
    truth = workloads.tagged_export(out, seed, max(20, round(TAGGED_RECORDS * scale)))
    return truth, str(truth.files[0])


def query_plan(seed: int, truth, peak_years: list[int], n: int) -> list:
    """Seeded mix: 60% drill_year (half on peak years), 30% breakdown, 10% all peaks.

    Peak-year queries cycle through the peaks, and the other drills take
    years at even steps of the spectrum ordered by count, so every seed
    asks a mix of the same shape; the seed only orders it.
    """
    per_year = truth.ledger()["per_year"]
    by_count = sorted(per_year, key=lambda y: (per_year[y], y))
    n_all = max(1, n // 10)
    n_breakdown = (n * 3) // 10
    n_drill = n - n_all - n_breakdown
    n_spread = n_drill // 2
    plan = [["all_peaks", None, None]] * n_all
    for i in range(n_breakdown):
        year = peak_years[i % len(peak_years)]
        plan.append(["breakdown", year, truth.top_author(year)])
    for i in range(n_drill - n_spread):
        plan.append(["drill", peak_years[i % len(peak_years)], None])
    for i in range(n_spread):
        plan.append(["drill", by_count[i * (len(by_count) - 1) // max(1, n_spread - 1)], None])
    random.Random(seed).shuffle(plan)
    return plan


def check_drift(history: dict, key: str, observed: dict) -> list[str]:
    """Compare exact values with earlier runs under the same key; keep new ones."""
    seen = history.setdefault(key, {})
    drift = [
        f"{key}: {k} was {seen[k]}, now {v}"
        for k, v in observed.items()
        if k in seen and seen[k] != v
    ]
    for k, v in observed.items():
        seen.setdefault(k, v)
    return drift


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=["cli-session", "drill-queries", "merged-tsv"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement window")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (tests)")
    args = parser.parse_args(argv)
    # Terminated runs still stop their children (the finally blocks below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for needed in (ROOT / "src" / "rpys" / "__init__.py", ROOT / "scripts" / "demo_pipeline.py"):
        if not needed.is_file():
            print(f"benchmark: {needed.relative_to(ROOT)} is missing", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    deadline = time.monotonic() + BUDGET_S
    work = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work, deadline)
    except ChildError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, deadline: float) -> int:
    from checks import (
        Failures, artifact_hashes, check_calls, check_cli_session, check_pass, check_queries,
    )
    t_gen = time.perf_counter()
    truth, input_arg = generate(args.workload, args.seed, args.scale, work / "inputs")
    gen_s = time.perf_counter() - t_gen
    files = [str(p) for p in truth.files]
    fail = Failures()
    passes: list[tuple[bool, dict, float]] = []  # (traced, result, setup_s)
    base = {"workload": args.workload, "files": files, "input": input_arg}

    def setup(traced: bool) -> None:
        tag = f"pass{len(passes)}"
        result, setup_s = run_pass({**base, "trace": traced}, work, tag, deadline)
        check_pass(fail, tag, truth, result)
        if traced:
            check_calls(fail, tag, truth, result["trace"]["calls"])
        passes.append((traced, result, setup_s))

    # The first set-up also finds the peak years the query plan needs.
    setup(False)
    peak_years = [p[0] for p in passes[0][1]["outputs"]["peaks"]]
    spec = {**base, "trace": bool(args.trace), "out": str(work / "out")}
    journals = None
    if args.workload == "drill-queries":
        spec["queries"] = query_plan(args.seed, truth, peak_years, QUERIES_PER_SESSION)
    if args.workload == "merged-tsv":
        journals = sorted(random.Random(args.seed).sample(truth.journals, 2))
        spec["journals"] = journals

    # The workload child runs sessions on request; set-up children run
    # between them, so both kinds of sample spread over the whole window.
    child = Child("work", spec, work, "work", deadline)
    try:
        if child.readline() != "ready":
            raise ChildError("work: unexpected reply")

        def command(line: str) -> bool:
            child.send(line)
            reply = child.readline()
            if not reply.startswith("done"):
                raise ChildError(f"work: unexpected reply {reply!r}")
            return reply == "done 1"

        if args.trace:
            command("session")
            setup(True)
            command("traced")
            setup(False)
            setup(True)
        else:
            # Sessions repeat while the window lasts; pass children are due
            # at even times across it and run between session steps.
            window_start = session_start = time.monotonic()
            window_end = window_start + args.seconds
            due = [window_start + args.seconds * k / PASSES for k in range(1, PASSES)]
            while True:
                finished = command("step")
                if len(passes) < PASSES and time.monotonic() >= due[len(passes) - 1]:
                    setup(False)
                if finished:
                    now = time.monotonic()
                    if now + (now - session_start) > window_end:
                        break
                    session_start = now
            while len(passes) < PASSES:
                setup(False)
        child.send("exit")
        result = child.finish()
    finally:
        child.close()

    svg_sha = passes[0][1]["outputs"]["spectrogram.svg.sha256"]
    if len({r["outputs"]["spectrogram.svg.sha256"] for _, r, _ in passes}) > 1:
        fail.add("pass", "spectrogram.svg bytes differ between runs")
    sessions = result["sessions"] + ([result["traced"]] if result["traced"] else [])
    hashes: dict[str, str] = {"pass/spectrogram.svg": svg_sha}
    for i, s in enumerate(sessions):
        label = f"session{i + 1}"
        if args.workload == "drill-queries":
            for j, (kind, _, ok, detail, _) in enumerate(s["ops"]):
                fail.expect(f"{label}:{kind}#{j}", ok, f"query failed: {detail}")
            continue
        out = Path(spec["out"]) / label
        check_cli_session(fail, label, truth, s["ops"], out, journals, svg_sha)
        found = artifact_hashes(out)
        if i == 0:
            hashes.update(found)
        elif found != {k: v for k, v in hashes.items() if not k.startswith("pass/")}:
            fail.add(label, "artifact bytes differ from session1")
    if args.workload == "drill-queries":
        before = set(fail.by_op)
        check_queries(fail, truth, result["answers"], peak_years)
        bad = {k.split(":", 1)[1] for k in set(fail.by_op) - before} | set(result["mismatches"])
        for i, s in enumerate(sessions):  # a wrong answer fails every query that asked it
            for j, op in enumerate(s["ops"]):
                if json.dumps(op[4]) in bad:
                    fail.add(f"session{i + 1}:{op[0]}#{j}", "answer differs from ground truth")
        canonical = json.dumps(result["answers"], sort_keys=True).encode()
        hashes["queries/answers.json"] = hashlib.sha256(canonical).hexdigest()
    if result["traced"]:
        check_calls(fail, f"session{len(sessions)}", truth, result["traced"]["calls"])

    samples: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    untraced_setups = [s for traced, _, s in passes if not traced]
    if not args.trace:
        # Times are in reference seconds: wall time scaled by the host-speed
        # probes taken next to it (refspeed.py).  Raw wall times stay in meta.
        sessions_ref = [s["ref_s"] for s in result["sessions"]]
        ops_ms = [
            op[1] * k * 1000 for s in result["sessions"] for op, k in zip(s["ops"], s["scales"])
        ]
        setups = [r["setup_ref_s"] for traced, r, _ in passes if not traced]
        per_cr = [r["pass_ref_s"] / r["cr_lines"] * 1e6 for _, r, _ in passes]
        samples = {
            "setup_s": setups,
            "session_s": sessions_ref,
            "query_ms": ops_ms,
            "pipeline_us_per_cr": per_cr,
        }
        raw = {
            "setup_s": untraced_setups,
            "session_s": [s["wall_s"] for s in result["sessions"]],
            "query_ms": [op[1] * 1000 for s in result["sessions"] for op in s["ops"]],
            "pipeline_us_per_cr": [r["pass_s"] / r["cr_lines"] * 1e6 for _, r, _ in passes],
        }
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "session_s": (statistics.median(sessions_ref), "s"),
            "query_p50_ms": (statistics.median(ops_ms), "ms"),
            "query_p99_ms": (percentile(ops_ms, 99), "ms"),
            "queries_per_s": (len(ops_ms) / sum(sessions_ref), "1/s"),
            "pipeline_us_per_cr": (statistics.median(per_cr), "us"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    else:
        metrics = traced_metrics(result, passes, untraced_setups, args.workload, truth.unique_ratio)

    # Exact counts and artifact bytes must repeat across runs of one seed;
    # size-determined counts must also repeat across seeds.
    fp = fingerprint()
    history_path = WORK / "history.json"
    try:
        history = json.loads(history_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        history = {}
    size_key = f"{fp}|{args.workload}|scale={args.scale:g}"
    seed_key = f"{size_key}|seed={args.seed}"
    drift = check_drift(history, seed_key + "|artifacts", hashes)
    if args.trace:
        exact = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio", "bytes")}
        drift += check_drift(history, seed_key + "|counts", exact)
        drift += check_drift(history, size_key + "|counts", {k: exact[k] for k in SIZE_COUNTS})
    for message in drift:
        fail.add("drift", message)
    tmp = WORK / f"history.{os.getpid()}.tmp"
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, history_path)

    ops = {f"pass{i}" for i in range(len(passes))}
    for i, s in enumerate(sessions):
        ops.update(f"session{i + 1}:{op[0]}#{j}" for j, op in enumerate(s["ops"]))
    attempted = len(ops)
    # A wrong query answer is already charged to every op that asked it;
    # run-level failures (drift, bytes differing between runs) count once.
    failed = min(attempted, sum(not op.startswith("query:") for op in fail.by_op))
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "source_fingerprint": fp,
        "inputs": {
            "files": len(files),
            "bytes": sum(Path(f).stat().st_size for f in files),
            "cr_lines": truth.cr_lines,
            "cr_unique_ratio": truth.unique_ratio,
            "generate_s": gen_s,
        },
        "artifact_sha256": hashes,
        "samples": samples,
        "raw_wall_samples": raw,
        "error_rate": failed / attempted,
        "failures": fail.by_op,
    }
    report(metrics, samples, meta)
    out = {
        "correct": not fail.by_op,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{name}.json").write_text(
        json.dumps({**out, "meta": meta}, indent=1), encoding="utf-8"
    )
    if args.trace:
        spans = []
        for k, (_, r, _) in enumerate(passes):
            if r["trace"]:
                spans += span_rows(r["trace"]["spans"], f"-{k}")
        spans += span_rows(result["traced"]["spans"], "")
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        (WORK / "traces" / f"{name}.json").write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def traced_metrics(result, passes, untraced_setups, workload, unique_ratio) -> dict:
    """Per-layer metrics of the traced session plus set-up accounting."""
    from tracing import layer_metrics, self_times

    traced = result["traced"]
    metrics = layer_metrics(traced, unique_ratio)
    queries = workload == "drill-queries"
    metrics["cli.invocations"] = (0 if queries else len(traced["ops"]), "count")
    metrics["profiles.queries"] = (len(traced["ops"]) if queries else 0, "count")

    def setup_self(spans, prefix: str = "") -> float:
        own = self_times(spans)
        return sum(t for span, t in zip(spans, own) if span[4] == "setup" and span[0].startswith(prefix))

    traced_setups = [(r["trace"]["spans"], s) for t, r, s in passes if t]
    traced_setup = statistics.median(s for _, s in traced_setups)
    untraced_wall = result["sessions"][0]["wall_s"]
    metrics.update({
        "trace.session_s": (traced["wall_s"], "s"),
        "trace.session_overhead_s": (traced["wall_s"] - untraced_wall, "s"),
        "trace.session_unaccounted_s": (
            traced["wall_s"] - metrics["trace.session_self_sum_s"][0], "s"
        ),
        "trace.setup_s": (traced_setup, "s"),
        "trace.setup_overhead_s": (traced_setup - statistics.median(untraced_setups), "s"),
        "trace.setup_unaccounted_s": (
            statistics.median(wall - setup_self(spans) for spans, wall in traced_setups), "s"
        ),
    })
    layers = (("interpreter", "setup.interpreter"), ("import", "setup.import"),
              ("wos", "wos."), ("corpus", "corpus."))
    for name, prefix in layers:
        value = statistics.median(setup_self(spans, prefix) for spans, _ in traced_setups)
        metrics[f"setup.{name}_s"] = (value, "s")
    return metrics


def span_rows(spans: list, suffix: str) -> list[dict]:
    return [
        {"name": n, "start": s, "end": e, "parent": p, "run": r + suffix}
        for n, s, e, p, r in spans
    ]


def report(metrics: dict, samples: dict, meta: dict) -> None:
    print(f"rpys benchmark: {meta['workload']} seed={meta['seed']} trace={meta['trace']} "
          f"python={meta['python']} nproc={meta['nproc']} code={meta['source_fingerprint']}")
    inputs = meta["inputs"]
    print(f"inputs: {inputs['files']} file(s), {inputs['bytes']} bytes, "
          f"{inputs['cr_lines']} CR lines, unique ratio {inputs['cr_unique_ratio']:.3f}")
    sample_of = {"query_p50_ms": "query_ms", "query_p99_ms": "query_ms"}
    for name, (value, unit) in metrics.items():
        line = f"  {name:32s} {value:14.6f} {unit}"
        values = samples.get(sample_of.get(name, name), [])
        if values:
            tail = supported_percentile(len(values))
            top = max(values) if tail == "max" else percentile(values, int(tail[1:]))
            line += f"   (n={len(values)}, median={statistics.median(values):.4f}, {tail}={top:.4f}"
            wall = meta["raw_wall_samples"][sample_of.get(name, name)]
            line += f"; wall median={statistics.median(wall):.4f})"
        print(line)
    if meta["raw_wall_samples"]:
        print(f"  times are reference seconds: wall time x {refspeed.REFERENCE_S} s "
              "/ host-speed probe time (benchmark/refspeed.py)")
    print(f"  {'error_rate':32s} {meta['error_rate']:14.6f} failed/attempted")
    for op, messages in meta["failures"].items():
        print(f"FAILED {op}: {'; '.join(messages)}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
