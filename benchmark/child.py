"""Benchmark child processes; ``run.py`` starts them one at a time.

``child.py pass SPEC RESULT`` is a fresh interpreter that imports rpys,
loads the workload's inputs into a Corpus (then prints ``loaded``, which
ends the parent's set-up clock) and makes one in-process pipeline pass:
corpus_stats, spectrum, median, peaks, profile_all_peaks and SVG.

``child.py work SPEC RESULT`` runs the workload itself: CLI sessions
through ``rpys.cli.main`` or a closed loop of drill queries, one session
per ``session`` line on stdin; a ``traced`` line runs one session under
span tracing.  Its ``ru_maxrss`` is the workload's peak RSS.

Both kinds take host-speed probes (``refspeed.py``) around and during
what they time, so the parent can report times in reference seconds.

Results go to the RESULT file as JSON; nothing here checks correctness,
the parent compares everything against the generator's ground truth.
"""

from __future__ import annotations

import time

import refspeed

# Host speed as the child starts; the parent takes it out of set-up time.
START_PROBE_S = refspeed.probe()
STARTED = time.perf_counter()  # interpreter is up; the set-up spans start here

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def profile_payload(profile) -> dict:
    return {
        "year": profile.year,
        "total_refs": profile.total_refs,
        "authors": [
            {"name": a.name, "count": a.count, "share": a.share} for a in profile.author_rows
        ],
        "works": [
            {"key": w.key.display(), "count": w.count, "share": w.share}
            for w in profile.work_rows
        ],
        "unattributed": profile.unattributed,
    }


def breakdown_payload(breakdown) -> dict:
    return {
        "author": breakdown.author,
        "year": breakdown.year,
        "total_refs": breakdown.total_refs,
        "works": [
            {"key": w.key.display(), "count": w.count, "share": w.share}
            for w in breakdown.rows
        ],
    }


def load_corpus(rpys, files: list[str]):
    """Load every input file and build one Corpus, as the CLI does."""
    records, cr_lines = [], 0
    for path in files:
        recs, diag, _ = rpys.load_export(path)
        records.extend(recs)
        cr_lines += diag.cr_lines_parsed
    corpus, _ = rpys.build_corpus(records)
    return records, corpus, cr_lines


def run_pass(spec: dict) -> dict:
    # Times below use refspeed.now(), which leaves out the samples' time.
    refspeed.sampling(not spec["trace"])
    t_start = STARTED
    import rpys
    import rpys.cli

    t_imported = refspeed.now()
    tracing = contextlib.nullcontext()
    if spec["trace"]:
        from tracing import Tracer

        tracing = Tracer("setup")
    with tracing as tracer:
        if tracer is not None:
            tracer.add_span("setup.import", t_start, t_imported)
        t0 = refspeed.now()
        records, corpus, cr_lines = load_corpus(rpys, spec["files"])
        t1 = refspeed.now()
        spent_setup = refspeed.spent()
        print("loaded", flush=True)
        if tracer is not None:
            tracer.run = "pass"
        refspeed.sampling(False)
        setup_samples = refspeed.take_samples()
        probe_loaded = refspeed.probe()
        refspeed.sampling(not spec["trace"])
        t2 = refspeed.now()
        stats = rpys.corpus_stats(corpus)
        spectrum = rpys.compute_spectrum(corpus)
        series = rpys.median_deviation(spectrum)
        peaks = rpys.detect_peaks(series, 0, 10)
        profiles = rpys.profile_all_peaks(corpus, peaks, 10)
        svg = rpys.render_spectrogram(series, peaks)
        t3 = refspeed.now()
        refspeed.sampling(False)
        probe_end = refspeed.probe()

    read_strings = {line for r in records for line in r.get("CR")}
    return {
        "started": t_start,
        "import_s": t_imported - t_start,
        "load_s": t1 - t0,
        "pass_s": (t1 - t0) + (t3 - t2),
        "spent_setup": spent_setup,
        "probes": {
            "start": START_PROBE_S,
            "loaded": probe_loaded,
            "end": probe_end,
            "setup": setup_samples,
            "pass": refspeed.take_samples(),
        },
        "cr_lines": cr_lines,
        "unique_cr_strings": len(read_strings),
        "outputs": {
            "rpys.csv": rpys.cli.render_rpys_csv(spectrum),
            "median.csv": rpys.cli.render_median_csv(series),
            "spectrogram.svg.sha256": hashlib.sha256(svg.encode("utf-8")).hexdigest(),
            "peaks": [[p.year, p.n_cr, float(p.deviation), p.rank] for p in peaks],
            "profiles": [profile_payload(p) for p in profiles],
            "stats": [[r.journal, r.records, r.cited_refs] for r in stats.rows],
            "ledger": {
                "counted": spectrum.total,
                "out_of_range": spectrum.dropped_out_of_range,
                "yearless": sum(1 for ref in corpus.iter_refs() if ref.year is None),
                "kept_lines": corpus.total_cited_refs,
                "records": len(corpus.records),
            },
        },
        "trace": tracer.dump() if tracer is not None else None,
    }


class Session:
    """One workload session; ``ops`` holds [name, seconds, ok, detail, args].

    A session is a plan of steps run one at a time, so the parent can run
    set-up children between steps.  Its time is the sum of its operations'
    latencies, which leaves out those pauses.
    """

    def __init__(self, plan, tracer=None):
        self.tracer = tracer
        self.ops: list[list] = []
        self.scales: list[float] = []  # per op, wall to reference seconds
        self.plan = iter(plan)
        self.next = next(self.plan, None)

    @property
    def wall_s(self) -> float:
        return sum(op[1] for op in self.ops)

    @property
    def ref_s(self) -> float:
        return sum(op[1] * k for op, k in zip(self.ops, self.scales))

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


def cli_call(rpys, session: Session, argv: list[str]) -> None:
    """One CLI invocation; stdout/stderr are captured, as a pipe would be."""
    buf = io.StringIO()
    detail = None
    t0 = refspeed.now()
    try:
        with session.span("cli." + argv[0]):
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = rpys.cli.main(argv)
    except Exception as exc:  # an operation that raises counts as failed
        code, detail = None, repr(exc)
    seconds = refspeed.now() - t0
    ok = code == 0
    if not ok and detail is None:
        detail = f"exit code {code}: {buf.getvalue()[-300:]}"
    session.ops.append([argv[0], seconds, ok, detail, argv])


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def cli_plan(spec: dict, out: Path):
    """Argument lists of the ``cli-session`` or ``merged-tsv`` session.

    Later steps pick their arguments from earlier artifacts, as a user
    would: drill years from peaks.json, the author from the profile.  A
    string instead of a list is a step that could not be formed.
    """
    base = ["--input", spec["input"], "--out", str(out)]
    yield ["stats", *base]
    if spec["workload"] == "cli-session":
        yield ["spectrum", *base]
    yield ["peaks", *base, "--top", "10"]
    peaks = _read_json(out / "peaks.json") or []
    n_drill = 3 if spec["workload"] == "cli-session" else 1
    years = [p["year"] for p in peaks[:n_drill]]
    if len(years) < n_drill:
        yield f"peaks.json lists {len(peaks)} peaks, {n_drill} needed"
    for year in years:
        yield ["drill", *base, "--year", str(year)]
    if spec["workload"] == "cli-session":
        profile = _read_json(out / f"profile_{years[0]}.json") if years else None
        if profile and profile["authors"]:
            author = profile["authors"][0]["name"]
            yield ["drill", *base, "--year", str(years[0]), "--author", author]
        else:
            yield "no author to break down"
        yield ["plot", *base]
    else:
        filtered = ["--input", spec["input"], "--out", str(out / "journals")]
        yield ["peaks", *filtered, "--top", "10", "--journals", ",".join(spec["journals"])]


QUERY_BLOCK = 10  # queries per step of a drill-queries session


def run_queries(rpys, corpus, peaks, session: Session, block: list) -> list:
    """Closed loop over one block of queries: each is sent when the last returns."""
    results = []
    for kind, year, author in block:
        t0 = refspeed.now()
        try:
            if kind == "drill":
                result = rpys.drill_year(corpus, year, 10)
            elif kind == "breakdown":
                result = rpys.author_breakdown(corpus, author, year)
            else:
                result = rpys.profile_all_peaks(corpus, peaks, 10)
            ok, detail = True, None
        except Exception as exc:  # an operation that raises counts as failed
            result, ok, detail = None, False, repr(exc)
        session.ops.append([kind, refspeed.now() - t0, ok, detail, [kind, year, author]])
        results.append(result)
    return results


def run_work(spec: dict) -> dict:
    import rpys
    import rpys.cli

    work = Path(spec["out"])
    sessions: list[Session] = []
    traced = traced_dump = None
    answers: dict[str, object] = {}
    mismatches: list[str] = []

    if spec["workload"] == "drill-queries":
        _, corpus, _ = load_corpus(rpys, spec["files"])
        series = rpys.median_deviation(rpys.compute_spectrum(corpus))
        peaks = rpys.detect_peaks(series, 0, 10)
        queries = spec["queries"]

        def new_session(tracer=None) -> Session:
            blocks = [queries[i : i + QUERY_BLOCK] for i in range(0, len(queries), QUERY_BLOCK)]
            return Session(blocks, tracer)

        def run_step(session: Session, block) -> None:
            results = run_queries(rpys, corpus, peaks, session, block)
            for (kind, year, author), result in zip(block, results):
                if result is None:
                    continue
                if kind == "drill":
                    payload = profile_payload(result)
                elif kind == "breakdown":
                    payload = breakdown_payload(result)
                else:
                    payload = [profile_payload(p) for p in result]
                key = json.dumps([kind, year, author])
                if answers.setdefault(key, payload) != payload:
                    mismatches.append(key)
    else:

        def new_session(tracer=None) -> Session:
            out = work / f"session{len(sessions) + 1}"
            return Session(cli_plan(spec, out), tracer)

        def run_step(session: Session, argv) -> None:
            if isinstance(argv, str):
                session.ops.append(["plan", 0.0, False, argv, []])
            else:
                cli_call(rpys, session, argv)

    current: Session | None = None

    def step(tracer=None) -> bool:
        """Run the next step of the current session; True when it ends."""
        nonlocal current
        if current is None:
            current = new_session(tracer)
            gc.collect()
        if tracer is None:  # host-speed probes around and during each untraced step
            before, n_ops = refspeed.probe(), len(current.ops)
            refspeed.sampling(True)
            run_step(current, current.next)
            refspeed.sampling(False)
            k = refspeed.scale([before, refspeed.probe(), *refspeed.take_samples()])
            current.scales += [k] * (len(current.ops) - n_ops)
        else:
            run_step(current, current.next)
        current.next = next(current.plan, None)
        if current.next is not None:
            return False
        if tracer is None:
            sessions.append(current)
        current = None
        return True

    # The parent sends one command per line: "step" runs one step of a
    # session, "session" a whole untraced one, "traced" a whole traced
    # one, "exit" ends the child.
    print("ready", flush=True)
    for command in sys.stdin:
        command = command.strip()
        if command == "step":
            finished = step()
        elif command == "session":
            while not step():
                pass
            finished = True
        elif command == "traced":
            from tracing import Tracer

            with Tracer("session") as tracer:
                traced = new_session(tracer)
                current = traced
                gc.collect()
                while not step(tracer):
                    pass
            traced_dump, finished = tracer.dump(), True
        else:
            break
        print(f"done {int(finished)}", flush=True)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "sessions": [
            {"wall_s": s.wall_s, "ref_s": s.ref_s, "ops": s.ops, "scales": s.scales}
            for s in sessions
        ],
        "traced": (
            {"wall_s": traced.wall_s, "ops": traced.ops, **traced_dump} if traced else None
        ),
        "answers": answers,
        "mismatches": mismatches,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main(argv: list[str]) -> int:
    mode, spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    result = run_pass(spec) if mode == "pass" else run_work(spec)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
