"""Benchmark worker: runs one workload's jobs in a fresh process.

Started by ``run.py`` with a JSON config file; writes a JSON result file.
Jobs run one after another (closed loop), in this process only, with no
threads, until the run's seconds are spent. Between jobs every object of
the previous job is dropped and a full collection runs, outside the timed
region, so one job's garbage does not slow the next.

Untraced runs time whole jobs. Traced runs also record spans (name,
start, end, parent, job id) around calls into each riskforge module's
public functions, keep them in memory, and reduce them to per-layer
numbers at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

_CONFIG = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")) if __name__ == "__main__" else None
if _CONFIG is not None:
    sys.path.insert(0, _CONFIG["src"])
sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402

import riskforge.cli as rf_cli  # noqa: E402
import riskforge.io as rf_io  # noqa: E402
import riskforge.reports as rf_reports  # noqa: E402
from riskforge import (  # noqa: E402
    ANALYSIS_READY,
    STRUCTURAL,
    ParseFailure,
    analyze,
    assign_detection,
    backward_occurrence,
    forward_severity,
    parse_model,
    run_procedure,
    serialize_model,
    validate_model,
)
from riskforge.reports import FORMATS, emit_artifact  # noqa: E402

#: Jobs per model size in the scaling pass of a traced run.
SCALE_REPEATS = 2

#: The cached lookup indexes of ``DesignModel``, built on first use.
INDEXES = (
    "elements_by_id",
    "failure_modes_by_id",
    "failure_modes_by_element",
    "rf_sources",
    "rf_targets",
    "fc_sources",
    "fc_targets",
)


class Tracer:
    """In-memory span recorder. Spans are ``[name, start, end, parent, job]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[tuple[str, str, float]] = []
        self.job = ""
        self.parse_errors: tuple = ()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.job])
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.job, name, value))


class NullTracer:
    """Stands in for ``Tracer`` in untraced runs; records nothing."""

    job = ""
    parse_errors: tuple = ()
    _null = contextlib.nullcontext([None, 0.0, 0.0, None, ""])

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass


def install_wrappers(tr: Tracer) -> None:
    """Time calls that riskforge modules make into each other's public functions.

    Only traced runs install these, so the untraced run executes the
    program unchanged. A name a later version no longer imports is
    skipped, and its span just disappears.
    """

    def traced_validate(fn):
        def wrapper(model, strictness=STRUCTURAL):
            level = "validation.analysis_ready" if strictness == ANALYSIS_READY else "validation.structural"
            with tr.span(level):
                report = fn(model, strictness)
            tr.count("validation.findings", len(report.findings))
            return report

        return wrapper

    def traced_analyze(fn):
        def wrapper(model, **kwargs):
            with tr.span("analysis.analyze"):
                return fn(model, **kwargs)

        return wrapper

    def traced_parse(fn):
        def wrapper(text):
            with tr.span("io.parse_model") as span:
                try:
                    return fn(text)
                except ParseFailure as exc:
                    span[0] = "io.parse_fail"
                    tr.parse_errors = exc.errors
                    raise

        return wrapper

    patches = (
        (rf_io, "validate_model", traced_validate),
        (rf_reports, "validate_model", traced_validate),
        (rf_reports, "analyze", traced_analyze),
        (rf_cli, "validate_model", traced_validate),
        (rf_cli, "parse_model", traced_parse),
    )
    for module, name, make in patches:
        if hasattr(module, name):
            setattr(module, name, make(getattr(module, name)))


# ---------------------------------------------------------------------------
# Jobs.


def valid_job(path: str, tr) -> dict:
    """read bytes -> parse_model -> run_procedure -> emit 5 artifacts x 3 formats -> serialize_model."""
    start = time.perf_counter()
    with tr.span("job"):
        text = Path(path).read_bytes().decode("utf-8")
        with tr.span("io.parse_model"):
            model = parse_model(text)
        with tr.span("reports.run_procedure"):
            bundle = run_procedure(model)
        artifacts = {}
        for fmt in FORMATS:
            with tr.span(f"reports.emit_{fmt}"):
                for name, artifact in bundle.documents():
                    artifacts[f"{name}.{fmt}"] = emit_artifact(name, artifact, fmt)
        with tr.span("io.serialize_model"):
            round_trip = serialize_model(model)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "text": text, "model": model, "artifacts": artifacts, "round_trip": round_trip}


def decompose(model, tr: Tracer) -> None:
    """Time each layer alone on a fresh copy of the model, outside the job span.

    ``dataclasses.replace`` gives a new ``DesignModel`` whose cached
    indexes are empty, so ``model.index`` pays their full cost and the
    validation and analysis spans after it run on warm indexes.
    """
    fresh = dataclasses.replace(model)
    with tr.span("decompose"):
        with tr.span("model.index"):
            for name in INDEXES:
                getattr(fresh, name)
        with tr.span("validation.structural"):
            validate_model(fresh, STRUCTURAL)
        with tr.span("validation.analysis_ready"):
            validate_model(fresh, ANALYSIS_READY)
        with tr.span("analysis.forward_severity"):
            forward_severity(fresh)
        with tr.span("analysis.backward_occurrence"):
            backward_occurrence(fresh)
        with tr.span("analysis.assign_detection"):
            assign_detection(fresh)
        with tr.span("analysis.analyze"):
            result = analyze(fresh)
    tr.count("analysis.rows", len(result.rows))


def invalid_job(doc: dict, tr) -> dict:
    """``riskforge validate PATH --analysis-ready`` in-process, streams captured."""
    out, err = io.StringIO(), io.StringIO()
    tr.parse_errors = ()
    start = time.perf_counter()
    with tr.span("job"):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tr.span("cli.main"):
                try:
                    code = rf_cli.main(["validate", doc["file"], "--analysis-ready"])
                except Exception as exc:  # a traceback is a failed job, not a crash of the run
                    code = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "code": code, "stderr": err.getvalue()}


def check_invalid(doc: dict, outcome: dict) -> str | None:
    """Why an invalid-document job's outcome is wrong, or None if it is right."""
    if outcome["code"] != doc["exit_code"]:
        return f"exit {outcome['code']!r}, want {doc['exit_code']}"
    errors = [line for line in outcome["stderr"].splitlines() if line.startswith("error:")]
    if doc["exit_code"] == 2:
        where = f"error: {doc['file']}: line {doc['line']}, column {doc['column']}: "
    else:
        where = f"error: {doc['path']}: "
    if len(errors) != 1 or not errors[0].startswith(where) or not errors[0].endswith(f"[{doc['code']}]"):
        return f"stderr errors {errors[:3]!r}, want one starting {where!r} and ending [{doc['code']}]"
    return None


def digests(artifacts: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in artifacts.items()}


# ---------------------------------------------------------------------------
# Reduction of spans to per-layer numbers.


def span_table(tr: Tracer) -> dict[str, dict[tuple[str, str], list[float]]]:
    """Per job: (root, name) -> [duration, self time], summed over repeats."""
    children: dict[int, float] = {}
    for name, start, end, parent, job in tr.spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    table: dict[str, dict[tuple[str, str], list[float]]] = {}
    for index, (name, start, end, parent, job) in enumerate(tr.spans):
        root = index
        while tr.spans[root][3] is not None:
            root = tr.spans[root][3]
        entry = table.setdefault(job, {}).setdefault((tr.spans[root][0], name), [0.0, 0.0])
        entry[0] += end - start
        entry[1] += end - start - children.get(index, 0.0)
    return table


def layer_seconds(table, jobs, root: str, name: str, reduce, self_time: bool = False) -> float | None:
    values = [table[job][(root, name)][1 if self_time else 0] for job in jobs if (root, name) in table.get(job, {})]
    return reduce(values) if values else None


def span_cost() -> float:
    """Seconds one recorded span adds, measured on a scratch tracer."""
    scratch = Tracer()
    rounds = 20000
    start = time.perf_counter()
    for _ in range(rounds):
        with scratch.span("x"):
            pass
    return (time.perf_counter() - start) / rounds


def layers(tr: Tracer, jobs: list[str], reduce=statistics.median) -> dict[str, float]:
    """Per-layer seconds for a set of traced jobs, reduced over jobs (median by default)."""
    table = span_table(tr)
    out = {}
    for root, name in (
        ("job", "job"),
        ("job", "io.parse_model"),
        ("job", "io.serialize_model"),
        ("job", "reports.run_procedure"),
        ("job", "reports.emit_csv"),
        ("job", "reports.emit_md"),
        ("job", "reports.emit_json"),
        ("decompose", "model.index"),
        ("decompose", "validation.structural"),
        ("decompose", "validation.analysis_ready"),
        ("decompose", "analysis.forward_severity"),
        ("decompose", "analysis.backward_occurrence"),
        ("decompose", "analysis.assign_detection"),
        ("decompose", "analysis.analyze"),
    ):
        value = layer_seconds(table, jobs, root, name, reduce)
        if value is not None:
            out[name] = value
    build = layer_seconds(table, jobs, "job", "reports.run_procedure", reduce, self_time=True)
    if build is not None:
        out["reports.build"] = build
    prioritize = [
        table[job][("decompose", "analysis.analyze")][0]
        - sum(
            table[job][("decompose", f"analysis.{name}")][0]
            for name in ("forward_severity", "backward_occurrence", "assign_detection")
        )
        for job in jobs
        if ("decompose", "analysis.analyze") in table.get(job, {})
    ]
    if prioritize:
        out["analysis.prioritize"] = reduce(prioritize)
    return out


# ---------------------------------------------------------------------------


def attempt_valid(path: str, tr) -> tuple[dict | None, float, str | None]:
    """Run one valid job; return it (None if it raised), its seconds and what is wrong with it."""
    start = time.perf_counter()
    try:
        job = valid_job(path, tr)
    except Exception as exc:  # a failed job is counted, not a crash of the run
        return None, time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    problem = None if job["round_trip"] == job["text"] else "serialize_model did not give back the input bytes"
    return job, job["seconds"], problem


def after_valid(job: dict, tr: Tracer) -> dict:
    """Traced-run work after a valid job, outside its span; returns the input as plain data.

    The job's model is dropped before the reference ``json.loads``, so
    that, like ``parse_model`` in the job, it runs on a heap without a
    live model for the garbage collector to walk.
    """
    tr.count("reports.bytes_out", sum(len(text.encode("utf-8")) for text in job["artifacts"].values()))
    decompose(job.pop("model"), tr)
    gc.collect()
    with tr.span("reference"):
        with tr.span("io.json_loads"):
            return json.loads(job["text"])


def record_parse_errors(tr: Tracer, doc: dict) -> None:
    if tr.parse_errors:
        tr.count("io.errors_reported", len(tr.parse_errors))
        tr.count(
            "io.errors_positioned",
            sum(1 for e in tr.parse_errors if (e.line, e.column) == (doc["line"], doc["column"])),
        )


def run(config: dict) -> dict:
    os.environ["RISKFORGE_COLOR"] = "never"
    workload = config["workload"]
    traced = config["trace"]
    tr = Tracer() if traced else NullTracer()
    if traced:
        install_wrappers(tr)
    work = Path(config["work_dir"])
    result: dict = {"jobs": [], "failures": [], "digests": None}

    loop_start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - loop_start < config["seconds"]:
        tr.job = f"loop{n}"
        if workload == "invalid":
            doc = config["documents"][n % len(config["documents"])]
            outcome = invalid_job(doc, tr)
            result["jobs"].append({"seconds": outcome["seconds"], "bytes": doc["bytes"]})
            problem = check_invalid(doc, outcome)
            if problem is not None:
                result["failures"].append({"job": n, "kind": doc["kind"], "problem": problem})
            if traced:
                record_parse_errors(tr, doc)
            del outcome
        else:
            job, seconds, problem = attempt_valid(config["model"], tr)
            result["jobs"].append({"seconds": seconds, "bytes": config["model_bytes"]})
            if job is not None:
                sums = digests(job["artifacts"])
                if result["digests"] is None:
                    # run.py checks these against the reference; later jobs must repeat their bytes.
                    result["digests"] = sums
                    for name, text in job["artifacts"].items():
                        if name.endswith(".json"):
                            (work / f"out_{name}").write_text(text, encoding="utf-8")
                elif sums != result["digests"]:
                    problem = "artifacts differ from the first job's bytes"
                if traced:
                    after_valid(job, tr)
            if problem is not None:
                result["failures"].append({"job": n, "kind": workload, "problem": problem})
            del job
        n += 1
        gc.collect()
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        result["trace"] = traced_extras(config, tr, [f"loop{i}" for i in range(n)])
    return result


def traced_extras(config: dict, tr: Tracer, loop_jobs: list[str]) -> dict:
    """Everything the traced run adds after its timed loop, and the per-layer numbers."""
    extras: dict = {"failures": [], "jobs": 0}

    def fail(job_id: str, kind: str, problem: str) -> None:
        extras["failures"].append({"job": job_id, "kind": kind, "problem": problem})

    def one_valid(job_id: str, path: str) -> None:
        """One valid job, checked against the reference, then decomposed."""
        tr.job = job_id
        extras["jobs"] += 1
        job, _, problem = attempt_valid(path, tr)
        if job is not None:
            data = after_valid(job, tr)
            actual = {
                name[: -len(".json")]: json.loads(text)
                for name, text in job["artifacts"].items()
                if name.endswith(".json")
            }
            problem = problem or next(iter(reference.compare(reference.expected_artifacts(data), actual)), None)
        if problem is not None:
            fail(job_id, job_id.split(":")[0], problem)
        del job
        gc.collect()

    # Every layer gets a number on every workload: bulk sends one failing
    # copy of its model through the CLI, and the invalid stream runs one
    # valid job on its base document.
    if config["workload"] == "invalid":
        one_valid("base", config["base_model"])
        valid_jobs, cli_jobs = ["base"], loop_jobs
    else:
        probe = config["probe"]
        tr.job = "probe"
        extras["jobs"] += 1
        outcome = invalid_job(probe, tr)
        problem = check_invalid(probe, outcome)
        if problem is not None:
            fail("probe", probe["kind"], problem)
        record_parse_errors(tr, probe)
        del outcome
        gc.collect()
        valid_jobs, cli_jobs = loop_jobs, ["probe"]

    scale_jobs = {}
    for label, path in config["scale_models"].items():
        if label == config["scale_reuse"]:
            scale_jobs[label] = valid_jobs
            continue
        scale_jobs[label] = [f"scale:{label}:{rep}" for rep in range(SCALE_REPEATS)]
        for job_id in scale_jobs[label]:
            one_valid(job_id, path)

    table = span_table(tr)
    counts: dict[str, dict[str, float]] = {}
    for job, name, value in tr.counts:
        per_job = counts.setdefault(name, {})
        per_job[job] = per_job.get(job, 0) + value

    def median_count(name: str, jobs: list[str]) -> float:
        return statistics.median(counts.get(name, {}).get(job, 0) for job in jobs)

    def span_seconds(root: str, name: str, jobs: list[str]) -> list[float]:
        return [table[job][(root, name)][0] for job in jobs if (root, name) in table.get(job, {})]

    def median_or_none(values: list[float]) -> float | None:
        return statistics.median(values) if values else None

    fails = span_seconds("job", "io.parse_fail", cli_jobs)
    reported = sum(counts.get("io.errors_reported", {}).values())
    positioned = sum(counts.get("io.errors_positioned", {}).values())
    spans_per_job = statistics.median(sum(1 for span in tr.spans if span[4] == job) for job in valid_jobs + cli_jobs)
    extras.update(
        {
            "layers": layers(tr, valid_jobs),
            # The fastest repeat is the layer's cost; slower ones carry noise.
            "scale": {label: layers(tr, jobs, min) for label, jobs in scale_jobs.items()},
            "parse_s": median_or_none(span_seconds("job", "io.parse_model", valid_jobs + cli_jobs)),
            "parse_fail_s": median_or_none(fails),
            "json_loads_s": median_or_none(span_seconds("reference", "io.json_loads", valid_jobs)),
            "cli_main_s": median_or_none(span_seconds("job", "cli.main", cli_jobs)),
            "errors_per_failed_parse": reported / len(fails) if fails else None,
            "errors_positioned_ratio": positioned / reported if reported else None,
            "findings": median_count("validation.findings", loop_jobs),
            "rows": median_count("analysis.rows", valid_jobs),
            "bytes_out": median_count("reports.bytes_out", valid_jobs),
            "overhead_s": spans_per_job * span_cost(),
        }
    )
    with open(config["spans_file"], "w", encoding="utf-8") as fh:
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")
    return extras


if __name__ == "__main__":
    outcome = run(_CONFIG)
    Path(_CONFIG["result_file"]).write_text(json.dumps(outcome), encoding="utf-8")
