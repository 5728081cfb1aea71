"""riskforge benchmark: one seeded harness, two workloads.

    python3 bench/run.py --workload bulk|invalid --seed N --seconds S --trace 0|1

Run from the root of a source checkout; riskforge is imported from
``src/``. The harness writes seeded model files (``gen.py``), measures
``import riskforge.cli`` in fresh interpreters, then runs the workload's
jobs in one fresh worker process (``worker.py``) for ``--seconds``
seconds, one job after another. It checks every job's output against
what the benchmark computes itself (``reference.py`` and the recorded
error of each invalid document), and prints one JSON object as the last
line of stdout: end-to-end metrics with ``--trace 0``, per-layer metrics
from a traced run with ``--trace 1``. Diagnostics go to stderr. See
``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import reference  # noqa: E402

WORKLOADS = ("bulk", "invalid")
#: Fresh interpreters per set-up sample set; a run takes two sets.
SETUP_SAMPLES = 25
#: Every run must end well inside three minutes, building included.
RUN_DEADLINE_S = 170.0
#: A layer is flagged when it grows faster than this times linear.
SUPERLINEAR = 1.3
#: Ratios of spans shorter than this at the larger input are timer noise.
SCALE_FLOOR_S = 0.05
SCALE_LAYERS = (
    "job",
    "io.parse_model",
    "model.index",
    "validation.structural",
    "validation.analysis_ready",
    "analysis.analyze",
    "reports.build",
    "reports.emit_csv",
    "reports.emit_md",
    "reports.emit_json",
    "io.serialize_model",
)
MB = 1e6


def log(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=True
    )


def setup_samples() -> list[float]:
    """Seconds to ``import riskforge.cli``, each in a fresh interpreter.

    The first import of a run compiles the bytecode, so these read warm
    bytecode, as an installed CLI does.
    """
    probe = "import time; t = time.perf_counter(); import riskforge.cli; print(time.perf_counter() - t)"
    return [float(run_child(["-c", probe], timeout=60).stdout) for _ in range(SETUP_SAMPLES)]


def import_time_samples() -> list[float]:
    """``-X importtime``'s cumulative seconds for ``riskforge.cli``, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        stderr = run_child(["-X", "importtime", "-c", "import riskforge.cli"], timeout=60).stderr
        cumulative = [
            int(line.split("|")[1]) for line in stderr.splitlines() if line.split("|")[-1].strip() == "riskforge.cli"
        ]
        samples.append(max(cumulative) / 1e6)
    return samples


def write_model(work: Path, name: str, data: dict) -> tuple[str, int]:
    path = work / name
    raw = gen.canonical(data).encode("utf-8")
    path.write_bytes(raw)
    return str(path), len(raw)


def write_doc(work: Path, name: str, doc: gen.InvalidDoc) -> dict:
    path = work / name
    raw = doc.text.encode("utf-8")
    path.write_bytes(raw)
    fields = {k: v for k, v in doc.__dict__.items() if k != "text"}
    return {**fields, "file": str(path), "bytes": len(raw)}


def prepare(workload: str, seed: int, traced: bool, work: Path) -> tuple[dict, dict, dict]:
    """Write the workload's inputs; return worker config, the model data and its spec."""
    config: dict = {}
    if workload == "invalid":
        data, spec, docs = gen.invalid_documents(seed)
        config["documents"] = [write_doc(work, f"doc{i:02d}.json", doc) for i, doc in enumerate(docs)]
        if traced:
            config["base_model"], _ = write_model(work, "base.json", data)
    else:
        data, spec = gen.bulk_model(seed)
        config["model"], config["model_bytes"] = write_model(work, "model.json", data)
        if traced:
            config["probe"] = write_doc(work, "probe.json", gen.inject(data, "dangling_edge", 0.9))
    if traced:
        config["scale_models"] = {}
        for label, (scale_data, _) in (
            ("bulk_quarter", gen.bulk_model(seed, n=500)),
            ("bulk", (data, spec) if workload == "bulk" else gen.bulk_model(seed)),
            ("star_2k", gen.star_model(seed, degree=2000)),
            ("star_20k", gen.star_model(seed)),
        ):
            config["scale_models"][label], _ = write_model(work, f"scale_{label}.json", scale_data)
        config["scale_reuse"] = "bulk" if workload == "bulk" else None
    if workload == "invalid":
        size = statistics.median(doc["bytes"] for doc in config["documents"])
    else:
        size = config["model_bytes"]
    return config, data, {**spec.__dict__, "bytes": size}


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(setup_s: float, outcome: dict) -> dict[str, tuple[float, str]]:
    times = [job["seconds"] for job in outcome["jobs"]]
    log(f"job seconds: {' '.join(f'{t:.3f}' for t in times)}")
    return {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "throughput_mb_s": (sum(job["bytes"] for job in outcome["jobs"]) / MB / sum(times), "MB/s"),
        "peak_rss_mb": (outcome["peak_rss_kib"] * 1024 / MB, "MB"),
    }


def ratio(numerator: float | None, denominator: float | None) -> float | None:
    return numerator / denominator if numerator is not None and denominator else None


def per_layer(import_s: float, outcome: dict, failed: int, attempted: int) -> dict[str, tuple[float, str]]:
    extras = outcome["trace"]
    layers = extras["layers"]
    metrics = {
        "job_p90_s": (p90([job["seconds"] for job in outcome["jobs"]]), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.main_s": (extras["cli_main_s"], "s"),
        "io.parse_model_s": (extras["parse_s"], "s"),
        "io.json_loads_s": (extras["json_loads_s"], "s"),
        "io.parse_vs_json_ratio": (ratio(extras["parse_s"], extras["json_loads_s"]), "ratio"),
        "io.parse_fail_s": (extras["parse_fail_s"], "s"),
        "io.errors_reported": (extras["errors_per_failed_parse"], "count"),
        "io.errors_positioned_ratio": (extras["errors_positioned_ratio"], "ratio"),
        "io.serialize_model_s": (layers.get("io.serialize_model"), "s"),
        "model.index_s": (layers.get("model.index"), "s"),
        "validation.structural_s": (layers.get("validation.structural"), "s"),
        "validation.analysis_ready_s": (layers.get("validation.analysis_ready"), "s"),
        "validation.findings": (extras["findings"], "count"),
        "analysis.forward_severity_s": (layers.get("analysis.forward_severity"), "s"),
        "analysis.backward_occurrence_s": (layers.get("analysis.backward_occurrence"), "s"),
        "analysis.assign_detection_s": (layers.get("analysis.assign_detection"), "s"),
        "analysis.analyze_s": (layers.get("analysis.analyze"), "s"),
        "analysis.prioritize_s": (layers.get("analysis.prioritize"), "s"),
        "analysis.rows": (extras["rows"], "count"),
        "reports.run_procedure_s": (layers.get("reports.run_procedure"), "s"),
        "reports.build_s": (layers.get("reports.build"), "s"),
        "reports.bytes_out": (extras["bytes_out"], "bytes"),
        "reports.emit_csv_s": (layers.get("reports.emit_csv"), "s"),
        "reports.emit_md_s": (layers.get("reports.emit_md"), "s"),
        "reports.emit_json_s": (layers.get("reports.emit_json"), "s"),
        "trace.overhead_s": (extras["overhead_s"], "s"),
        "trace.job_s": (layers.get("job"), "s"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    scale = extras["scale"]
    # The hub model's degree cost, which neither workload's jobs show.
    metrics["star.job_s"] = (scale["star_20k"].get("job"), "s")
    metrics["star.model.index_s"] = (scale["star_20k"].get("model.index"), "s")
    flagged = {"size": [], "degree": []}
    for kind, small, large, linear in (("size", "bulk_quarter", "bulk", 4), ("degree", "star_2k", "star_20k", 10)):
        for layer in SCALE_LAYERS:
            grown = ratio(scale[large].get(layer), scale[small].get(layer))
            metrics[f"scale.{layer}.{kind}_ratio"] = (grown, "ratio")
            if grown is not None and grown > SUPERLINEAR * linear and scale[large][layer] >= SCALE_FLOOR_S:
                flagged[kind].append(f"{layer} x{grown:.1f} (linear x{linear})")
        metrics[f"scale.{kind}_flagged"] = (len(flagged[kind]), "count")
        log(f"{kind} scaling, layers over {SUPERLINEAR}x linear: {', '.join(flagged[kind]) or 'none'}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="riskforge benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    traced = bool(args.trace)

    if not (SRC / "riskforge" / "__init__.py").is_file():
        log(f"no riskforge sources under {SRC}; run from the root of a riskforge checkout")
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config, data, spec = prepare(args.workload, args.seed, traced, work)
        log(f"inputs: {json.dumps(spec)}")
        run_child(["-c", "import riskforge.cli"], timeout=60)
        # Set-up samples are taken before and after the jobs, so that a
        # run's figure spans both ends of it.
        sample_setup = import_time_samples if traced else setup_samples
        setup = sample_setup()
        config.update(
            src=str(SRC),
            workload=args.workload,
            seconds=args.seconds,
            trace=traced,
            work_dir=str(work),
            result_file=str(work / "result.json"),
        )
        if traced:
            results = ROOT / ".bench_results"
            results.mkdir(exist_ok=True)
            config["spans_file"] = str(results / f"spans-{args.workload}-{args.seed}.jsonl")
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        remaining = RUN_DEADLINE_S - (time.perf_counter() - started)
        worker = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(work / "config.json")],
            cwd=ROOT,
            stdout=sys.stderr,
            timeout=remaining,
        )
        if worker.returncode != 0:
            log(f"worker exited with {worker.returncode}")
            return 1
        outcome = json.loads((work / "result.json").read_text(encoding="utf-8"))
        setup += sample_setup()

        failures = list(outcome["failures"]) + list(outcome.get("trace", {}).get("failures", ()))
        attempted = len(outcome["jobs"])
        if args.workload != "invalid":
            # Every job's bytes equal the first job's, which are checked here.
            stems = [name[: -len(".json")] for name in outcome["digests"] or () if name.endswith(".json")]
            actual = {stem: json.loads((work / f"out_{stem}.json").read_text(encoding="utf-8")) for stem in stems}
            problems = reference.compare(reference.expected_artifacts(data), actual)
            if problems:
                failures += [{"job": i, "kind": args.workload, "problem": problems[0]} for i in range(attempted)]
                for problem in problems[:10]:
                    log(f"reference mismatch: {problem}")
            log(f"artifact sha256: {json.dumps(outcome['digests'], sort_keys=True)}")
        if traced:
            attempted += outcome["trace"]["jobs"]
        failed = len({str(f["job"]) for f in failures})
        by_kind: dict[str, int] = {}
        for failure in failures:
            by_kind[failure["kind"]] = by_kind.get(failure["kind"], 0) + 1
        for failure in failures[:20]:
            log(f"failed job {failure['job']} ({failure['kind']}): {failure['problem']}")
        log(f"jobs: {attempted} attempted, {failed} failed; failures by kind: {json.dumps(by_kind, sort_keys=True)}")

        if traced:
            metrics = per_layer(statistics.median(setup), outcome, failed, attempted)
        else:
            metrics = end_to_end(statistics.median(setup), outcome)
        missing = [name for name, (value, _) in metrics.items() if value is None or not math.isfinite(value)]
        if missing:
            log(f"no measurement for {', '.join(missing)}")
            return 1
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
