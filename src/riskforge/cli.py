"""Command-line front end.

Subcommands cover the human touchpoints of a design-risk run: validate a
model file, run the full analysis and write the five artifacts, trace a
failure mode's effect or cause chain, look up rating bands, and diff two
model versions by RPN. Exit codes: 0 success, 1 validation or analysis
errors, 2 usage, parse, or I/O errors. Machine output goes to stdout,
diagnostics to stderr; ``RISKFORGE_COLOR`` (auto, always, never) controls
diagnostic coloring only.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path

from . import __version__
from .analysis import _prioritize, trace
# The CLI's parse also hands on the own ratings its structural checks read, so that
# ``_complete`` reads none again; it keeps the name the bench times it by.
from .io import ParseFailure, _parse as parse_model
from .model import Domain, Frequency, UnknownFailureMode
from .rating import detection_band, occurrence_band, severity_band
from .reports import FORMATS, ValidationFailed, _run_procedure, emit_artifact, write_bundle
from .validation import ANALYSIS_READY, STRUCTURAL, Finding, _complete

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

_COLORS = {"error": "\x1b[31m", "warning": "\x1b[33m"}
_RESET = "\x1b[0m"


def _color_enabled() -> bool:
    mode = os.environ.get("RISKFORGE_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return sys.stderr.isatty()


def _diag(severity: str, message: str) -> None:
    prefix = f"{severity}:"
    if _color_enabled() and severity in _COLORS:
        prefix = f"{_COLORS[severity]}{prefix}{_RESET}"
    print(f"{prefix} {message}", file=sys.stderr)


def _print_findings(findings: tuple[Finding, ...]) -> None:
    for finding in findings:
        _diag(finding.severity, f"{finding.path_str}: {finding.message} [{finding.code}]")


def _load_model(path: str):
    """The pair ``io._parse`` returns: the parsed model, which has no structural errors,
    and its failure modes' own ratings in model order; or None after a diagnostic."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _diag("error", f"cannot read {path}: {exc}")
        return None
    try:
        return parse_model(text)
    except ParseFailure as exc:
        for error in exc.errors:
            _diag("error", f"{path}: {error}")
        return None


def _cmd_validate(args: argparse.Namespace) -> int:
    loaded = _load_model(args.model)
    if loaded is None:
        return EXIT_USAGE
    model, ratings = loaded
    strictness = ANALYSIS_READY if args.analysis_ready else STRUCTURAL
    report, _ = _complete(model, [], ratings, strictness)
    _print_findings(report.findings)
    print(f"validation: {len(report.errors)} error(s), {len(report.warnings)} warning(s)")
    if report.has_errors:
        return EXIT_FINDINGS
    if args.strict and report.warnings:
        return EXIT_FINDINGS
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    loaded = _load_model(args.model)
    if loaded is None:
        return EXIT_USAGE
    model, ratings = loaded
    try:
        bundle = _run_procedure(model, [], ratings, not args.no_detection_propagation)
    except ValidationFailed as exc:
        _print_findings(exc.report.findings)
        return EXIT_FINDINGS

    _print_findings(bundle.validation.warnings)

    stamp = None
    if args.stamp:
        stamp = f"generated by riskforge {__version__} | {model.meta.product} {model.meta.version}"

    if args.out is not None:
        try:
            written = write_bundle(bundle, args.out, args.format, stamp)
        except OSError as exc:
            _diag("error", f"cannot write {args.out}: {exc}")
            return EXIT_USAGE
        for path in written:
            print(path)
    else:
        for name, artifact in bundle.documents():
            print(f"# ==== {name}.{args.format}")
            sys.stdout.write(emit_artifact(name, artifact, args.format, stamp))

    if args.strict and bundle.validation.warnings:
        return EXIT_FINDINGS
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    loaded = _load_model(args.model)
    if loaded is None:
        return EXIT_USAGE
    try:
        chain = trace(loaded[0], args.fm, args.direction)
    except UnknownFailureMode as exc:
        _diag("error", str(exc))
        return EXIT_FINDINGS
    for hop in chain.hops:
        print(f"{hop.element_id} [{hop.failure_mode_id or '-'}] {hop.text}")
    return EXIT_OK


_FRACTION_RE = re.compile(r"([0-9]+)/([0-9]+)")


def _cmd_rank(args: argparse.Namespace) -> int:
    try:
        if args.scale == "occurrence":
            match = _FRACTION_RE.fullmatch(args.frequency)
            if match is None:
                raise ValueError
            band = occurrence_band(Frequency(int(match[1]), int(match[2])))
        elif args.scale == "severity":
            band = severity_band(Domain(args.domain), args.severity_class)
        else:
            band = detection_band(args.detection_class)
    except ValueError as exc:
        # No fraction, a zero (Frequency) or a numeral past the interpreter's digit limit (int).
        problem = f"frequency must look like 1/1250, got {args.frequency!r}" if args.scale == "occurrence" else exc
        _diag("error", str(problem))
        return EXIT_USAGE
    print(f"band: {band}")
    print(f"representative rank: {band.hi}")
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    results = []
    for path in (args.old, args.new):
        loaded = _load_model(path)
        if loaded is None:
            return EXIT_USAGE
        model, ratings = loaded
        report, table = _complete(model, [], ratings, ANALYSIS_READY)
        if report.has_errors:
            _diag("error", f"{path} is not analysis-ready")
            _print_findings(report.findings)
            return EXIT_FINDINGS
        results.append(_prioritize(model, table, propagate_detection=True))

    old_rows = {row.fm_id: row for row in results[0].rows}
    new_rows = {row.fm_id: row for row in results[1].rows}
    ids = sorted(
        set(old_rows) | set(new_rows),
        key=lambda fm_id: (
            new_rows[fm_id].rank_position if fm_id in new_rows else math.inf,
            fm_id,
        ),
    )
    print("fm_id,old_rpn,new_rpn,rpn_delta,old_rank,new_rank,rank_move")
    for fm_id in ids:
        old = old_rows.get(fm_id)
        new = new_rows.get(fm_id)
        rpn_delta = str(new.rpn - old.rpn) if old and new else "-"
        # Positive move = climbed toward the top of the priority list.
        rank_move = str(old.rank_position - new.rank_position) if old and new else "-"
        print(
            ",".join(
                (
                    fm_id,
                    str(old.rpn) if old else "-",
                    str(new.rpn) if new else "-",
                    rpn_delta,
                    str(old.rank_position) if old else "-",
                    str(new.rank_position) if new else "-",
                    rank_move,
                )
            )
        )
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use: ``parse_args`` leaves it as it is, so one serves every call."""
    parser = argparse.ArgumentParser(
        prog="riskforge",
        description="Design-risk analysis over requirement/function/component models.",
    )
    parser.add_argument("--version", action="version", version=f"riskforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a model file and report findings")
    p_validate.add_argument("model")
    p_validate.add_argument("--analysis-ready", action="store_true", help="also require ratings")
    p_validate.add_argument("--strict", action="store_true", help="treat warnings as failures")
    p_validate.set_defaults(handler=_cmd_validate)

    p_analyze = sub.add_parser("analyze", help="run the full procedure and emit five artifacts")
    p_analyze.add_argument("model")
    p_analyze.add_argument("--out", nargs="?", const=".", default=None, metavar="DIR")
    p_analyze.add_argument("--format", choices=FORMATS, default="csv")
    p_analyze.add_argument(
        "--no-detection-propagation",
        action="store_true",
        help="leave detection blank on rows without their own control plan",
    )
    p_analyze.add_argument("--strict", action="store_true", help="treat warnings as failures")
    p_analyze.add_argument("--stamp", action="store_true", help="add provenance headers")
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_trace = sub.add_parser("trace", help="walk a failure mode's effect or cause chain")
    p_trace.add_argument("model")
    p_trace.add_argument("--fm", required=True, metavar="ID")
    p_trace.add_argument("--direction", required=True, choices=("effects", "causes"))
    p_trace.set_defaults(handler=_cmd_trace)

    p_rank = sub.add_parser("rank", help="look up a rating band")
    rank_sub = p_rank.add_subparsers(dest="scale", required=True)
    p_occ = rank_sub.add_parser("occurrence")
    p_occ.add_argument("frequency", help="failures per opportunities, e.g. 1/1250")
    p_sev = rank_sub.add_parser("severity")
    p_sev.add_argument("domain", choices=tuple(d.value for d in Domain))
    p_sev.add_argument("severity_class", metavar="class")
    p_det = rank_sub.add_parser("detection")
    p_det.add_argument("detection_class", metavar="class")
    p_rank.set_defaults(handler=_cmd_rank)

    p_diff = sub.add_parser("diff", help="tabulate per-failure-mode RPN deltas between two models")
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    p_diff.set_defaults(handler=_cmd_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # here, so a reader that has gone away is met here, not at exit
    except BrokenPipeError:
        # stdout's reader closed it (``riskforge analyze MODEL | head -1``): an I/O error.
        # What is still buffered goes to os.devnull, so the flush at exit cannot fail again
        # (the recipe in the note on SIGPIPE in Python's signal docs).
        _stdout_to_devnull()
        return EXIT_USAGE
    return code


def _dispatch(argv: list[str] | None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.handler(args)


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at os.devnull, when it has one (a caller's
    in-memory stream has none, and nothing to flush at exit)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
