"""Command-line behavior: subcommands, exit codes, deterministic output."""

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import camera_cut_off_from_its_requirement, child_env, make_camera_model, make_smartphone_model
from riskforge import __version__, analysis, parse_model, run_procedure, serialize_model, validation
from riskforge.cli import _parser, main

CAMERA_JSON = Path(__file__).resolve().parent.parent / "sample_models" / "camera.json"

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402

# camera.json with fm_photo's description holding an unpaired surrogate escape.
LONE_SURROGATE_CAMERA = CAMERA_JSON.read_bytes().replace(b'"A user cannot take photos",', b'"\\ud800 lone",', 1)


@pytest.fixture
def camera_path(tmp_path):
    path = tmp_path / "camera.json"
    path.write_text(serialize_model(make_camera_model()), encoding="utf-8")
    return str(path)


@pytest.fixture
def smartphone_path(tmp_path):
    path = tmp_path / "smartphone.json"
    path.write_text(serialize_model(make_smartphone_model()), encoding="utf-8")
    return str(path)


class TestValidateCommand:
    def test_clean_model_exits_zero(self, camera_path, capsys):
        assert main(["validate", camera_path]) == 0
        out = capsys.readouterr()
        assert "0 error(s)" in out.out

    def test_warnings_do_not_fail_validation(self, smartphone_path, capsys):
        # The smartphone model's failure modes are deliberately unrated.
        assert main(["validate", smartphone_path]) == 0
        err = capsys.readouterr().err
        assert "warning:" in err

    def test_strict_promotes_warnings(self, smartphone_path):
        assert main(["validate", "--strict", smartphone_path]) == 1

    def test_repeated_calls_in_one_process_match_fresh_calls(self, smartphone_path, capsys):
        calls = [["validate", "--strict", smartphone_path], ["validate", smartphone_path], ["--version"], ["bogus"]]

        def run(argv):
            code = main(argv)
            return (code, *capsys.readouterr())

        fresh = []
        for argv in calls:
            _parser.cache_clear()
            fresh.append(run(argv))
        assert [outcome[0] for outcome in fresh] == [1, 0, 0, 2]
        assert fresh[2][1] == f"riskforge {__version__}\n"
        for _ in range(2):
            assert [run(argv) for argv in calls] == fresh

    def test_orphan_component_warns_but_passes(self, tmp_path, capsys):
        from riskforge import Component

        model = make_camera_model()
        model = dataclasses.replace(
            model, components=model.components + (Component("c_spare", "Spare part"),)
        )
        path = tmp_path / "orphan.json"
        path.write_text(serialize_model(model), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        assert "OrphanComponent" in capsys.readouterr().err

    def test_analysis_ready_flag(self, smartphone_path, camera_path, capsys):
        assert main(["validate", "--analysis-ready", smartphone_path]) == 1
        assert "MissingSeverityRating" in capsys.readouterr().err
        assert main(["validate", "--analysis-ready", camera_path]) == 0

    def test_unparseable_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"meta": {}}', encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["validate", str(bad)]) == 2
        assert f"error: cannot read {bad}: " in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_leading_bom_is_a_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + CAMERA_JSON.read_bytes())
        assert main(["validate", str(path)]) == 2
        assert f"error: {path}: line 1, column 1: " in capsys.readouterr().err

    def test_unpaired_surrogate_is_a_parse_error(self, tmp_path, capsys):
        # A lone surrogate has no UTF-8 form, so no output holding it could be written.
        path = tmp_path / "lone.json"
        path.write_bytes(LONE_SURROGATE_CAMERA)
        expected = f"error: {path}: line 55, column 23: unpaired surrogate escape '\\ud800' [Syntax]\n"
        for argv in (
            ["validate", str(path)],
            ["analyze", str(path), "--out", str(tmp_path / "out")],
            ["analyze", str(path)],
            ["trace", str(path), "--fm", "fm_photo", "--direction", "effects"],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err == expected


class TestAnalyzeCommand:
    def test_writes_five_files(self, camera_path, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert main(["analyze", camera_path, "--out", str(out_dir), "--format", "csv"]) == 0
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == [
            "fmea_component.csv",
            "fmea_function.csv",
            "fmea_requirement.csv",
            "function_priority.csv",
            "requirement_priority.csv",
        ]
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_repeat_runs_are_byte_identical(self, camera_path, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        main(["analyze", camera_path, "--out", str(first)])
        main(["analyze", camera_path, "--out", str(second)])
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_streams_when_no_out(self, camera_path, capsys):
        assert main(["analyze", camera_path]) == 0
        out = capsys.readouterr().out
        assert "# ==== requirement_priority.csv" in out
        assert "# ==== fmea_component.csv" in out
        assert ",448,1" in out

    def test_json_format(self, camera_path, tmp_path):
        out_dir = tmp_path / "reports"
        main(["analyze", camera_path, "--out", str(out_dir), "--format", "json"])
        data = json.loads((out_dir / "fmea_component.json").read_text(encoding="utf-8"))
        assert data["rows"][0]["rpn"] == 448

    def test_not_analysis_ready_exits_one(self, tmp_path, capsys):
        model = make_smartphone_model()
        path = tmp_path / "incomplete.json"
        path.write_text(serialize_model(model), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_a_model_analyze_cannot_rate_exits_one(self, tmp_path, capsys):
        # Public analyze raises MissingOccurrence on this model; the command reports the findings.
        path = tmp_path / "cut.json"
        path.write_text(camera_cut_off_from_its_requirement(), encoding="utf-8")
        assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert 'failure mode "fm_exec" has no rated effect' in captured.err
        assert "[NoSeveritySource]" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_no_detection_propagation_flag(self, camera_path, tmp_path):
        out_dir = tmp_path / "reports"
        main(["analyze", camera_path, "--out", str(out_dir), "--no-detection-propagation"])
        function_doc = (out_dir / "fmea_function.csv").read_text(encoding="utf-8")
        assert function_doc.splitlines()[1].endswith(",-,-,42,2")

    def test_stamp_flag_adds_header(self, camera_path, tmp_path):
        out_dir = tmp_path / "reports"
        main(["analyze", camera_path, "--out", str(out_dir), "--stamp"])
        text = (out_dir / "fmea_component.csv").read_text(encoding="utf-8")
        assert text.startswith("# generated by riskforge")
        assert "Smartphone 1.0" in text.splitlines()[0]

    def test_strict_still_writes_content(self, camera_path, tmp_path):
        # The camera model carries one warning (a failure mode without
        # causes), so strict mode exits 1, but the artifacts still land.
        out_dir = tmp_path / "reports"
        code = main(["analyze", camera_path, "--out", str(out_dir), "--strict"])
        assert len(sorted(p.name for p in out_dir.iterdir())) == 5
        assert code == 1

    def test_unwritable_out_exits_two(self, camera_path, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        out_dir = blocker / "sub"
        assert main(["analyze", camera_path, "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert f"error: cannot write {out_dir}: " in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestTraceCommand:
    def test_effects_chain(self, camera_path, capsys):
        assert main(["trace", camera_path, "--fm", "fm_damage", "--direction", "effects"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "c_cam [fm_damage] Camera module is damaged",
            "f_exec [fm_exec] Camera module cannot be executed",
            "r_photo [fm_photo] A user cannot take photos",
        ]

    def test_causes_chain(self, camera_path, capsys):
        assert main(["trace", camera_path, "--fm", "fm_exec", "--direction", "causes"]) == 0
        out = capsys.readouterr().out
        assert "Camera module is damaged" in out

    def test_unknown_failure_mode_exits_one(self, camera_path):
        assert main(["trace", camera_path, "--fm", "ghost", "--direction", "effects"]) == 1

    def test_bad_direction_is_usage_error(self, camera_path):
        assert main(["trace", camera_path, "--fm", "fm_exec", "--direction", "up"]) == 2


class TestHashSeed:
    #: Analyze one model in all three formats, each into its own directory.
    ANALYZE = (
        "import sys\n"
        "from riskforge.cli import main\n"
        "for fmt in ('csv', 'md', 'json'):\n"
        "    assert main(['analyze', sys.argv[1], '--out', f'{sys.argv[2]}/{fmt}', '--format', fmt]) == 0\n"
    )

    def test_artifacts_do_not_depend_on_the_hash_seed(self, tmp_path):
        bulk = tmp_path / "bulk.json"
        bulk.write_text(gen.canonical(gen.bulk_model(5, n=200)[0]), encoding="utf-8")
        for model in (CAMERA_JSON, bulk):
            runs = []
            for seed in ("0", "1", "2"):
                out = tmp_path / f"{model.stem}-{seed}"
                env = {**child_env(), "PYTHONHASHSEED": seed}
                subprocess.run(
                    [sys.executable, "-c", self.ANALYZE, str(model), str(out)], env=env, check=True, timeout=120
                )
                runs.append({path.relative_to(out).as_posix(): path.read_bytes() for path in out.glob("*/*")})
            assert len(runs[0]) == 15
            assert runs[1] == runs[0] and runs[2] == runs[0]


class TestRankCommand:
    def test_occurrence_gap_frequency(self, capsys):
        assert main(["rank", "occurrence", "1/5000"]) == 0
        out = capsys.readouterr().out
        assert "band: 5-6" in out
        assert "representative rank: 6" in out

    def test_occurrence_boundary(self, capsys):
        assert main(["rank", "occurrence", "1/20"]) == 0
        assert "band: 9-10" in capsys.readouterr().out

    def test_severity_lookup(self, capsys):
        assert main(["rank", "severity", "component", "PrimaryFunctionEffect"]) == 0
        out = capsys.readouterr().out
        assert "band: 7-8" in out

    def test_detection_lookup(self, capsys):
        assert main(["rank", "detection", "NoApparentMethod"]) == 0
        assert "band: 9-10" in capsys.readouterr().out

    def test_bad_fraction_is_usage_error(self, capsys):
        # The last three: past the interpreter's digit limit, non-ASCII digits, a trailing newline.
        for frequency in ("often", "0/5", "1/" + "9" * 5000, "\u0661/\u0661\u0662\u0665\u0660", "1/1250\n"):
            assert main(["rank", "occurrence", frequency]) == 2
            assert capsys.readouterr().err == f"error: frequency must look like 1/1250, got {frequency!r}\n"

    def test_unknown_class_is_usage_error(self):
        assert main(["rank", "severity", "component", "ChooseCompetitor"]) == 2
        assert main(["rank", "detection", "Telepathy"]) == 2

    def test_unknown_domain_is_usage_error(self):
        assert main(["rank", "severity", "gadget", "SafetyIssue"]) == 2


class TestDiffCommand:
    def test_rpn_delta_table(self, camera_path, tmp_path, capsys):
        changed = make_camera_model()
        fms = []
        for fm in changed.failure_modes:
            if fm.id == "fm_damage":
                causes = (dataclasses.replace(fm.causes[0], occurrence_rank=9),) + fm.causes[1:]
                fm = dataclasses.replace(fm, causes=causes)
            fms.append(fm)
        changed = dataclasses.replace(changed, failure_modes=tuple(fms))
        new_path = tmp_path / "changed.json"
        new_path.write_text(serialize_model(changed), encoding="utf-8")

        assert main(["diff", camera_path, str(new_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "fm_id,old_rpn,new_rpn,rpn_delta,old_rank,new_rank,rank_move"
        table = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert table["fm_damage"][1:4] == ["448", "576", "128"]
        assert table["fm_damage"][6] == "0"

    def test_added_and_removed_modes(self, camera_path, tmp_path, capsys):
        reduced = make_camera_model()
        reduced = dataclasses.replace(
            reduced,
            failure_modes=tuple(fm for fm in reduced.failure_modes if fm.id != "fm_exec"),
        )
        new_path = tmp_path / "reduced.json"
        new_path.write_text(serialize_model(reduced), encoding="utf-8")
        assert main(["diff", camera_path, str(new_path)]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("fm_exec"))
        assert row.split(",")[2] == "-"

    def test_invalid_model_exits_one(self, camera_path, smartphone_path):
        assert main(["diff", camera_path, smartphone_path]) == 1


class TestOnePassPerStage:
    COUNTED = (
        (validation, "_check_duplicate_ids"),
        (validation, "_check_edges"),
        (validation, "_check_failure_modes"),
        (validation, "_check_warnings"),
        (validation, "_check_analysis_ready"),
        (analysis, "_rating_table"),
    )
    # The rank rules, bound by name in both modules that call them; counted together.
    RANK_RULES = ((validation, "own_ratings"), (analysis, "own_ratings"))

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for module, name in self.COUNTED + self.RANK_RULES:

            def counted(*args, _call=getattr(module, name), _name=name):
                calls[_name] += 1
                return _call(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize(
        "argv, models, rated",
        [
            (["analyze", "MODEL"], 1, True),
            (["validate", "MODEL", "--analysis-ready"], 1, True),
            (["diff", "MODEL", "MODEL"], 2, True),
            (["validate", "MODEL"], 1, False),
        ],
        ids=["analyze", "validate", "diff", "validate-structural"],
    )
    def test_each_check_and_the_rating_table_run_once_per_model(self, argv, models, rated, camera_path, calls):
        assert main([camera_path if arg == "MODEL" else arg for arg in argv]) == 0
        expected = {name: models for _, name in self.COUNTED}
        if not rated:
            expected.update(_check_analysis_ready=0, _rating_table=0)
        # Once per failure mode in parse's structural stage, and once more in the rating table.
        failure_modes = len(make_camera_model().failure_modes)
        own_ratings = failure_modes * models * (2 if rated else 1)
        assert calls == Counter(expected, own_ratings=own_ratings)

    def test_the_library_run_rates_each_failure_mode_once_after_the_parse(self, camera_path, calls):
        model = parse_model(Path(camera_path).read_text(encoding="utf-8"))
        run_procedure(model)
        # The parse's structural stage and the run's: the run's rating table
        # takes the ratings its own structural checks read.
        failure_modes = len(model.failure_modes)
        expected = {name: 2 for _, name in self.COUNTED}
        expected.update(_check_analysis_ready=1, _rating_table=1, _check_warnings=1)
        assert calls == Counter(expected, own_ratings=2 * failure_modes)


class TestDiagnostics:
    def test_usage_error_exits_two(self):
        assert main(["frobnicate"]) == 2
        assert main([]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "riskforge" in capsys.readouterr().out

    def test_color_never(self, smartphone_path, capsys, monkeypatch):
        monkeypatch.setenv("RISKFORGE_COLOR", "never")
        main(["validate", smartphone_path])
        assert "\x1b[" not in capsys.readouterr().err

    def test_color_always(self, smartphone_path, capsys, monkeypatch):
        monkeypatch.setenv("RISKFORGE_COLOR", "always")
        main(["validate", smartphone_path])
        assert "\x1b[33m" in capsys.readouterr().err

    def test_color_auto_is_off_for_pipes(self, smartphone_path, capsys, monkeypatch):
        monkeypatch.delenv("RISKFORGE_COLOR", raising=False)
        main(["validate", smartphone_path])
        assert "\x1b[" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def large_models(tmp_path_factory):
    """A star model (3,000 functions) and a bulk model (1,000 elements per class): each command
    below prints well over a pipe's 64 KiB to stdout from one of them."""
    work = tmp_path_factory.mktemp("large")
    paths = {}
    for name, (data, _) in (("star", gen.star_model(5, degree=3000)), ("bulk", gen.bulk_model(5, n=1000))):
        paths[name] = work / f"{name}.json"
        paths[name].write_text(gen.canonical(data), encoding="utf-8")
    return paths


class TestClosedStdout:
    """``riskforge ... | head -1``: the reader closes stdout after one line. The command ends
    with the I/O exit code and no traceback, whether its output is one write or many."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{star}", "--format", "md"],
            ["trace", "{star}", "--fm", "fm_00000", "--direction", "causes"],
            ["diff", "{bulk}", "{bulk}"],
        ],
        ids=["analyze", "trace", "diff"],
    )
    def test_exits_two_without_a_traceback(self, argv, large_models, tmp_path):
        argv = [arg.format(**large_models) for arg in argv]
        with open(tmp_path / "stderr", "w+b") as stderr:
            child = subprocess.Popen(
                [sys.executable, "-m", "riskforge.cli", *argv], stdout=subprocess.PIPE, stderr=stderr, env=child_env()
            )
            first = child.stdout.readline()
            child.stdout.close()
            code = child.wait(timeout=120)
            stderr.seek(0)
            err = stderr.read().decode()
        assert first
        assert "Traceback" not in err
        assert code == 2

    def test_a_stream_without_a_descriptor_is_left_alone(self, camera_path, monkeypatch):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["trace", camera_path, "--fm", "fm_photo", "--direction", "effects"]) == 2


@st.composite
def mutated_camera(draw):
    """camera.json with one to three bytes replaced, inserted or deleted."""
    data = bytearray(CAMERA_JSON.read_bytes())
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(data) - 1))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "delete":
            del data[index]
        elif edit == "insert":
            data.insert(index, draw(st.integers(0, 255)))
        else:
            data[index] = draw(st.integers(0, 255))
    return bytes(data)


# Just past the interpreter's recursion limit; deeper inputs add nothing.
_DEPTH = sys.getrecursionlimit() + 1


class TestExitCodeContract:
    @given(data=st.binary(max_size=256) | mutated_camera())
    @example(data=b"[" * _DEPTH + b"]" * _DEPTH)
    @example(data=LONE_SURROGATE_CAMERA)
    @settings(max_examples=200, deadline=None)
    def test_every_input_exits_zero_one_or_two(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_bytes(data)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                validated = main(["validate", "--analysis-ready", str(path)])
                analyzed = main(["analyze", str(path), "--out", str(Path(tmp) / "out")])
        assert validated in (0, 1, 2)
        assert analyzed in (0, 1, 2)
