import contextlib
import csv
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefvote import cli
from prefvote.cli import main
from prefvote.learning import NumericError

COMPARISONS = """voter_id,c_1,c_2,r_1,r_2
v1,1,0,0,1
v1,2,1,1,2
v1,0.5,-1,-0.5,1
v1,1,1,0,0
v2,1,0,0,0.5
v2,3,1,2,2
v2,0.5,0,-1,1
v2,2,-1,1,1
"""

ALTERNATIVES = """id,f_1,f_2
a,3,0
b,-3,0
c,0,-1
"""

SPLIT_PROFILE = """weight,ranking
0.35,a>b>c
0.35,b>a>c
0.1,c>a>b
0.1,a>c>b
0.1,b>c>a
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "comparisons.csv").write_text(COMPARISONS)
    (tmp_path / "alternatives.csv").write_text(ALTERNATIVES)
    (tmp_path / "profile.csv").write_text(SPLIT_PROFILE)
    return tmp_path


def test_fit_summarize_decide_flow(workdir, capsys):
    models = str(workdir / "models.json")
    summary = str(workdir / "summary.json")
    assert main(["fit", "--comparisons", str(workdir / "comparisons.csv"),
                 "--out", models]) == 0
    payload = json.loads(pathlib.Path(models).read_text())
    assert payload["format"] == "voter-models"
    assert [v["voter_id"] for v in payload["voters"]] == ["v1", "v2"]
    assert all(v["converged"] for v in payload["voters"])

    assert main(["summarize", "--models", models, "--out", summary]) == 0
    summary_payload = json.loads(pathlib.Path(summary).read_text())
    assert summary_payload["n_voters"] == 2

    assert main(["decide", "--summary", summary,
                 "--alternatives", str(workdir / "alternatives.csv")]) == 0
    out = capsys.readouterr().out
    # both voters consistently preferred the higher first coordinate
    assert out.strip().splitlines()[-1] == "a"


def test_fit_flags_recorded(workdir):
    models = str(workdir / "models.json")
    assert main(["fit", "--comparisons", str(workdir / "comparisons.csv"),
                 "--out", models, "--l2", "0.001", "--tol", "1e-6",
                 "--max-iter", "77"]) == 0
    fit = json.loads(pathlib.Path(models).read_text())["fit"]
    assert float(fit["l2_penalty"]) == 0.001
    assert float(fit["gradient_tolerance"]) == 1e-6
    assert fit["max_iterations"] == 77


def test_numeric_failure_names_the_voter_id(workdir, capsys, monkeypatch):
    def second_voter_fails(arrays, config):
        assert len(list(arrays)) == 2  # one call for the whole file
        raise NumericError(1)

    monkeypatch.setattr(cli, "fit_voters", second_voter_fails)
    out = workdir / "models.json"
    code = main(["fit", "--comparisons", str(workdir / "comparisons.csv"),
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: voter 'v2': fit produced a non-finite objective or weights\n"
    assert not out.exists()


def test_decide_single_alternative(workdir, capsys):
    (workdir / "one.csv").write_text("id,f_1,f_2\nonly,1,2\n")
    summary = str(workdir / "summary.json")
    models = str(workdir / "models.json")
    main(["fit", "--comparisons", str(workdir / "comparisons.csv"), "--out", models])
    main(["summarize", "--models", models, "--out", summary])
    capsys.readouterr()
    assert main(["decide", "--summary", summary,
                 "--alternatives", str(workdir / "one.csv")]) == 0
    assert capsys.readouterr().out.strip() == "only"


def test_fit_empty_comparisons_is_data_error(workdir, capsys):
    empty = workdir / "empty.csv"
    empty.write_text("voter_id,c_1,c_2,r_1,r_2\n")
    code = main(["fit", "--comparisons", str(empty),
                 "--out", str(workdir / "m.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_missing_input_file_is_data_error(workdir, capsys):
    code = main(["fit", "--comparisons", str(workdir / "nope.csv"),
                 "--out", str(workdir / "m.json")])
    assert code == 2


def test_malformed_comparisons_reports_line(workdir, capsys):
    bad = workdir / "bad.csv"
    bad.write_text("voter_id,c_1,c_2,r_1,r_2\nv1,1,x,0,1\n")
    code = main(["fit", "--comparisons", str(bad),
                 "--out", str(workdir / "m.json")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_fit_overflowing_difference_is_data_error(workdir, capsys):
    # Finite features whose chosen-minus-rejected difference overflows
    # used to reach the fit and exit 3 after numpy overflow warnings.
    bad = workdir / "overflow.csv"
    bad.write_text("voter_id,c_1,r_1\nv1,1,0\nv1,1e308,-1e308\n")
    out = workdir / "m.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--comparisons", str(bad), "--out", str(out)])
    assert code == 2
    assert "line 3: chosen minus rejected overflows" in capsys.readouterr().err
    assert not out.exists()


def test_fit_warns_before_a_later_blocks_error(workdir):
    # Line 3 repeats its chosen vector; line 2003 is in a later block of
    # rows, and its fault is still reported after line 3's warning.
    rows = ["voter_id,c_1,r_1", "v0,1,0", "v0,2,2"]
    rows += [f"v{k % 9},{k % 5},{k % 7 + 5}" for k in range(1999)]
    rows += ["v1,x,0", "v2,1,0"]
    bad = workdir / "late.csv"
    bad.write_text("\n".join(rows) + "\n")
    out = workdir / "m.json"
    done = subprocess.run(
        [sys.executable, "-m", "prefvote.cli", "fit",
         "--comparisons", str(bad), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert not out.exists()
    lines = done.stderr.splitlines()
    warned = [k for k, line in enumerate(lines) if "line 3: comparison has identical" in line]
    assert len(warned) == 1 and "UserWarning" in lines[warned[0]]
    assert lines[-1] == "error: line 2003: non-numeric value 'x'"
    assert warned[0] < len(lines) - 1


def test_byte_order_mark_is_accepted(workdir, capsys):
    bom = workdir / "bom"
    bom.mkdir()
    for name in ("comparisons.csv", "alternatives.csv"):
        (bom / name).write_text("\ufeff" + (workdir / name).read_text(), encoding="utf-8")
    assert (bom / "comparisons.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    outputs = []
    for folder in (workdir, bom):
        models, summary = str(folder / "models.json"), str(folder / "summary.json")
        assert main(["fit", "--comparisons", str(folder / "comparisons.csv"),
                     "--out", models]) == 0
        assert main(["summarize", "--models", models, "--out", summary]) == 0
        capsys.readouterr()
        assert main(["decide", "--summary", summary,
                     "--alternatives", str(folder / "alternatives.csv")]) == 0
        outputs.append((pathlib.Path(models).read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--l2", "nan"], "l2_penalty"),
        (["--l2", "inf"], "l2_penalty"),
        (["--tol", "inf"], "gradient_tolerance"),
    ],
)
def test_fit_refuses_non_finite_options_before_reading_data(
    workdir, capsys, monkeypatch, flags, field
):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_voters ran despite a bad option")

    monkeypatch.setattr(cli, "fit_voters", no_fit)
    out = workdir / "m.json"
    for comparisons in ("comparisons.csv", "missing.csv"):
        code = main(["fit", "--comparisons", str(workdir / comparisons),
                     "--out", str(out), *flags])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


#: One field just over the ``csv`` module's size limit.
OVERSIZED_FIELD = "1" * (csv.field_size_limit() + 1)
#: Valid JSON syntax nested far past the interpreter's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@st.composite
def malformed_comparison_csvs(draw):
    """A tiny comparison CSV with exactly one kind of fault in it."""
    d = draw(st.integers(1, 3))
    header = ["voter_id", *(f"c_{k}" for k in range(1, d + 1)),
              *(f"r_{k}" for k in range(1, d + 1))]
    token = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
    rows = [
        [draw(st.sampled_from(["v1", "v2"])),
         *draw(st.lists(token, min_size=2 * d, max_size=2 * d))]
        for _ in range(draw(st.integers(1, 4)))
    ]
    row = draw(st.sampled_from(rows))
    column = draw(st.integers(1, 2 * d))
    fault = draw(st.sampled_from(
        ["header", "field count", "non-numeric", "non-finite", "overflow",
         "empty voter id", "oversized field"]
    ))
    if fault == "header":
        header = draw(st.sampled_from([
            header[:-1], ["voter", *header[1:]], [*header, "x"],
            [header[0], *reversed(header[1:])], [],
        ]))
    elif fault == "field count":
        if draw(st.booleans()):
            row.append("0")
        else:
            row.pop()
    elif fault == "non-numeric":
        row[column] = draw(st.sampled_from(["x", "", "1..2", "--1", "0x10"]))
    elif fault == "non-finite":
        row[column] = draw(st.sampled_from(["inf", "-inf", "nan", "1e999"]))
    elif fault == "overflow":
        k = draw(st.integers(1, d))
        row[k], row[k + d] = "1.7e308", "-1.7e308"
    elif fault == "empty voter id":
        row[0] = draw(st.sampled_from(["", "  "]))
    else:
        row[draw(st.integers(0, 2 * d))] = OVERSIZED_FIELD
    return "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"


@given(malformed_comparison_csvs())
@settings(max_examples=100, deadline=None)
def test_fit_on_malformed_comparisons_exits_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "comparisons.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        out = os.path.join(tmp, "m.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert main(["fit", "--comparisons", path, "--out", out]) == 2
        assert not os.path.exists(out)


def summary_json(d):
    return json.dumps({"format": "summary-model", "version": 1, "d": d,
                       "n_voters": 2, "beta": ["1"] * d})


def assert_data_error(files, argv):
    """``main`` exits 2 with a one-line ``error:`` message and no output;
    returns the message.

    ``files`` maps names to contents, written to a fresh directory; an
    argument of the form ``@name`` stands for that directory's path to
    ``name``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8",
                      newline="") as handle:
                handle.write(text)
        argv = [os.path.join(tmp, arg[1:]) if arg.startswith("@") else arg
                for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore", UserWarning)
            code = main(argv)
    assert code == 2, err.getvalue()
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1
    return err.getvalue()


@pytest.mark.parametrize(
    "files, argv, line",
    [
        ({"c.csv": f"voter_id,c_1,r_1\nv1,0,1\nv1,{OVERSIZED_FIELD},0\n"},
         ["fit", "--comparisons", "@c.csv", "--out", "@m.json"], 3),
        ({"s.json": summary_json(1), "a.csv": f"id,f_1\n{OVERSIZED_FIELD},1\n"},
         ["decide", "--summary", "@s.json", "--alternatives", "@a.csv"], 2),
        ({"p.csv": "weight,ranking\n1," + "a" * 140_000 + "\n"},
         ["axioms", "--check", "swd", "--scc", "plurality", "--profile", "@p.csv"],
         2),
    ],
    ids=["comparisons", "alternatives", "profile"],
)
def test_oversized_csv_field_is_data_error(files, argv, line):
    error = assert_data_error(files, argv)
    assert error.startswith(f"error: line {line}: field larger than field limit")


@pytest.mark.parametrize(
    "argv",
    [
        ["summarize", "--models", "@deep.json", "--out", "@s.json"],
        ["decide", "--summary", "@deep.json", "--alternatives", "@a.csv"],
        ["simulate", "step2", "--config", "@deep.json"],
    ],
    ids=["models", "summary", "config"],
)
def test_deeply_nested_json_is_data_error(argv):
    error = assert_data_error({"deep.json": DEEP_JSON, "a.csv": ALTERNATIVES}, argv)
    assert "nested too deeply" in error


def json_fault(draw, payload):
    """Break ``payload`` at the JSON level, or return None to leave it."""
    fault = draw(st.sampled_from(["none", "deep", "syntax", "not an object"]))
    if fault == "deep":
        return draw(st.sampled_from([DEEP_JSON, '{"format": ' + DEEP_JSON + "}"]))
    if fault == "syntax":
        text = json.dumps(payload)
        return text[: draw(st.integers(0, len(text) - 1))]
    if fault == "not an object":
        return json.dumps(draw(st.sampled_from([[], [payload], 1, "x", None])))
    return None


BAD_REALS = ["x", "", "nan", "inf", "-inf", "1e999", None, [], {}]
BAD_VERSIONS = [0, 2, "1", None, 1.5, 1.0, True]


@st.composite
def malformed_voter_models(draw):
    """A tiny voter-models file with exactly one kind of fault in it."""
    d = draw(st.integers(1, 3))
    real = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
    voters = [
        {"voter_id": f"v{k}", "beta": draw(st.lists(real, min_size=d, max_size=d)),
         "converged": draw(st.booleans()), "iterations": draw(st.integers(0, 50))}
        for k in range(draw(st.integers(1, 3)))
    ]
    payload = {"format": "voter-models", "version": 1, "d": d,
               "fit": {"l2_penalty": "1e-06", "gradient_tolerance": "1e-08",
                       "max_iterations": 500},
               "voters": voters}
    text = json_fault(draw, payload)
    if text is not None:
        return text
    voter = draw(st.sampled_from(voters))
    fault = draw(st.sampled_from(
        ["format", "version", "beta value", "beta type", "dimension",
         "missing key", "flag type", "voters", "fit"]
    ))
    if fault == "format":
        payload["format"] = draw(st.sampled_from(["summary-model", "", None, 1]))
    elif fault == "version":
        payload["version"] = draw(st.sampled_from(BAD_VERSIONS))
    elif fault == "beta value":
        voter["beta"][draw(st.integers(0, d - 1))] = draw(st.sampled_from(BAD_REALS))
    elif fault == "beta type":
        voter["beta"] = draw(st.sampled_from(["1", 1, None, {}]))
    elif fault == "dimension":
        payload["d"] = draw(st.sampled_from(
            [d + 1, d - 1, str(d), None, float(d), True]
        ))
    elif fault == "missing key":
        del voter[draw(st.sampled_from(["voter_id", "beta"]))]
    elif fault == "flag type":
        key, value = draw(st.sampled_from(
            [("converged", "false"), ("converged", 0), ("converged", None),
             ("iterations", 1.5), ("iterations", "3"), ("iterations", True)]
        ))
        voter[key] = value
    elif fault == "voters":
        payload["voters"] = draw(st.sampled_from([[], {}, "v1", None, [1], [None]]))
    else:
        payload["fit"] = draw(st.sampled_from(
            [[], "x", 1, {"l2_penalty": "nan"}, {"gradient_tolerance": "x"}]
        ))
    return json.dumps(payload)


@given(malformed_voter_models())
@settings(max_examples=100, deadline=None)
def test_summarize_on_malformed_voter_models_exits_2(text):
    assert_data_error({"models.json": text},
                      ["summarize", "--models", "@models.json", "--out", "@s.json"])


@st.composite
def malformed_summary_models(draw):
    """A tiny summary-model file with one fault, and alternatives to match."""
    d = draw(st.integers(1, 3))
    real = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
    payload = {"format": "summary-model", "version": 1, "d": d,
               "n_voters": draw(st.integers(1, 5)),
               "beta": draw(st.lists(real, min_size=d, max_size=d))}
    alternatives = "\n".join([
        ",".join(["id", *(f"f_{k}" for k in range(1, d + 1))]),
        ",".join(["a", *["1"] * d]),
        ",".join(["b", *["0"] * d]),
    ]) + "\n"
    text = json_fault(draw, payload)
    if text is not None:
        return text, alternatives
    fault = draw(st.sampled_from(
        ["format", "version", "beta value", "beta type", "dimension",
         "missing key", "n_voters"]
    ))
    if fault == "format":
        payload["format"] = draw(st.sampled_from(["voter-models", "", None, 1]))
    elif fault == "version":
        payload["version"] = draw(st.sampled_from(BAD_VERSIONS))
    elif fault == "beta value":
        payload["beta"][draw(st.integers(0, d - 1))] = draw(st.sampled_from(BAD_REALS))
    elif fault == "beta type":
        payload["beta"] = draw(st.sampled_from(["1", 1, None, {}]))
    elif fault == "dimension":
        payload["d"] = draw(st.sampled_from(
            [d + 1, d - 1, str(d), None, float(d), True]
        ))
    elif fault == "missing key":
        del payload[draw(st.sampled_from(["beta", "n_voters"]))]
    else:
        payload["n_voters"] = draw(st.sampled_from([0, -1, 1.5, "2", True, None]))
    return json.dumps(payload), alternatives


@given(malformed_summary_models())
@settings(max_examples=100, deadline=None)
def test_decide_on_malformed_summary_exits_2(files):
    summary, alternatives = files
    assert_data_error({"s.json": summary, "a.csv": alternatives},
                      ["decide", "--summary", "@s.json", "--alternatives", "@a.csv"])


@st.composite
def malformed_alternative_csvs(draw):
    """A tiny alternatives CSV with exactly one kind of fault in it."""
    d = draw(st.integers(1, 3))
    header = ["id", *(f"f_{k}" for k in range(1, d + 1))]
    token = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
    rows = [
        [f"a{k}", *draw(st.lists(token, min_size=d, max_size=d))]
        for k in range(draw(st.integers(1, 4)))
    ]
    row = draw(st.sampled_from(rows))
    column = draw(st.integers(1, d))
    fault = draw(st.sampled_from(
        ["header", "field count", "non-numeric", "non-finite", "empty id",
         "duplicate id", "no rows", "oversized field"]
    ))
    if fault == "header":
        header = draw(st.sampled_from([
            header[:-1], ["name", *header[1:]], [*header, "x"],
            [*header[:-1], "f_0"], [],
        ]))
    elif fault == "field count":
        if draw(st.booleans()):
            row.append("0")
        else:
            row.pop()
    elif fault == "non-numeric":
        row[column] = draw(st.sampled_from(["x", "", "1..2", "--1", "0x10"]))
    elif fault == "non-finite":
        row[column] = draw(st.sampled_from(["inf", "-inf", "nan", "1e999"]))
    elif fault == "empty id":
        row[0] = draw(st.sampled_from(["", "  "]))
    elif fault == "duplicate id":
        rows.append(list(row))
    elif fault == "no rows":
        rows = [[]] * draw(st.integers(0, 2))
    else:
        row[draw(st.integers(0, d))] = OVERSIZED_FIELD
    return d, "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"


@given(malformed_alternative_csvs())
@settings(max_examples=100, deadline=None)
def test_decide_on_malformed_alternatives_exits_2(drawn):
    d, text = drawn
    assert_data_error({"s.json": summary_json(d), "a.csv": text},
                      ["decide", "--summary", "@s.json", "--alternatives", "@a.csv"])


@st.composite
def malformed_profile_csvs(draw):
    """A tiny profile CSV with exactly one kind of fault in it."""
    ids = ["a", "b", "c"][: draw(st.integers(2, 3))]
    rankings = draw(st.lists(
        st.sampled_from([">".join(order) for order in itertools.permutations(ids)]),
        min_size=1, max_size=4, unique=True,
    ))
    # Multiples of 1/8 sum to one exactly.
    weights = ["0.125"] * (len(rankings) - 1) + [repr(1 - 0.125 * (len(rankings) - 1))]
    rows = [[weight, ranking] for weight, ranking in zip(weights, rankings)]
    row = draw(st.sampled_from(rows))
    fault = draw(st.sampled_from(
        ["header", "field count", "weight", "weight sum", "ranking",
         "coverage", "duplicate ranking", "no rows", "oversized field"]
    ))
    header = ["weight", "ranking"]
    if fault == "header":
        header = draw(st.sampled_from([
            ["weight"], ["ranking", "weight"], [*header, "x"], ["w", "ranking"], [],
        ]))
    elif fault == "field count":
        if draw(st.booleans()):
            row.append("x")
        else:
            row.pop()
    elif fault == "weight":
        row[0] = draw(st.sampled_from(["x", "", "nan", "inf", "-inf", "1e999"]))
    elif fault == "weight sum":
        row[0] = draw(st.sampled_from(["-0.5", "0.6", "2"]))
    elif fault == "ranking":
        row[1] = draw(st.sampled_from(["", ">", "a>a>b", "a>>b", "a>b>c>a"]))
    elif fault == "coverage":
        rows.append(["0", draw(st.sampled_from(["a", "b>a>c>d", "a>d"]))])
    elif fault == "duplicate ranking":
        rows.append(list(row))
    elif fault == "no rows":
        rows = [[]] * draw(st.integers(0, 2))
    else:
        row[draw(st.integers(0, 1))] = OVERSIZED_FIELD
    return "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"


@given(malformed_profile_csvs())
@settings(max_examples=100, deadline=None)
def test_axioms_on_malformed_profile_exits_2(text):
    assert_data_error({"p.csv": text},
                      ["axioms", "--check", "swd", "--scc", "borda", "--profile", "@p.csv"])


def test_usage_errors_exit_1(capsys):
    assert main(["fit", "--bogus-flag"]) == 1
    assert main([]) == 1
    assert main(["simulate", "step4"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "fit" in capsys.readouterr().out


SMALL_CONFIG = {
    "d": 2,
    "n_voters": 2,
    "alts_per_instance": 2,
    "n_test_instances": 4,
    "n_runs": 2,
    "comparisons_grid": [3, 6],
    "voters_grid": [1, 2],
    "profile_sample_count": 100,
}


def test_simulate_outputs_curve_table(workdir, capsys):
    config = workdir / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert main(["simulate", "step2", "--config", str(config), "--seed", "7"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "x,mean_accuracy,stderr"
    assert [row.split(",")[0] for row in lines[1:]] == ["3", "6"]


def test_simulate_repeats_byte_identical(workdir, capsys):
    config = workdir / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    args = ["simulate", "step2", "--config", str(config), "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_simulate_step3_runs(workdir, capsys):
    config = workdir / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert main(["simulate", "step3", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2"]


def test_simulate_rejects_unknown_config_keys(workdir, capsys):
    config = workdir / "config.json"
    config.write_text(json.dumps({"voters": 5}))
    assert main(["simulate", "step2", "--config", str(config)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("step", ["step2", "step3"])
def test_simulate_refuses_jobs_below_one(workdir, capsys, step, jobs):
    # Both used to run serially and exit 0.
    config = workdir / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert main(["simulate", step, "--config", str(config), "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: n_jobs must be at least 1\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "override",
    [
        {"comparisons_grid": 5},
        {"voters_grid": "1,2"},
        {"voters_grid": [1, 2.5]},
        {"n_runs": 1.7},
        {"n_runs": 2.0},
        {"n_runs": True},
        {"d": "3"},
        {"comparisons_grid": [1, 1]},
        {"voters_grid": [1, 2, 1]},
    ],
)
def test_simulate_rejects_non_integer_config_values(workdir, capsys, override):
    config = workdir / "config.json"
    config.write_text(json.dumps({**SMALL_CONFIG, **override}))
    assert main(["simulate", "step2", "--config", str(config)]) == 2
    assert "must be" in capsys.readouterr().err


def test_decide_on_summary_without_n_voters_exits_2(workdir, capsys):
    summary = workdir / "summary.json"
    summary.write_text(json.dumps(
        {"format": "summary-model", "version": 1, "d": 2, "beta": ["1", "0"]}
    ))
    code = main(["decide", "--summary", str(summary),
                 "--alternatives", str(workdir / "alternatives.csv")])
    assert code == 2
    assert "n_voters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header", [{"version": True}, {"version": 1.0}, {"d": True}, {"d": 2.0}]
)
def test_decide_on_non_integer_version_or_dimension_exits_2(workdir, capsys, header):
    summary = workdir / "summary.json"
    summary.write_text(json.dumps({"format": "summary-model", "version": 1, "d": 2,
                                   "n_voters": 3, "beta": ["1", "0"], **header}))
    code = main(["decide", "--summary", str(summary),
                 "--alternatives", str(workdir / "alternatives.csv")])
    assert code == 2
    assert "must be an integer" in capsys.readouterr().err


def test_decide_on_boolean_beta_exits_2(workdir, capsys):
    summary = workdir / "summary.json"
    summary.write_text(json.dumps({"format": "summary-model", "version": 1, "d": 2,
                                   "n_voters": 3, "beta": [True, False]}))
    code = main(["decide", "--summary", str(summary),
                 "--alternatives", str(workdir / "alternatives.csv")])
    assert code == 2
    assert "non-numeric value True" in capsys.readouterr().err


def test_summarize_on_string_converged_flag_exits_2(workdir, capsys):
    models = workdir / "models.json"
    models.write_text(json.dumps({
        "format": "voter-models", "version": 1, "d": 2,
        "voters": [{"voter_id": "v1", "beta": ["1", "0"], "converged": "false"}],
    }))
    code = main(["summarize", "--models", str(models),
                 "--out", str(workdir / "summary.json")])
    assert code == 2
    assert "converged" in capsys.readouterr().err


def test_summarize_on_non_string_voter_id_exits_2(workdir, capsys):
    models = workdir / "models.json"
    models.write_text(json.dumps({
        "format": "voter-models", "version": 1, "d": 2,
        "voters": [{"voter_id": 123, "beta": ["1", "0"]}],
    }))
    code = main(["summarize", "--models", str(models),
                 "--out", str(workdir / "summary.json")])
    assert code == 2
    assert "voter_id must be a nonempty string" in capsys.readouterr().err


def test_summarize_on_repeated_voter_id_exits_2(workdir, capsys):
    # This file used to summarize with exit code 0, as 2 voters.
    models = workdir / "models.json"
    models.write_text(json.dumps({
        "format": "voter-models", "version": 1, "d": 2,
        "voters": [{"voter_id": "v", "beta": ["1", "0"]}] * 2,
    }))
    code = main(["summarize", "--models", str(models),
                 "--out", str(workdir / "summary.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: duplicate voter_id 'v'\n"
    assert not (workdir / "summary.json").exists()


def test_summarize_on_out_of_range_fit_block_exits_2(workdir, capsys):
    # The fit block's types were checked, its ranges not: this file used
    # to summarize with exit code 0.
    models = workdir / "models.json"
    models.write_text(json.dumps({
        "format": "voter-models", "version": 1, "d": 2,
        "fit": {"max_iterations": -5, "l2_penalty": "-1"},
        "voters": [{"voter_id": "v1", "beta": ["1", "0"]}],
    }))
    code = main(["summarize", "--models", str(models),
                 "--out", str(workdir / "summary.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: max_iterations must be at least 1\n"
    assert not (workdir / "summary.json").exists()


HUGE = 10**400  # a JSON integer that no float holds


@pytest.mark.parametrize(
    "files, argv",
    [
        (
            {"models.json": json.dumps({
                "format": "voter-models", "version": 1, "d": 2,
                "voters": [{"voter_id": "v1", "beta": [HUGE, 0]}],
            })},
            ["summarize", "--models", "@models.json", "--out", "@summary.json"],
        ),
        (
            {"summary.json": json.dumps({"format": "summary-model", "version": 1,
                                         "d": 2, "n_voters": 1, "beta": [HUGE, 0]}),
             "alternatives.csv": ALTERNATIVES},
            ["decide", "--summary", "@summary.json", "--alternatives",
             "@alternatives.csv"],
        ),
        (
            {"models.json": json.dumps({
                "format": "voter-models", "version": 1, "d": 2,
                "fit": {"l2_penalty": HUGE},
                "voters": [{"voter_id": "v1", "beta": ["1", "0"]}],
            })},
            ["summarize", "--models", "@models.json", "--out", "@summary.json"],
        ),
    ],
    ids=["voter-beta", "summary-beta", "fit-l2-penalty"],
)
def test_model_file_integers_past_the_float_range_exit_2(files, argv):
    assert assert_data_error(files, argv).startswith("error: non-finite value 1000")


def test_model_files_without_features_exit_2(workdir, capsys):
    models, summary = workdir / "models.json", workdir / "summary.json"
    models.write_text(json.dumps({
        "format": "voter-models", "version": 1, "d": 0,
        "voters": [{"voter_id": "v1", "beta": []}],
    }))
    summary.write_text(json.dumps({"format": "summary-model", "version": 1,
                                   "d": 0, "n_voters": 1, "beta": []}))
    out = str(workdir / "out.json")
    assert main(["summarize", "--models", str(models), "--out", out]) == 2
    assert capsys.readouterr().err == "error: d must be at least 1, got 0\n"
    assert not os.path.exists(out)
    assert main(["decide", "--summary", str(summary),
                 "--alternatives", str(workdir / "alternatives.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: d must be at least 1, got 0\n"


def test_axioms_swd_output(workdir, capsys):
    assert main(["axioms", "--check", "swd", "--scc", "plurality",
                 "--profile", str(workdir / "profile.csv")]) == 0
    out = capsys.readouterr().out
    assert "check: swd" in out
    assert "holds: true" in out


def test_axioms_strong_swd_violation(workdir, capsys):
    assert main(["axioms", "--check", "strong-swd", "--scc", "plurality",
                 "--profile", str(workdir / "profile.csv")]) == 0
    out = capsys.readouterr().out
    assert "holds: false" in out
    assert "violation: a b" in out

    assert main(["axioms", "--check", "strong-swd", "--scc", "borda",
                 "--profile", str(workdir / "profile.csv")]) == 0
    assert "holds: true" in capsys.readouterr().out


def test_axioms_stability_output(workdir, capsys):
    models = str(workdir / "models.json")
    summary = str(workdir / "summary.json")
    main(["fit", "--comparisons", str(workdir / "comparisons.csv"), "--out", models])
    main(["summarize", "--models", models, "--out", summary])
    capsys.readouterr()
    assert main(["axioms", "--check", "stability", "--scc", "borda",
                 "--summary", summary,
                 "--alternatives", str(workdir / "alternatives.csv"),
                 "--subset", "a,c", "--family", "pl"]) == 0
    out = capsys.readouterr().out
    assert "check: stability" in out
    assert "winners_full: a" in out
    assert "stable: true" in out


@pytest.mark.parametrize(
    ("features", "flag"), [("1,1,-3", "true"), ("3,0,-3", "false")]
)
def test_axioms_mc_stability_reports_low_confidence(workdir, capsys, features, flag):
    # a and b tie in utility under beta = (1,), so no margin clears the noise
    summary = workdir / "unit.json"
    summary.write_text(json.dumps({"format": "summary-model", "version": 1, "d": 1,
                                   "n_voters": 1, "beta": [1.0]}))
    alternatives = workdir / "tied.csv"
    rows = [f"{i},{f}" for i, f in zip("abc", features.split(","))]
    alternatives.write_text("\n".join(["id,f_1", *rows]) + "\n")
    assert main(["axioms", "--check", "stability", "--scc", "borda",
                 "--summary", str(summary), "--alternatives", str(alternatives),
                 "--subset", "a,b", "--family", "tm", "--mode", "mc",
                 "--samples", "20000", "--seed", "3"]) == 0
    assert f"low_confidence: {flag}\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command",
    [
        ["decide"],
        ["axioms", "--check", "stability", "--scc", "borda", "--subset", "a,c",
         "--family", "pl", "--mode", "exact"],
        ["axioms", "--check", "stability", "--scc", "borda", "--subset", "a,c",
         "--family", "tm", "--mode", "mc"],
    ],
    ids=["decide", "axioms_exact", "axioms_mc"],
)
def test_non_finite_utility_exits_2(workdir, capsys, command):
    # a's utility is 1e600 - 1e600: zero in exact arithmetic, not in floats
    summary = workdir / "huge.json"
    summary.write_text(json.dumps({"format": "summary-model", "version": 1, "d": 2,
                                   "n_voters": 1, "beta": ["1e300", "1e300"]}))
    alternatives = workdir / "huge.csv"
    alternatives.write_text("id,f_1,f_2\na,1e300,-1e300\nc,-1,-1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*command, "--summary", str(summary),
                     "--alternatives", str(alternatives)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alternative 'a' has non-finite utility" in captured.err


def test_axioms_mc_stability_refuses_a_negative_seed(workdir, capsys):
    summary = workdir / "unit.json"
    summary.write_text(json.dumps({"format": "summary-model", "version": 1, "d": 1,
                                   "n_voters": 1, "beta": [1.0]}))
    alternatives = workdir / "pair.csv"
    alternatives.write_text("id,f_1\na,1\nb,0\n")
    code = main(["axioms", "--check", "stability", "--scc", "borda",
                 "--summary", str(summary), "--alternatives", str(alternatives),
                 "--subset", "a,b", "--family", "tm", "--mode", "mc",
                 "--seed", "-1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be nonnegative" in captured.err


def test_axioms_mc_stability_out_of_memory_exits_2(workdir, capsys):
    # 10**15 samples of 3 utilities need 21 PiB, beyond any 47-bit user
    # address space, so the allocation fails at once and touches nothing.
    summary = workdir / "unit.json"
    summary.write_text(json.dumps({"format": "summary-model", "version": 1, "d": 1,
                                   "n_voters": 1, "beta": [1.0]}))
    alternatives = workdir / "triple.csv"
    alternatives.write_text("id,f_1\na,1\nb,0\nc,2\n")
    code = main(["axioms", "--check", "stability", "--scc", "borda",
                 "--summary", str(summary), "--alternatives", str(alternatives),
                 "--subset", "a,b", "--family", "tm", "--mode", "mc",
                 "--samples", str(10**15)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate ")
    assert captured.err.count("\n") == 1


def test_exact_pl_stability_at_a_wide_utility_spread(workdir, capsys):
    # utilities 800 and 0: b's weight exp(-800) underflows to 0
    summary = workdir / "wide.json"
    summary.write_text(json.dumps({"format": "summary-model", "version": 1, "d": 1,
                                   "n_voters": 1, "beta": ["800"]}))
    alternatives = workdir / "wide.csv"
    alternatives.write_text("id,f_1\na,1\nb,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["axioms", "--check", "stability", "--scc", "borda",
                     "--family", "pl", "--mode", "exact", "--subset", "a,b",
                     "--summary", str(summary), "--alternatives", str(alternatives)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "winners_full: a\n" in captured.out
    assert "stable: true\n" in captured.out


def test_axioms_missing_inputs_exit_2(workdir, capsys):
    assert main(["axioms", "--check", "swd", "--scc", "borda"]) == 2
    assert main(["axioms", "--check", "stability", "--scc", "borda"]) == 2
    capsys.readouterr()


def test_axioms_unknown_subset_id_exit_2(workdir, capsys):
    models = str(workdir / "models.json")
    summary = str(workdir / "summary.json")
    main(["fit", "--comparisons", str(workdir / "comparisons.csv"), "--out", models])
    main(["summarize", "--models", models, "--out", summary])
    code = main(["axioms", "--check", "stability", "--scc", "borda",
                 "--summary", summary,
                 "--alternatives", str(workdir / "alternatives.csv"),
                 "--subset", "a,zzz"])
    assert code == 2
    capsys.readouterr()


def test_module_runs_as_subprocess(workdir):
    config = workdir / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    command = [sys.executable, "-m", "prefvote.cli", "simulate", "step2",
               "--config", str(config), "--seed", "7"]
    first = subprocess.run(command, capture_output=True)
    second = subprocess.run(command, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"x,mean_accuracy,stderr")
