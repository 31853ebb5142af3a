import json
import subprocess
import sys

import pytest

from prefvote.cli import main

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
    payload = json.loads(open(models).read())
    assert payload["format"] == "voter-models"
    assert [v["voter_id"] for v in payload["voters"]] == ["v1", "v2"]
    assert all(v["converged"] for v in payload["voters"])

    assert main(["summarize", "--models", models, "--out", summary]) == 0
    summary_payload = json.loads(open(summary).read())
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
    fit = json.loads(open(models).read())["fit"]
    assert float(fit["l2_penalty"]) == 0.001
    assert float(fit["gradient_tolerance"]) == 1e-6
    assert fit["max_iterations"] == 77


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
