import csv
import io
import json

import numpy as np
import pytest

from prefvote.fileio import (
    CHARACTER_TYPES,
    MM_DIM,
    MM_FEATURE_NAMES,
    ParseError,
    VoterModelRecord,
    encode_mm_alternative,
    format_curve,
    group_comparisons,
    load_summary_model,
    load_voter_models,
    parse_alternatives,
    parse_comparisons,
    parse_profile,
    save_summary_model,
    save_voter_models,
)
from prefvote.experiments import AccuracyCurve
from prefvote.learning import FitConfig, fit_voter
from prefvote.pipeline import SummaryModel

COMPARISONS_HEADER = "voter_id,c_1,c_2,r_1,r_2\n"


def test_parse_comparisons_single_row():
    table = parse_comparisons(io.StringIO(COMPARISONS_HEADER + "v1,1,0,0,1\n"))
    # chosen (1, 0) minus rejected (0, 1)
    assert table.voter_ids == ("v1",)
    assert np.array_equal(table.diffs, [[1.0, -1.0]])
    assert table.diffs.dtype == np.float64


def test_parse_comparisons_empty_body_is_valid():
    table = parse_comparisons(io.StringIO(COMPARISONS_HEADER))
    assert len(table) == 0
    assert table.diffs.shape == (0, 2)


def test_parse_comparisons_skips_blank_lines():
    text = COMPARISONS_HEADER + "v1,1,0,0,1\n\nv2,0,1,1,0\n"
    table = parse_comparisons(io.StringIO(text))
    assert table.voter_ids == ("v1", "v2")
    assert len(table) == 2


def test_parse_comparisons_errors_name_lines():
    with pytest.raises(ParseError, match="line 2"):
        parse_comparisons(io.StringIO(COMPARISONS_HEADER + "v1,1,0,0\n"))
    with pytest.raises(ParseError, match="line 3: non-numeric"):
        parse_comparisons(
            io.StringIO(COMPARISONS_HEADER + "v1,1,0,0,1\nv2,a,0,0,1\n")
        )
    with pytest.raises(ParseError, match="line 2: non-finite"):
        parse_comparisons(io.StringIO(COMPARISONS_HEADER + "v1,inf,0,0,1\n"))
    with pytest.raises(ParseError, match="line 2: empty voter_id"):
        parse_comparisons(io.StringIO(COMPARISONS_HEADER + " ,1,0,0,1\n"))
    # a quoted field may span lines; later rows keep their file line
    with pytest.raises(ParseError, match="line 4: non-numeric"):
        parse_comparisons(
            io.StringIO(COMPARISONS_HEADER + '"v\n1",1,0,0,1\nv2,x,0,0,1\n')
        )
    with pytest.raises(ParseError, match="line 1"):
        parse_comparisons(io.StringIO(""))
    with pytest.raises(ParseError, match="line 1"):
        parse_comparisons(io.StringIO("voter,c_1,r_1\nv1,1,0\n"))
    with pytest.raises(ParseError, match="line 1"):
        parse_comparisons(io.StringIO("voter_id,c_1,c_2,r_1\nv1,1,0,0\n"))


def test_identical_rows_warn_with_their_line():
    text = COMPARISONS_HEADER + "v1,1,0,0,1\nv1,2,-0.0,2,0\n"
    with pytest.warns(UserWarning, match="line 3: comparison has identical"):
        table = parse_comparisons(io.StringIO(text))
    assert len(table) == 2
    assert np.array_equal(table.diffs[1], [0.0, 0.0])


def test_overflowing_differences_are_parse_errors():
    with pytest.raises(ParseError, match="line 2: chosen minus rejected overflows"):
        parse_comparisons(io.StringIO("voter_id,c_1,r_1\nv1,1e308,-1e308\n"))
    # the first malformed line is reported, whatever the fault
    text = COMPARISONS_HEADER + "v1,1,0,0,1\nv1,0,-1e308,0,1e308\nv1,a,0,0,1\n"
    with pytest.raises(ParseError, match="line 3: chosen minus rejected"):
        parse_comparisons(io.StringIO(text))
    text = COMPARISONS_HEADER + "v1,inf,0,1e308,-1e308\n"
    with pytest.raises(ParseError, match="line 2: non-finite value 'inf'"):
        parse_comparisons(io.StringIO(text))
    # magnitudes that sum past the largest double but subtract safely
    table = parse_comparisons(
        io.StringIO(COMPARISONS_HEADER + "v1,1e308,-1e308,9e307,-9e307\n")
    )
    assert np.isfinite(table.diffs).all()
    assert table.diffs[0, 0] == 1e308 - 9e307


def test_group_comparisons_preserves_first_appearance_order():
    text = COMPARISONS_HEADER + "b,1,0,0,1\na,0,1,1,0\nb,1,1,0,0\n"
    grouped = group_comparisons(parse_comparisons(io.StringIO(text)))
    assert list(grouped) == ["b", "a"]
    # rows stay in file order within a voter
    assert np.array_equal(grouped["b"], [[1.0, -1.0], [1.0, 1.0]])
    # chosen (0, 1) minus rejected (1, 0)
    assert np.array_equal(grouped["a"], [[-1.0, 1.0]])


def reference_voter_comparisons(text):
    """Copy of the previous path: one record per CSV row, converted to a
    chosen-minus-rejected row while grouping, stacked again before the fit."""
    reader = csv.reader(io.StringIO(text))
    d = (len(next(reader)) - 1) // 2
    grouped = {}
    for row in reader:
        if not row:
            continue
        chosen = tuple(float(token) for token in row[1 : 1 + d])
        rejected = tuple(float(token) for token in row[1 + d :])
        grouped.setdefault(row[0].strip(), []).append(
            np.asarray(chosen) - np.asarray(rejected)
        )
    return grouped


def test_grouped_differences_equal_previous_path():
    rng = np.random.default_rng(17)
    d = 4
    voters = [f"v{k}" for k in rng.permutation(12)]
    lines = []
    for voter in voters:
        for _ in range(int(rng.integers(2, 15))):
            pair = np.round(rng.standard_normal(2 * d), int(rng.integers(0, 17)))
            lines.append(",".join([voter, *map(repr, pair.tolist())]))
    lines = [lines[k] for k in rng.permutation(len(lines))]
    for k in sorted(rng.choice(len(lines), size=6, replace=False), reverse=True):
        lines.insert(int(k), "")
    header = ",".join(
        ["voter_id", *(f"c_{k}" for k in range(1, d + 1)),
         *(f"r_{k}" for k in range(1, d + 1))]
    )
    text = header + "\n" + "\n".join(lines) + "\n"

    grouped = group_comparisons(parse_comparisons(io.StringIO(text)))
    expected = reference_voter_comparisons(text)
    assert list(grouped) == list(expected)
    for voter, diffs in expected.items():
        stacked = np.array(diffs)
        assert grouped[voter].tobytes() == stacked.tobytes()
        assert grouped[voter].shape == stacked.shape
        assert np.array_equal(
            fit_voter(grouped[voter]).beta, fit_voter(stacked).beta
        )


def test_parse_alternatives_golden():
    alts = parse_alternatives(io.StringIO("id,f_1,f_2\nx,1.5,-2\ny,0,3\n"))
    assert [a.id for a in alts] == ["x", "y"]
    assert alts[0].features == (1.5, -2.0)


def test_parse_alternatives_errors():
    with pytest.raises(ParseError, match="line 3: duplicate id 'x'"):
        parse_alternatives(io.StringIO("id,f_1\nx,1\nx,2\n"))
    with pytest.raises(ParseError, match="no alternatives"):
        parse_alternatives(io.StringIO("id,f_1\n"))
    with pytest.raises(ParseError, match="line 1"):
        parse_alternatives(io.StringIO("name,f_1\nx,1\n"))
    with pytest.raises(ParseError, match="line 2"):
        parse_alternatives(io.StringIO("id,f_1,f_2\nx,1\n"))


def test_parse_profile_golden():
    profile = parse_profile(
        io.StringIO("weight,ranking\n0.35,a>b>c\n0.65,b>a>c\n")
    )
    assert profile.alternatives == frozenset({"a", "b", "c"})
    weights = {r.to_string(): w for r, w in profile.support.items()}
    assert weights == {"a>b>c": 0.35, "b>a>c": 0.65}


def test_parse_profile_errors():
    with pytest.raises(ParseError, match="line 3: duplicate ranking"):
        parse_profile(io.StringIO("weight,ranking\n0.5,a>b\n0.5,a>b\n"))
    with pytest.raises(ParseError, match="no rankings"):
        parse_profile(io.StringIO("weight,ranking\n"))
    with pytest.raises(ParseError, match="line 2"):
        parse_profile(io.StringIO("weight,ranking\n0.5,a>>b\n"))
    # weight-sum violations come from the profile constructor
    with pytest.raises(ValueError, match="sum"):
        parse_profile(io.StringIO("weight,ranking\n0.4,a>b\n0.4,b>a\n"))


def test_character_types_are_alphabetical_and_complete():
    assert len(CHARACTER_TYPES) == 20
    assert list(CHARACTER_TYPES) == sorted(CHARACTER_TYPES)
    assert MM_DIM == 23
    assert MM_FEATURE_NAMES[20:] == ("relation", "legality", "total_characters")


def test_encode_mm_zero_counts():
    vector = encode_mm_alternative({}, "passengers", "none")
    assert vector.shape == (23,)
    assert np.array_equal(vector, np.zeros(23))


def test_encode_mm_golden_group():
    vector = encode_mm_alternative({"man": 2, "dog": 1}, "pedestrians", "legal")
    assert vector[CHARACTER_TYPES.index("man")] == 2.0
    assert vector[CHARACTER_TYPES.index("dog")] == 1.0
    assert vector[20] == 1.0  # pedestrians
    assert vector[21] == 1.0  # explicitly legal crossing
    assert vector[22] == 3.0  # total characters
    assert vector.sum() == 8.0


def test_encode_mm_legality_signs():
    assert encode_mm_alternative({}, "passengers", "illegal")[21] == -1.0
    assert encode_mm_alternative({}, "passengers", "legal")[21] == 1.0
    assert encode_mm_alternative({}, "passengers", "none")[21] == 0.0


def test_encode_mm_distinguishes_inputs():
    a = encode_mm_alternative({"cat": 1}, "passengers", "none")
    b = encode_mm_alternative({"dog": 1}, "passengers", "none")
    c = encode_mm_alternative({"cat": 1}, "pedestrians", "none")
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_encode_mm_errors():
    with pytest.raises(ValueError, match="unknown character"):
        encode_mm_alternative({"unicorn": 1}, "passengers", "none")
    with pytest.raises(ValueError, match="nonnegative integer"):
        encode_mm_alternative({"man": -1}, "passengers", "none")
    with pytest.raises(ValueError, match="nonnegative integer"):
        encode_mm_alternative({"man": 1.5}, "passengers", "none")
    with pytest.raises(ValueError, match="relation"):
        encode_mm_alternative({}, "bystanders", "none")
    with pytest.raises(ValueError, match="legality"):
        encode_mm_alternative({}, "passengers", "jaywalking")


ADVERSARIAL_REALS = (0.1, 1 / 3, 1e-300, 5e-324, -0.0, 123456789.123456789)


def test_voter_models_round_trip_exact(tmp_path):
    path = str(tmp_path / "models.json")
    records = [
        VoterModelRecord(
            voter_id="v1", beta=ADVERSARIAL_REALS, converged=True, iterations=12
        ),
        VoterModelRecord(
            voter_id="v2",
            beta=tuple(-v for v in ADVERSARIAL_REALS),
            converged=False,
            iterations=500,
        ),
    ]
    save_voter_models(path, records, FitConfig(l2_penalty=1e-6))
    loaded, fit = load_voter_models(path)
    assert loaded == records
    assert fit["l2_penalty"] == 1e-6
    assert fit["gradient_tolerance"] == 1e-8
    assert fit["max_iterations"] == 500


def test_model_file_uses_17_digit_decimal_text(tmp_path):
    path = str(tmp_path / "models.json")
    record = VoterModelRecord(
        voter_id="v1", beta=(0.1, 0.5), converged=True, iterations=1
    )
    save_voter_models(path, [record], FitConfig())
    payload = json.loads(open(path).read())
    assert payload["voters"][0]["beta"] == ["0.10000000000000001", "0.5"]
    assert payload["format"] == "voter-models"
    assert payload["version"] == 1
    assert payload["d"] == 2


def test_summary_model_round_trip_exact(tmp_path):
    path = str(tmp_path / "summary.json")
    model = SummaryModel(beta_hat=np.array(ADVERSARIAL_REALS), n_voters=7)
    save_summary_model(path, model)
    loaded = load_summary_model(path)
    assert np.array_equal(loaded.beta_hat, model.beta_hat)
    assert loaded.n_voters == 7


def test_model_file_errors(tmp_path):
    path = str(tmp_path / "bad.json")
    with pytest.raises(ValueError, match="at least one"):
        save_voter_models(path, [], FitConfig())
    mixed = [
        VoterModelRecord(voter_id="a", beta=(1.0,), converged=True, iterations=1),
        VoterModelRecord(voter_id="b", beta=(1.0, 2.0), converged=True, iterations=1),
    ]
    with pytest.raises(ValueError, match="dimension"):
        save_voter_models(path, mixed, FitConfig())

    open(path, "w").write("not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_voter_models(path)

    open(path, "w").write(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(ParseError, match="unexpected format"):
        load_voter_models(path)

    open(path, "w").write(json.dumps({"format": "voter-models", "version": 9}))
    with pytest.raises(ParseError, match="unsupported version"):
        load_voter_models(path)

    payload = {
        "format": "voter-models",
        "version": 1,
        "d": 2,
        "voters": [{"voter_id": "v", "beta": ["1.0"]}],
    }
    open(path, "w").write(json.dumps(payload))
    with pytest.raises(ParseError, match="dimension"):
        load_voter_models(path)

    payload["voters"] = [{"voter_id": "v", "beta": ["1.0", "inf"]}]
    open(path, "w").write(json.dumps(payload))
    with pytest.raises(ParseError, match="non-finite"):
        load_voter_models(path)


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"beta": ["1.0"]}, "voter_id"),
        ({"voter_id": "v"}, "beta"),
        ({"voter_id": "v", "beta": "1.0"}, "list"),
        ({"voter_id": "v", "beta": ["1.0"], "iterations": None}, "integer"),
        ({"voter_id": "v", "beta": ["1.0"], "converged": "false"}, "converged"),
        ({"voter_id": "v", "beta": ["1.0"], "converged": 0}, "converged"),
        ("v", "voter_id"),
        ({"voter_id": 123, "beta": ["1.0"]}, "voter_id"),
        ({"voter_id": None, "beta": ["1.0"]}, "voter_id"),
        ({"voter_id": [1], "beta": ["1.0"]}, "voter_id"),
        ({"voter_id": "", "beta": ["1.0"]}, "voter_id"),
    ],
)
def test_voter_models_missing_or_mistyped_fields(tmp_path, entry, message):
    path = str(tmp_path / "models.json")
    payload = {"format": "voter-models", "version": 1, "d": 1, "voters": [entry]}
    open(path, "w").write(json.dumps(payload))
    with pytest.raises(ParseError, match=message):
        load_voter_models(path)


def test_voter_models_mistyped_containers(tmp_path):
    path = str(tmp_path / "models.json")
    voter = {"voter_id": "v", "beta": ["1.0"]}
    for fields, message in (
        ({"voters": {"v": voter}}, "voters must be a list"),
        ({"voters": [voter], "fit": [1]}, "fit metadata"),
        ({"voters": [voter], "version": True}, "version must be an integer"),
        ({"voters": [voter], "version": 1.0}, "version must be an integer"),
        ({"voters": [voter], "d": True}, "d must be an integer"),
        ({"voters": [voter], "d": 1.0}, "d must be an integer"),
    ):
        payload = {"format": "voter-models", "version": 1, "d": 1, **fields}
        open(path, "w").write(json.dumps(payload))
        with pytest.raises(ParseError, match=message):
            load_voter_models(path)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n_voters": 3}, "beta"),
        ({"beta": ["1.0"]}, "n_voters"),
        ({"beta": 1.0, "n_voters": 3}, "list"),
        ({"beta": ["1.0"], "n_voters": 2.5}, "integer"),
        ({"beta": ["1.0"], "n_voters": True}, "integer"),
        ({"beta": ["1.0"], "n_voters": 3, "version": True}, "version"),
        ({"beta": ["1.0"], "n_voters": 3, "version": 1.0}, "version"),
        ({"beta": ["1.0"], "n_voters": 3, "d": True}, "d must be"),
        ({"beta": ["1.0"], "n_voters": 3, "d": None}, "d must be"),
    ],
)
def test_summary_model_missing_or_mistyped_fields(tmp_path, fields, message):
    path = str(tmp_path / "summary.json")
    payload = {"format": "summary-model", "version": 1, "d": 1, **fields}
    open(path, "w").write(json.dumps(payload))
    with pytest.raises(ParseError, match=message):
        load_summary_model(path)


def test_format_curve_golden():
    curve = AccuracyCurve.from_runs((10, 30), [(0.8, 0.9), (0.9, 1.0)])
    expected = (
        "x,mean_accuracy,stderr\n"
        "10,0.850000,0.050000\n"
        "30,0.950000,0.050000\n"
    )
    assert format_curve(curve) == expected
