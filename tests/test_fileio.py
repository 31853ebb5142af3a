import array
import csv
import io
import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefvote import fileio
from prefvote.fileio import (
    CHARACTER_TYPES,
    MM_DIM,
    MM_FEATURE_NAMES,
    ComparisonTable,
    ParseError,
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
from prefvote.learning import FitConfig, FitResult, fit_voter
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
    assert table.voter_ids == ()
    assert group_comparisons(table) == []


def test_parse_comparisons_skips_blank_lines():
    text = COMPARISONS_HEADER + "v1,1,0,0,1\n\nv2,0,1,1,0\n"
    table = parse_comparisons(io.StringIO(text))
    assert table.voter_ids == ("v1", "v2")
    assert table.counts.tolist() == [1, 1]
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


def comparison_reals_oracle(tokens, d, line):
    """The 2d finite reals of one row, checked to subtract without overflow."""
    try:
        reals = [float(token) for token in tokens]
    except ValueError:
        reals = [fileio._parse_float(token, line) for token in tokens]
    if not math.isfinite(sum(map(abs, reals))):
        for token in tokens:
            fileio._parse_float(token, line)
        for c, r in zip(reals[:d], reals[d:]):
            if not math.isfinite(c - r):
                raise ParseError(
                    f"chosen minus rejected overflows: {c!r} - {r!r}", line=line
                )
    return reals


def comparisons_oracle(stream):
    """The per-row comparison parser: one ``float()`` per field.

    Each row is checked, warned about and converted before the next is
    read, so its faults, warnings and values are the reference that the
    block parser must reproduce.  The rows are then grouped by voter,
    voters in the order of their first row and rows in file order.
    """
    rows = fileio._csv_rows(stream, fileio._comparison_header)
    _, header = next(rows)
    d = len(header) // 2
    voters = []
    values = array.array("d")
    for line, row in rows:
        voter = row[0].strip()
        if not voter:
            raise ParseError("empty voter_id", line=line)
        reals = comparison_reals_oracle(row[1:], d, line)
        if reals[:d] == reals[d:]:
            warnings.warn(
                f"line {line}: comparison has identical chosen and rejected "
                "feature vectors; it carries no information",
                stacklevel=2,
            )
        voters.append(voter)
        values.extend(reals)
    pairs = np.frombuffer(values, dtype=float).reshape(len(voters), 2 * d)
    rows = {}
    for k, voter in enumerate(voters):
        rows.setdefault(voter, []).append(k)
    order = [k for voter_rows in rows.values() for k in voter_rows]
    counts = np.array([len(voter_rows) for voter_rows in rows.values()], dtype=int)
    return ComparisonTable(tuple(rows), (pairs[:, :d] - pairs[:, d:])[order], counts)


def parse_outcome(parser, text):
    """The table or ``ParseError`` text ``parser`` gives, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = parser(io.StringIO(text, newline=""))
        except ParseError as exc:
            result = ("ParseError", str(exc))
        else:
            diffs = table.diffs
            result = (
                table.voter_ids, diffs.dtype, diffs.shape, diffs.tobytes(),
                table.counts.tolist(),
            )
    return result, [(w.category, str(w.message), w.filename) for w in caught]


def assert_parsers_agree(text, block_rows, monkeypatch):
    # raising=False: the per-row parser has no blocks to size
    monkeypatch.setattr(fileio, "_BLOCK_ROWS", block_rows, raising=False)
    expected = parse_outcome(comparisons_oracle, text)
    assert parse_outcome(parse_comparisons, text) == expected, repr(text)
    return expected


def csv_text(header, rows, end="\n"):
    return end.join([header, *rows]) + end


# Row bodies after "v1,"; both parsers read a d=1 file with an identical
# row before each and two rows after, of which one is identical.
HAND_CASES = {
    "quoted LF": '"1\n",0',
    "quoted CR": '"1\r",0',
    "underscore": "1_0,0",
    "padded": " 1 ,0",
    "Arabic-Indic digit": "١,0",
    "hash": "1#2,0",
    "quoted comma": '"1,5",0',
    "empty token": ",0",
    "nan": "nan,0",
    "hex": "0x10,0",
    "NUL": "1e5\x00,0",
    "quoted comma and LF": '"1\n,2",0',
    "+inf": "+inf,0",
    "1e400": "1e400,0",
    "Fortran exponent": "1D5,0",
    "tabs": "\t2\t,0",
    "form feed": "\x0c2,0",
    "file separator": "\x1c2,0",
    "unit separator": "2\x1f,0",
}


@pytest.mark.parametrize("block_rows", [2, 3, 1024])
@pytest.mark.parametrize("case", HAND_CASES)
def test_block_parser_matches_per_row_parser_on_hand_cases(case, block_rows, monkeypatch):
    rows = ["v0,1,1", "v1," + HAND_CASES[case], "v2,3,4", "v2,5,5"]
    assert_parsers_agree(csv_text("voter_id,c_1,r_1", rows), block_rows, monkeypatch)


@pytest.mark.parametrize("block_rows", [2, 3, 1024])
@pytest.mark.parametrize(
    "end, rows",
    [
        ("\r\n", ["v0,1,1", "v1,2,0", "v1,1_0,0"]),
        ("\n", ["v0,1,1", "  ", "v1,2,0"]),
        ("\r", ["v0,1,1", "", "v1,x,0", "v1,2"]),
        # a row's fault comes before a later row's wrong field count
        ("\n", ["v0,1,1", "v1,1e308,-1e308", "v1,2"]),
        ("\n", ["v0,1,1", ",1,0", "v1,2,0,1"]),
        ("\n", ["v0,1,1", "v1,1,0", "v1," + "9" * 131073 + ",0"]),
        # quoted commas in every row of a block keep its column count even
        ("\n", ["v0,1,1", "v1,2,0", 'v1,"1,5",0']),
        ("\n", ['v1,"1,5",0', 'v1,"2,5",0', 'v1,"3,5",0']),
    ],
)
def test_block_parser_matches_per_row_parser_on_hand_files(end, rows, block_rows, monkeypatch):
    assert_parsers_agree(csv_text("voter_id,c_1,r_1", rows, end), block_rows, monkeypatch)


CLEAN_TOKENS = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e308", "-1e308", "9e307", "-0.0", "0.5", "5e-324"]),
)
# Tokens that only float() reads, that neither parser reads, and that
# numpy reads but float() does not.
MESSY_TOKENS = st.one_of(
    st.sampled_from(
        [" 1 ", "\t2\t", "\x0c2", " 2", "2\x85", "1_0", "١",
         "1.0e+0_1", "1\n", "\n1", "1\r", "1\r\n", "", " ", "1#2", "1,5",
         "1\n,2", "nan", "-nan", "inf", "+inf", "-inf", "infinity", "1e400",
         "-1e400", "0x10", "1D5", "1e5\x00", "1e", '"1"', "\x1c2", "2\x1f",
         "9" * 131073]
    ),
    st.text(alphabet="0123456789.e+-_ ,\n\r\"#\x1d٢", max_size=5),
)


@st.composite
def messy_comparison_csv(draw):
    """CSV text for a d = 1..3 comparison file with every kind of fault.

    Most rows are clean, so that whole blocks also convert; messy tokens,
    quoting, line ends, blank rows, wrong field counts, identical rows
    and overflowing pairs come in at random.
    """
    d = draw(st.integers(1, 3))
    messy_share = draw(st.sampled_from([0, 0, 1, 4]))
    token = st.one_of(*[CLEAN_TOKENS] * 8, *[MESSY_TOKENS] * messy_share)

    def field(text):
        how = draw(st.sampled_from(["auto", "auto", "auto", "quoted", "raw"]))
        if how == "quoted" or (how == "auto" and any(c in text for c in ',"\r\n')):
            return '"' + text.replace('"', '""') + '"'
        return text

    header = ["voter_id"] + [f"c_{k}" for k in range(1, d + 1)]
    header += [f"r_{k}" for k in range(1, d + 1)]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(
            ["row"] * 12 + ["identical"] * 3 + ["overflow", "blank", "blank", "width"]
        ))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        voter = draw(st.sampled_from(["v1", "v2", " v3 ", "v\n4"] * 5 + ["", " "]))
        tokens = [draw(token) for _ in range(2 * d)]
        if kind == "identical":
            tokens[d:] = tokens[:d]
        elif kind == "overflow":
            k = draw(st.integers(0, d - 1))
            tokens[k], tokens[d + k] = "1e308", "-1e308"
        elif kind == "width":
            tokens = tokens[1:] if draw(st.booleans()) else tokens + ["0"]
        lines.append(",".join(field(text) for text in [voter, *tokens]))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=300, deadline=None)
@given(text=messy_comparison_csv(), block_rows=st.sampled_from([2, 3]))
def test_block_parser_matches_per_row_parser(text, block_rows):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_parsers_agree(text, block_rows, monkeypatch)


def test_block_parser_reads_many_blocks_like_the_per_row_parser(monkeypatch):
    rng = np.random.default_rng(23)
    pairs = rng.integers(-2, 3, size=(40, 4)).astype(float)
    pairs[::7] /= 3.0
    rows = [f"v{k % 5}," + ",".join(map(repr, row.tolist())) for k, row in enumerate(pairs)]
    text = csv_text(COMPARISONS_HEADER.strip(), rows)
    result, caught = assert_parsers_agree(text, 3, monkeypatch)
    assert result[2] == (40, 2)
    assert len(caught) == int(np.all(pairs[:, :2] == pairs[:, 2:], axis=1).sum()) > 0


def test_group_comparisons_preserves_first_appearance_order():
    text = COMPARISONS_HEADER + "b,1,0,0,1\na,0,1,1,0\nb,1,1,0,0\nc,2,0,0,0\na,0,0,3,0\n"
    table = parse_comparisons(io.StringIO(text))
    # each voter once, in the order of its first row; len() counts rows
    assert table.voter_ids == ("b", "a", "c")
    assert table.counts.tolist() == [2, 2, 1]
    assert len(table) == 5
    grouped = group_comparisons(table)
    # rows stay in file order within a voter
    assert [rows.tolist() for rows in grouped] == [
        [[1.0, -1.0], [1.0, 1.0]],
        # chosen (0, 1) minus rejected (1, 0)
        [[-1.0, 1.0], [-3.0, 0.0]],
        [[2.0, 0.0]],
    ]
    # every voter's array is a view of the table, not a copy
    assert all(np.shares_memory(rows, table.diffs) for rows in grouped)


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

    table = parse_comparisons(io.StringIO(text))
    grouped = group_comparisons(table)
    expected = reference_voter_comparisons(text)
    assert list(table.voter_ids) == list(expected)
    assert len(grouped) == len(expected)
    for rows, diffs in zip(grouped, expected.values()):
        stacked = np.array(diffs)
        assert np.shares_memory(rows, table.diffs)
        assert rows.tobytes() == stacked.tobytes()
        assert rows.shape == stacked.shape
        assert np.array_equal(fit_voter(rows).beta, fit_voter(stacked).beta)


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


@pytest.mark.parametrize(
    "parse, text, view",
    [
        (
            parse_comparisons,
            COMPARISONS_HEADER + "v1,1,0,0,1\nv2,0.5,1,1,0\n",
            lambda table: (
                table.voter_ids, table.counts.tolist(), table.diffs.tobytes()
            ),
        ),
        (parse_alternatives, "id,f_1,f_2\nx,1.5,-2\ny,0,3\n", list),
        (parse_profile, "weight,ranking\n0.35,a>b>c\n0.65,b>a>c\n",
         lambda profile: profile.support),
    ],
)
def test_byte_order_mark_is_dropped_from_the_header(parse, text, view):
    def read(text):
        return view(parse(io.StringIO(text, newline="")))

    assert read("\ufeff" + text) == read(text)
    # one mark only; a second is part of the first header cell
    with pytest.raises(ParseError, match="line 1: bad header"):
        read("\ufeff\ufeff" + text)


@pytest.mark.parametrize(
    "parse, data",
    [
        (parse_comparisons, COMPARISONS_HEADER.encode() + b"v1,1,0,0,\xff\n"),
        (parse_alternatives, b"id,f_1\nx\xff,1\n"),
        (parse_profile, b"weight,ranking\n1,a>\xff\n"),
    ],
)
def test_undecodable_csv_is_a_parse_error_without_a_line(parse, data):
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    with pytest.raises(ParseError, match="^file is not UTF-8 text: cannot decode"):
        parse(stream)


@pytest.mark.parametrize("load", [load_voter_models, load_summary_model])
def test_undecodable_or_over_long_json_is_a_parse_error(tmp_path, load):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"format": "\xff"}')
    with pytest.raises(ParseError, match="^file is not UTF-8 text: .* 0xff$"):
        load(str(path))
    # Python refuses to read an integer of more than 4300 digits by default.
    path.write_text('{"format": "summary-model", "version": 1, "d": 1, "beta": [1'
                    + "0" * 5000 + '], "n_voters": 1}')
    with pytest.raises(ParseError, match="^invalid JSON: an integer has too many"):
        load(str(path))


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


# Two counts, each within the float range, whose total is not.
OVERFLOWING_COUNTS = {"man": 10**308, "woman": 10**308}


@pytest.mark.parametrize(
    "count",
    [
        math.inf, math.nan, True, -1, 1.5, "2", 10**400,
        pytest.param(OVERFLOWING_COUNTS, id="total"),
    ],
)
def test_encode_mm_refuses_counts_that_are_not_nonnegative_integers(count):
    if count is OVERFLOWING_COUNTS:
        counts, message = count, "total count overflows"
    else:
        counts, message = {"man": count}, "count for 'man' must be a nonnegative"
    with pytest.raises(ValueError, match=message):
        encode_mm_alternative(counts, "passengers", "none")


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


def fit_result(beta, converged=True, iterations=1):
    return FitResult(
        beta=np.array(beta, dtype=float),
        final_objective=0.0,
        converged=converged,
        iterations=iterations,
    )


def test_voter_models_round_trip_exact(tmp_path):
    path = str(tmp_path / "models.json")
    results = [
        fit_result(ADVERSARIAL_REALS, converged=True, iterations=12),
        fit_result([-v for v in ADVERSARIAL_REALS], converged=False, iterations=500),
    ]
    config = FitConfig(max_iterations=600, gradient_tolerance=1e-7, l2_penalty=1e-5)
    save_voter_models(path, ("v1", "v2"), results, config)
    voter_ids, betas = load_voter_models(path)
    assert voter_ids == ("v1", "v2")
    assert betas.dtype == np.float64 and betas.shape == (2, len(ADVERSARIAL_REALS))
    expected = np.array([result.beta for result in results])
    assert betas.tobytes() == expected.tobytes()
    # the diagnostics and the fit settings are written, though not loaded
    payload = json.loads(pathlib.Path(path).read_text())
    assert [(v["converged"], v["iterations"]) for v in payload["voters"]] == [
        (True, 12), (False, 500)
    ]
    fit = payload["fit"]
    assert FitConfig(
        max_iterations=fit["max_iterations"],
        gradient_tolerance=float(fit["gradient_tolerance"]),
        l2_penalty=float(fit["l2_penalty"]),
    ) == config


def test_model_file_uses_17_digit_decimal_text(tmp_path):
    path = str(tmp_path / "models.json")
    save_voter_models(path, ["v1"], [fit_result((0.1, 0.5))], FitConfig())
    payload = json.loads(pathlib.Path(path).read_text())
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
        save_voter_models(path, [], [], FitConfig())
    with pytest.raises(ValueError, match="1 voter ids for 2 fitted voters"):
        save_voter_models(path, ["a"], [fit_result((1.0,))] * 2, FitConfig())
    mixed = [fit_result((1.0,)), fit_result((1.0, 2.0))]
    with pytest.raises(ValueError, match="2-dimensional array"):
        save_voter_models(path, ["a", "b"], mixed, FitConfig())
    with pytest.raises(ValueError, match="voter models must be finite"):
        save_voter_models(path, ["a"], [fit_result((math.inf,))], FitConfig())
    assert not pathlib.Path(path).exists()

    pathlib.Path(path).write_text("not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_voter_models(path)

    pathlib.Path(path).write_text(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(ParseError, match="unexpected format"):
        load_voter_models(path)

    pathlib.Path(path).write_text(json.dumps({"format": "voter-models", "version": 9}))
    with pytest.raises(ParseError, match="unsupported version"):
        load_voter_models(path)

    payload = {
        "format": "voter-models",
        "version": 1,
        "d": 2,
        "voters": [{"voter_id": "v", "beta": ["1.0"]}],
    }
    pathlib.Path(path).write_text(json.dumps(payload))
    with pytest.raises(ParseError, match="dimension"):
        load_voter_models(path)

    pathlib.Path(path).write_text(json.dumps({**payload, "voters": []}))
    with pytest.raises(ParseError, match="has no voters"):
        load_voter_models(path)

    payload["voters"] = [{"voter_id": "v", "beta": ["1.0", "inf"]}]
    pathlib.Path(path).write_text(json.dumps(payload))
    with pytest.raises(ParseError, match="non-finite"):
        load_voter_models(path)

    # JSON booleans are not reals, although Python's float() takes them.
    for flag in (True, False):
        payload["voters"] = [{"voter_id": "v", "beta": ["1.0", flag]}]
        pathlib.Path(path).write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="non-numeric"):
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
        ({"voter_id": "v", "beta": ["1.0"], "iterations": -5}, "'v': iterations"),
    ],
)
def test_voter_models_missing_or_mistyped_fields(tmp_path, entry, message):
    path = str(tmp_path / "models.json")
    payload = {"format": "voter-models", "version": 1, "d": 1, "voters": [entry]}
    pathlib.Path(path).write_text(json.dumps(payload))
    with pytest.raises(ParseError, match=message):
        load_voter_models(path)


def test_voter_models_refuse_a_repeated_voter_id(tmp_path):
    # Such a file used to load, and summarize counted the voter twice.
    path = str(tmp_path / "models.json")
    voters = [{"voter_id": v, "beta": ["1.0"]} for v in ("v", "w", "v")]
    payload = {"format": "voter-models", "version": 1, "d": 1, "voters": voters}
    pathlib.Path(path).write_text(json.dumps(payload))
    with pytest.raises(ParseError, match="duplicate voter_id 'v'"):
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
        ({"voters": [voter], "d": 0}, "d must be at least 1, got 0"),
        ({"voters": [voter], "d": -1}, "d must be at least 1, got -1"),
        ({"voters": [voter], "fit": {"l2_penalty": True}}, "non-numeric"),
        ({"voters": [voter], "fit": {"gradient_tolerance": False}}, "non-numeric"),
        ({"voters": [voter], "fit": {"max_iterations": "lots"}}, "max_iterations"),
        ({"voters": [voter], "fit": {"max_iterations": 2.5}}, "max_iterations"),
        ({"voters": [voter], "fit": {"max_iterations": True}}, "max_iterations"),
        ({"voters": [voter], "fit": {"max_iterations": -5}}, "max_iterations"),
        ({"voters": [voter], "fit": {"l2_penalty": "-1"}}, "l2_penalty"),
        ({"voters": [voter], "fit": {"gradient_tolerance": "0"}}, "gradient_tolerance"),
    ):
        payload = {"format": "voter-models", "version": 1, "d": 1, **fields}
        pathlib.Path(path).write_text(json.dumps(payload))
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
        ({"beta": [True], "n_voters": 3}, "non-numeric"),
        ({"beta": [False], "n_voters": 3}, "non-numeric"),
        ({"beta": [], "n_voters": 3, "d": 0}, "d must be at least 1"),
        ({"beta": ["1.0", "2.0"], "n_voters": 3}, "dimension 2, file declares 1"),
    ],
)
def test_summary_model_missing_or_mistyped_fields(tmp_path, fields, message):
    path = str(tmp_path / "summary.json")
    payload = {"format": "summary-model", "version": 1, "d": 1, **fields}
    pathlib.Path(path).write_text(json.dumps(payload))
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
