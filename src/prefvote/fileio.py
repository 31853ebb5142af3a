"""File formats: comparison and alternative CSVs, profile files, model JSON.

Formats are deliberately small and strict.  Parsers reject malformed
input with ``ParseError`` carrying the 1-based line number.  Model files
store reals as decimal strings with 17 significant digits, which is
always enough to reproduce the exact double on load, and every file
records a format name and version.

Also defines the crash-scenario feature encoding used by the dilemma
examples: 20 character-count features in alphabetical order, then the
affected group (0 passengers, 1 pedestrians), then crossing legality
(0 none, +1 legal, -1 illegal), then the total character count.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

import numpy as np

from .learning import FitConfig
from .pipeline import SummaryModel
from .profiles import Alternative, AnonymousProfile, Ranking, _to_float

if TYPE_CHECKING:
    from .experiments import AccuracyCurve

FILE_VERSION = 1
VOTER_MODELS_FORMAT = "voter-models"
SUMMARY_MODEL_FORMAT = "summary-model"

#: Character types appearing in crash dilemmas, alphabetical; their counts
#: occupy the first 20 feature slots in this exact order.
CHARACTER_TYPES = (
    "baby",
    "boy",
    "cat",
    "criminal",
    "dog",
    "elderly_man",
    "elderly_woman",
    "female_athlete",
    "female_doctor",
    "female_executive",
    "girl",
    "homeless_person",
    "large_man",
    "large_woman",
    "male_athlete",
    "male_doctor",
    "male_executive",
    "man",
    "pregnant_woman",
    "woman",
)

RELATION_PASSENGERS = "passengers"
RELATION_PEDESTRIANS = "pedestrians"
LEGALITY_NONE = "none"
LEGALITY_LEGAL = "legal"
LEGALITY_ILLEGAL = "illegal"

#: Feature values of the relation and legality columns.
_RELATION_CODES = {RELATION_PASSENGERS: 0.0, RELATION_PEDESTRIANS: 1.0}
_LEGALITY_CODES = {LEGALITY_NONE: 0.0, LEGALITY_LEGAL: 1.0, LEGALITY_ILLEGAL: -1.0}

MM_FEATURE_NAMES = CHARACTER_TYPES + ("relation", "legality", "total_characters")
MM_DIM = len(MM_FEATURE_NAMES)

#: Comparison rows converted by one ``np.loadtxt`` call.  One block's row
#: text is the most the parser holds at once; the time per row is flat
#: from about 128 rows up, and peak memory grows from about 1024.
_BLOCK_ROWS = 512

#: The separator controls, which numpy's number reader strips as leading
#: or trailing whitespace but ``float()`` refuses.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"

#: A CSV body row and the 1-based line it ends on.
_Row = tuple[int, list[str]]


class ParseError(ValueError):
    """Malformed input file; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    """Comparison rows as arrays: who chose, and chosen minus rejected.

    Row k of the ``(n, d)`` float array ``diffs`` belongs to
    ``voter_ids[k]``, in file order; ``len()`` is the number of rows.
    """

    voter_ids: tuple[str, ...]
    diffs: np.ndarray

    def __len__(self) -> int:
        return len(self.voter_ids)


def _format_real(value: float) -> str:
    """Decimal text with 17 significant digits; lossless for binary64."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(float(value), ".17g")


def _csv_rows(
    stream: IO[str], header: Callable[[int], list[str]]
) -> Iterator[_Row]:
    """Numbered CSV rows: the checked header first, then each body row.

    ``header(n)`` names the fields expected when the first row has n
    cells; the stripped header must equal it, and every non-blank body row
    must have as many fields.  One leading byte-order mark, U+FEFF, is
    dropped from the first header cell.  Blank rows are skipped.  A row's
    number is the 1-based line it ends on, and a fault of the CSV layer
    itself, such as a field over the ``csv`` module's size limit, is a
    ``ParseError`` naming its line.
    """
    reader = csv.reader(stream)
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError("missing header row", line=1)
        if first:
            first[0] = first[0].removeprefix("\ufeff")
        expected = header(len(first))
        got = [cell.strip() for cell in first]
        if got != expected:
            raise ParseError(
                f"bad header: expected {','.join(expected)!r}, "
                f"got {','.join(got)!r}",
                line=1,
            )
        yield 1, expected
        width = len(expected)
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise ParseError(
                    f"expected {width} fields, got {len(row)}", line=reader.line_num
                )
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def _parse_float(token: object, line: int | None = None) -> float:
    """One finite real from a CSV field or a model-file value.

    A JSON ``true`` or ``false`` is not a real and is refused.
    """
    if isinstance(token, bool):
        raise ParseError(f"non-numeric value {token!r}", line=line)
    try:
        value = _to_float(token)
    except (TypeError, ValueError):
        raise ParseError(f"non-numeric value {token!r}", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {token!r}", line=line)
    return value


def _require(entry: object, key: str, where: str) -> object:
    if not isinstance(entry, dict) or key not in entry:
        raise ParseError(f"{where} has no {key!r}")
    return entry[key]


def _parse_beta(values: object, where: str) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise ParseError(f"{where}: beta must be a list of reals")
    return tuple(_parse_float(v) for v in values)


def _parse_int(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where} must be an integer, got {value!r}")
    return value


def _parse_bool(value: object, where: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{where} must be true or false, got {value!r}")
    return value


def parse_comparisons(stream: IO[str]) -> ComparisonTable:
    """Read comparison rows from CSV into one difference array.

    The header fixes the feature dimension d:
    ``voter_id,c_1,...,c_d,r_1,...,r_d``.  An empty body is valid.  A row
    whose chosen and rejected vectors are identical carries no
    information; it is kept, with a warning that names its line.  A row
    whose difference overflows to infinity is malformed.  Numbers are
    read as ``float()`` reads them, and the first malformed line in the
    file is the one reported.

    Rows come in blocks of ``_BLOCK_ROWS``, each converted by one
    ``np.loadtxt`` call.  A block that numpy does not read as finite
    reals throughout is read again one row at a time with
    ``_parse_float``, up to its first faulty token; that either finds
    the fault or accepts what only ``float()`` reads, such as ``1_0`` or
    non-ASCII digits.  The differences, their overflow check and the
    identical rows are then taken once, from whichever values were read.
    """
    rows = _csv_rows(stream, _comparison_header)
    _, header = next(rows)
    d = len(header) // 2
    voters: list[str] = []
    diffs = [np.empty((0, d))]
    for block in _blocks(rows, _BLOCK_ROWS):
        pairs, fault = _loadtxt_block(block, d), None
        if pairs is None:
            pairs, fault = _float_block(block, d)
        chosen, rejected = pairs[:, :d], pairs[:, d:]
        with np.errstate(over="ignore"):
            block_diffs = chosen - rejected
        # The values are finite, so a difference is only infinite by
        # overflow; such a row comes before any faulty token's row.
        clean = len(pairs)
        overflows = ~np.isfinite(block_diffs)
        if overflows.any():
            clean, k = np.argwhere(overflows)[0].tolist()
            c, r = float(chosen[clean, k]), float(rejected[clean, k])
            fault = ParseError(
                f"chosen minus rejected overflows: {c!r} - {r!r}",
                line=block[clean][0],
            )
        identical = (chosen[:clean] == rejected[:clean]).all(axis=1)
        for k in np.flatnonzero(identical).tolist():
            warnings.warn(
                f"line {block[k][0]}: comparison has identical chosen and "
                "rejected feature vectors; it carries no information",
                stacklevel=2,
            )
        if fault is not None:
            raise fault
        voters.extend(row[0].strip() for _, row in block)
        diffs.append(block_diffs)
    return ComparisonTable(tuple(voters), np.concatenate(diffs))


def _comparison_header(n: int) -> list[str]:
    d = max(1, (n - 1) // 2)
    return (
        ["voter_id"]
        + [f"c_{k}" for k in range(1, d + 1)]
        + [f"r_{k}" for k in range(1, d + 1)]
    )


def _blocks(rows: Iterator[_Row], size: int) -> Iterator[list[_Row]]:
    """Consecutive runs of ``size`` rows, the last one maybe shorter.

    When ``rows`` raises ``ParseError``, the rows read before it come
    out first, so that a fault among them is raised before the later one.
    """
    block: list[_Row] = []
    try:
        for row in rows:
            block.append(row)
            if len(block) == size:
                yield block
                block = []
    except ParseError:
        if block:
            yield block
        raise
    if block:
        yield block


def _loadtxt_block(block: list[_Row], d: int) -> np.ndarray | None:
    """A block's ``(rows, 2d)`` values as numpy reads them, or None.

    None means that a row needs the per-row reading: an empty voter id,
    a field that numpy and ``float()`` may read differently, or a value
    that is not finite.
    """
    voters = [row[0].strip() for _, row in block]
    lines = [",".join(row[1:]) for _, row in block]
    text = "".join(lines)
    if not all(voters) or any(char in text for char in _NUMPY_ONLY_SPACE):
        return None
    try:
        pairs = np.loadtxt(
            lines, delimiter=",", comments=None, dtype=float, ndmin=2
        )
    except ValueError:
        return None
    # A quoted comma or line break in a field changes the shape.
    if pairs.shape != (len(block), 2 * d) or not np.isfinite(pairs).all():
        return None
    return pairs


def _float_block(block: list[_Row], d: int) -> tuple[np.ndarray, ParseError | None]:
    """A block's values read token by token with ``_parse_float``.

    Returns the ``(rows, 2d)`` values of the rows before the first row
    with an empty voter id or a token that is not a finite real, and
    that row's fault, or None when every row reads.
    """
    reals: list[list[float]] = []
    fault = None
    for line, row in block:
        try:
            if not row[0].strip():
                raise ParseError("empty voter_id", line=line)
            reals.append([_parse_float(token, line) for token in row[1:]])
        except ParseError as exc:
            fault = exc
            break
    return np.array(reals, dtype=float).reshape(len(reals), 2 * d), fault


def group_comparisons(table: ComparisonTable) -> dict[str, np.ndarray]:
    """Each voter's ``(n_v, d)`` difference rows, in file order.

    Voters appear in the order of their first row.
    """
    rows: dict[str, list[int]] = {}
    for k, voter in enumerate(table.voter_ids):
        rows.setdefault(voter, []).append(k)
    return {voter: table.diffs[index] for voter, index in rows.items()}


def parse_alternatives(stream: IO[str]) -> list[Alternative]:
    """Read alternatives from CSV with header ``id,f_1,...,f_d``."""
    rows = _csv_rows(
        stream, lambda n: ["id"] + [f"f_{k}" for k in range(1, max(2, n))]
    )
    next(rows)
    seen = set()
    alternatives = []
    for line, row in rows:
        alt_id = row[0].strip()
        if not alt_id:
            raise ParseError("empty id", line=line)
        if alt_id in seen:
            raise ParseError(f"duplicate id {alt_id!r}", line=line)
        seen.add(alt_id)
        features = tuple(_parse_float(token, line) for token in row[1:])
        alternatives.append(Alternative(id=alt_id, features=features))
    if not alternatives:
        raise ParseError("no alternatives in file")
    return alternatives


def parse_profile(stream: IO[str]) -> AnonymousProfile:
    """Read a ranking profile from CSV with header ``weight,ranking``.

    Rankings use ``>`` separators, e.g. ``0.35,a>b>c``.  Weight-sum and
    coverage violations surface as ``ValueError`` from the profile
    constructor.
    """
    rows = _csv_rows(stream, lambda n: ["weight", "ranking"])
    next(rows)
    support: dict[Ranking, float] = {}
    for line, row in rows:
        weight = _parse_float(row[0], line)
        try:
            ranking = Ranking.from_string(row[1])
        except ValueError as exc:
            raise ParseError(str(exc), line=line) from None
        if ranking in support:
            raise ParseError(
                f"duplicate ranking {ranking.to_string()!r}", line=line
            )
        support[ranking] = weight
    if not support:
        raise ParseError("no rankings in file")
    return AnonymousProfile(support)


def encode_mm_alternative(
    counts: Mapping[str, int], relation: str, legality: str
) -> np.ndarray:
    """Encode one crash-dilemma side as a feature vector of length 23."""
    unknown = sorted(set(counts) - set(CHARACTER_TYPES))
    if unknown:
        raise ValueError(f"unknown character types: {unknown}")
    vector = np.zeros(MM_DIM)
    for k, name in enumerate(CHARACTER_TYPES):
        count = counts.get(name, 0)
        if (
            isinstance(count, bool)
            or not isinstance(count, numbers.Real)
            # NaN, inf and ints past the float range fail
            or not (0 <= count <= sys.float_info.max and float(count).is_integer())
        ):
            raise ValueError(f"count for {name!r} must be a nonnegative integer")
        vector[k] = float(count)
    if relation not in _RELATION_CODES:
        raise ValueError(
            f"relation must be {RELATION_PASSENGERS!r} or "
            f"{RELATION_PEDESTRIANS!r}, got {relation!r}"
        )
    if legality not in _LEGALITY_CODES:
        raise ValueError(
            f"legality must be one of {LEGALITY_NONE!r}, {LEGALITY_LEGAL!r}, "
            f"{LEGALITY_ILLEGAL!r}, got {legality!r}"
        )
    with np.errstate(over="ignore"):
        total = vector[:20].sum()
    if not math.isfinite(total):
        raise ValueError("total count overflows: the counts sum past the float range")
    vector[20] = _RELATION_CODES[relation]
    vector[21] = _LEGALITY_CODES[legality]
    vector[22] = total
    return vector


@dataclass(frozen=True)
class VoterModelRecord:
    """One fitted voter in a model file."""

    voter_id: str
    beta: tuple[float, ...]
    converged: bool
    iterations: int


def save_voter_models(
    path: str,
    records: Sequence[VoterModelRecord],
    fit_config: FitConfig,
) -> None:
    """Write per-voter weights plus fit metadata as JSON."""
    if not records:
        raise ValueError("need at least one voter model")
    dims = {len(record.beta) for record in records}
    if len(dims) > 1:
        raise ValueError(f"voter models disagree on dimension: {sorted(dims)}")
    _save_json(
        path,
        VOTER_MODELS_FORMAT,
        dims.pop(),
        fit={
            "l2_penalty": _format_real(fit_config.l2_penalty),
            "gradient_tolerance": _format_real(fit_config.gradient_tolerance),
            "max_iterations": fit_config.max_iterations,
        },
        voters=[
            {
                "voter_id": record.voter_id,
                "beta": [_format_real(v) for v in record.beta],
                "converged": record.converged,
                "iterations": record.iterations,
            }
            for record in records
        ],
    )


def load_voter_models(path: str) -> tuple[list[VoterModelRecord], FitConfig]:
    """Read a voter-models file; returns (records, fit settings).

    The ``fit`` block's settings are checked as ``FitConfig`` checks them;
    a setting the block leaves out takes its ``FitConfig`` default.
    """
    payload, d = _load_json(path, VOTER_MODELS_FORMAT)
    records, seen = [], set()
    voters = payload.get("voters", [])
    if not isinstance(voters, list):
        raise ParseError("voters must be a list")
    for entry in voters:
        voter_id = _require(entry, "voter_id", "voter entry")
        if not isinstance(voter_id, str) or not voter_id:
            raise ParseError(f"voter_id must be a nonempty string, got {voter_id!r}")
        if voter_id in seen:
            raise ParseError(f"duplicate voter_id {voter_id!r}")
        seen.add(voter_id)
        where = f"voter {voter_id!r}"
        beta = _parse_beta(_require(entry, "beta", where), where)
        if len(beta) != d:
            raise ParseError(
                f"{where} has dimension {len(beta)}, file declares {d}"
            )
        converged = _parse_bool(entry.get("converged", True), "converged")
        iterations = _parse_int(entry.get("iterations", 0), "iterations")
        if iterations < 0:
            raise ParseError(f"{where}: iterations must be nonnegative")
        records.append(VoterModelRecord(voter_id, beta, converged, iterations))
    if not records:
        raise ParseError("voter-models file has no voters")
    fit = payload.get("fit", {})
    if not isinstance(fit, dict):
        raise ParseError("fit metadata must be a JSON object")
    settings = {
        key: _parse_float(fit[key])
        for key in ("l2_penalty", "gradient_tolerance")
        if key in fit
    }
    if "max_iterations" in fit:
        settings["max_iterations"] = fit["max_iterations"]
    try:
        return records, FitConfig(**settings)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def save_summary_model(path: str, model: SummaryModel) -> None:
    """Write a summary model as JSON."""
    _save_json(
        path,
        SUMMARY_MODEL_FORMAT,
        model.dim,
        n_voters=model.n_voters,
        beta=[_format_real(v) for v in model.beta_hat],
    )


def load_summary_model(path: str) -> SummaryModel:
    payload, d = _load_json(path, SUMMARY_MODEL_FORMAT)
    beta = _parse_beta(_require(payload, "beta", "summary model"), "summary model")
    if len(beta) != d:
        raise ParseError(f"beta has dimension {len(beta)}, file declares {d}")
    n_voters = _parse_int(_require(payload, "n_voters", "summary model"), "n_voters")
    return SummaryModel(beta_hat=np.asarray(beta), n_voters=n_voters)


def load_json_object(path: str, what: str) -> dict:
    """The JSON object in the file at ``path``, which ``what`` names.

    Invalid, too deeply nested or non-object JSON is a ``ParseError``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise ParseError(f"{what} must hold a JSON object")
    return payload


def _save_json(path: str, file_format: str, d: int, **fields: object) -> None:
    """Write a model file: the format, version and ``d``, then ``fields``."""
    payload = {"format": file_format, "version": FILE_VERSION, "d": d, **fields}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _load_json(path: str, expected_format: str) -> tuple[dict, int]:
    """A model file's JSON object and the dimension ``d`` it declares."""
    payload = load_json_object(path, "model file")
    if payload.get("format") != expected_format:
        raise ParseError(
            f"unexpected format {payload.get('format')!r}, "
            f"expected {expected_format!r}"
        )
    version = _parse_int(payload.get("version"), "version")
    if version != FILE_VERSION:
        raise ParseError(f"unsupported version {version!r}")
    d = _parse_int(payload.get("d"), "d")
    if d < 1:
        raise ParseError(f"d must be at least 1, got {d}")
    return payload, d


def format_curve(curve: AccuracyCurve) -> str:
    """Render a curve as a CSV table: x, mean accuracy, standard error."""
    lines = ["x,mean_accuracy,stderr"]
    for x, mean, err in zip(curve.x_values, curve.mean_accuracy, curve.stderr()):
        lines.append(f"{x},{mean:.6f},{err:.6f}")
    return "\n".join(lines) + "\n"
