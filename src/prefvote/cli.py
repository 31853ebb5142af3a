"""Command-line interface.

Subcommands cover the whole pipeline: ``fit`` learns per-voter weights
from a comparison CSV, ``summarize`` collapses them into a mean model,
``decide`` picks a winner among alternatives, ``simulate`` reproduces the
synthetic accuracy curves, and ``axioms`` audits voting rules.

Exit codes: 0 success, 1 usage error, 2 malformed or unusable data
(or a request too large for memory), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields as dataclass_fields
from typing import TYPE_CHECKING

from . import fileio, processes, scc
# fit_voter is unused here and in experiments, which fit through fit_voters;
# bench/test_bench.py checks that bench/tracing.py rebinds it in both.
from .learning import FitConfig, NumericError, fit_voter, fit_voters  # noqa: F401
from .pipeline import decide, summarize

if TYPE_CHECKING:
    from .experiments import SyntheticConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefvote",
        description="Learn voter utility models, aggregate them, and audit voting rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit per-voter models from a comparison CSV")
    fit.add_argument("--comparisons", required=True, help="comparison CSV path")
    fit.add_argument("--out", required=True, help="output model JSON path")
    fit.add_argument(
        "--l2", type=float, default=FitConfig.l2_penalty, help="ridge penalty"
    )
    fit.add_argument(
        "--tol",
        type=float,
        default=FitConfig.gradient_tolerance,
        help="gradient inf-norm tolerance",
    )
    fit.add_argument(
        "--max-iter",
        type=int,
        default=FitConfig.max_iterations,
        help="iteration budget per voter",
    )
    fit.set_defaults(func=_cmd_fit)

    summ = sub.add_parser("summarize", help="average voter models into one")
    summ.add_argument("--models", required=True, help="voter-models JSON path")
    summ.add_argument("--out", required=True, help="output summary JSON path")
    summ.set_defaults(func=_cmd_summarize)

    dec = sub.add_parser("decide", help="pick the best alternative")
    dec.add_argument("--summary", required=True, help="summary-model JSON path")
    dec.add_argument("--alternatives", required=True, help="alternatives CSV path")
    dec.set_defaults(func=_cmd_decide)

    sim = sub.add_parser("simulate", help="run a synthetic accuracy experiment")
    sim.add_argument("step", choices=["step2", "step3"], help="which curve to run")
    sim.add_argument("--config", help="JSON file overriding protocol sizes")
    sim.add_argument("--seed", type=int, help="override the master seed")
    sim.add_argument("--jobs", type=int, default=1, help="worker processes")
    sim.set_defaults(func=_cmd_simulate)

    ax = sub.add_parser("axioms", help="audit a voting rule")
    ax.add_argument(
        "--check",
        required=True,
        choices=["swd", "strong-swd", "stability"],
        help="which audit to run",
    )
    ax.add_argument("--scc", required=True, choices=list(scc.SCC_KINDS))
    ax.add_argument("--profile", help="profile CSV (swd and strong-swd)")
    ax.add_argument("--summary", help="summary-model JSON (stability)")
    ax.add_argument("--alternatives", help="alternatives CSV (stability)")
    ax.add_argument("--subset", help="comma-separated ids (stability)")
    ax.add_argument(
        "--family", choices=["tm", "pl"], default="tm", help="process family"
    )
    ax.add_argument("--mode", choices=["exact", "mc"], default="exact")
    ax.add_argument("--samples", type=int, default=100_000)
    ax.add_argument("--seed", type=int, default=0)
    ax.set_defaults(func=_cmd_axioms)
    return parser


def _cmd_fit(args: argparse.Namespace) -> int:
    config = FitConfig(
        max_iterations=args.max_iter,
        gradient_tolerance=args.tol,
        l2_penalty=args.l2,
    )
    with open(args.comparisons, "r", encoding="utf-8", newline="") as handle:
        table = fileio.parse_comparisons(handle)
    grouped = fileio.group_comparisons(table)
    if not grouped:
        raise fileio.ParseError("no comparison records in file")
    try:
        results = fit_voters(grouped.values(), config)
    except NumericError as exc:
        raise NumericError(list(grouped)[exc.voter]) from None
    model_records = [
        fileio.VoterModelRecord(
            voter_id=voter_id,
            beta=tuple(result.beta.tolist()),
            converged=result.converged,
            iterations=result.iterations,
        )
        for voter_id, result in zip(grouped, results)
    ]
    fileio.save_voter_models(args.out, model_records, config)
    print(f"fitted {len(model_records)} voters -> {args.out}", file=sys.stderr)
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    records, _ = fileio.load_voter_models(args.models)
    model = summarize([record.beta for record in records])
    fileio.save_summary_model(args.out, model)
    print(
        f"summarized {model.n_voters} voters -> {args.out}", file=sys.stderr
    )
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    model = fileio.load_summary_model(args.summary)
    with open(args.alternatives, "r", encoding="utf-8", newline="") as handle:
        alternatives = fileio.parse_alternatives(handle)
    winner = decide(model, alternatives)
    print(winner.id)
    return 0


def _config_from_json(path: str | None, seed: int | None) -> SyntheticConfig:
    # Imported here, as in _cmd_simulate: only simulate runs experiments.
    from . import experiments

    overrides: dict = {}
    if path is not None:
        loaded = fileio.load_json_object(path, "config")
        known = {f.name for f in dataclass_fields(experiments.SyntheticConfig)}
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise fileio.ParseError(f"unknown config keys: {unknown}")
        # SyntheticConfig refuses non-integer values with a ValueError.
        overrides = loaded
    if seed is not None:
        overrides["master_seed"] = seed
    return experiments.SyntheticConfig(**overrides)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import experiments

    config = _config_from_json(args.config, args.seed)
    if args.step == "step2":
        curve = experiments.eval_step2(config, n_jobs=args.jobs)
    else:
        curve = experiments.eval_step3(config, n_jobs=args.jobs)
    sys.stdout.write(fileio.format_curve(curve))
    return 0


def _format_ids(ids: frozenset[str]) -> str:
    return " ".join(sorted(ids)) if ids else "-"


def _cmd_axioms(args: argparse.Namespace) -> int:
    if args.check in ("swd", "strong-swd"):
        if not args.profile:
            raise fileio.ParseError("--profile is required for this check")
        with open(args.profile, "r", encoding="utf-8", newline="") as handle:
            profile = fileio.parse_profile(handle)
        if args.check == "swd":
            report = scc.check_swd_efficiency(args.scc, profile)
        else:
            report = scc.check_strong_swd_efficiency(args.scc, profile)
        print(f"check: {args.check}")
        print(f"scc: {args.scc}")
        print(f"holds: {str(report.holds).lower()}")
        for a, b in report.violations:
            print(f"violation: {a} {b}")
        for note in report.notes:
            print(f"note: {note}")
        return 0
    for name in ("summary", "alternatives", "subset"):
        if not getattr(args, name):
            raise fileio.ParseError(f"--{name} is required for stability")
    model = fileio.load_summary_model(args.summary)
    with open(args.alternatives, "r", encoding="utf-8", newline="") as handle:
        alternatives = fileio.parse_alternatives(handle)
    subset = [token.strip() for token in args.subset.split(",") if token.strip()]
    report = scc.check_stability(
        processes.ProcessSpec(args.family, model.beta_hat),
        args.scc,
        alternatives,
        subset,
        mode=args.mode,
        n_samples=args.samples,
        seed=args.seed,
    )
    print("check: stability")
    print(f"scc: {args.scc}")
    print(f"winners_full: {_format_ids(report.winners_full)}")
    print(f"winners_subset: {_format_ids(report.winners_subset)}")
    print(f"intersection: {_format_ids(report.intersection)}")
    print(f"applicable: {str(report.applicable).lower()}")
    print(f"stable: {str(report.stable).lower()}")
    print(f"low_confidence: {str(report.low_confidence).lower()}")
    for note in report.notes:
        print(f"note: {note}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
