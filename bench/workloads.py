"""The four benchmark workloads: seeded inputs, timed operations, checks.

Each workload runs one kind of operation over and over.  ``cycle`` is the
operation as users run it (``prefvote`` child processes for ``fit`` and
``simulate-jobs``, library calls for ``simulate`` and ``audit``);
``inproc`` is the same work through ``prefvote.cli.main`` and the library
in this process, which is what the traced run wraps.  Every operation
checks its own outputs; ``finish`` runs the checks that need a reference
computed once.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

import prefvote.cli
from prefvote import experiments, fileio, pipeline, processes, scc
from prefvote.profiles import Alternative

RULES = ("plurality", "borda", "copeland", "maximin", "bucklin")
FIT_COUNTS = (10, 30, 60, 100)
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` its self-test."""

    fit_voters: int = 200
    fit_files: int = 4
    fit_alternatives: int = 10
    sim: dict = field(default_factory=dict)
    population: int = 10_000
    population_instances: int = 8
    population_samples: int = 10_000
    dense_sizes: tuple[int, ...] = (5, 6, 7)
    profile_samples: int = 20_000
    sparse_batch: int = 16
    cli_profiles: int = 2
    setup_reps: int = 3
    min_cycles: int = 3


FULL = Sizes()
TINY = Sizes(
    fit_voters=8,
    fit_files=2,
    sim=dict(
        d=3,
        n_voters=4,
        n_test_instances=3,
        comparisons_grid=(5, 10),
        voters_grid=(1, 2),
        profile_sample_count=200,
    ),
    population=200,
    population_instances=1,
    population_samples=200,
    dense_sizes=(3, 4),
    profile_samples=500,
    sparse_batch=4,
    cli_profiles=2,
    setup_reps=1,
    min_cycles=1,
)


class OpFailed(Exception):
    """A program call failed; the failure is already counted."""


class Run:
    """Shared state of one benchmark run: checks, child calls, digest."""

    def __init__(self, root: str, work: str, seed: int, sizes: Sizes) -> None:
        self.root, self.work, self.seed, self.sizes = root, work, seed, sizes
        self.nproc = len(os.sched_getaffinity(0))
        # Children see the driver's environment unchanged, plus the source
        # tree on PYTHONPATH so that ``-m prefvote.cli`` finds the package.
        self.env = dict(os.environ)
        paths = [os.path.join(root, "src")]
        if self.env.get("PYTHONPATH"):
            paths.append(self.env["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.child_info: dict = {}
        self.cli_stats: dict = defaultdict(lambda: defaultdict(float))
        self._digest = hashlib.sha256()
        self._digested: set[str] = set()

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def digest(self, key: str, data: str | bytes) -> None:
        """Fold one named program output into the run's sha256, once."""
        if key in self._digested:
            return
        self._digested.add(key)
        self._digest.update(key.encode())
        self._digest.update(data.encode() if isinstance(data, str) else data)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def cli(self, *args: str) -> tuple[str, float]:
        """Run ``prefvote <args>`` as a child process; return (stdout, wall)."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "prefvote.cli", *args],
            env=self.env,
            cwd=self.work,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        stats = self.cli_stats[args[0]]
        stats["calls"] += 1
        stats["wall_s"] += wall
        stats["cpu_s"] += (after.ru_utime - before.ru_utime) + (
            after.ru_stime - before.ru_stime
        )
        stats["nivcsw"] += after.ru_nivcsw - before.ru_nivcsw
        if not self.check(
            proc.returncode == 0,
            f"prefvote {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}",
        ):
            raise OpFailed
        return proc.stdout, wall

    def cli_inproc(self, *args: str) -> tuple[str, float]:
        """Run ``prefvote.cli.main(args)`` here; return (stdout, wall)."""
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = prefvote.cli.main(list(args))
        wall = time.perf_counter() - start
        if not self.check(code == 0, f"prefvote {args[0]} (in process) returned {code}"):
            raise OpFailed
        return out.getvalue(), wall

    def child_import(self) -> float:
        """Wall time of a fresh interpreter importing prefvote."""
        code = (
            "import json, os, sys, numpy, scipy, prefvote; print(json.dumps({"
            "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
            "'scipy': scipy.__version__, 'OPENBLAS_NUM_THREADS': "
            "os.environ.get('OPENBLAS_NUM_THREADS'), 'OMP_NUM_THREADS': "
            "os.environ.get('OMP_NUM_THREADS')}))"
        )
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=self.env,
            cwd=self.work,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        if self.check(proc.returncode == 0, f"import prefvote failed: {proc.stderr[-400:]}"):
            self.child_info = json.loads(proc.stdout)
        return wall


def write_config(path: str, sim: dict, n_runs: int) -> None:
    """A ``prefvote simulate --config`` file for the given overrides."""
    payload = {key: list(v) if isinstance(v, tuple) else v for key, v in sim.items()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(payload, n_runs=n_runs), handle)


def canonical(value):
    """A JSON-ready form of a report whose text does not depend on hash order."""
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(v) for v in value)
    if is_dataclass(value):
        return [canonical(getattr(value, f.name)) for f in fields(value)]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def best_id(ids, scores) -> str:
    """Highest score, ties to the smallest id."""
    top = max(scores)
    return min(i for i, s in zip(ids, scores) if s == top)


def curve_table(curve) -> str:
    """The ``prefvote simulate`` table for a library curve."""
    lines = ["x,mean_accuracy,stderr"]
    for x, mean, err in zip(curve.x_values, curve.mean_accuracy, curve.stderr()):
        lines.append(f"{x},{mean:.6f},{err:.6f}")
    return "\n".join(lines) + "\n"


def table_in_unit_range(text: str) -> bool:
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return bool(rows) and all(0.0 <= float(row[1]) <= 1.0 for row in rows)


class Workload:
    """One workload; ``samples`` collects the timings of untraced ops."""

    name = ""
    children = False

    def __init__(self, run: Run) -> None:
        self.run = run
        self.sizes = run.sizes
        self.samples: dict[str, list[float]] = defaultdict(list)

    def setup_once(self) -> float:
        return self.run.child_import()

    def cycle(self, k: int, rec: dict) -> None:
        raise NotImplementedError

    def inproc(self, k: int, rec: dict) -> None:
        self.cycle(k, rec)

    def finish(self) -> None:
        pass

    def aliases(self) -> dict[str, float]:
        return {}


@dataclass
class FitInput:
    comparisons: str
    alternatives: str
    voter_ids: list[str]
    alt_ids: list[str]
    alt_features: np.ndarray


def _mm_pool(rng: np.random.Generator, size: int) -> np.ndarray:
    """Distinct crash-dilemma sides: 1-5 characters, random relation and legality."""
    rows = []
    for _ in range(size):
        counts: dict[str, int] = {}
        for kind in rng.choice(fileio.CHARACTER_TYPES, size=int(rng.integers(1, 6))):
            counts[str(kind)] = counts.get(str(kind), 0) + 1
        relation = (fileio.RELATION_PASSENGERS, fileio.RELATION_PEDESTRIANS)[
            int(rng.integers(2))
        ]
        legality = (fileio.LEGALITY_NONE, fileio.LEGALITY_LEGAL, fileio.LEGALITY_ILLEGAL)[
            int(rng.integers(3))
        ]
        rows.append(fileio.encode_mm_alternative(counts, relation, legality))
    return np.unique(np.array(rows), axis=0)


def write_fit_input(run: Run, index: int) -> FitInput:
    """A comparison CSV and an alternatives CSV in the crash-dilemma encoding.

    Voter k gets ``FIT_COUNTS[k % 4]`` comparisons, so every file mixes
    small voters (often separable) with large ones.  Rows are shuffled
    across voters, as in a file collected over time.
    """
    rng = np.random.default_rng([run.seed, 1, index])
    pool = _mm_pool(rng, 400)
    n_voters = run.sizes.fit_voters
    voter_ids = [f"v{k:04d}" for k in range(n_voters)]
    betas = rng.standard_normal((n_voters, fileio.MM_DIM))
    owner = np.repeat(np.arange(n_voters), [FIT_COUNTS[k % 4] for k in range(n_voters)])
    first = rng.integers(0, len(pool), size=owner.size)
    second = (first + rng.integers(1, len(pool), size=owner.size)) % len(pool)
    utilities = np.stack(
        [
            np.einsum("ij,ij->i", pool[first], betas[owner]),
            np.einsum("ij,ij->i", pool[second], betas[owner]),
        ],
        axis=1,
    ) + rng.normal(0.0, np.sqrt(0.5), size=(owner.size, 2))
    first_wins = utilities[:, 0] >= utilities[:, 1]
    chosen = np.where(first_wins[:, None], pool[first], pool[second]).astype(int)
    rejected = np.where(first_wins[:, None], pool[second], pool[first]).astype(int)
    order = rng.permutation(owner.size)
    header = ["voter_id"] + [f"c_{k}" for k in range(1, 24)] + [f"r_{k}" for k in range(1, 24)]
    lines = [",".join(header)]
    for row in order:
        values = ",".join(map(str, chosen[row].tolist() + rejected[row].tolist()))
        lines.append(f"{voter_ids[owner[row]]},{values}")
    comparisons = run.path(f"comparisons_{index}.csv")
    with open(comparisons, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    appearance = list(dict.fromkeys(voter_ids[owner[row]] for row in order))

    picks = rng.choice(len(pool), size=run.sizes.fit_alternatives, replace=False)
    alt_ids = [f"alt{k:02d}" for k in range(len(picks))]
    alt_features = pool[picks]
    alt_lines = ["id," + ",".join(f"f_{k}" for k in range(1, 24))]
    for alt_id, row in zip(alt_ids, alt_features.astype(int)):
        alt_lines.append(f"{alt_id}," + ",".join(map(str, row.tolist())))
    alternatives = run.path(f"alternatives_{index}.csv")
    with open(alternatives, "w", encoding="utf-8") as handle:
        handle.write("\n".join(alt_lines) + "\n")
    return FitInput(comparisons, alternatives, appearance, alt_ids, alt_features)


class Fit(Workload):
    """``prefvote fit``, ``summarize`` and ``decide`` on generated files."""

    name = "fit"
    children = True

    def __init__(self, run: Run) -> None:
        super().__init__(run)
        self.inputs = [write_fit_input(run, k) for k in range(self.sizes.fit_files)]

    def _pipeline(self, k: int, call, rec: dict) -> None:
        index = k % len(self.inputs)
        data = self.inputs[index]
        models, summary = self.run.path(f"models_{index}.json"), self.run.path(f"summary_{index}.json")
        _, fit_wall = call("fit", "--comparisons", data.comparisons, "--out", models)
        _, summarize_wall = call("summarize", "--models", models, "--out", summary)
        decided, decide_wall = call(
            "decide", "--summary", summary, "--alternatives", data.alternatives
        )
        rec["op"].append(fit_wall + summarize_wall + decide_wall)
        rec["items"].append(len(data.voter_ids) / fit_wall)
        self._check(index, models, summary, decided, rec)

    def _check(self, index: int, models: str, summary: str, decided: str, rec: dict) -> None:
        data, run = self.inputs[index], self.run
        with open(models, "rb") as handle:
            models_bytes = handle.read()
        with open(summary, "rb") as handle:
            summary_bytes = handle.read()
        voters = json.loads(models_bytes)["voters"]
        betas = np.array([[float(v) for v in voter["beta"]] for voter in voters])
        run.check(
            [voter["voter_id"] for voter in voters] == data.voter_ids,
            "fit: fitted voters differ from the voters in the input",
        )
        run.check(
            betas.shape == (len(data.voter_ids), fileio.MM_DIM) and np.isfinite(betas).all(),
            "fit: a fitted beta is missing or not finite",
        )
        rec["nonconverged"].append(sum(not v["converged"] for v in voters) / len(voters))
        beta_hat = np.array([float(v) for v in json.loads(summary_bytes)["beta"]])
        expected = best_id(data.alt_ids, (data.alt_features @ beta_hat).tolist())
        run.check(
            decided.strip() == expected,
            f"decide printed {decided.strip()!r}, argmax of beta_hat . x is {expected!r}",
        )
        run.digest(f"fit{index}", models_bytes + summary_bytes + decided.encode())

    def cycle(self, k: int, rec: dict) -> None:
        self._pipeline(k, self.run.cli, rec)

    def inproc(self, k: int, rec: dict) -> None:
        self._pipeline(k, self.run.cli_inproc, rec)

    def aliases(self) -> dict[str, float]:
        return {
            "pipeline_s": median(self.samples["op"]),
            "fit_voters_per_s": median(self.samples["items"]),
            "fit_nonconverged_frac": median(self.samples["nonconverged"]),
        }


class Simulate(Workload):
    """Serial step2 and step3 runs plus criterion-10 instances at N=10k."""

    name = "simulate"

    def __init__(self, run: Run) -> None:
        super().__init__(run)
        self.config = experiments.SyntheticConfig(n_runs=1, **self.sizes.sim)
        self.curves: dict[str, object] = {}

    def setup_once(self) -> float:
        wall = self.run.child_import()
        start = time.perf_counter()
        rng = experiments.run_rng(self.run.seed, 4, 0)
        population = replace(self.config, n_voters=self.sizes.population)
        self.betas = experiments.gen_population(population, rng)
        self.summary = pipeline.summarize(self.betas)
        return wall + time.perf_counter() - start

    def _instances(self, rng: np.random.Generator, n: int) -> tuple[list, float]:
        """n criterion-10 instances; returns their features, decisions and wall time."""
        features = [rng.standard_normal((10, self.config.d)) for _ in range(n)]
        decided = []
        start = time.perf_counter()
        for rows in features:
            alts = [Alternative(id=f"a{j:02d}", features=tuple(row)) for j, row in enumerate(rows)]
            for m in range(2, 11):
                truth = experiments.ground_truth_winner(
                    self.betas, alts[:m], self.sizes.population_samples, rng
                )
                decided.append((truth.id, pipeline.decide(self.summary, alts[:m]).id))
        return features, decided, time.perf_counter() - start

    def cycle(self, k: int, rec: dict) -> None:
        # The population instances are split around the two step runs, so
        # that each cycle's samples of both metrics span the same stretch
        # of time on a machine whose speed drifts.
        run = self.run
        config = replace(self.config, master_seed=run.seed * 1000 + k)
        rng = np.random.default_rng([run.seed, 4, k])
        half = max(1, self.sizes.population_instances // 2)
        start = time.perf_counter()
        step2 = experiments.eval_step2(config)
        rec["step2"].append(time.perf_counter() - start)
        features, decided, first = self._instances(rng, half)
        start = time.perf_counter()
        step3 = experiments.eval_step3(config)
        rec["step3"].append(time.perf_counter() - start)
        more, decided_more, second = self._instances(rng, half)
        features += more
        decided += decided_more
        rec["op"].append(rec["step2"][-1] + rec["step3"][-1])
        rec["instance"].append((first + second) / len(features))
        rec["items"].append(len(features) / (first + second))

        for step, curve in (("step2", step2), ("step3", step3)):
            values = list(curve.mean_accuracy) + [v for row in curve.per_run for v in row]
            run.check(all(0.0 <= v <= 1.0 for v in values), f"{step} accuracy outside [0, 1]")
            if k == 0:
                self.curves[step] = curve
                run.digest(step, curve_table(curve))
        expected = []
        for rows in features:
            scores = (rows @ self.summary.beta_hat).tolist()
            ids = [f"a{j:02d}" for j in range(10)]
            expected += [best_id(ids[:m], scores[:m]) for m in range(2, 11)]
        run.check(
            [guess for _, guess in decided] == expected,
            "decide disagrees with argmax of beta_hat . x on a criterion-10 instance",
        )
        if k == 0:
            run.digest("population", repr(decided))

    def finish(self) -> None:
        run = self.run
        config = run.path("simulate.json")
        write_config(config, self.sizes.sim, 1)
        for step, curve in self.curves.items():
            out, _ = run.cli("simulate", step, "--config", config, "--seed", str(run.seed * 1000))
            run.check(
                out == curve_table(curve),
                f"prefvote simulate {step} table differs from the library run",
            )

    def aliases(self) -> dict[str, float]:
        return {
            "step2_run_s": median(self.samples["step2"]),
            "step3_run_s": median(self.samples["step3"]),
            "population_instance_s": median(self.samples["instance"]),
        }


class SimulateJobs(Workload):
    """``prefvote simulate step3 --jobs $(nproc)``: the process-pool path.

    ``step2`` is left out: under ``--jobs 2`` its wall time swings from 3 s
    to 30 s from one call to the next (BLAS oversubscription in forked
    workers), so no bound could hold on it.
    """

    name = "simulate-jobs"
    children = True

    def __init__(self, run: Run) -> None:
        super().__init__(run)
        self.config = experiments.SyntheticConfig(
            **self.sizes.sim, n_runs=run.nproc, master_seed=run.seed
        )
        self.path = run.path("step3.json")
        write_config(self.path, self.sizes.sim, self.config.n_runs)
        self.outputs: set[str] = set()

    def _call(self, call, rec: dict) -> None:
        out, wall = call(
            "simulate", "step3", "--config", self.path,
            "--seed", str(self.run.seed), "--jobs", str(self.run.nproc),
        )
        self.run.check(table_in_unit_range(out), "step3 --jobs table has accuracy outside [0, 1]")
        self.outputs.add(out)
        rec["op"].append(wall)
        rec["items"].append(self.config.n_runs / wall)

    def cycle(self, k: int, rec: dict) -> None:
        self._call(self.run.cli, rec)

    def inproc(self, k: int, rec: dict) -> None:
        self._call(self.run.cli_inproc, rec)

    def finish(self) -> None:
        table = curve_table(experiments.eval_step3(self.config))
        self.run.digest("step3", table)
        self.run.check(
            self.outputs == {table},
            f"prefvote simulate step3 --jobs {self.run.nproc} differs from the serial library run",
        )

    def aliases(self) -> dict[str, float]:
        return {"simulate_jobs_s": median(self.samples["op"])}


#: Spread of mode utilities across one dense alternative set.  It fixes
#: how concentrated a sampled profile is, and so how many rankings it has.
UTILITY_RANGE = 3.0


def _alternatives(rng: np.random.Generator, m: int):
    """m alternatives in 3 dimensions, a weight vector, and the mode utilities."""
    features = rng.standard_normal((m, 3))
    beta = rng.standard_normal(3)
    beta *= UTILITY_RANGE / np.ptp(features @ beta)
    alts = [Alternative(id="abcdefgh"[j], features=tuple(row)) for j, row in enumerate(features)]
    return alts, tuple(beta.tolist()), features @ beta


def sparse_profile_csv(rng: np.random.Generator, index: int) -> tuple[str, list[str]]:
    """Profile CSV number ``index`` of a batch, and a subset of its alternatives.

    Sizes cycle through 3-6 alternatives and 2-5 distinct rankings, so
    every batch of 16 has the same mix.
    """
    m = 3 + index % 4
    ids = list("abcdef"[:m])
    orders: dict[str, None] = {}
    while len(orders) < 2 + (index // 4) % 4:
        orders[">".join(rng.permutation(ids).tolist())] = None
    weights = rng.uniform(0.05, 1.0, len(orders))
    weights /= weights.sum()
    lines = ["weight,ranking"] + [f"{w!r},{o}" for w, o in zip(weights.tolist(), orders)]
    subset = sorted(rng.choice(ids, size=int(rng.integers(2, m)), replace=False).tolist())
    return "\n".join(lines) + "\n", subset


def efficiency_text(check: str, kind: str, report) -> str:
    """The ``prefvote axioms`` stdout for an efficiency report."""
    lines = [f"check: {check}", f"scc: {kind}", f"holds: {str(report.holds).lower()}"]
    lines += [f"violation: {a} {b}" for a, b in report.violations]
    lines += [f"note: {note}" for note in report.notes]
    return "\n".join(lines) + "\n"


class Audit(Workload):
    """Voting rules and swap-dominance audits on dense and sparse profiles."""

    name = "audit"

    def _dense(self, rng: np.random.Generator, family: str, m: int, rule: str) -> tuple:
        """One dense profile: every rule, the audits, and stability."""
        sizes = self.sizes
        alts, beta, utilities = _alternatives(rng, m)
        spec = processes.ProcessSpec(family, beta)
        if family == "pl":
            profile = processes.exact_profile(spec, alts)
        else:
            profile = processes.estimate_profile(spec, alts, sizes.profile_samples, rng)
        winners = [scc.apply_scc(kind, profile) for kind in RULES]
        subset = [a.id for a in alts[: int(rng.integers(2, m))]]
        # At the largest size only the strong audit runs: it does the weak
        # audit's dominance search and more, and both at m=7 would leave
        # room for too few cycles in a run.
        reports = [] if m == max(sizes.dense_sizes) else [scc.check_swd_efficiency(rule, profile)]
        reports += [
            scc.check_strong_swd_efficiency(rule, profile),
            scc.check_stability(
                spec, rule, alts, subset, mode="mc",
                n_samples=sizes.profile_samples, seed=int(rng.integers(1 << 30)),
            ),
        ]
        if family == "pl":
            reports.append(scc.check_stability(spec, rule, alts, subset, mode="exact"))
        return family, m, alts, utilities, winners, reports

    @staticmethod
    def _audit_sparse(text: str, subset: list[str]) -> list:
        profile = fileio.parse_profile(io.StringIO(text))
        return [
            (
                scc.apply_scc(kind, profile),
                scc.check_swd_efficiency(kind, profile),
                scc.check_strong_swd_efficiency(kind, profile),
                scc.check_profile_stability(kind, profile, subset),
            )
            for kind in RULES
        ]

    def cycle(self, k: int, rec: dict) -> None:
        # One sparse batch follows each dense case, so that each cycle's
        # samples of both metrics span the same stretch of time.
        run = self.run
        rng = np.random.default_rng([run.seed, 5, k])
        rule = RULES[k % len(RULES)]
        dense, sparse = [], []
        dense_s = sparse_s = 0.0
        for family in ("pl", "tm"):
            for m in self.sizes.dense_sizes:
                start = time.perf_counter()
                dense.append(self._dense(rng, family, m, rule))
                dense_s += time.perf_counter() - start
                profiles = [sparse_profile_csv(rng, i) for i in range(self.sizes.sparse_batch)]
                start = time.perf_counter()
                sparse += [self._audit_sparse(text, subset) for text, subset in profiles]
                sparse_s += time.perf_counter() - start
        rec["op"].append(dense_s)
        rec["items"].append(len(sparse) / sparse_s)

        for family, m, alts, utilities, winners, _ in dense:
            if family == "pl":
                best = best_id([a.id for a in alts], utilities.tolist())
                run.check(
                    all(best in w for w in winners),
                    f"a rule missed the max-utility alternative on an exact PL profile (m={m})",
                )
        run.check(all(w for r in sparse for w, *_ in r), "a rule returned no winner")
        if k == 0:
            run.digest("dense", json.dumps(canonical([(f, m, w, r) for f, m, _, _, w, r in dense])))
            run.digest("sparse", json.dumps(canonical(sparse)))

    def finish(self) -> None:
        run = self.run
        rng = np.random.default_rng([run.seed, 6])
        for index in range(self.sizes.cli_profiles):
            text, _ = sparse_profile_csv(rng, index)
            path = run.path(f"profile_{index}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            profile = fileio.parse_profile(io.StringIO(text))
            kind = RULES[index % len(RULES)]
            check, audit = (
                ("swd", scc.check_swd_efficiency),
                ("strong-swd", scc.check_strong_swd_efficiency),
            )[index % 2]
            out, _ = run.cli("axioms", "--check", check, "--scc", kind, "--profile", path)
            expected = efficiency_text(check, kind, audit(kind, profile))
            run.check(out == expected, f"prefvote axioms --check {check} differs from the library report")
            run.digest(f"axioms{index}", out)

    def aliases(self) -> dict[str, float]:
        return {
            "audit_dense_s": median(self.samples["op"]),
            "audit_sparse_per_s": median(self.samples["items"]),
        }


WORKLOADS = {cls.name: cls for cls in (Fit, Simulate, SimulateJobs, Audit)}
