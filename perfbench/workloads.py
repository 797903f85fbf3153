"""The three benchmark workloads and the output checks behind ``failed``.

A workload is built from the benchmark seed alone.  ``setup`` builds the
problem of every config (the part ``setup_s`` measures).  ``plan`` lists
the operations of one pass of the timed section; ``run_ops`` runs them in
order and times each one.  Output checks run
after the pass, outside its timing, and mark an operation failed when its
output is wrong or cannot be checked.

``amoo`` must already be importable (``run.py`` puts the checkout's
``src`` first on ``sys.path``).  Every call into ``amoo`` goes through a
module attribute looked up at call time, so the tracer's wrappers see it.
"""

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from pathlib import Path

import numpy as np

import amoo.cli
import amoo.core
import amoo.driver
import amoo.problems
import amoo.traceio
import amoo.weighting

# Relative tolerance of steps_to_tol: the step at which the worst objective
# gap first drops below this share of its step-0 value.
TOL_SHARE = 1e-10

# Names of the suites `amoo verify` prints, in order.
VERIFY_SUITES = (
    "recurrence-bounds",
    "diagonal-degradation",
    "self-concordance",
    "bilinear-oracle",
)


class Op:
    """One attempted operation: a descent run, a CLI call or a verify suite."""

    def __init__(self, name: str, fn=None):
        self.name = name
        self.fn = fn
        self.result = None
        self.errors: list[str] = []
        self.seconds = 0.0
        self.ref = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def failed_count(ops) -> int:
    return sum(1 for op in ops if op.failed)


def failed_frac(ops) -> float:
    """Failed operations over attempted operations (0 when none ran)."""
    return failed_count(ops) / len(ops) if ops else 0.0


def guarded(op: Op, fn):
    """Call ``fn``; an exception marks ``op`` failed instead of ending the pass."""
    try:
        return fn()
    except Exception:
        op.errors.append("raised: " + traceback.format_exc(limit=3))
        return None


def run_ops(ops, clock=None) -> list:
    """Run each op's ``fn`` in order and time it.

    With a ``refclock.RefClock`` running, ``op.seconds`` leaves out the
    clock's probe runs and ``op.ref`` is the op's work in probe units.
    """
    for op in ops:
        t0 = time.perf_counter()
        op.result = guarded(op, op.fn)
        t1 = time.perf_counter()
        op.seconds, op.ref = clock.work(t0, t1) if clock else (t1 - t0, 0.0)
    return ops


def check_each(ops, check) -> None:
    """Run ``check(op)`` on every op that has a result; an exception in a
    check (say, an unreadable trace) marks that op failed."""
    for op in ops:
        if op.result is not None:
            guarded(op, lambda op=op: check(op))


def steps_to_tol(steps, f, f_star, budget: int) -> int:
    """First recorded step where max_i(f_i - f_i*) < TOL_SHARE * its step-0 value.

    Returns ``budget`` when no recorded step gets there.  ``f`` is the
    (records, m) matrix of objective values as read from ``trace.csv``.
    """
    gaps = np.max(np.asarray(f, dtype=np.float64) - np.asarray(f_star), axis=1)
    if len(gaps) == 0:
        return budget
    hit = np.nonzero(gaps < TOL_SHARE * gaps[0])[0]
    return int(steps[hit[0]]) if len(hit) else budget


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _same_float(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def readback_mismatch(records, loaded) -> str | None:
    """Compare in-memory records with a trace read back from CSV, bit for bit."""
    if len(records) != len(loaded.steps):
        return f"{len(records)} records, {len(loaded.steps)} rows read back"
    for i, rec in enumerate(records):
        if rec.step != loaded.steps[i]:
            return f"row {i}: step {loaded.steps[i]} != {rec.step}"
        if np.asarray(rec.f, np.float64).tobytes() != loaded.f[i].tobytes():
            return f"row {i}: f differs"
        if np.asarray(rec.w, np.float64).tobytes() != loaded.w[i].tobytes():
            return f"row {i}: w differs"
        for col in ("grad_norm", "residual", "msq", "lambda_min_est", "pu_gap"):
            if not _same_float(getattr(rec, col), getattr(loaded, col)[i]):
                return f"row {i}: {col} differs"
    return None


def check_trace(op: Op, trace, csv_path, f_star) -> dict:
    """Shared output checks of one descent run; returns its quality numbers.

    Checks the ``pu_gap`` of recorded steps; ``check_pu_gaps`` covers every
    solve of a run whose solves were captured.
    """
    final = trace.final() if trace.records else None
    if trace.error is not None or final is None:
        op.errors.append(f"run did not finish: {trace.error}")
        return {}
    if not (np.all(np.isfinite(final.f)) and math.isfinite(final.grad_norm)):
        op.errors.append("final iterate is not finite")
    for rec in trace.records:
        if rec.pu_gap is not None and not rec.pu_gap >= 0.0:
            op.errors.append(f"step {rec.step}: certified pu_gap {rec.pu_gap} < 0")
            break
    loaded = amoo.traceio.read_trace_csv(csv_path)
    mismatch = readback_mismatch(trace.records, loaded)
    if mismatch:
        op.errors.append("trace read-back: " + mismatch)
    quality = {
        "final_step": final.step,
        "worst_gap": float(np.max(np.asarray(final.f) - np.asarray(f_star))),
        "trace_sha256": sha256_file(csv_path),
    }
    if final.msq is not None:
        quality["final_msq"] = final.msq
    if final.residual is not None:
        quality["final_residual"] = final.residual
    return quality


def check_pu_gaps(op: Op, gaps) -> None:
    """Every certified gap of a run's bilinear PU solves must be >= 0."""
    bad = [g for g in gaps if not g >= 0.0]
    if bad:
        op.errors.append(f"{len(bad)} of {len(gaps)} PU solves certified a gap < 0 or NaN")


def call_cli(argv) -> tuple[int, str]:
    """``amoo.cli.main`` in-process, with its printed output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = amoo.cli.main(argv)
    return code, buf.getvalue()


def check_exit(op: Op) -> None:
    """A CLI call that returned must have exited 0."""
    if op.result is not None and op.result[0] != 0:
        op.errors.append(f"exited {op.result[0]}: {op.result[1][-300:]}")


class Workload:
    """Base: subclasses define configs, the timed pass and its checks."""

    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.digests: dict[str, str] = {}
        self.f_star: dict = {}

    def problem_specs(self) -> dict:
        """Problem spec of each config, by config name."""
        return {}

    def setup(self) -> None:
        """Build every config's problem (what setup_s measures beyond imports)."""
        self.f_star = {
            key: np.asarray(amoo.problems.build(spec).optimum.f_star)
            for key, spec in self.problem_specs().items()
        }

    def write_inputs(self) -> None:
        """Write any input files the pass reads (outside the timed section)."""

    def plan(self) -> list[Op]:
        """The operations of one pass, in order."""
        raise NotImplementedError

    def pass_context(self):
        """Context the whole pass runs in."""
        return contextlib.nullcontext()

    def check_pass(self, ops: list[Op]) -> tuple[list[Op], dict]:
        """Check a finished pass; return the counted operations and quality."""
        return ops, {}

    def steps_done(self, ops: list[Op]) -> tuple[int, float]:
        """Descent steps completed in the pass and seconds spent in driver.run."""
        return 0, 0.0

    def summary(self, quality: dict) -> dict:
        """Workload-specific end-to-end numbers from a pass's quality."""
        return {}

    def pin_digest(self, op: Op, key: str, digest: str) -> None:
        """Identical configs must give byte-identical traces on every pass."""
        first = self.digests.setdefault(key, digest)
        if first != digest:
            op.errors.append(f"trace of {key} changed between passes")


# ---------------------------------------------------------------------------
# mlp_matching: the criterion-9 network-matching grid at one seed
# ---------------------------------------------------------------------------

MLP_VARIANTS = ("selection", "local_curvature")
MLP_KINDS = ("ew", "camoo", "pamoo")
MLP_STEPS = 2000


class PuGapCapture:
    """Keeps the certified gap of every bilinear PU solve ``driver.run`` makes.

    ``trace.csv`` holds the gap of recorded steps only (1 in 500 here), so
    checking every solve needs the solver's own results.  Installed for the
    whole pass; one extra call per solve.
    """

    def __init__(self):
        self.gaps: list[float] = []

    @contextlib.contextmanager
    def install(self):
        original = amoo.driver.solve_bilinear_pu

        def capture(*args, **kwargs):
            sol = original(*args, **kwargs)
            self.gaps.append(sol.gap)
            return sol

        amoo.driver.solve_bilinear_pu = capture
        try:
            yield self
        finally:
            amoo.driver.solve_bilinear_pu = original


class MlpMatching(Workload):
    name = "mlp_matching"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        d, w = amoo.driver, amoo.weighting
        weightings = {
            "ew": d.WeightingChoice(kind="ew"),
            "camoo": d.WeightingChoice(
                kind="camoo",
                camoo=w.CamooConfig(
                    mode="diagonal-bilinear", pu_iterations=10, pu_tau=0.01
                ),
            ),
            "pamoo": d.WeightingChoice(kind="pamoo", pamoo=w.PamooConfig(iterations=30)),
        }
        self.configs = {
            f"{variant}/{kind}": d.RunConfig(
                problem=amoo.problems.ProblemSpec(
                    kind="mlp_matching", variant=variant, seed=seed
                ),
                weighting=weightings[kind],
                inner=d.AdamConfig(step=5e-3),
                steps=MLP_STEPS,
                seed=seed,
                record_every=500,
            )
            for variant in MLP_VARIANTS
            for kind in MLP_KINDS
        }
        self.pu = PuGapCapture()

    def problem_specs(self):
        return {key: cfg.problem for key, cfg in self.configs.items()}

    def pass_context(self):
        self.pu = PuGapCapture()
        return self.pu.install()

    def _run(self, cfg):
        """One descent run; returns its trace and the gaps of its PU solves."""
        n = len(self.pu.gaps)
        trace = amoo.driver.run(cfg)
        return trace, self.pu.gaps[n:]

    def plan(self):
        return [Op(key, lambda c=cfg: self._run(c)) for key, cfg in self.configs.items()]

    def check_pass(self, ops):
        quality = {}
        self.out_dir.mkdir(parents=True, exist_ok=True)

        def check(op):
            trace, gaps = op.result
            path = self.out_dir / (op.name.replace("/", "-") + ".csv")
            amoo.traceio.write_trace_csv(trace, path)
            check_pu_gaps(op, gaps)
            q = check_trace(op, trace, path, self.f_star[op.name])
            if not q:
                return
            if not q["final_msq"] > 0.0:
                op.errors.append(f"final msq {q['final_msq']} is not positive")
            self.pin_digest(op, op.name, q["trace_sha256"])
            q["pu_solves_checked"] = len(gaps)
            quality[op.name] = q

        check_each(ops, check)
        return ops, quality

    def steps_done(self, ops):
        done = [op for op in ops if not op.failed]
        return sum(op.result[0].final().step for op in done), sum(op.seconds for op in done)

    def summary(self, quality):
        msqs = [q["final_msq"] for q in quality.values()]
        if len(msqs) != len(self.configs):
            return {}
        return {"msq_final_log10": float(np.mean(np.log10(msqs)))}


# ---------------------------------------------------------------------------
# analytic_cli: four `amoo run` configs through the CLI, each analysed
# ---------------------------------------------------------------------------

CLI_N = 12
CLI_M = 3
# Eigenvalues of each generated Hessian are log-uniform on [EIG_LO, 1].
EIG_LO = 0.1
# Step budgets of runs (a), (b), (c) and (d).  Before it converges, every
# step of (b) runs all 4000 QP iterations and after it almost none, so (b)
# stops before the earliest convergence seen (about step 18) to keep its
# cost the same for every seed; 20 steps is the least that `analyze
# --fit-rate` accepts.
CLI_STEPS = {"a_camoo_exact": 60, "b_pamoo_theory": 20, "c_misaligned": 100, "d_ew_long": 20000}
# Run (d) takes GD steps this much shorter than (a)'s, so that it is still
# converging, not sitting at exactly zero, through its long trace.
EW_STEP_SHARE = 0.01
# The Nelder-Mead search that builds run (c)'s problem takes 0.18 to 0.52 s
# depending on the shifts, up to half of set-up; so (c) uses the same
# N(0, 0.5^2) shifts, drawn from this seed, for every benchmark seed.
MISALIGNED_SHIFTS_SEED = 0
STEPS_TO_TOL_RUNS = ("a_camoo_exact", "b_pamoo_theory", "d_ew_long")


def spd_hessians(seed: int) -> list:
    """CLI_M dense SPD matrices with random eigenbases, drawn from ``seed``."""
    rng = np.random.default_rng([seed, 1])
    mats = []
    for _ in range(CLI_M):
        q, _ = np.linalg.qr(rng.normal(size=(CLI_N, CLI_N)))
        eig = np.exp(rng.uniform(math.log(EIG_LO), 0.0, size=CLI_N))
        h = (q * eig) @ q.T
        mats.append(0.5 * (h + h.T))
    return mats


def cli_docs(seed: int) -> dict:
    """The four run configs of analytic_cli, as the JSON the CLI reads."""
    mats = spd_hessians(seed)
    beta = 2.0 * max(float(np.linalg.eigvalsh(h)[-1]) for h in mats)
    quad = {"kind": "quad_family", "h_list": [h.tolist() for h in mats]}
    shifts = np.random.default_rng([MISALIGNED_SHIFTS_SEED, 2]).normal(
        scale=0.5, size=(CLI_M, CLI_N)
    )
    misaligned = {
        "kind": "misaligned",
        "base": {"kind": "selection", "delta": 0.1, "m": CLI_M, "n": CLI_N},
        "shifts": shifts.tolist(),
    }

    def steps(key, **extra):
        return {"steps": CLI_STEPS[key], "record_every": 1, **extra}

    return {
        "a_camoo_exact": {
            "problem": quad,
            "weighting": {"kind": "camoo", "camoo": {"mode": "exact-eigen"}},
            "inner": {"kind": "gd", "step": 1.0 / beta},
            "run": steps("a_camoo_exact", camoo_lr_scale_by_m=False),
        },
        "b_pamoo_theory": {
            "problem": quad,
            "preset": "pamoo-theory",
            "run": steps("b_pamoo_theory"),
        },
        "c_misaligned": {
            "problem": misaligned,
            "weighting": {"kind": "pamoo"},
            "inner": {"kind": "gd", "step": 0.5},
            "run": steps("c_misaligned"),
        },
        "d_ew_long": {
            "problem": quad,
            "weighting": {"kind": "ew"},
            "inner": {"kind": "gd", "step": EW_STEP_SHARE / beta},
            "run": steps("d_ew_long"),
            "output": {"plot": True},
        },
    }


class RunCapture:
    """Keeps the RunTrace and duration of each ``driver.run`` call the CLI makes.

    The read-back check compares the CSV the CLI wrote with these in-memory
    records.  Installed for the whole pass; one extra call per run.
    """

    def __init__(self):
        self.runs: list = []

    @contextlib.contextmanager
    def install(self):
        original = amoo.driver.run

        def capture(cfg):
            t0 = time.perf_counter()
            trace = None
            try:
                trace = original(cfg)
                return trace
            except amoo.core.NumericError as exc:
                trace = exc.payload
                raise
            finally:
                self.runs.append((trace, time.perf_counter() - t0))

        amoo.driver.run = capture
        try:
            yield self
        finally:
            amoo.driver.run = original


class AnalyticCli(Workload):
    name = "analytic_cli"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.docs = cli_docs(seed)
        self.capture = RunCapture()

    def problem_specs(self):
        return {
            key: amoo.cli.parse_run_config(doc).problem
            for key, doc in self.docs.items()
        }

    def _dir(self, key) -> Path:
        return self.out_dir / key

    def write_inputs(self):
        for key, doc in self.docs.items():
            self._dir(key).mkdir(parents=True, exist_ok=True)
            (self._dir(key) / "config.json").write_text(json.dumps(doc))

    def pass_context(self):
        self.capture = RunCapture()
        return self.capture.install()

    def _run(self, key):
        """`amoo run` on one config; returns (exit code, output, trace, run seconds)."""
        d = self._dir(key)
        n = len(self.capture.runs)
        code, text = call_cli(["run", str(d / "config.json"), "--out-dir", str(d)])
        trace, seconds = self.capture.runs[n] if len(self.capture.runs) > n else (None, 0.0)
        return code, text, trace, seconds

    def plan(self):
        ops = []
        for key in self.docs:
            csv = str(self._dir(key) / "trace.csv")
            ops.append(Op(f"{key}/run", lambda k=key: self._run(k)))
            ops.append(Op(f"{key}/analyze", lambda c=csv: call_cli(["analyze", c, "--fit-rate"])))
        svg = str(self._dir("d_ew_long") / "replot.svg")
        csv = str(self._dir("d_ew_long") / "trace.csv")
        ops.append(Op("d_ew_long/plot", lambda: call_cli(["plot", csv, svg])))
        return ops

    def check_pass(self, ops):
        quality = {}

        def check(op):
            check_exit(op)
            key, _, verb = op.name.partition("/")
            if op.failed or verb != "run":
                return
            trace = op.result[2]
            if trace is None:
                op.errors.append("`amoo run` made no descent run")
                return
            path = self._dir(key) / "trace.csv"
            q = check_trace(op, trace, path, self.f_star[key])
            if not q:
                return
            self.pin_digest(op, key, q["trace_sha256"])
            if key in STEPS_TO_TOL_RUNS:
                loaded = amoo.traceio.read_trace_csv(path)
                q["steps_to_tol"] = steps_to_tol(
                    loaded.steps, loaded.f, self.f_star[key], trace.config.steps
                )
            summary = json.loads((self._dir(key) / "summary.json").read_text())
            q["fitted_rate"] = summary["fitted_rate"]
            quality[key] = q

        check_each(ops, check)
        return ops, quality

    def steps_done(self, ops):
        runs = [op.result for op in ops if op.name.endswith("/run") and not op.failed]
        return sum(r[2].final().step for r in runs), sum(r[3] for r in runs)

    def summary(self, quality):
        if not all(k in quality for k in STEPS_TO_TOL_RUNS):
            return {}
        return {"steps_to_tol": sum(quality[k]["steps_to_tol"] for k in STEPS_TO_TOL_RUNS)}


# ---------------------------------------------------------------------------
# verify: `amoo verify --seed <s>` over a fixed pool of seeds
# ---------------------------------------------------------------------------

# The cost of one `amoo verify` doubles from one seed to another (the
# bilinear suite stops each game at its gap target), which would swamp
# run-to-run spread.  So every pass verifies the same pool of seeds; the
# benchmark seed sets the order.
VERIFY_SEEDS = (0, 1)


class Verify(Workload):
    name = "verify"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        k = seed % len(VERIFY_SEEDS)
        self.verify_seeds = VERIFY_SEEDS[k:] + VERIFY_SEEDS[:k]

    def plan(self):
        return [
            Op(f"seed{vs}", lambda vs=vs: call_cli(["verify", "--seed", str(vs)]))
            for vs in self.verify_seeds
        ]

    def check_pass(self, ops):
        """Each suite of each `amoo verify` call is one counted operation."""
        suites, quality = [], {}
        for call in ops:
            printed = {}
            if call.result is not None:
                for line in call.result[1].splitlines():
                    status, _, rest = line.partition("  ")
                    name, _, detail = rest.partition(": ")
                    printed[name] = (status, detail)
            for suite in VERIFY_SUITES:
                op = Op(f"{call.name}/{suite}")
                op.errors.extend(call.errors)
                status, detail = printed.get(suite, ("MISSING", ""))
                if call.result is not None and status != "PASS":
                    op.errors.append(f"{status} {detail}")
                quality[op.name] = {"status": status, "detail": detail}
                suites.append(op)
            if call.result is not None and call.result[0] != 0:
                for op in suites[-len(VERIFY_SUITES):]:
                    if not op.failed:
                        op.errors.append(f"`amoo verify` exited {call.result[0]}")
        return suites, quality


WORKLOADS = {w.name: w for w in (MlpMatching, AnalyticCli, Verify)}
