"""Weighted gradient-descent driver.

Each iteration asks a weight optimizer for objective weights at the current
iterate, forms the weighted gradient, and applies one inner update (plain
gradient descent or Adam).  ``_weigher`` is the one place that dispatches on
the weighting kind, once per run.  Each recorded step fills one row of the
columns of a RunTrace.  Runs are strictly sequential and deterministic given the
config.
"""

import functools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import problems
from .core import Array, NumericError, _finite, weighted_gradient
from .hessians import DiagHessianTracker, HutchinsonConfig
from .weighting import (
    MODE_EXACT,
    PAMOO_MAX_M,
    CamooConfig,
    PamooConfig,
    _pamoo_solve,
    equal_weights,
    pamoo_context,
    # No rule calls these two, but perfbench/layers.py wraps both names here,
    # and workloads.py the game solver on every mlp_matching pass.
    pamoo_weights,  # noqa: F401
    solve_bilinear_pu,  # noqa: F401
    solve_camoo_diagonal,
    solve_camoo_exact,
)


class ConfigurationError(ValueError):
    """A run configuration is inconsistent or incomplete."""


@dataclass(frozen=True)
class GDConfig:
    step: float

    def __post_init__(self):
        if not 0 < self.step < np.inf:
            raise ConfigurationError("GD step must be finite and positive")


# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults).
ADAM_B1 = 0.9
ADAM_B2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AdamConfig:
    step: float

    def __post_init__(self):
        if not 0 < self.step < np.inf:
            raise ConfigurationError("Adam step must be finite and positive")


@dataclass(frozen=True)
class AdamState:
    x: Array
    m1: Array
    m2: Array
    t: int = 0


def step_gd(x: Array, g: Array, step: float) -> Array:
    """One plain gradient step x - step * g."""
    g = np.asarray(g, dtype=np.float64)
    return np.asarray(x, dtype=np.float64) - step * g


def adam_init(x: Array) -> AdamState:
    x = np.asarray(x, dtype=np.float64)
    return AdamState(x=x, m1=np.zeros_like(x), m2=np.zeros_like(x), t=0)


def step_adam(state: AdamState, g: Array, lr: float):
    """One Adam update with bias correction; returns (new_state, new_x)."""
    g = np.asarray(g, dtype=np.float64)
    t = state.t + 1
    # m1 = b1 m1 + (1 - b1) g, m2 = b2 m2 + (1 - b2) g g and x - lr m1_hat /
    # (sqrt(m2_hat) + eps) in that operation order, in place on fresh arrays:
    # the previous state's arrays are only read.
    m1 = ADAM_B1 * state.m1
    tmp = (1.0 - ADAM_B1) * g
    m1 += tmp
    m2 = ADAM_B2 * state.m2
    np.multiply(1.0 - ADAM_B2, g, out=tmp)
    tmp *= g
    m2 += tmp
    step_x = np.divide(m1, 1.0 - ADAM_B1**t)
    step_x *= lr
    np.divide(m2, 1.0 - ADAM_B2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    step_x /= tmp
    x = np.subtract(state.x, step_x, out=step_x)
    return AdamState(x=x, m1=m1, m2=m2, t=t), x


WEIGHTING_EW = "ew"
WEIGHTING_CAMOO = "camoo"
WEIGHTING_PAMOO = "pamoo"
WEIGHTING_FIXED = "fixed"


# The keys of the ``weighting`` section that each kind reads besides ``kind``.
WEIGHTING_KEYS = {
    WEIGHTING_EW: (),
    WEIGHTING_FIXED: ("weights",),
    WEIGHTING_CAMOO: ("camoo", "hutchinson"),
    WEIGHTING_PAMOO: ("pamoo",),
}


@dataclass(frozen=True)
class WeightingChoice:
    """Which weight optimizer to run and with what settings; each kind reads
    the fields that ``WEIGHTING_KEYS`` names.  Diagonal CAMOO estimates its
    Hessian diagonals by Hutchinson probes if ``hutchinson`` is given."""

    kind: str = WEIGHTING_EW
    camoo: CamooConfig = field(default_factory=CamooConfig)
    pamoo: PamooConfig = field(default_factory=PamooConfig)
    weights: tuple[float, ...] = ()
    hutchinson: HutchinsonConfig | None = None

    def __post_init__(self):
        if self.kind not in WEIGHTING_KEYS:
            raise ConfigurationError(f"unknown weighting kind {self.kind!r}")
        if self.kind == WEIGHTING_FIXED and len(self.weights) == 0:
            raise ConfigurationError("fixed weighting needs weights")


@dataclass(frozen=True)
class RunConfig:
    problem: problems.ProblemSpec
    weighting: WeightingChoice
    inner: GDConfig | AdamConfig
    steps: int
    seed: int = 0
    record_every: int = 1
    camoo_lr_scale_by_m: bool = True
    x0: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigurationError("steps must be nonnegative")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be positive")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")


@dataclass(frozen=True)
class IterateRecord:
    step: int
    f: Array
    w: Array
    grad_norm: float
    residual: float | None = None
    msq: float | None = None
    mnorm: float | None = None
    lambda_min_est: float | None = None
    pu_gap: float | None = None


@dataclass
class RunTrace:
    """A run's recorded steps by column, row i for the i-th recorded step:
    ``f`` and ``w`` are (rows, m) float64 arrays, each other quantity a list
    with None where a row lacks it."""

    steps: list
    f: np.ndarray
    w: np.ndarray
    grad_norm: list
    residual: list
    msq: list
    lambda_min_est: list
    pu_gap: list
    mnorm: list
    config: RunConfig | None
    wall_time: float = 0.0
    error: str | None = None
    problem: problems.Problem | None = None

    @property
    def m(self) -> int:
        return self.f.shape[1]

    def _row(self, i: int) -> IterateRecord:
        return IterateRecord(
            self.steps[i], self.f[i], self.w[i], self.grad_norm[i], self.residual[i],
            self.msq[i], self.mnorm[i], self.lambda_min_est[i], self.pu_gap[i],
        )

    def final(self) -> IterateRecord:
        return self._row(-1)

    # Only perfbench/ reads the rows; this view goes with the benchmark's
    # rebind (ROADMAP item 1).  A cached list, so an edit to a row is what a
    # later read of the view sees.
    @functools.cached_property
    def records(self) -> list:
        return [self._row(i) for i in range(len(self.steps))]

    def residuals(self):
        return [(s, r) for s, r in zip(self.steps, self.residual) if r is not None]


def _norm(v: Array) -> float:
    """np.linalg.norm(v) of a 1-D float64 v, by its formula, without its overhead."""
    return math.sqrt(v.dot(v))


def _mixed_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def build_problem(spec: problems.ProblemSpec) -> problems.Problem:
    """``problems.build``, reporting a spec its builder rejects as a
    ConfigurationError."""
    try:
        return problems.build(spec)
    except ValueError as exc:
        raise ConfigurationError(f"bad value in problem: {exc}") from exc


def _weigher(cfg: RunConfig, problem: problems.Problem):
    """The run's weight rule as ``weigh(fvals, J, diag, hessians, x) ->
    (weights, lambda_min_est, pu_gap)``, from one ``ObjectiveSet.evaluate(x)``.

    The settings are checked against the problem here, before the first step:
    PAMOO takes at most PAMOO_MAX_M objectives; exact CAMOO needs the set's
    Hessians; ``hutchinson`` in exact mode, which the rule would not read, is
    rejected.  CAMOO warm starts each solve from the previous solve's cuts,
    PAMOO from its held set and checks only that J J' did not overflow.
    """
    objs = problem.objectives
    m = objs.m
    wc = cfg.weighting

    if wc.kind == WEIGHTING_PAMOO:
        if m > PAMOO_MAX_M:
            raise ConfigurationError(f"pamoo takes at most {PAMOO_MAX_M} objectives")

        held = None

        def weigh_pamoo(fvals, J, diag, hessians, x):
            nonlocal held
            gaps, gram = pamoo_context(fvals, J)
            if not _finite(gram):
                raise NumericError("PAMOO Gram matrix has non-finite entries")
            w, held = _pamoo_solve(gaps, gram, wc.pamoo, held)
            return w, None, None

        return weigh_pamoo

    if wc.kind == WEIGHTING_CAMOO:
        camoo = wc.camoo
        if m * camoo.w_min > 1.0 + 1e-12:
            raise ConfigurationError(
                f"bad value in weighting.camoo: floored simplex infeasible: "
                f"{m} objectives * w_min {camoo.w_min} > 1"
            )
        probes = wc.hutchinson
        if camoo.mode == MODE_EXACT:
            if not objs.has_hessians:
                raise ConfigurationError(
                    f"weighting.camoo.mode {camoo.mode!r} needs every objective's "
                    "Hessian, which this problem does not give"
                )
            if probes is not None:
                raise ConfigurationError(
                    "weighting.hutchinson is read only in diagonal-bilinear mode"
                )
            solve, curvature = solve_camoo_exact, lambda diag, hessians, x: hessians()
        elif probes is None:
            solve, curvature = solve_camoo_diagonal, lambda diag, hessians, x: diag()
        else:
            tracker = DiagHessianTracker(
                replace(probes, rng_seed=_mixed_seed(cfg.seed, probes.rng_seed))
            )
            solve = solve_camoo_diagonal
            curvature = lambda diag, hessians, x: tracker.update(objs, x)  # noqa: E731

        warm = None

        def weigh_camoo(fvals, J, diag, hessians, x):
            nonlocal warm
            result = solve(curvature(diag, hessians, x), camoo, warm=warm)
            warm = result.cuts
            return result.weights, result.value, result.gap

        return weigh_camoo

    if wc.kind == WEIGHTING_EW:
        const_w = equal_weights(m)
    else:
        if len(wc.weights) != m:
            raise ConfigurationError(
                f"weighting has {len(wc.weights)} fixed weights "
                f"for {m} objectives"
            )
        const_w = np.array(wc.weights, dtype=np.float64)
        if not (np.isfinite(const_w).all() and (const_w >= 0).all()):
            raise ConfigurationError(
                f"bad fixed weights in weighting: they must be finite and "
                f"nonnegative, got {const_w}"
            )
        if not const_w.sum() > 0:
            raise ConfigurationError("bad fixed weights in weighting: they sum to 0")
    return lambda fvals, J, diag, hessians, x: (const_w, None, None)


def run(cfg: RunConfig) -> RunTrace:
    """Execute the weighted descent loop and return its trace.

    Records are written at step 0, every ``record_every`` steps, and at the
    final iterate; each record holds the metrics at x_k together with the
    weights computed there.  With CAMOO and ``camoo_lr_scale_by_m`` set, the
    inner step is multiplied by m; every rule's weights sum to 1 (equal
    weights are 1/m), so CAMOO then steps m times farther than EW or PAMOO.
    Values, gradients, Hessian diagonals and Hessians come from one
    ``ObjectiveSet.evaluate`` call per iterate, shared by the weight rule and
    the inner step; diagonal CAMOO forms the diagonals, unless Hutchinson
    estimates replace them, and exact CAMOO the Hessians, from that pass.
    CAMOO records its solve's value as ``lambda_min_est`` and its certified gap as
    ``pu_gap``: Kelley's gap in exact mode (``weighting.solve_camoo_exact``),
    the exact column-generation gap in diagonal mode
    (``weighting.solve_camoo_diagonal``).  x0's shape is checked once,
    before the first step, and the gradient norm and residual are computed
    only for recorded steps.  A NaN or Inf in the iterate, a value or the
    weighted gradient, or a NumericError from the weight rule, aborts the run
    with a NumericError whose payload is the trace up to the failure.
    The trace carries the built problem.  A problem spec that its builder
    rejects, or settings that do not fit the problem or would not be read,
    raise ConfigurationError before the first step; an uncertified
    misaligned reference point raises NumericError without a payload.
    """
    t_start = time.perf_counter()
    problem = build_problem(cfg.problem)
    objs = problem.objectives
    wc = cfg.weighting

    x = np.array(cfg.x0, dtype=np.float64) if cfg.x0 is not None else np.array(
        problem.x0
    )
    if x.shape != (objs.dim,):
        raise ConfigurationError(
            f"x0 has shape {x.shape}, problem dimension is {objs.dim}"
        )
    weigh = _weigher(cfg, problem)
    scale = float(objs.m) if wc.kind == WEIGHTING_CAMOO and cfg.camoo_lr_scale_by_m else 1.0
    inner_step = cfg.inner.step * scale

    x_star = problem.optimum.x_star
    adam_state = adam_init(x) if isinstance(cfg.inner, AdamConfig) else None
    # One row for step 0, each record_every-th step and the final step.  Each
    # recorded f and w is copied into its row, so no solver array outlives
    # its step.
    rows = len(range(0, cfg.steps + 1, cfg.record_every)) + (cfg.steps % cfg.record_every != 0)
    f_col, w_col = np.empty((rows, objs.m)), np.empty((rows, objs.m))
    steps, grad_norm, residual, msq, mnorm, lambda_min_est, pu_gap = ([] for _ in range(7))

    def trace(error: str | None = None) -> RunTrace:
        n = len(steps)
        return RunTrace(
            steps, f_col[:n], w_col[:n], grad_norm, residual, msq, lambda_min_est,
            pu_gap, mnorm, cfg, time.perf_counter() - t_start, error, problem,
        )

    def fail(message: str, step: int) -> NumericError:
        error = f"step {step}: {message}"
        return NumericError(error, payload=trace(error))

    for k in range(cfg.steps + 1):
        if not _finite(x):
            raise fail("non-finite iterate", k)
        fvals, J, diag, hessians = objs.evaluate(x)
        if not _finite(fvals):
            raise fail("non-finite objective value", k)
        try:
            w, lambda_est, gap = weigh(fvals, J, diag, hessians, x)
        except NumericError as exc:
            raise fail(str(exc), k) from exc

        g = weighted_gradient(J, w)
        gg = g.dot(g)  # _finite(g), keeping g·g for grad_norm
        if not (math.isfinite(gg) or np.isfinite(g).all()):
            raise fail("non-finite gradient", k)

        if k % cfg.record_every == 0 or k == cfg.steps:
            msq_k = mnorm_k = None
            if problem.mismatch is not None:
                msq_k, mnorm_k = problem.mismatch(x)
            f_col[len(steps)] = fvals
            w_col[len(steps)] = w
            steps.append(k)
            grad_norm.append(math.sqrt(gg))
            residual.append(_norm(x - x_star))
            msq.append(msq_k)
            mnorm.append(mnorm_k)
            lambda_min_est.append(lambda_est)
            pu_gap.append(gap)

        if k == cfg.steps:
            break

        if adam_state is None:
            x = step_gd(x, g, inner_step)
        else:
            adam_state, x = step_adam(adam_state, g, inner_step)

    return trace()


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def theory_camoo(meta: problems.ProblemMeta, m: int) -> tuple[WeightingChoice, GDConfig]:
    """Curvature-adaptive settings matching the convergence analysis.

    Step 1/(2 beta), simplex floor mu_G / (8 m beta), no step scaling by m
    (set ``camoo_lr_scale_by_m=False`` on the run config).
    """
    if meta.beta is None or meta.mu_g is None:
        raise ConfigurationError("theory preset needs known beta and mu_G")
    w_min = meta.mu_g / (8.0 * m * meta.beta)
    weighting = WeightingChoice(
        kind=WEIGHTING_CAMOO,
        camoo=CamooConfig(mode=MODE_EXACT, w_min=w_min),
    )
    return weighting, GDConfig(step=1.0 / (2.0 * meta.beta))


def theory_pamoo() -> tuple[WeightingChoice, GDConfig]:
    """Polyak-style settings matching the convergence analysis: step 1,
    unregularized inner problem on the nonnegative orthant, solved exactly."""
    weighting = WeightingChoice(
        kind=WEIGHTING_PAMOO, pamoo=PamooConfig(clip_floor=0.0, gram_tau=0.0)
    )
    return weighting, GDConfig(step=1.0)
