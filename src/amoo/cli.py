"""Configuration-driven experiment runner.

Verbs: ``run`` (execute a config, persist trace.csv / summary.json /
plot.svg), ``analyze`` (rate fitting and bound checks on a trace),
``plot`` (emit the SVG), ``list-problems``, and ``verify`` (the bundled
numeric verification suites).  Exit codes: 0 success, 2 configuration or
input error, 3 numeric failure (partial trace still persisted), 1 failed
verification.
"""

import argparse
import dataclasses
import json
import os
import sys
import types
import typing
from pathlib import Path

import numpy as np

from . import analysis, driver, problems, traceio, weighting
from .core import NumericError
from .driver import ConfigurationError
from .plotting import write_trace_svg

_PRESETS = ("camoo-theory", "pamoo-theory", "practical-sgd", "practical-adam")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {value!r}")
    return value


def _convert(tp, value, where: str):
    """Check a JSON value against the annotation ``tp`` and convert it:
    arrays become tuples, objects become dataclasses, numbers become float
    where a float is expected, and must then be finite (Python's ``json``
    reads ``NaN`` and ``Infinity``)."""
    if isinstance(tp, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if tp is problems.ProblemSpec:
        return parse_problem_spec(value, where)
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"{where} must be an array, got {value!r}")
        item = typing.get_args(tp)[0]
        return tuple(_convert(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    json_types = (int, float) if tp is float else tp
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, json_types):
        raise ConfigurationError(f"{where} must be {tp.__name__}, got {value!r}")
    try:
        value = tp(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigurationError(f"{where} is out of the float range") from None
    if tp is float and not np.isfinite(value):
        raise ConfigurationError(f"{where} must be a finite number")
    return value


def _build(cls, section, where: str, keys=None, **given):
    """Build the dataclass ``cls`` from the JSON object ``section``.

    The accepted keys are ``keys`` or else the field names not ``given``.
    An absent key takes the field's default, each value must have the JSON
    type of the field's annotation, and a ValueError from ``cls`` is
    reported as a configuration error that names ``where``.
    """
    section = _object(section, where)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    if keys is None:
        keys = [key for key in fields if key not in given]
    for key in section:
        if key not in keys:
            raise ConfigurationError(f"unknown key {key!r} in {where}")
    hints = typing.get_type_hints(cls)
    values = dict(given)
    for key in keys:
        f = fields[key]
        if key in section:
            values[key] = _convert(hints[key], section[key], f"{where}.{key}")
        elif f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigurationError(f"{where}.{key} is required")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigurationError(f"bad value in {where}: {exc}") from exc


def parse_problem_spec(section: dict, where: str = "problem") -> problems.ProblemSpec:
    kind = _object(section, where).get("kind")
    if kind is None:
        raise ConfigurationError(f"{where}.kind is required")
    if not isinstance(kind, str) or kind not in problems.KINDS:
        raise ConfigurationError(
            f"unknown problem kind {kind!r}; see `amoo list-problems`"
        )
    keys = ("kind", *problems.KINDS[kind].params)
    return _build(problems.ProblemSpec, section, where, keys)


_INNER = {"gd": driver.GDConfig, "adam": driver.AdamConfig}


def _parse_inner(section: dict):
    section = dict(_object(section, "inner"))
    kind = section.pop("kind", "gd")
    if not isinstance(kind, str) or kind not in _INNER:
        raise ConfigurationError(f"unknown inner.kind {kind!r}")
    return _build(_INNER[kind], section, "inner")


def _parse_weighting(section: dict) -> driver.WeightingChoice:
    kind = _object(section, "weighting").get("kind", driver.WEIGHTING_EW)
    if not isinstance(kind, str) or kind not in driver.WEIGHTING_KEYS:
        raise ConfigurationError(f"unknown weighting kind {kind!r}")
    keys = ("kind", *driver.WEIGHTING_KEYS[kind])
    return _build(driver.WeightingChoice, section, "weighting", keys)


def _apply_preset(name: str, problem: problems.ProblemSpec):
    if name == "camoo-theory":
        # misalign keeps its base's constants and m: build only the innermost
        # base here, so driver.run builds each misaligned layer once.
        while problem.kind == "misaligned":
            problem = problem.base
        built = driver.build_problem(problem)
        return driver.theory_camoo(built.meta, built.objectives.m)
    if name == "pamoo-theory":
        return driver.theory_pamoo()
    if name == "practical-sgd":
        return driver.WeightingChoice(kind="ew"), driver.GDConfig(step=5e-4)
    if name == "practical-adam":
        return driver.WeightingChoice(kind="ew"), driver.AdamConfig(step=5e-3)
    raise ConfigurationError(f"unknown preset {name!r}; choose from {_PRESETS}")


def parse_run_config(doc: dict) -> driver.RunConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a JSON object")
    allowed = {"problem", "weighting", "inner", "run", "output", "preset"}
    for key in doc:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {key!r} in config")
    if "problem" not in doc:
        raise ConfigurationError("config section 'problem' is required")
    problem = parse_problem_spec(doc["problem"])

    if "preset" in doc:
        if "weighting" in doc or "inner" in doc:
            raise ConfigurationError(
                "preset replaces the weighting and inner sections; remove them"
            )
        weighting_choice, inner = _apply_preset(doc["preset"], problem)
    else:
        if "inner" not in doc:
            raise ConfigurationError("config section 'inner' is required")
        weighting_choice = _parse_weighting(doc.get("weighting", {}))
        inner = _parse_inner(doc["inner"])

    run_section = doc.get("run", {})
    cfg = _build(
        driver.RunConfig,
        run_section,
        "run",
        problem=problem,
        weighting=weighting_choice,
        inner=inner,
    )
    # No preset scales its step by m; of their runs only camoo-theory's reads the flag.
    if "preset" in doc and "camoo_lr_scale_by_m" not in run_section:
        cfg = dataclasses.replace(cfg, camoo_lr_scale_by_m=False)
    return cfg


def _keys(obj) -> tuple:
    """The keys that the parser reads for the dataclass ``obj``."""
    if isinstance(obj, problems.ProblemSpec):
        return ("kind", *problems.KINDS[obj.kind].params)
    if isinstance(obj, driver.WeightingChoice):
        return ("kind", *driver.WEIGHTING_KEYS[obj.kind])
    return tuple(f.name for f in dataclasses.fields(obj))


def config_document(cfg: driver.RunConfig) -> dict:
    """The config that ``parse_run_config`` reads back as ``cfg``, with only
    the keys that the run reads: a preset's choices are written out as the
    weighting, inner and run settings they stand for."""
    (inner_kind,) = [k for k, tp in _INNER.items() if type(cfg.inner) is tp]
    run = traceio.jsonable(cfg, _keys)
    return {
        "problem": run.pop("problem"),
        "weighting": run.pop("weighting"),
        "inner": {"kind": inner_kind, **run.pop("inner")},
        "run": run,
    }


@dataclasses.dataclass(frozen=True)
class OutputOptions:
    """The ``output`` section: whether to write plot.svg."""

    plot: bool = False


def parse_output_options(doc: dict) -> OutputOptions:
    return _build(OutputOptions, doc.get("output", {}), "output")


def _default_out_dir(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get("AMOO_OUT_DIR", "."))


def _theorem_params(trace, beta, mu, m_self, which) -> analysis.TheoremParams:
    """The envelope constants of ``trace``: its objective count as m and its
    first residual as r0."""
    r0 = trace.residuals()[0][1]
    return analysis.TheoremParams(beta, mu, m_self, trace.m, r0, which)


def _run_verdicts(trace: driver.RunTrace) -> dict:
    """The verdicts of a run that ended without a numeric failure."""
    verdicts: dict = {"finite": True, "theorem_bound": None}
    problem = trace.problem
    meta = problem.meta
    kind = trace.config.weighting.kind
    if (
        kind in ("camoo", "pamoo")
        and meta.beta is not None
        and meta.mu_g is not None
        and meta.m_self is not None
        and problem.optimum.alignment_eps == 0.0  # the envelope assumes exact alignment
    ):
        mu = meta.mu_g if kind == "camoo" else (meta.mu_l or meta.mu_g)
        which = analysis.CAMOO if kind == "camoo" else analysis.PAMOO
        try:
            tp = _theorem_params(trace, meta.beta, mu, meta.m_self, which)
            verdicts["theorem_bound"] = analysis.theorem_bound_check(trace, tp)
        except ValueError:
            pass
    return verdicts


def cmd_run(config_path: str, out_dir: str | None) -> int:
    try:
        with open(config_path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {config_path}: {exc}")
        return 2
    try:
        cfg = parse_run_config(doc)
        out_opts = parse_output_options(doc)
    except ConfigurationError as exc:
        print(f"config error: {exc}")
        return 2

    code = 0
    try:
        trace = driver.run(cfg)
    except NumericError as exc:
        trace = exc.payload
        code = 3
        print(f"numeric failure: {exc}")
        if trace is None:
            return code
    except ConfigurationError as exc:
        print(f"config error: {exc}")
        return 2

    # Created only once there is a trace, so a config error leaves nothing.
    out = _default_out_dir(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traceio.write_trace_csv(trace, out / "trace.csv")
    fitted = None
    if code == 0:
        try:
            fitted = analysis.fit_rate(trace)
        except ValueError:
            fitted = None
    verdicts = _run_verdicts(trace) if code == 0 else {"finite": False}
    traceio.write_summary_json(
        traceio.summary_dict(trace, config_document(cfg), fitted, verdicts),
        out / "summary.json",
    )
    if out_opts.plot and trace.records:
        write_trace_svg(trace, out / "plot.svg")
    last = f", final step {trace.final().step}" if trace.records else ""
    print(f"wrote {out / 'trace.csv'} ({len(trace.records)} records{last})")
    return code


def cmd_analyze(trace_path: str, fit: bool = False, theorem: dict | None = None) -> int:
    try:
        trace = traceio.read_trace_csv(trace_path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {trace_path}: {exc}")
        return 2
    report = {}
    if fit:
        try:
            report["fitted_rate"] = analysis.fit_rate(trace)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
    if theorem is not None:
        if not trace.residuals():
            print(f"error: trace {trace_path} has no residuals to check")
            return 2
        try:
            tp = _theorem_params(trace, **theorem)
            report["theorem_bound"] = analysis.theorem_bound_check(trace, tp)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
    print(traceio.to_json(report))
    return 0


def cmd_plot(trace_path: str, out_path: str) -> int:
    try:
        trace = traceio.read_trace_csv(trace_path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {trace_path}: {exc}")
        return 2
    if not trace.steps:
        print(f"error: trace {trace_path} has no records to plot")
        return 2
    write_trace_svg(trace, out_path)
    print(f"wrote {out_path}")
    return 0


def cmd_list_problems() -> int:
    for kind, entry in problems.KINDS.items():
        print(f"{kind:18s} {entry.summary} ({', '.join(entry.params)})")
    return 0


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _suite_recurrence() -> tuple[bool, str]:
    failures = 0
    total = 0
    for a1 in (0.1, 0.5, 1.5):
        for a2 in (0.0, 1.0, 10.0):
            for r0 in (0.1, 1.0, 100.0):
                total += 2
                p = analysis.RecurrenceParams(
                    alpha1=a1, alpha2=a2, r0=r0, horizon=1000
                )
                _, _, holds = analysis.recurrence_simulate_and_bound(p, "exact")
                failures += 0 if holds else 1
                a3, a4 = analysis.max_admissible_noise(a1, a2)
                p_eps = analysis.RecurrenceParams(
                    alpha1=a1, alpha2=a2, alpha3=a3, alpha4=a4, r0=r0,
                    horizon=1000,
                )
                _, _, holds = analysis.recurrence_simulate_and_bound(p_eps, "eps")
                failures += 0 if holds else 1
    return failures == 0, f"{total - failures}/{total} grid points hold"


def _suite_weyl(seed: int) -> tuple[bool, str]:
    report = analysis.weyl_degradation_suite(seed=seed, trials=100)
    return (
        report["passes"] == report["trials"],
        f"{report['passes']}/{report['trials']} trials pass",
    )


def _suite_self_concordance() -> tuple[bool, str]:
    """Each shipped problem at its recorded ``m_self``: ``local_curvature``
    (n = 1, both objectives) at 20 point pairs inside the |x| <= 2 region its
    constants claim, and the identity ``quad_family`` at 20 random pairs."""
    curved = problems.build(problems.ProblemSpec("local_curvature", n=1))
    identity = ((1.0, 0.0), (0.0, 1.0))
    quad = problems.build(problems.ProblemSpec("quad_family", h_list=(identity,)))
    grid = [(x, y) for x in (-1.0, 0.0, 0.5, 1.5) for y in (-1.5, -0.3, 0.0, 1.0, 2.0)]
    pairs = [(curved, [x], [y]) for x, y in grid]
    rng = np.random.default_rng(7)
    pairs += [(quad, rng.normal(size=2), rng.normal(size=2)) for _ in range(20)]
    holds = sum(
        analysis.self_concordance_check(p.objectives, x, y, p.meta.m_self)
        for p, x, y in pairs
    )
    return holds == len(pairs), f"{holds}/{len(pairs)} inequalities hold"


def _suite_bilinear(seed: int) -> tuple[bool, str]:
    """Each game's LP solution, certified by weak duality: for w and q on
    the simplex, max(Aq) - min(A'w) bounds both players' suboptimality.  The
    5 x 8 games take the LP's HiGHS path, the 2 x 6 games its closed form."""
    rng = np.random.default_rng(seed)
    fails = 0
    for shape in (20, 5, 8), (10, 2, 6):
        for A in rng.uniform(0.0, 3.0, size=shape):
            w, _, q = weighting.max_min_weights(A)
            gap = np.max(A @ q) - np.min(A.T @ w)
            simplex = all(
                v.min() >= -1e-9 and abs(v.sum() - 1.0) <= 1e-9 for v in (w, q)
            )
            fails += not (simplex and gap <= 1e-9 * (1.0 + np.abs(A).max()))
    return fails == 0, f"{30 - fails}/30 games solved to tolerance"


def cmd_verify(seed: int = 0) -> int:
    suites = [
        ("recurrence-bounds", lambda: _suite_recurrence()),
        ("diagonal-degradation", lambda: _suite_weyl(seed)),
        ("self-concordance", lambda: _suite_self_concordance()),
        ("bilinear-oracle", lambda: _suite_bilinear(seed)),
    ]
    all_ok = True
    for name, fn in suites:
        ok, detail = fn()
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amoo",
        description="Adaptive loss weighting for aligned multi-objective descent",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default=None, help="default $AMOO_OUT_DIR or .")

    p_an = sub.add_parser("analyze", help="rate fitting and bound checks")
    p_an.add_argument("trace")
    p_an.add_argument("--fit-rate", action="store_true")
    p_an.add_argument("--theorem-check", action="store_true")
    p_an.add_argument("--beta", type=float)
    p_an.add_argument("--mu", type=float)
    p_an.add_argument("--m-self", type=float, default=0.0)
    p_an.add_argument("--which", choices=["CAMOO", "PAMOO"], default="CAMOO")

    p_plot = sub.add_parser("plot", help="emit an SVG of a trace")
    p_plot.add_argument("trace")
    p_plot.add_argument("output")

    sub.add_parser("list-problems", help="list buildable problem kinds")

    p_ver = sub.add_parser("verify", help="run the numeric verification suites")
    p_ver.add_argument("--seed", type=_nonnegative_int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out_dir)
    if args.command == "analyze":
        theorem = None
        if args.theorem_check:
            if args.beta is None or args.mu is None:
                print("error: --theorem-check needs --beta and --mu")
                return 2
            theorem = {
                "beta": args.beta,
                "mu": args.mu,
                "m_self": args.m_self,
                "which": args.which,
            }
        return cmd_analyze(args.trace, fit=args.fit_rate, theorem=theorem)
    if args.command == "plot":
        return cmd_plot(args.trace, args.output)
    if args.command == "list-problems":
        return cmd_list_problems()
    if args.command == "verify":
        return cmd_verify(args.seed)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
