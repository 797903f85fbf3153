"""Command-line verbs, config validation, trace persistence, plotting."""

import dataclasses
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from amoo import analysis, cli, driver, problems, traceio, weighting
from amoo.core import ObjectiveSet, OptimalInfo
from amoo.driver import (
    AdamConfig,
    ConfigurationError,
    GDConfig,
    RunConfig,
    WeightingChoice,
)
from amoo.hessians import HutchinsonConfig
from amoo.plotting import trace_svg
from amoo.problems import ProblemSpec
from amoo.weighting import CamooConfig, PamooConfig
from test_golden_traces import CONFIGS as GOLDEN_CONFIGS
from test_trace_bytes import reference_write_trace_csv
from traces import column_trace


VALID_CONFIG = {
    "problem": {"kind": "specification", "delta": 0.1},
    "weighting": {"kind": "ew"},
    "inner": {"kind": "gd", "step": 0.25},
    "run": {"steps": 50, "x0": [1.0, 1.0]},
    "output": {"plot": True},
}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def make_trace(steps=30, step=0.25, weighting=None, problem=None):
    return driver.run(
        RunConfig(
            problem=problem or ProblemSpec(kind="specification", delta=0.1),
            weighting=weighting or WeightingChoice(kind="ew"),
            inner=GDConfig(step=step),
            steps=steps,
            x0=(1.0, 1.0),
        )
    )


class TestRunCommand:
    def test_valid_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID_CONFIG)
        out = tmp_path / "out"
        assert cli.cmd_run(cfg, str(out)) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "step,f_1,f_2,w_1,w_2,grad_norm,residual,msq,lambda_min_est,pu_gap"
        assert len(lines) == 52  # header + steps 0..50
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final"]["residual"] <= 1e-5
        assert summary["error"] is None
        assert "verdicts" in summary and summary["verdicts"]["finite"]
        assert (out / "plot.svg").exists()

    def test_unknown_key_names_it(self, tmp_path, capsys):
        doc = dict(VALID_CONFIG)
        doc["run"] = {"steps": 5, "lr_sched": "cosine"}
        code = cli.cmd_run(write_config(tmp_path, doc), str(tmp_path / "o"))
        assert code == 2
        assert "lr_sched" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["supergrad_iterations", "supergrad_step"])
    def test_removed_exact_mode_knobs_are_unknown_keys(self, tmp_path, capsys, key):
        # Exact mode solves to a certified gap; its old loop's knobs are gone.
        doc = {**VALID_CONFIG, "weighting": {"kind": "camoo", "camoo": {key: 1}}}
        out = tmp_path / "o"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 2
        assert f"unknown key {key!r} in weighting.camoo" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,values",
        [
            ("camoo", {"mode": "bogus"}),
            ("pamoo", {"gram_tau": -1.0}),
            ("hutchinson", {"num_samples": 0}),
            ("camoo", {"w_min": -0.01}),
            ("camoo", {"w_min": float("nan")}),
            ("pamoo", {"clip_floor": -1e-6}),
            ("pamoo", {"clip_floor": float("nan")}),
        ],
    )
    def test_rejected_weighting_value_names_section(
        self, tmp_path, capsys, section, values
    ):
        kind = {"camoo": "camoo", "hutchinson": "camoo", "pamoo": "pamoo"}[section]
        doc = dict(VALID_CONFIG)
        doc["weighting"] = {"kind": kind, section: values}
        code = cli.cmd_run(write_config(tmp_path, doc), str(tmp_path / "o"))
        assert code == 2
        assert f"weighting.{section}" in capsys.readouterr().out

    @pytest.mark.parametrize("where", ["run", "weighting.hutchinson"])
    def test_negative_seed_exits_2_naming_its_section(self, tmp_path, capsys, where):
        seeds = {"run": 0, "weighting.hutchinson": 0, where: -1}
        doc = {
            **VALID_CONFIG,
            "weighting": {
                "kind": "camoo",
                "camoo": {"mode": "diagonal-bilinear"},
                "hutchinson": {"rng_seed": seeds["weighting.hutchinson"]},
            },
            "run": {"steps": 5, "seed": seeds["run"]},
        }
        code = cli.cmd_run(write_config(tmp_path, doc), str(tmp_path / "o"))
        text = capsys.readouterr().out
        assert code == 2
        assert f"bad value in {where}" in text and "nonnegative" in text

    @pytest.mark.parametrize(
        "section,value",
        [
            ("output", {"plot": "false"}),
            ("weighting", {"kind": "camoo", "hutchinson": "no"}),
            ("run", {"steps": 2.9}),
            ("run", {"steps": True}),
            ("run", {"steps": 5, "x0": "ab"}),
            ("run", [1, 2]),
        ],
    )
    def test_json_types_checked(self, tmp_path, capsys, section, value):
        doc = {**VALID_CONFIG, section: value}
        out = tmp_path / "o"
        code = cli.cmd_run(write_config(tmp_path, doc), str(out))
        text = capsys.readouterr().out
        assert code == 2
        assert "config error" in text and section in text and "must be" in text
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize(
        "section,value,preset",
        [
            ("problem", {"kind": "selection", "m": 1}, None),
            ("problem", {"kind": "specification", "delta": 0.9}, None),
            ("problem", {"kind": "specification", "delta": 10**400}, None),
            ("problem", {"kind": "mlp_matching", "activation": "tanh"}, None),
            ("weighting", {"kind": "fixed", "weights": [1.0]}, None),
            ("problem", {"kind": "selection", "m": 1}, "camoo-theory"),
            ("weighting", {"kind": "fixed", "weights": [1.0, -1.0]}, None),
            ("weighting", {"kind": "fixed", "weights": [float("nan"), 1.0]}, None),
        ],
    )
    def test_invalid_problem_or_weights_exit_2(
        self, tmp_path, capsys, section, value, preset
    ):
        doc = {**VALID_CONFIG, "run": {"steps": 5}, section: value}
        if preset is not None:
            del doc["weighting"], doc["inner"]
            doc["preset"] = preset
        code = cli.cmd_run(write_config(tmp_path, doc), str(tmp_path / "o"))
        text = capsys.readouterr().out
        assert code == 2
        assert "config error" in text and section in text

    @pytest.mark.parametrize("mode", ["exact-eigen", "diagonal-bilinear"])
    def test_infeasible_camoo_floor_exits_2(self, tmp_path, capsys, monkeypatch, mode):
        monkeypatch.setattr(ObjectiveSet, "evaluate", lambda *a: pytest.fail("stepped"))
        doc = {
            **VALID_CONFIG,
            "problem": {"kind": "selection", "m": 3},
            "weighting": {"kind": "camoo", "camoo": {"mode": mode, "w_min": 0.5}},
            "run": {"steps": 5},
        }
        out = tmp_path / "o"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 2
        text = capsys.readouterr().out
        assert "config error" in text and "weighting.camoo" in text
        assert not out.exists()

    def test_non_finite_f_star_override_exits_2(self, tmp_path, capsys, monkeypatch):
        # PAMOO reads the problem's recorded f*; no config key sets it.
        monkeypatch.setattr(ObjectiveSet, "evaluate", lambda *a: pytest.fail("stepped"))
        doc = {
            **VALID_CONFIG,
            "weighting": {"kind": "pamoo"},
            "run": {"steps": 5, "f_star_override": [float("nan"), 0.0]},
        }
        out = tmp_path / "o"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 2
        text = capsys.readouterr().out
        assert "config error: unknown key 'f_star_override' in run" in text
        assert not out.exists()

    def test_all_zero_fixed_weights_exit_2(self, tmp_path, capsys, monkeypatch):
        # Zero weights give a zero gradient: the iterate would never move.
        monkeypatch.setattr(ObjectiveSet, "evaluate", lambda *a: pytest.fail("stepped"))
        doc = {
            **VALID_CONFIG,
            "weighting": {"kind": "fixed", "weights": [0, 0]},
            "run": {"steps": 20},
        }
        out = tmp_path / "o"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 2
        text = capsys.readouterr().out
        assert "config error" in text and "weighting" in text
        assert not out.exists()

    @pytest.mark.parametrize("override", [[0.0, 0.0, 0.0], [0.0, float("inf")]])
    @pytest.mark.parametrize(
        "weighting",
        [
            {"kind": "ew"},
            {"kind": "fixed", "weights": [0.5, 0.5]},
            {"kind": "camoo"},
            {"kind": "camoo", "camoo": {"mode": "diagonal-bilinear"}},
            {"kind": "pamoo"},
        ],
    )
    def test_bad_f_star_override_exits_2_for_every_weighting(
        self, tmp_path, capsys, monkeypatch, weighting, override
    ):
        monkeypatch.setattr(ObjectiveSet, "evaluate", lambda *a: pytest.fail("stepped"))
        doc = {
            **VALID_CONFIG,
            "weighting": weighting,
            "run": {"steps": 5, "f_star_override": override},
        }
        out = tmp_path / "o"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 2
        text = capsys.readouterr().out
        assert "config error: unknown key 'f_star_override' in run" in text
        assert not out.exists()

    def test_run_config_error_leaves_no_out_dir(self, tmp_path, capsys):
        doc = {
            "problem": {"kind": "selection", "m": 1},
            "inner": {"step": 0.1},
            "run": {"steps": 1},
        }
        out = tmp_path / "od" / "x"
        code = cli.cmd_run(write_config(tmp_path, doc), str(out))
        assert code == 2
        assert "config error" in capsys.readouterr().out
        assert not out.exists() and not out.parent.exists()

    # Python's json reads NaN and Infinity; these used to get past the checks
    # and fail later as a numeric error (exit 3) or a traceback (exit 1).
    @pytest.mark.parametrize(
        "key,changes",
        [
            ("inner.step", {"inner": {"kind": "gd", "step": float("nan")}}),
            # b1 is an Adam constant now, and so an unknown key.
            ("b1", {"inner": {"kind": "adam", "step": 0.01, "b1": 1.0}}),
            ("run.x0", {"run": {"steps": 5, "x0": [float("nan"), 1.0]}}),
            (
                "weighting.camoo.w_min",
                {
                    "weighting": {
                        "kind": "camoo",
                        "camoo": {"mode": "diagonal-bilinear", "w_min": float("inf")},
                    }
                },
            ),
            (
                "weighting.pamoo.gram_tau",
                {"weighting": {"kind": "pamoo", "pamoo": {"gram_tau": float("inf")}}},
            ),
            # Once accepted and swallowed as a null fitted rate after the run;
            # the setting is gone now, and so is an unknown key.
            ("fit_rate_tail", {"output": {"fit_rate_tail": 1.5}}),
        ],
    )
    def test_non_finite_or_bad_adam_value_exits_2(self, tmp_path, capsys, key, changes):
        doc = {**VALID_CONFIG, **changes}
        out = tmp_path / "o"
        code = cli.cmd_run(write_config(tmp_path, doc), str(out))
        text = capsys.readouterr().out
        assert code == 2
        assert "config error" in text and key in text
        assert not out.exists()

    def test_every_key_parses_to_its_field(self):
        doc = {
            "problem": {
                "kind": "misaligned",
                "base": {"kind": "quad_family", "h_list": [[[2, 0], [0, 1]]] * 2},
                "shifts": [[0, 0], [0.5, 0]],
            },
            "weighting": {
                "kind": "camoo",
                "camoo": {"mode": "diagonal-bilinear", "w_min": 0.1},
                "hutchinson": {"num_samples": 3, "rng_seed": 4},
            },
            "inner": {"kind": "adam", "step": 0.1},
            "run": {
                "steps": 3,
                "seed": 5,
                "record_every": 2,
                "camoo_lr_scale_by_m": False,
                "x0": [1, 2],
            },
            "output": {"plot": True},
        }
        base = ProblemSpec(kind="quad_family", h_list=(((2.0, 0.0), (0.0, 1.0)),) * 2)
        assert cli.parse_run_config(doc) == RunConfig(
            problem=ProblemSpec(
                kind="misaligned", base=base, shifts=((0.0, 0.0), (0.5, 0.0))
            ),
            weighting=WeightingChoice(
                kind="camoo",
                camoo=CamooConfig("diagonal-bilinear", 0.1),
                hutchinson=HutchinsonConfig(3, 4),
            ),
            inner=AdamConfig(step=0.1),
            steps=3,
            seed=5,
            record_every=2,
            camoo_lr_scale_by_m=False,
            x0=(1.0, 2.0),
        )
        assert cli.parse_output_options(doc) == cli.OutputOptions(True)
        # The keys of the other weighting kinds.
        doc["weighting"] = {
            "kind": "pamoo",
            "pamoo": {"clip_floor": 0, "gram_tau": 0.5},
        }
        assert cli.parse_run_config(doc).weighting == WeightingChoice(
            kind="pamoo", pamoo=PamooConfig(clip_floor=0.0, gram_tau=0.5)
        )
        doc["weighting"] = {"kind": "fixed", "weights": [1, 0.5]}
        assert cli.parse_run_config(doc).weighting == WeightingChoice(
            kind="fixed", weights=(1.0, 0.5)
        )

    def test_weighting_keys_are_those_of_its_kind(self, tmp_path, capsys):
        values = {"camoo": {}, "hutchinson": {}, "pamoo": {}, "weights": [1, 1]}
        assert set(values) == set().union(*driver.WEIGHTING_KEYS.values())
        for kind, keys in driver.WEIGHTING_KEYS.items():
            for key, value in values.items():
                section = {"kind": kind, key: value}
                if kind == "fixed":
                    section.setdefault("weights", [1, 1])
                doc = {**VALID_CONFIG, "weighting": section}
                if key in keys:
                    assert cli.parse_run_config(doc).weighting.kind == kind
                    continue
                out = tmp_path / f"{kind}-{key}"
                assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 2
                text = capsys.readouterr().out
                assert f"unknown key {key!r} in weighting" in text, (kind, key)
                assert not out.exists()

    @pytest.mark.parametrize(
        "key,where,doc",
        [
            (
                "force_hutchinson",
                "weighting",
                {"weighting": {"kind": "camoo", "force_hutchinson": True}},
            ),
            (
                "fd_step",
                "weighting.hutchinson",
                {"weighting": {"kind": "camoo", "hutchinson": {"fd_step": 1e-3}}},
            ),
            ("b1", "inner", {"inner": {"kind": "adam", "step": 0.01, "b1": 0.8}}),
            ("b2", "inner", {"inner": {"kind": "adam", "step": 0.01, "b2": 0.99}}),
            ("eps", "inner", {"inner": {"kind": "adam", "step": 0.01, "eps": 1e-6}}),
            ("fit_rate_tail", "output", {"output": {"fit_rate_tail": 0.25}}),
            (
                "target_offset",
                "problem",
                {"problem": {"kind": "mlp_matching", "target_offset": 10.0}},
            ),
            # No solver reads them.
            *(
                (key, "weighting.camoo", {"weighting": {"kind": "camoo", "camoo": {key: v}}})
                for key, v in [
                    ("pu_iterations", 10),
                    ("pu_tau", 0.01),
                    ("pu_tau", -0.01),
                    ("pu_tau", float("nan")),
                    ("pu_tau", float("inf")),
                ]
            ),
            # The PAMOO solve is exact: its ascent's knobs are gone.
            *(
                (key, "weighting.pamoo", {"weighting": {"kind": "pamoo", "pamoo": {key: v}}})
                for key, v in [("step", 3e-3), ("iterations", 30)]
            ),
        ],
    )
    def test_deleted_settings_are_unknown_keys(self, tmp_path, capsys, key, where, doc):
        out = tmp_path / "o"
        code = cli.cmd_run(write_config(tmp_path, {**VALID_CONFIG, **doc}), str(out))
        assert code == 2
        assert f"unknown key {key!r} in {where}" in capsys.readouterr().out
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,weighting,extra",
        [("weighting.hutchinson", {"kind": "camoo", "hutchinson": {}}, {})],
    )
    def test_setting_the_run_would_not_read_exits_2(
        self, tmp_path, capsys, monkeypatch, key, weighting, extra
    ):
        # Once checked and then ignored; now rejected before the first step.
        monkeypatch.setattr(ObjectiveSet, "evaluate", lambda *a: pytest.fail("stepped"))
        doc = {**VALID_CONFIG, "weighting": weighting, "run": {"steps": 5, **extra}}
        out = tmp_path / "o"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 2
        text = capsys.readouterr().out
        assert "config error" in text and f"{key} is read only" in text
        assert not out.exists()

    @pytest.mark.parametrize(
        "problem,camoo",
        # Exact mode reads full Hessians; the network has none.
        [({"kind": "mlp_matching"}, {"mode": "exact-eigen"})],
        ids=["exact-mlp"],
    )
    def test_camoo_without_hessians_exits_2_before_step_0(
        self, tmp_path, capsys, monkeypatch, problem, camoo
    ):
        monkeypatch.setattr(ObjectiveSet, "evaluate", lambda *a: pytest.fail("stepped"))
        doc = {
            **VALID_CONFIG,
            "problem": problem,
            "weighting": {"kind": "camoo", "camoo": camoo},
            "run": {"steps": 5},
        }
        out = tmp_path / "o"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 2
        text = capsys.readouterr().out
        assert "config error: weighting.camoo.mode" in text and "Hessian" in text
        assert not out.exists()

    def test_diagonal_camoo_runs_on_a_misaligned_network(self, tmp_path):
        # A misaligned set takes its diagonals from its base's pass, as it
        # does its values and gradients.
        doc = {
            **VALID_CONFIG,
            "problem": {
                "kind": "misaligned",
                "base": {
                    "kind": "mlp_matching", "input_dim": 2, "hidden": 2,
                    "output_dim": 2, "dataset_size": 3,
                },
                "shifts": [[0.0] * 12] * 3,
            },
            "weighting": {"kind": "camoo", "camoo": {"mode": "diagonal-bilinear"}},
            "run": {"steps": 5},
        }
        out = tmp_path / "o"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["num_records"] == 6 and summary["final"]["pu_gap"] >= 0.0

    @pytest.mark.parametrize(
        "h,message",
        [
            # 2Hx is not the gradient of x'Hx: (6, 2) where it is (4, 4) at (1, 1).
            ([[1, 2], [0, 1]], "not symmetric"),
            # f(2, 0) = -4 lies below the recorded f* = 0.
            ([[-1, 0], [0, 1]], "not positive semidefinite"),
        ],
        ids=["non-symmetric", "indefinite"],
    )
    def test_bad_quad_family_h_exits_2(self, tmp_path, capsys, h, message):
        doc = {
            **VALID_CONFIG,
            "problem": {"kind": "quad_family", "h_list": [[[1, 0], [0, 1]], h]},
            "weighting": {"kind": "camoo"},
            "run": {"steps": 5},
        }
        out = tmp_path / "o"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 2
        text = capsys.readouterr().out
        assert "config error: bad value in problem: h_list[1]" in text
        assert message in text
        assert not out.exists()

    def test_absent_keys_take_the_defaults(self):
        doc = {
            "problem": {"kind": "mlp_matching"},
            "inner": {"step": 0.1},
            "run": {"steps": 3},
        }
        assert cli.parse_run_config(doc) == RunConfig(
            problem=ProblemSpec(kind="mlp_matching"),
            weighting=WeightingChoice(),
            inner=GDConfig(step=0.1),
            steps=3,
        )
        assert cli.parse_output_options(doc) == cli.OutputOptions()

    def test_missing_required_field(self, tmp_path, capsys):
        doc = {"problem": {"kind": "specification"}, "inner": {"kind": "gd"}}
        code = cli.cmd_run(write_config(tmp_path, doc), str(tmp_path / "o"))
        assert code == 2
        assert "inner.step" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergent_run_persists_partial_trace(self, tmp_path, capsys):
        doc = {
            "problem": {"kind": "specification", "delta": 0.1},
            "inner": {"kind": "gd", "step": 10.0},
            "run": {"steps": 3000, "x0": [1.0, 1.0]},
        }
        out = tmp_path / "out"
        code = cli.cmd_run(write_config(tmp_path, doc), str(out))
        assert code == 3
        assert (out / "trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] is not None

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failure_at_step_zero_writes_header_only_trace(self, tmp_path, capsys):
        doc = {
            "problem": {"kind": "local_curvature", "n": 2},
            "weighting": {"kind": "ew"},
            "inner": {"kind": "gd", "step": 0.1},
            "run": {"steps": 5, "x0": [1000.0, 0.0]},
        }
        out = tmp_path / "out"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 3
        assert "step 0" in capsys.readouterr().out
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines == [",".join(traceio.trace_header(2))]
        loaded = traceio.read_trace_csv(out / "trace.csv")
        assert loaded.steps == [] and loaded.f.shape == loaded.w.shape == (0, 2)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["num_records"] == 0 and summary["final"] is None

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize(
        "doc,message",
        [
            # Finite values and gradients whose Gram matrix J J' overflows.
            (
                {
                    "problem": {
                        "kind": "quad_family", "h_list": [[[1]], [[2]]],
                        "alpha_list": [3, 3],
                    },
                    "weighting": {"kind": "pamoo"},
                    "inner": {"kind": "gd", "step": 0.1},
                    "run": {"steps": 5, "x0": [1e51]},
                },
                "Gram matrix has non-finite entries",
            ),
            # Between the two minimizers the gradients oppose each other and
            # both gaps are positive: the unregularized inner problem grows
            # without bound along the nonnegative weights that cancel them.
            (
                {
                    "problem": {
                        "kind": "misaligned",
                        "base": {"kind": "specification", "delta": 0.1},
                        "shifts": [[0.0, 0.0], [0.5, 0.0]],
                    },
                    "preset": "pamoo-theory",
                    "run": {"steps": 5, "x0": [0.25, 0.0]},
                },
                "inner problem is unbounded",
            ),
        ],
        ids=["gram-overflow", "unbounded"],
    )
    def test_pamoo_numeric_failure_exits_3_with_its_trace(
        self, tmp_path, capsys, doc, message
    ):
        out = tmp_path / "out"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 3
        text = capsys.readouterr().out
        assert "numeric failure: step 0: PAMOO" in text and message in text
        assert traceio.read_trace_csv(out / "trace.csv").steps == []
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"].startswith("step 0: ")

    # Past step 500 of each run the gaps are subnormal, and rounding leaves a
    # KKT residual (up to 9.5e-310) above any tolerance relative to them.
    @pytest.mark.parametrize(
        "problem",
        [
            {"kind": "specification", "delta": 0.1},
            {"kind": "selection", "delta": 0.1, "m": 3, "n": 2},
        ],
        ids=["specification", "selection"],
    )
    def test_pamoo_theory_runs_through_subnormal_gaps(self, tmp_path, capsys, problem):
        doc = {
            "problem": problem,
            "preset": "pamoo-theory",
            "run": {"steps": 2000, "record_every": 100},
        }
        out = tmp_path / "out"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] is None and summary["final"]["step"] == 2000

    def test_pamoo_above_the_objective_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ObjectiveSet, "evaluate", lambda *a: pytest.fail("stepped"))
        m = weighting.PAMOO_MAX_M + 1
        doc = {
            **VALID_CONFIG,
            "problem": {"kind": "selection", "delta": 0.1, "m": m, "n": 2},
            "weighting": {"kind": "pamoo"},
        }
        out = tmp_path / "o"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 2
        text = capsys.readouterr().out
        assert f"pamoo takes at most {weighting.PAMOO_MAX_M} objectives" in text
        assert not out.exists()

    def test_unreadable_config(self, tmp_path, capsys):
        assert cli.cmd_run(str(tmp_path / "missing.json"), str(tmp_path)) == 2

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMOO_OUT_DIR", str(tmp_path / "envout"))
        doc = dict(VALID_CONFIG)
        doc["output"] = {"plot": False}
        assert cli.cmd_run(write_config(tmp_path, doc), None) == 0
        assert (tmp_path / "envout" / "trace.csv").exists()

    def test_preset_config(self, tmp_path):
        doc = {
            "problem": {"kind": "specification", "delta": 0.1},
            "preset": "camoo-theory",
            "run": {"steps": 30, "x0": [1.0, 1.0]},
        }
        out = tmp_path / "out"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdicts"]["theorem_bound"] is True

    # camoo-theory builds the innermost base problem for its constants
    # (misalign keeps them), so each reference point is searched for once, by
    # the run, also when the base is itself misaligned.
    @pytest.mark.parametrize(
        "preset",
        [None, "camoo-theory", "pamoo-theory", "practical-sgd", "practical-adam"],
    )
    def test_misaligned_run_builds_problem_once(self, tmp_path, monkeypatch, preset):
        built = []
        original = problems.build

        def counted(spec):
            built.append(spec)
            return original(spec)

        monkeypatch.setattr(problems, "build", counted)
        problem = {
            "kind": "misaligned",
            "base": {"kind": "specification", "delta": 0.1},
            "shifts": [[0.0, 0.0], [0.2, 0.0]],
        }
        twice = {"kind": "misaligned", "base": problem, "shifts": [[0.1, 0.0], [0.0, 0.0]]}
        preset_builds = ["specification"] if preset == "camoo-theory" else []
        for layers, nested in ((1, problem), (2, twice)):
            doc = {"problem": nested, "run": {"steps": 5, "x0": [1.0, 1.0]}}
            if preset is None:
                doc["weighting"] = {"kind": "pamoo"}
                doc["inner"] = {"kind": "gd", "step": 0.25}
            else:
                doc["preset"] = preset
            built.clear()
            out = str(tmp_path / f"o{layers}")
            assert cli.cmd_run(write_config(tmp_path, doc), out) == 0
            # Building a misaligned problem also builds its base problem once.
            kinds = [spec.kind for spec in built]
            assert kinds == [*preset_builds, *["misaligned"] * layers, "specification"]

    @pytest.mark.parametrize("preset", [None, "camoo-theory"])
    def test_uncertified_reference_point_exits_3(
        self, tmp_path, capsys, monkeypatch, preset
    ):
        # camoo-theory builds only the base while parsing, so every path builds
        # the misaligned problem in driver.run and ends in exit 3 with no
        # output directory.
        monkeypatch.setattr(
            problems.optimize,
            "minimize",
            lambda fun, z0, **kw: optimize.OptimizeResult(x=z0, nit=0, message="stub"),
        )
        doc = {
            "problem": {
                "kind": "misaligned",
                "base": {"kind": "specification", "delta": 0.1},
                "shifts": [[0.0, 0.0], [0.2, 0.1]],
            },
            "run": {"steps": 5, "x0": [1.0, 1.0]},
        }
        if preset is None:
            doc["weighting"] = {"kind": "pamoo"}
            doc["inner"] = {"kind": "gd", "step": 0.25}
        else:
            doc["preset"] = preset
        out = tmp_path / "o"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 3
        assert "numeric failure: misalign" in capsys.readouterr().out
        assert not out.exists()

    def test_preset_conflicts_with_sections(self, tmp_path, capsys):
        doc = dict(VALID_CONFIG)
        doc["preset"] = "pamoo-theory"
        assert cli.cmd_run(write_config(tmp_path, doc), str(tmp_path)) == 2


PRESET_CONFIG = {
    "problem": {"kind": "specification", "delta": 0.1},
    "preset": "camoo-theory",
    "run": {"steps": 20},
}


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, -1e308]),
)


def float_json(value):
    """What the summary holds for a recorded float: the float itself, or the
    string of a NaN or an infinity."""
    if value is None or math.isfinite(value):
        return value
    return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")


class TestConfigErrors:
    """Each config error of the parser exits 2 and names what is wrong."""

    SPEC = VALID_CONFIG["problem"]

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([VALID_CONFIG], "config root must be a JSON object"),
            ({**VALID_CONFIG, "extra": 1}, "unknown key 'extra' in config"),
            ({"inner": {"kind": "gd"}}, "config section 'problem' is required"),
            ({"problem": SPEC}, "config section 'inner' is required"),
            ({"problem": SPEC, "preset": "fastest"}, "unknown preset 'fastest'; choose"),
            ({"problem": SPEC, "inner": {"kind": "sgd"}}, "unknown inner.kind 'sgd'"),
            (
                {**VALID_CONFIG, "weighting": {"kind": "random"}},
                "unknown weighting kind 'random'",
            ),
            ({**VALID_CONFIG, "problem": {"delta": 0.1}}, "problem.kind is required"),
            (
                {**VALID_CONFIG, "problem": {"kind": "rosenbrock"}},
                "unknown problem kind 'rosenbrock'; see `amoo list-problems`",
            ),
        ],
        ids=[
            "root-not-object", "unknown-top-key", "no-problem", "no-inner",
            "unknown-preset", "unknown-inner-kind", "unknown-weighting-kind",
            "no-problem-kind", "unknown-problem-kind",
        ],
    )
    def test_exits_2_with_its_message(self, tmp_path, capsys, doc, message):
        out = tmp_path / "o"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 2
        assert f"config error: {message}" in capsys.readouterr().out
        assert not out.exists()


def strict_json(text: str):
    """``text`` parsed as JSON proper: the tokens NaN and Infinity raise."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestStrictSummary:
    # f and g stay finite while |x - x*| overflows: every residual is inf.
    INF_RESIDUALS = {
        "problem": {"kind": "quad_family", "h_list": [[[1e-300, 0], [0, 1e-300]]]},
        "weighting": {"kind": "ew"},
        "inner": {"kind": "gd", "step": 1.0},
        "run": {"steps": 30, "x0": [1e160, 1e160]},
    }

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_a_run_without_a_finite_fit_records_null(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.cmd_run(write_config(tmp_path, self.INF_RESIDUALS), str(out)) == 0
        summary = strict_json((out / "summary.json").read_text())
        assert summary["fitted_rate"] is None
        assert summary["final"]["residual"] == "inf"
        capsys.readouterr()
        assert cli.cmd_analyze(str(out / "trace.csv"), fit=True) == 2
        assert "NaN or infinite residual" in capsys.readouterr().out

    def test_run_and_analyze_share_one_fit_rule(self, tmp_path, capsys):
        # 19 records: the fit's tail is the last 10.
        doc = {**VALID_CONFIG, "run": {"steps": 18}, "output": {}}
        out = tmp_path / "out"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 0
        summary = strict_json((out / "summary.json").read_text())
        assert summary["num_records"] == 19
        capsys.readouterr()
        assert cli.cmd_analyze(str(out / "trace.csv"), fit=True) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["fitted_rate"] == summary["fitted_rate"] == pytest.approx(0.75)

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 3),
        values=st.lists(FLOATS, min_size=9, max_size=9),
        optional=st.lists(st.one_of(st.none(), FLOATS), min_size=5, max_size=5),
    )
    def test_summary_is_strict_json_that_keeps_every_bit(self, m, values, optional):
        f, w, (grad_norm, wall_time, fitted) = values[:m], values[m : 2 * m], values[-3:]
        names = ("residual", "msq", "mnorm", "lambda_min_est", "pu_gap")
        trace = column_trace(
            [7], [f], [w], grad_norm=[grad_norm],
            **{name: [v] for name, v in zip(names, optional)},
        )
        trace.wall_time = wall_time
        summary = traceio.summary_dict(trace, {"x": [1e308, -0.0]}, fitted, {"ok": None})
        parsed = strict_json(traceio.to_json(summary))
        want = [*f, *w, grad_norm, *optional, wall_time, fitted]
        final = parsed["final"]
        got = [
            *final["f"], *final["w"],
            *(final[k] for k in ("grad_norm", "residual", "msq", "mnorm")),
            *(final[k] for k in ("lambda_min_est", "pu_gap")),
            parsed["wall_time"], parsed["fitted_rate"],
        ]
        for g, v in zip(got, want, strict=True):  # a finite float keeps its bits
            if isinstance(g, float):
                assert np.float64(g).tobytes() == np.float64(v).tobytes()
            else:
                assert g == float_json(v)
        assert parsed["config"] == {"x": [1e308, -0.0]} and parsed["verdicts"] == {"ok": None}
        assert final["step"] == 7 and parsed["num_records"] == 1

    def test_k0_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        traceio.write_trace_csv(make_trace(steps=60), path)
        argv = ["analyze", str(path), "--theorem-check", "--beta", "1e200"]
        assert cli.main([*argv, "--mu", "1e-100", "--m-self", "1"]) == 2
        assert "error: k0 = inf is not finite" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "beta, mu, m_self", [("1e308", "1e308", "0")], ids=["nan-factor"]
    )
    def test_envelope_out_of_the_float_range_exits_2(
        self, tmp_path, capsys, beta, mu, m_self
    ):
        path = tmp_path / "t.csv"
        traceio.write_trace_csv(make_trace(steps=60), path)
        argv = ["analyze", str(path), "--theorem-check", "--beta", beta, "--mu", mu]
        assert cli.main([*argv, "--m-self", m_self]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: the envelope leaves the float range at beta=")
        assert f"mu={float(mu)}, m_self={float(m_self)}" in out

    def test_no_pre_phase_needs_no_slope(self, tmp_path, capsys):
        # k0 is 0, so the slope is never formed.
        path = tmp_path / "t.csv"
        traceio.write_trace_csv(make_trace(steps=60), path)
        argv = ["analyze", str(path), "--theorem-check", "--beta", "1e200"]
        assert cli.main([*argv, "--mu", "1e-100", "--m-self", "1e-300"]) == 0
        assert strict_json(capsys.readouterr().out) == {"theorem_bound": True}

    @pytest.mark.parametrize(
        "beta, mu, m_self, error",
        [
            ("1e160", "1e160", "2.6e-81", None),  # k0 3; beta**2 is beyond the range
            # k0 2e112; mu**1.5 is beyond the range
            ("1e210", "1e206", "1", "error: no recorded step reaches k0 = "),
            # k0 7e326
            ("1", "1e-217", "1", "error: k0 = inf is not finite for beta=1.0, "
             "mu=1e-217, m_self=1.0\n"),
        ],
        ids=["k0-3", "k0-unreached", "k0-inf"],
    )
    def test_theorem_check_forms_no_power_of_beta_or_mu(
        self, tmp_path, capsys, beta, mu, m_self, error
    ):
        # Each once exited 2 with "the envelope leaves the float range".
        path = tmp_path / "t.csv"
        traceio.write_trace_csv(make_trace(steps=60), path)
        argv = ["analyze", str(path), "--theorem-check", "--beta", beta, "--mu", mu]
        code = cli.main([*argv, "--m-self", m_self])
        out = capsys.readouterr().out
        if error is None:
            assert code == 0 and strict_json(out) == {"theorem_bound": True}
        else:
            assert code == 2 and out.startswith(error)

    def test_run_records_null_for_a_k0_beyond_the_float_range(
        self, tmp_path, monkeypatch
    ):
        doc = {
            "problem": {"kind": "local_curvature", "n": 2},
            "preset": "camoo-theory",
            "run": {"steps": 20, "x0": [0.03, 0.03]},
        }
        out = tmp_path / "out"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out / "a")) == 0
        summary = strict_json((out / "a" / "summary.json").read_text())
        assert summary["verdicts"]["theorem_bound"] is True  # k0 is 14
        # A linear-phase constant large enough that k0 overflows to inf.
        monkeypatch.setitem(analysis.ENVELOPE_CONSTANTS, "CAMOO", (1e308, 8.0))
        assert cli.cmd_run(write_config(tmp_path, doc), str(out / "b")) == 0
        summary = strict_json((out / "b" / "summary.json").read_text())
        assert summary["verdicts"] == {"finite": True, "theorem_bound": None}

    @pytest.mark.parametrize(
        "constants", [(5e-324, 8.0), (16.0, math.nan)], ids=["slope-inf", "factor-nan"]
    )
    def test_run_records_null_for_an_envelope_out_of_the_float_range(
        self, tmp_path, monkeypatch, constants
    ):
        doc = {
            "problem": {"kind": "local_curvature", "n": 2},
            "preset": "camoo-theory",
            "run": {"steps": 20, "x0": [0.03, 0.03]},
        }
        monkeypatch.setitem(analysis.ENVELOPE_CONSTANTS, "CAMOO", constants)
        tp = analysis.TheoremParams(math.e**2, 1.0, 1.0, 2, math.hypot(0.03, 0.03))
        with pytest.raises(ValueError, match="leaves the float range"):
            analysis._theorem_envelope(tp)
        out = tmp_path / "out"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 0
        summary = strict_json((out / "summary.json").read_text())
        assert summary["verdicts"] == {"finite": True, "theorem_bound": None}


class TestSummaryConfigEcho:
    @pytest.mark.parametrize("name", [*GOLDEN_CONFIGS, *cli._PRESETS])
    def test_echo_parses_back_to_the_run_config(self, tmp_path, name):
        if name in cli._PRESETS:
            doc = {**PRESET_CONFIG, "preset": name}
        else:
            doc = GOLDEN_CONFIGS[name]
        out = tmp_path / "o"
        assert cli.cmd_run(write_config(tmp_path, doc), str(out)) == 0
        echo = json.loads((out / "summary.json").read_text())["config"]
        cfg = cli.parse_run_config(doc)
        assert cli.parse_run_config(echo) == cfg
        # Only the keys that the run reads: its problem kind's, its
        # weighting kind's (CAMOO's mode and w_min, PAMOO's clip_floor and
        # gram_tau), its inner rule's.
        kind = cfg.weighting.kind
        assert set(echo) == {"problem", "weighting", "inner", "run"}
        assert list(echo["problem"]) == ["kind", *problems.KINDS[cfg.problem.kind].params]
        assert list(echo["weighting"]) == ["kind", *driver.WEIGHTING_KEYS[kind]]
        if kind == "camoo":
            assert list(echo["weighting"]["camoo"]) == ["mode", "w_min"]
        if kind == "pamoo":
            assert list(echo["weighting"]["pamoo"]) == ["clip_floor", "gram_tau"]
        assert echo["inner"]["kind"] in ("gd", "adam")
        # A preset's step is not scaled by m unless its run section says so.
        if name in cli._PRESETS:
            assert echo["run"]["camoo_lr_scale_by_m"] is False

    def test_config_fields_are_read_and_keys_are_field_names(self):
        # A field is something a run reads; the benchmark's extra
        # constructor arguments and the constant f_star are not fields.
        def names(cls):
            return tuple(f.name for f in dataclasses.fields(cls))

        assert names(CamooConfig) == ("mode", "w_min")
        assert names(PamooConfig) == ("clip_floor", "gram_tau")
        assert names(OptimalInfo) == ("x_star", "alignment_eps")

        def check(value, obj, where):
            if isinstance(obj, tuple):
                for i, (v, o) in enumerate(zip(value, obj)):
                    check(v, o, f"{where}[{i}]")
            elif dataclasses.is_dataclass(obj):
                for key, v in value.items():
                    if key == "kind" and where == "inner":
                        continue  # names the inner rule's class, not a field
                    assert key in names(type(obj)), f"{where}.{key}"
                    check(v, getattr(obj, key), f"{where}.{key}")

        for doc in GOLDEN_CONFIGS.values():
            cfg = cli.parse_run_config(doc)
            echo = cli.config_document(cfg)
            for section in ("problem", "weighting", "inner"):
                check(echo[section], getattr(cfg, section), section)
            check(echo["run"], cfg, "run")


C = traceio._CHUNK_ROWS  # the reader and the writer convert this many rows at once


class TestTraceRoundTrip:
    def test_lossless(self, tmp_path):
        trace = make_trace(steps=20)
        path = tmp_path / "t.csv"
        traceio.write_trace_csv(trace, path)
        loaded = traceio.read_trace_csv(path)
        assert loaded.steps == trace.steps
        np.testing.assert_array_equal(loaded.f, trace.f)
        np.testing.assert_array_equal(loaded.w, trace.w)
        assert loaded.residual == trace.residual
        assert loaded.grad_norm == trace.grad_norm
        assert loaded.msq == [None] * len(trace.steps)
        assert loaded.config is None and loaded.mnorm == [None] * len(trace.steps)

    def test_optional_columns_roundtrip(self, tmp_path):
        trace = make_trace(
            steps=5,
            weighting=WeightingChoice(kind="camoo"),
        )
        path = tmp_path / "t.csv"
        traceio.write_trace_csv(trace, path)
        loaded = traceio.read_trace_csv(path)
        assert loaded.lambda_min_est == trace.lambda_min_est

    def test_bytes_match_per_value_repr(self, tmp_path):
        trace = column_trace(
            range(3),
            [[-0.0, 5e-324, 1e308]] * 3,
            [[1.0 + k, 2.0 + k, 0.0 + k] for k in range(3)],
            grad_norm=[0.1 * k for k in range(3)],
            residual=[None, -0.0, -0.0],
            msq=[5e-324] * 3,
            lambda_min_est=[1e308] * 3,
        )
        path, ref = tmp_path / "t.csv", tmp_path / "ref.csv"
        traceio.write_trace_csv(trace, path)
        reference_write_trace_csv(trace, ref)
        assert path.read_bytes() == ref.read_bytes()

        loaded = traceio.read_trace_csv(path)
        assert loaded.f.tobytes() == trace.f.tobytes()
        assert loaded.w.tobytes() == trace.w.tobytes()
        assert np.signbit(loaded.residual[1])
        assert loaded.residual[0] is None and loaded.pu_gap == [None] * 3
        assert loaded.msq == [5e-324] * 3 and loaded.lambda_min_est == [1e308] * 3

    def test_rejects_non_trace(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            traceio.read_trace_csv(path)

    def test_rejects_a_step_header_of_another_schema(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("step,f_1,w_1,residual\n0,1.0,1.0,2.0\n")
        with pytest.raises(ValueError, match="unexpected trace header"):
            traceio.read_trace_csv(path)

    @pytest.mark.parametrize("body", [None, "0,1.0,1.0,2.0,,,", "0,1.0,1.0,2.0,,,,,"])
    def test_rejects_empty_file_and_ragged_rows(self, tmp_path, body):
        path = tmp_path / "t.csv"
        header = ",".join(traceio.trace_header(1))
        path.write_text("" if body is None else f"{header}\n{body}\n")
        with pytest.raises(ValueError):
            traceio.read_trace_csv(path)

    @pytest.mark.parametrize("rows", [0, 1, C - 1, C, C + 1, 2 * C + 1])
    def test_lossless_across_chunk_boundaries(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        values = rng.normal(size=(rows, 6)) * 10.0 ** rng.integers(-300, 300, (rows, 6))
        # With no rows the header takes m from the (0, 2) columns.
        trace = column_trace(
            range(rows),
            values[:, :2],
            np.abs(values[:, 2:4]),
            grad_norm=np.abs(values[:, 4]).tolist(),
            residual=[values[k, 5] if k % 3 else None for k in range(rows)],
            lambda_min_est=[-0.0 if k % 2 else None for k in range(rows)],
        )
        path = tmp_path / "t.csv"
        traceio.write_trace_csv(trace, path)
        loaded = traceio.read_trace_csv(path)
        assert loaded.steps == list(range(rows))
        assert loaded.f.shape == loaded.w.shape == (rows, 2)
        assert loaded.f.tobytes() == values[:, :2].tobytes()
        assert loaded.w.tobytes() == np.abs(values[:, 2:4]).tobytes()
        for col in ("grad_norm", "residual", "lambda_min_est"):
            got = getattr(loaded, col)
            want = getattr(trace, col)
            assert [None if v is None else np.float64(v).tobytes() for v in got] == [
                None if v is None else np.float64(v).tobytes() for v in want
            ]
        assert loaded.msq == loaded.pu_gap == [None] * rows


class TestAnalyzeCommand:
    def test_fit_rate_on_geometric_trace(self, tmp_path, capsys):
        trace = make_trace(steps=60)
        path = tmp_path / "t.csv"
        traceio.write_trace_csv(trace, path)
        assert cli.cmd_analyze(str(path), fit=True) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fitted_rate"] == pytest.approx(0.75, abs=0.01)

    def test_theorem_check_flags(self, tmp_path, capsys):
        trace = make_trace(steps=60, step=1.0 / 3.6)
        path = tmp_path / "t.csv"
        traceio.write_trace_csv(trace, path)
        code = cli.cmd_analyze(
            str(path),
            theorem={"beta": 1.8, "mu": 1.0, "m_self": 0.0, "which": "CAMOO"},
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["theorem_bound"] is True

    @pytest.mark.parametrize("flag", ["--m-self", "--beta"])
    def test_theorem_check_names_a_nan_constant(self, tmp_path, capsys, flag):
        path = tmp_path / "t.csv"
        traceio.write_trace_csv(make_trace(steps=60), path)
        argv = ["analyze", str(path), "--theorem-check", "--beta", "1.8", "--mu", "1.0"]
        assert cli.main([*argv, flag, "nan"]) == 2
        assert f"error: {flag[2:].replace('-', '_')} must be" in capsys.readouterr().out

    def test_unreadable_trace(self, tmp_path, capsys):
        assert cli.cmd_analyze(str(tmp_path / "nope.csv"), fit=True) == 2

    @pytest.mark.parametrize("given", [["--beta", "1.8"], ["--mu", "1.0"], []])
    def test_theorem_check_needs_beta_and_mu(self, tmp_path, capsys, given):
        path = tmp_path / "t.csv"
        traceio.write_trace_csv(make_trace(steps=60), path)
        assert cli.main(["analyze", str(path), "--theorem-check", *given]) == 2
        assert capsys.readouterr().out == "error: --theorem-check needs --beta and --mu\n"

    def test_tail_fraction_option_is_gone(self, tmp_path, capsys):
        # The fit uses analysis.fit_rate's default tail of one half.
        path = tmp_path / "t.csv"
        traceio.write_trace_csv(make_trace(steps=60), path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", str(path), "--fit-rate", "--tail-fraction", "0.3"])
        assert exc.value.code == 2
        assert "--tail-fraction" in capsys.readouterr().err

    def test_theorem_check_on_header_only_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text(",".join(traceio.trace_header(2)) + "\n")
        theorem = {"beta": 1.8, "mu": 1.0, "m_self": 0.0, "which": "CAMOO"}
        assert cli.cmd_analyze(str(path), theorem=theorem) == 2
        assert "has no residuals" in capsys.readouterr().out


class TestPlotCommand:
    def test_two_record_trace_has_polylines(self, tmp_path):
        trace = make_trace(steps=1)
        assert trace.steps == [0, 1]
        svg = trace_svg(trace)
        root = ET.fromstring(svg)  # valid XML
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) >= 2

    def test_plot_command_writes_file(self, tmp_path):
        trace = make_trace(steps=10)
        csv_path = tmp_path / "t.csv"
        traceio.write_trace_csv(trace, csv_path)
        out = tmp_path / "p.svg"
        assert cli.cmd_plot(str(csv_path), str(out)) == 0
        ET.parse(out)

    @pytest.mark.parametrize("body", [None, "not,a,trace\n"], ids=["missing", "garbled"])
    def test_unreadable_trace_exits_2(self, tmp_path, capsys, body):
        path = tmp_path / "t.csv"
        if body is not None:
            path.write_text(body)
        out = tmp_path / "p.svg"
        assert cli.cmd_plot(str(path), str(out)) == 2
        assert capsys.readouterr().out.startswith(f"error: cannot read trace {path}: ")
        assert not out.exists()

    def test_header_only_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text(",".join(traceio.trace_header(2)) + "\n")
        out = tmp_path / "p.svg"
        assert cli.cmd_plot(str(path), str(out)) == 2
        assert "no records" in capsys.readouterr().out
        assert not out.exists()

    def test_weights_panel_has_m_polylines(self, tmp_path):
        trace = make_trace(
            steps=4, problem=ProblemSpec(kind="selection", m=3, n=2)
        )
        svg = trace_svg(trace)
        root = ET.fromstring(svg)
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        # residual + 3 weights
        assert len(polylines) == 4


class TestListAndVerify:
    def test_list_problems(self, capsys):
        assert cli.cmd_list_problems() == 0
        out = capsys.readouterr().out
        for kind in (
            "specification",
            "selection",
            "local_curvature",
            "quad_family",
            "mlp_matching",
            "misaligned",
        ):
            assert kind in out

    def test_list_problems_names_the_accepted_parameters(self, capsys):
        assert cli.cmd_list_problems() == 0
        listed = {}
        for line in capsys.readouterr().out.splitlines():
            kind, _, rest = line.partition(" ")
            listed[kind] = set(rest.rsplit("(", 1)[1].rstrip(")").split(", "))
        assert set(listed) == set(problems.KINDS)
        every_param = set().union(*listed.values())
        for kind, params in listed.items():
            for param in every_param:
                section = {"kind": kind, param: None}
                with pytest.raises(ConfigurationError) as err:
                    cli.parse_problem_spec(section)
                unknown = f"unknown key {param!r} in problem" in str(err.value)
                assert unknown == (param not in params), (kind, param)

    def test_other_kinds_parameter_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="unknown key 'delta' in problem"):
            cli.parse_problem_spec({"kind": "mlp_matching", "delta": 0.1})

    def test_verify_passes_default_seed(self, capsys):
        assert cli.cmd_verify(seed=0) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_self_concordance_reads_each_problem_s_recorded_m_self(
        self, monkeypatch, capsys
    ):
        # At M = 0 only the point pair (0, 0) of local_curvature holds.
        entry = problems.KINDS["local_curvature"]

        def unrecorded(spec):
            built = entry.build(spec)
            meta = dataclasses.replace(built.meta, m_self=0.0)
            return dataclasses.replace(built, meta=meta)

        kind = dataclasses.replace(entry, build=unrecorded)
        monkeypatch.setitem(problems.KINDS, "local_curvature", kind)
        assert cli._suite_self_concordance() == (False, "21/40 inequalities hold")
        assert cli.cmd_verify(seed=0) == 1
        assert "FAIL  self-concordance: 21/40 inequalities hold" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "perturb",
        [
            lambda w, y: (np.roll(w, 1), y),  # off-optimal w
            lambda w, y: (w, np.roll(y, 1)),  # off-optimal q
            lambda w, y: (2.0 * w, y),  # off the simplex, with a smaller spread
        ],
        ids=["w", "q", "off-simplex"],
    )
    def test_verify_fails_on_an_uncertified_game_solution(
        self, monkeypatch, capsys, perturb
    ):
        # Each bad answer keeps the LP's value, so only the certificate can
        # tell it from the real one.
        real = weighting.max_min_weights

        def off_optimal(C, w_min=0.0):
            w, t, y = real(C, w_min)
            w, y = perturb(w, y)
            return w, t, y

        monkeypatch.setattr(weighting, "max_min_weights", off_optimal)
        assert cli.cmd_verify(seed=0) == 1
        assert "FAIL  bilinear-oracle: 0/30 games" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_verify_rejects_a_seed_that_is_not_a_nonnegative_int(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--seed", seed])
        assert exc.value.code == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_main_dispatch(self, tmp_path, capsys):
        assert cli.main(["list-problems"]) == 0
        cfg = write_config(tmp_path, VALID_CONFIG)
        assert cli.main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 0
