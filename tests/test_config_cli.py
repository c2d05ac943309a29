import argparse
import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import levycrit
from levycrit.cli import COMMANDS, DEMOS, LIBRARY_MODULES, build_parser, main
from levycrit.config import (
    ConfigError,
    dump_config,
    law_from_config,
    resolve_law_config,
    resolve_triplet_config,
    triplet_from_config,
)


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "cfg",
        [
            {"family": "power_lattice", "alpha": 0.5, "normalize": True},
            {"family": "multi_index", "alpha": 0.5, "beta": 1.5},
            {"family": "gaussian", "sigma": 2.0},
            {
                "family": "table",
                "spacing": 1.0,
                "masses": {1: 0.25, 2: 0.25},
                "origin_mass": 0.0,
            },
            {
                "family": "piecewise_power",
                "pieces": [
                    {"lo": 0.0, "hi": 1.0, "terms": [{"k": 1.0 / 6.0, "rho": 0.0}]},
                    {"lo": 1.0, "hi": "inf", "terms": [{"k": 1.0 / 6.0, "rho": 1.5}]},
                ],
                "unimodal": True,
            },
        ],
    )
    def test_resolve_is_idempotent(self, cfg):
        resolved = resolve_law_config(cfg)
        text = dump_config(resolved)
        reparsed = resolve_law_config(yaml.safe_load(text))
        assert reparsed == resolved
        law_from_config(resolved)  # and it actually builds

    @given(
        alpha=st.floats(min_value=0.1, max_value=3.0),
        normalize=st.booleans(),
    )
    def test_power_lattice_roundtrip_property(self, alpha, normalize):
        cfg = {"family": "power_lattice", "alpha": alpha, "normalize": normalize}
        resolved = resolve_law_config(cfg)
        assert resolve_law_config(yaml.safe_load(dump_config(resolved))) == resolved

    def test_triplet_shortcut(self):
        cfg = resolve_triplet_config({"family": "stable", "alpha": 0.5})
        t = triplet_from_config(cfg)
        assert t.nu is not None and t.c == 0.0
        cfg2 = resolve_triplet_config(
            {"gaussian_coefficient": 2.0, "law": None}
        )
        t2 = triplet_from_config(cfg2)
        assert t2.nu is None and t2.c == 2.0

    def test_probability_law_wrapped_for_triplet(self):
        cfg = {"gaussian_coefficient": 0.0,
               "law": {"family": "power_lattice", "alpha": 0.5, "normalize": True}}
        t = triplet_from_config(cfg)
        from levycrit import Normalization

        assert t.nu.normalization is Normalization.FINITE

    def test_table_resolves_to_its_canonical_form(self):
        # string numbers are cast, lags sorted, tail keys kept as given, and
        # normalization left out unless it is given
        cfg = {"family": "table", "masses": {"2": "0.1", 1: 0.2}, "origin_mass": "0.1",
               "tail": {"exponent": "1.5", "constant": 0.05, "onset": 4}}
        resolved = {"family": "table", "spacing": 1.0, "origin_mass": 0.1,
                    "masses": {1: 0.2, 2: 0.1},
                    "tail": {"kind": "power_law", "exponent": 1.5, "constant": 0.05,
                             "onset": 4.0}}
        assert resolve_law_config(cfg) == resolved
        cfg["normalization"] = "finite_measure"
        assert resolve_law_config(cfg) == {**resolved, "normalization": "finite_measure"}
        # a null value counts as not given
        assert resolve_law_config({**cfg, "tail": None, "normalization": None}) == {
            **resolved, "tail": None}

    def test_builds_call_the_module_constructor(self, monkeypatch):
        # a wrapped make_* (as the benchmark's tracer installs) is the one called
        import levycrit.config as config

        for family, name in [("gaussian", "make_gaussian_density"),
                             ("power_lattice", "make_power_law_lattice")]:
            calls = []
            real = getattr(config, name)
            monkeypatch.setattr(config, name, lambda *a, **k: calls.append(a) or real(*a, **k))
            law_from_config({"family": family, "alpha": 0.5})
            assert len(calls) == 1, name

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            resolve_law_config({"family": "mystery"})
        with pytest.raises(ConfigError):
            resolve_triplet_config({"no": "keys"})


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's levycrit."""
    src = str(Path(levycrit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestProcess:
    """Checks that need a fresh interpreter: pytest's own warning filters
    import scipy.integrate and would turn a RuntimeWarning into an error."""

    def test_cli_import_and_analyze_leave_out_scipy_and_mpmath(self):
        # only a resistance solve imports scipy (scipy.linalg)
        probe = (
            "import io, sys, contextlib, levycrit.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m in ('scipy', 'mpmath') or m.startswith(('scipy.', 'mpmath.')))\n"
            "print(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = levycrit.cli.main(['analyze', '--family', 'power_lattice', '--alpha', '0.5'])\n"
            "print(code, loaded())\n"
        )
        run = _run_python("-c", probe)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["[]", "0 []"]

    def test_subnormal_sato_shepp_is_silent(self):
        run = _run_python(
            "-m", "levycrit.cli", "analyze", "--family", "power_lattice", "--alpha", "1015"
        )
        assert run.returncode == 0
        assert run.stderr == ""
        report = json.loads(run.stdout)
        assert report["results"]["classification"] == "recurrent"


class TestCliCommands:
    def test_analyze_exit_codes(self, capsys):
        assert main(["analyze", "--family", "stable", "--alpha", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["classification"] == "transient"
        assert main(["analyze", "--family", "stable", "--alpha", "2.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["classification"] == "recurrent"

    def test_malformed_family_exits_one(self, capsys):
        assert main(["analyze", "--family", "not_a_family"]) == 1

    def test_missing_config_file_exits_one(self):
        assert main(["analyze", "--config", "/nonexistent.yaml"]) == 1

    @pytest.mark.parametrize(
        "flags, law",
        [
            (["--family", "power_lattice", "--alpha", "nan"], None),
            (["--family", "power_lattice", "--alpha", "inf"], None),
            (["--family", "stable", "--alpha", "0.5", "--gamma", "nan"], None),
            (["--family", "gaussian", "--sigma", "nan"], None),
            # a declared tail with infinite mass away from 0
            ([], {"family": "table", "masses": {1: 0.25},
                  "tail": {"exponent": 0.8, "constant": 1.0}}),
            # values that are not numbers at all
            ([], {"family": "gaussian", "sigma": "abc"}),
            ([], {"family": "table", "masses": {1: "x"}}),
            ([], {"family": "piecewise_power",
                  "pieces": [{"lo": 0.0, "hi": "inf", "terms": [{"k": "abc", "rho": 1.5}]}]}),
            ([], {"family": "table", "masses": {1: 0.25},
                  "tail": {"exponent": "abc", "constant": 1.0}}),
            # each exited 3 with "unexpected failure: <exception>": nested
            # entries that are not mappings, an unknown normalization, and an
            # integer too large for a float
            ([], {"family": "table", "masses": {1: 0.25}, "tail": "abc"}),
            ([], {"family": "piecewise_power", "pieces": "abc"}),
            ([], {"family": "piecewise_power", "pieces": [1, 2]}),
            ([], {"family": "piecewise_power",
                  "pieces": [{"lo": 0.0, "hi": "inf", "terms": [5]}]}),
            ([], {"family": "table", "masses": {1: 0.25}, "normalization": "bogus"}),
            ([], {"family": "power_lattice", "alpha": 10 ** 400}),
            # the dense mass table (7.28 TiB) was allocated and exited 3
            ([], {"family": "table", "masses": {10 ** 12: 0.25}}),
        ],
    )
    def test_bad_numbers_exit_one(self, flags, law, tmp_path, capsys):
        if law is not None:
            cfg = tmp_path / "law.yaml"
            cfg.write_text(yaml.safe_dump({"law": law}))
            flags = ["--config", str(cfg)]
        assert main(["analyze", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            # comma lists that are not numbers used to exit 3 with a ValueError
            ["resistance", "--family", "power_lattice", "--alpha", "0.5", "--radii", "abc"],
            ["discretize", "--family", "gaussian", "--deltas", "abc"],
            # non-finite sizes used to exit 3, or 0 with a sojourn estimate of 1.0
            ["discretize", "--family", "gaussian", "--deltas", "nan"],
            ["discretize", "--family", "gaussian", "--deltas", "inf"],
            ["discretize", "--family", "gaussian", "--h-radius", "nan"],
            ["discretize", "--family", "gaussian", "--h-radius", "inf"],
            ["simulate", "--family", "power_lattice", "--alpha", "0.5", "--normalize",
             "--window", "nan"],
            # a zero alpha fell back to the default 0.5 and exited 0
            ["demo", "multi-index", "--alpha", "0", "--beta", "0"],
        ],
    )
    def test_bad_run_options_exit_one(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            # each exited 3 with "unexpected failure: ValueError/TypeError"
            (["discretize"], {"options": {"h_radius": "abc"}}, "h_radius"),
            (["simulate"], {"options": {"horizon": "abc"}}, "horizon"),
            (["simulate"], {"options": {"window": "abc"}}, "window"),
            (["flow"], {"options": {"energy_level": [1]}}, "energy_level"),
            (["flow"], {"seed": "xyz"}, "seed"),
            (["demo", "multi-index"], {"seed": "xyz"}, "seed"),
            # a non-integral integer was truncated (i_max 6.7 ran as 6)
            (["flow"], {"options": {"i_max": 6.7}}, "i_max"),
            (["resistance"], {"options": {"radii": [4, 8.5]}}, "radii"),
            (["analyze"], {"seed": 2.5}, "seed"),
            # an integer too large for a float exited 3 with an OverflowError
            (["discretize"], {"options": {"h_radius": 10 ** 400}}, "h_radius"),
            # bool() took the truth of any value: "false" resolved to true
            (["analyze"], {"law": {"family": "power_lattice", "alpha": 0.5,
                                   "normalize": "false"}}, "normalize"),
            (["analyze"], {"law": {"family": "multi_index", "alpha": 0.5, "beta": 1.5,
                                   "normalize": 0}}, "normalize"),
            (["analyze"], {"triplet": {"family": "stable", "alpha": 0.5,
                                       "unimodal": "false"}}, "unimodal"),
            (["analyze"], {"law": {"family": "piecewise_power", "unimodal": "no",
                                   "pieces": [{"terms": [{"k": 1.0, "rho": 1.5}]}]}},
             "unimodal"),
            (["analyze"], {"options": {"unimodal_override": "false"}}, "unimodal_override"),
            # float() and int() read a YAML true/false as 1/0: alpha true ran alpha = 1
            (["analyze"], {"law": {"family": "power_lattice", "alpha": True}}, "alpha"),
            (["analyze"], {"law": {"family": "gaussian", "sigma": True}}, "sigma"),
            (["analyze"], {"triplet": {"family": "stable", "alpha": True}}, "alpha"),
            (["analyze"], {"triplet": {"gaussian_coefficient": True, "law": None}},
             "gaussian_coefficient"),
            (["analyze"], {"law": {"family": "piecewise_power",
                                   "pieces": [{"terms": [{"k": True, "rho": 1.5}]}]}}, "k"),
            (["analyze"], {"law": {"family": "piecewise_power",
                                   "pieces": [{"hi": True, "terms": [{"k": 1.0, "rho": 1.5}]}]}},
             "hi"),
            (["resistance"], {"law": {"family": "table", "masses": {1: True}}}, "masses[1]"),
            (["resistance"], {"law": {"family": "table", "masses": {True: 0.5}}}, "masses"),
            (["resistance"], {"law": {"family": "table", "masses": {1: 0.5},
                                      "origin_mass": False}}, "origin_mass"),
            (["resistance"], {"law": {"family": "table", "masses": {1: 0.5},
                                      "tail": {"exponent": True}}}, "exponent"),
            (["flow"], {"seed": True}, "seed"),
            (["flow"], {"options": {"i_max": True}}, "i_max"),
            (["simulate"], {"options": {"horizon": True}}, "horizon"),
            (["simulate"], {"options": {"window": True}}, "window"),
            (["resistance"], {"options": {"radii": [4, True]}}, "radii"),
            (["discretize"], {"options": {"deltas": [1, False]}}, "deltas"),
            (["demo", "multi-index"], {"options": {"alpha": True}}, "alpha"),
        ],
    )
    def test_bad_config_options_exit_one(self, command, doc, key, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        law = {"family": "power_lattice", "alpha": 0.5, "normalize": True}
        cfg.write_text(yaml.safe_dump({"law": law, **doc}))
        assert main([*command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad value for '{key}'")
        assert "Traceback" not in err

    def test_yaml_syntax_error_exits_one(self, tmp_path, capsys):
        # exited 3 with a ParserError over four stderr lines
        cfg = tmp_path / "run.yaml"
        cfg.write_text("law: {family: gaussian\n")
        assert main(["analyze", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not valid YAML" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exits_one(self, command, where, tmp_path, capsys):
        # simulate exited 3 (numpy refuses a negative seed); the others
        # embedded it in their report
        law = {"family": "power_lattice", "alpha": 0.5, "normalize": True}
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({"law": law, **({"seed": -1} if where == "config" else {})}))
        args = [command, "multi-index"] if command == "demo" else [command]
        seed = ["--seed", "-1"] if where == "flag" else []
        assert main([*args, "--config", str(cfg), *seed]) == 1
        assert capsys.readouterr().err == "error: bad value for 'seed': -1 is negative\n"

    def test_flow_level_cap_exits_one(self, capsys):
        # rejected before any array exists (level 40 would need 16 TiB)
        assert main(["flow", "--family", "power_lattice", "--alpha", "0.5",
                     "--i-max", "40"]) == 1
        assert capsys.readouterr().err.startswith("error:")
        # the energy bound's series has one truncation; --w-max is gone
        assert main(["flow", "--family", "power_lattice", "--alpha", "0.5",
                     "--w-max", "1"]) == 1
        assert "unrecognized arguments: --w-max" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["discretize", "--family", "gaussian", "--deltas", "1,1e-6"],
            ["simulate", "--family", "power_lattice", "--alpha", "0.5", "--normalize",
             "--horizon", "1000000000000"],
            ["simulate", "--family", "power_lattice", "--alpha", "0.5", "--normalize",
             "--horizon", "100000", "--replicas", "1000"],
        ],
    )
    def test_resource_caps_exit_one(self, argv, capsys):
        # refused before the quadratures or the sampler table start
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cap" in err

    def test_discretize_bin_cap_before_characteristics(self, capsys):
        # the finest delta's bin count is refused before the density's own
        # characteristics run, whatever sigma makes of those
        assert main(["discretize", "--family", "gaussian", "--sigma", "1e5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: delta=0.125 needs") and "the cap is 100000" in err

    def test_flow_command(self, capsys, tmp_path):
        code = main(
            ["flow", "--family", "power_lattice", "--alpha", "0.5",
             "--i-max", "6", "--energy-level", "10", "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["verification"]["passed"] is True
        assert report["results"]["bound_chain_ok"] is True

    def test_resistance_csv(self, capsys, tmp_path):
        code = main(
            ["resistance", "--family", "power_lattice", "--alpha", "0.5",
             "--radii", "8,16,32", "--out", str(tmp_path), "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "radius,r_eff,lower,upper"
        assert len(lines) == 4
        assert (tmp_path / "resistance.csv").exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["hint"] == "transient-leaning"

    def test_discretize_command(self, tmp_path, capsys):
        code = main(
            ["discretize", "--family", "gaussian",
             "--deltas", "1,0.5", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "convergence.csv").exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert "orders" in report["results"]["convergence"]

    def test_discretize_single_delta(self, capsys):
        # one delta gives no convergence order; it is reported as NaN
        assert main(["discretize", "--family", "gaussian", "--deltas", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["results"]["convergence"]["orders"].values()) == {"nan"}

    def test_simulate_command(self, tmp_path, capsys):
        code = main(
            ["simulate", "--family", "power_lattice", "--alpha", "0.5",
             "--normalize", "--horizon", "500", "--replicas", "10",
             "--seed", "7", "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["seed"] == 7
        assert report["results"]["sojourn_estimate"] <= 500
        assert (tmp_path / "replicas.csv").exists()

    def test_demo_commands(self, capsys):
        assert main(["demo", "stable-sweep"]) == 0
        out = capsys.readouterr().out
        assert "8/8 classified correctly" in out
        assert main(["demo", "multi-index"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_demo_single_index_collapse(self, capsys):
        # alpha = beta < 1: the lattice criterion alone already decides
        assert main(["demo", "multi-index", "--alpha", "0.5", "--beta", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "converges" in out

    def test_demo_multi_index_recurrent_regime(self, capsys):
        assert main(["demo", "multi-index", "--alpha", "1.5", "--beta", "2.5"]) == 0
        out = capsys.readouterr().out
        assert "recurrent" in out and "FAIL" not in out

    def test_yaml_law_file(self, tmp_path, capsys):
        cfg = tmp_path / "law.yaml"
        cfg.write_text(
            "law:\n"
            "  family: table\n"
            "  spacing: 0.5\n"
            "  masses: {1: 0.3, 2: 0.2}\n"
            "triplet:\n"
            "  gaussian_coefficient: 0.0\n"
            "  law: {family: power_lattice, alpha: 0.5}\n"
        )
        assert main(["analyze", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["classification"] == "transient"
        # the law entry drives lattice commands
        assert main(["resistance", "--config", str(cfg), "--radii", "4,8,12"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]["profile"]) == 3


class TestReproducibility:
    def test_rerun_from_embedded_config(self, tmp_path, capsys):
        # every command, with options and seeds away from their defaults
        pl = ["--family", "power_lattice", "--alpha", "0.5"]
        runs = {
            "analyze": (["analyze"], ["--family", "gaussian", "--unimodal"]),
            "simulate": (["simulate"], [*pl, "--normalize", "--horizon", "400",
                                        "--replicas", "5", "--seed", "11"]),
            "flow": (["flow"], [*pl, "--i-max", "6", "--energy-level", "10"]),
            "resistance": (["resistance"], [*pl, "--radii", "4,8", "--seed", "2"]),
            "discretize": (["discretize"], ["--family", "gaussian", "--deltas", "1,0.5",
                                            "--h-radius", "2"]),
            "stable-sweep": (["demo", "stable-sweep"], ["--seed", "3"]),
            "multi-index": (["demo", "multi-index"], ["--alpha", "0.3", "--beta", "1.2",
                                                      "--seed", "5"]),
        }
        for label, (command, flags) in runs.items():
            out1 = tmp_path / label / "run1"
            out2 = tmp_path / label / "run2"
            assert main([*command, *flags, "--out", str(out1)]) == 0
            # re-run straight from the first report: the embedded resolved
            # config supplies the law, seed and every option
            assert main([*command, "--config", str(out1 / "report.json"), "--out", str(out2)]) == 0
            rep1 = json.loads((out1 / "report.json").read_text())
            rep2 = json.loads((out2 / "report.json").read_text())
            rep1.pop("timestamp")
            rep2.pop("timestamp")
            assert rep1 == rep2, label
        # the options the flags set are the ones embedded
        analyze = json.loads((tmp_path / "analyze" / "run1" / "report.json").read_text())
        assert analyze["config"]["options"] == {"unimodal_override": True}
        demo = json.loads((tmp_path / "multi-index" / "run1" / "report.json").read_text())
        assert demo["seed"] == 5
        assert demo["config"]["options"] == {"name": "multi-index", "alpha": 0.3, "beta": 1.2}

    def test_table_law_report_rerun(self, tmp_path, capsys):
        # JSON coerces table keys to strings; the rerun must coerce them back
        cfg = tmp_path / "law.yaml"
        cfg.write_text("law: {family: table, masses: {1: 1.0}}\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["resistance", "--config", str(cfg), "--radii", "4,8",
                     "--out", str(out1)]) == 0
        assert main(["resistance", "--config", str(out1 / "report.json"),
                     "--out", str(out2)]) == 0
        rep1 = json.loads((out1 / "report.json").read_text())
        rep2 = json.loads((out2 / "report.json").read_text())
        rep1.pop("timestamp"), rep2.pop("timestamp")
        assert rep1 == rep2

    def test_report_defaults_read_from_the_code(self, tmp_path, capsys):
        # every public numeric constant of the library modules, and nothing else
        assert main(["analyze", "--family", "stable", "--alpha", "1.5",
                     "--out", str(tmp_path)]) == 0
        defaults = json.loads((tmp_path / "report.json").read_text())["config"]["defaults"]
        assert defaults == {
            "probability_tol": 1e-10, "cf_eps": 1e-6, "panel_rel_tol": 1e-10,
            "panel_cap": 1000, "lattice_series_cutoff": 10 ** 6,
            "cos_tail_switch": 200.0, "max_bin_quads": 10 ** 5, "drift_tol": 1e-12,
            "reach_mass_budget": 1e-11, "power_tail_reach_cap": 256.0,
            "max_expectation_lags": 10 ** 6, "profile_flat_tol": 0.05,
            "profile_growth_ratio": 0.9, "resistance_max_radius": 4096,
            "verify_flow_max_level": 30, "flow_energy_max_level": 22,
            "sampler_table_size": 10 ** 6, "sojourn_growth_flat": 1.15,
            "sojourn_growth_steep": 1.3, "max_sojourn_horizon": 10 ** 6,
            "max_sojourn_steps": 10 ** 7, "cutoff_max": 1e100,
        }
        for key, value in defaults.items():
            assert not key.startswith(("_", "exit_")), key
            owners = [m for m in LIBRARY_MODULES if hasattr(m, key.upper())]
            assert owners and all(getattr(m, key.upper()) == value for m in owners), key

    def test_reports_embed_version_and_seed(self, capsys):
        main(["analyze", "--family", "stable", "--alpha", "1.5"])
        report = json.loads(capsys.readouterr().out)
        from levycrit import __version__

        assert report["version"] == __version__
        assert report["seed"] == 0
        assert report["config"]["triplet"]["alpha"] == 1.5


_EDGE_VALUES = st.sampled_from(
    [1e-300, 1e300, math.nan, math.inf, -math.inf, 0.0, -1.0, "abc", "", "1e5x"]
)
_PLAIN_VALUES = st.floats(min_value=0.05, max_value=3.0)
_NUMBER = st.one_of(_EDGE_VALUES, _PLAIN_VALUES)
# stand-ins for a nested entry (a mapping, or a list of them)
_HOSTILE = st.sampled_from(["abc", [1, 2], 5, None, 10 ** 400])


def _or_hostile(valid):
    return st.one_of(_HOSTILE, st.just(valid))


_FLAT_CORE = {"family": "piecewise_power", "pieces": [
    {"lo": 0.0, "hi": 1.0, "terms": [{"k": 1.0 / 6.0, "rho": 0.0}]},
    {"lo": 1.0, "hi": "inf", "terms": [{"k": 1.0 / 6.0, "rho": 1.5}]}]}
_FAMILY_KEYS = {
    "power_lattice": {"alpha": _NUMBER},
    "multi_index": {"alpha": _NUMBER, "beta": _NUMBER},
    "stable": {"alpha": _NUMBER, "gamma": _NUMBER},
    "gaussian": {"sigma": _NUMBER},
    "table": {
        "masses": _or_hostile({1: 0.25, 2: 0.125}),
        "tail": _or_hostile({"exponent": 1.5, "constant": 0.05, "onset": 3.0}),
        "normalization": _or_hostile("finite_measure"),
    },
    "piecewise_power": {
        # the pieces, a piece's terms or one term replaced
        "pieces": st.one_of(
            _HOSTILE,
            _HOSTILE.map(lambda v: [{"lo": 0.0, "hi": 1.0, "terms": v}]),
            _HOSTILE.map(lambda v: [{"lo": 0.0, "hi": 1.0, "terms": [v]}]),
            st.just(_FLAT_CORE["pieces"]),
        ),
    },
}


def _raise_timeout(signum, frame):
    raise TimeoutError("the command did not finish")


@st.composite
def _analyze_docs(draw):
    family = draw(st.sampled_from(sorted(_FAMILY_KEYS)))
    cfg = {"family": family}
    for key, values in _FAMILY_KEYS[family].items():
        cfg[key] = draw(values, label=key)
    return {"triplet": cfg} if family == "stable" else {"law": cfg}


# each run option's sane values, small enough that a run takes well under a
# second; hostile stand-ins for a count, a size or a number
_RUN_OPTIONS = {
    "unimodal_override": st.booleans(),
    "i_max": st.integers(2, 8),
    "energy_level": st.integers(2, 12),
    "radii": st.lists(st.integers(1, 48), min_size=1, max_size=3, unique=True).map(sorted),
    "deltas": st.lists(st.floats(0.25, 2.0), min_size=1, max_size=3, unique=True).map(
        lambda deltas: sorted(deltas, reverse=True)),
    "h_radius": st.floats(0.5, 2.0),
    "window": st.floats(1.0, 10.0),
    "horizon": st.integers(10, 200),
    "replicas": st.integers(2, 8),
    "alpha": _PLAIN_VALUES,
    "beta": _PLAIN_VALUES,
}
_HOSTILE_VALUE = st.one_of(_EDGE_VALUES, _HOSTILE, st.sampled_from(
    [2.5, 10 ** 400, "false", [0], [-1], [10 ** 9], ["abc"], [math.nan], "1,x"]))
_SANE_LAWS = st.sampled_from([
    {"family": "power_lattice", "alpha": 0.5, "normalize": True},
    {"family": "multi_index", "alpha": 1.5, "beta": 0.7, "normalize": True},
    {"family": "table", "masses": {1: 0.3, 2: 0.2}},
    {"family": "gaussian", "sigma": 0.7},
    _FLAT_CORE,
])
# raw YAML: text made of YAML's own syntax characters
_YAML_CHARS = st.sampled_from(list("ab1.-:{}[],#&*!|>'\" \n"))


@st.composite
def _command_runs(draw):
    """A command line reading ``--config`` and the text of that config: a
    sane config of the command's subject, run options and seed, or one with
    the law, one option, the options or the seed hostile, or that config's
    text cut short, or raw text."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [name, draw(st.sampled_from(sorted(DEMOS)))] if name == "demo" else [name]
    doc = {"law": draw(_SANE_LAWS)} if COMMANDS[name].subject else {}
    options = {opt.key: draw(_RUN_OPTIONS[opt.key], label=opt.key)
               for opt in COMMANDS[name].options}
    doc.update(options=options, seed=draw(st.integers(0, 2 ** 32), label="seed"))
    spoil = draw(st.sampled_from(["none", "law", "option", "options", "seed", "cut", "raw"]))
    if spoil == "law" and COMMANDS[name].subject:
        doc.pop("law")
        doc.update(draw(_analyze_docs()))
    elif spoil == "option":
        options[draw(st.sampled_from(sorted(options)))] = draw(_HOSTILE_VALUE, label="value")
    elif spoil in ("options", "seed"):
        doc[spoil] = draw(_HOSTILE_VALUE, label=spoil)
    text = yaml.safe_dump(doc)
    if spoil == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    elif spoil == "raw":
        text = draw(st.text(_YAML_CHARS, max_size=40))
    return argv, text


def _run_config(argv, text):
    """``main([*argv, "--config", <text as a file>])``: its exit code, stdout
    and stderr. The alarm turns a hang into a failure and is no timing gate."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(120)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.yaml"
            path.write_text(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--config", str(path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


class TestCliBoundaryProperty:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(doc=_analyze_docs())
    # sigma^2 underflows to 0; 2^-(alpha+1) underflows past lag 1
    @example(doc={"law": {"family": "gaussian", "sigma": 1e-300}})
    @example(doc={"law": {"family": "multi_index", "alpha": 1e300, "beta": 0.5}})
    # a nested entry that is not a mapping exited 3
    @example(doc={"law": {"family": "table", "masses": {1: 0.25}, "tail": "abc"}})
    def test_analyze_config_ends_with_exit_code(self, doc):
        # random configs, sane or hostile values alike, end with a
        # documented exit code other than "unexpected failure" and at most
        # one line on stderr
        code, out, err = _run_config(["analyze"], yaml.safe_dump(doc))
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert len(err.splitlines()) <= 1
        if code == 0:
            assert json.loads(out)["results"]["classification"]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(run=_command_runs())
    # deltas too close to fit an order printed numpy's RankWarning to stderr;
    # a huge h_radius or delta, or a density that underflows inside the
    # Jensen integral, printed an overflow or division warning (exit 3 under
    # -W error), or exited 3 as an unexpected failure
    @example(run=(["discretize"], yaml.safe_dump(
        {"law": _FLAT_CORE, "options": {"deltas": [0.25000000000000006, 0.25]}})))
    @example(run=(["discretize"], yaml.safe_dump(
        {"law": {"family": "gaussian"}, "options": {"deltas": [1.0], "h_radius": 1e300}})))
    @example(run=(["discretize"], yaml.safe_dump(
        {"law": {"family": "gaussian"}, "options": {"deltas": [10 ** 9]}})))
    @example(run=(["discretize"], yaml.safe_dump(
        {"law": {"family": "gaussian", "sigma": 0.05}, "options": {"deltas": [0.25]}})))
    def test_every_command_config_ends_with_exit_code(self, run):
        # as above, for every command, its run options and seed, and raw
        # YAML; exit 3 is a numeric failure or a failed check, never an
        # unexpected one
        code, out, err = _run_config(*run)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err and "unexpected failure" not in err
        assert len(err.splitlines()) <= 1
        if not err:  # a run that ends without an error prints its report
            assert json.loads(out)["results"] if run[0][0] != "demo" else out


# each subcommand's accepted flags (and positional choices), pinned so that the
# table-built parser can neither add nor lose a knob
_COMMON_FLAGS = {"-h", "--help", "--config", "--seed", "--out", "--format"}
_LAW_FLAGS = {"--family", "--alpha", "--beta", "--gamma", "--sigma", "--normalize",
              "--unimodal"}
CLI_SURFACE = {
    "analyze": _COMMON_FLAGS | _LAW_FLAGS,
    "flow": _COMMON_FLAGS | _LAW_FLAGS | {"--i-max", "--energy-level"},
    "resistance": _COMMON_FLAGS | _LAW_FLAGS | {"--radii"},
    "discretize": _COMMON_FLAGS | _LAW_FLAGS | {"--deltas", "--h-radius"},
    "simulate": _COMMON_FLAGS | _LAW_FLAGS | {"--window", "--horizon", "--replicas"},
    "demo": _COMMON_FLAGS | {"--alpha", "--beta", "name=stable-sweep,multi-index"},
}


class TestCliSurface:
    def test_flags_are_pinned(self):
        (subparsers,) = (a for a in build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction))
        surface = {}
        for name, sub in subparsers.choices.items():
            knobs = set()
            for action in sub._actions:
                if action.option_strings:
                    knobs.update(action.option_strings)
                else:
                    knobs.add(f"{action.dest}={','.join(action.choices)}")
            surface[name] = knobs
        assert surface == CLI_SURFACE

    @pytest.mark.parametrize("command", sorted(CLI_SURFACE))
    def test_help_shows_table_defaults(self, command, capsys):
        args = [command, "stable-sweep"] if command == "demo" else [command]
        assert main([*args, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for opt in COMMANDS[command].options:
            assert f"run option '{opt.key}' (default: {opt.default})" in text


# the package's exported names, pinned so that adding or removing a library
# entry point shows up as a reviewed change; the submodules the package
# imports are exported too
LIBRARY_SURFACE = [
    "Basis", "CharTriple", "Classification", "ConvergenceTable", "ConvergenceVerdict",
    "CriterionEvidence", "DomainError", "FlowReport", "HypothesisViolationError", "Interval",
    "JensenGap", "LatticeSampler", "LevyTriplet", "NetworkSlice", "Normalization",
    "NumericError", "PowerPiece", "PowerTailComponent", "ResistanceProfile",
    "SimulationCapError", "Status", "SymmetricJumpLaw", "TailDescriptor", "TailKind",
    "TrajectoryStats", "TransienceVerdict", "as_finite_measure", "bin_density", "block_index",
    "build_slice", "char_exponent", "characteristics", "chung_fuchs_criterion", "classify",
    "convergence_report", "default_test_functions", "dyadic_energy_bound", "dyadic_flow",
    "effective_resistance", "effective_resistance_bounds", "even_chain_batch",
    "even_chain_criterion", "flow_energy", "inverse_cubic_density_criterion",
    "inverse_cubic_lattice_criterion", "jensen_gap", "make_gaussian_density",
    "make_lattice_table", "make_multi_index_lattice", "make_piecewise_power",
    "make_power_law_lattice", "make_stable_triplet", "make_walk_triplet", "moment",
    "resistance_profile", "sato_shepp_criterion", "sojourn_estimate", "tail_status",
    "verify_flow",
]


class TestLibrarySurface:
    def test_exports_are_pinned(self):
        assert sorted(levycrit.__all__) == LIBRARY_SURFACE
