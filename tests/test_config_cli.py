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
from levycrit.cli import main
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

    def test_cli_import_leaves_out_quadpack_and_mpmath(self):
        probe = "import sys, levycrit.cli; print({'scipy.integrate', 'mpmath'} & {*sys.modules})"
        run = _run_python("-c", probe)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "set()"

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
        ],
    )
    def test_bad_numbers_exit_one(self, flags, law, tmp_path, capsys):
        if law is not None:
            cfg = tmp_path / "law.yaml"
            cfg.write_text(yaml.safe_dump({"law": law}))
            flags = ["--config", str(cfg)]
        assert main(["analyze", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_flow_level_cap_exits_one(self, capsys):
        # rejected before any array exists (level 40 would need 16 TiB)
        assert main(["flow", "--family", "power_lattice", "--alpha", "0.5",
                     "--i-max", "40"]) == 1
        assert capsys.readouterr().err.startswith("error:")

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
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert (
            main(
                ["simulate", "--family", "power_lattice", "--alpha", "0.5",
                 "--normalize", "--horizon", "400", "--replicas", "5",
                 "--seed", "11", "--out", str(out1)]
            )
            == 0
        )
        # re-run straight from the first report: the embedded resolved
        # config supplies the law, seed and every option
        assert (
            main(["simulate", "--config", str(out1 / "report.json"), "--out", str(out2)])
            == 0
        )
        rep1 = json.loads((out1 / "report.json").read_text())
        rep2 = json.loads((out2 / "report.json").read_text())
        rep1.pop("timestamp")
        rep2.pop("timestamp")
        assert rep1 == rep2

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

    def test_reports_embed_version_and_seed(self, capsys):
        main(["analyze", "--family", "stable", "--alpha", "1.5"])
        report = json.loads(capsys.readouterr().out)
        from levycrit import __version__

        assert report["version"] == __version__
        assert report["seed"] == 0
        assert report["config"]["triplet"]["alpha"] == 1.5


_FAMILY_KEYS = {
    "power_lattice": ("alpha",),
    "multi_index": ("alpha", "beta"),
    "stable": ("alpha", "gamma"),
    "gaussian": ("sigma",),
}
_EDGE_VALUES = st.sampled_from(
    [1e-300, 1e300, math.nan, math.inf, -math.inf, 0.0, -1.0, "abc", "", "1e5x"]
)
_PLAIN_VALUES = st.floats(min_value=0.05, max_value=3.0)


def _raise_timeout(signum, frame):
    raise TimeoutError("analyze did not finish")


@st.composite
def _analyze_docs(draw):
    family = draw(st.sampled_from(sorted(_FAMILY_KEYS)))
    cfg = {"family": family}
    for key in _FAMILY_KEYS[family]:
        cfg[key] = draw(st.one_of(_EDGE_VALUES, _PLAIN_VALUES), label=key)
    return {"triplet": cfg} if family == "stable" else {"law": cfg}


class TestCliBoundaryProperty:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(doc=_analyze_docs())
    # sigma^2 underflows to 0; 2^-(alpha+1) underflows past lag 1
    @example(doc={"law": {"family": "gaussian", "sigma": 1e-300}})
    @example(doc={"law": {"family": "multi_index", "alpha": 1e300, "beta": 0.5}})
    def test_analyze_config_ends_with_exit_code(self, doc):
        # random configs, sane or hostile values alike, end with a
        # documented exit code other than "unexpected failure" and at most
        # one line on stderr; the alarm turns a hang into a failure and is
        # no timing gate
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.alarm(120)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "run.yaml"
                path.write_text(yaml.safe_dump(doc))
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["analyze", "--config", str(path)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert len(err.getvalue().splitlines()) <= 1
        if code == 0:
            assert json.loads(out.getvalue())["results"]["classification"]
