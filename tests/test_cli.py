import io
import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibounds import cli
from bibounds.bounds import BoundReport, Discrepancy
from bibounds.harness import CheckResult

GOLDEN = Path(__file__).parent / "golden"

PINNED = {
    "bound.json": ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
                   "--phi", "caratheodory", "--psi", "caratheodory"],
    "audit.json": ["audit", "--theorem", "LL", "--grid", "0:1:0.5",
                   "--phi", "caratheodory", "--psi", "caratheodory"],
    "sweep.json": ["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0",
                   "--phi", "caratheodory", "--psi", "caratheodory", "--what", "a2"],
    "expand.json": ["expand", "--class", "M", "--alpha", "1",
                    "--a2", "0.5", "--a3", "0.25"],
    "verify.json": ["verify", "--suite", "identities", "--mode", "exact",
                    "--seed", "7", "--samples", "10"],
    # Every exact suite: bounds, solver, classes and series as well.
    "verify_exact_all.json": ["verify", "--suite", "all", "--mode", "exact",
                              "--seed", "3", "--samples", "4"],
    "table.json": ["table"],
    # Skewed psi: six PM display-variant notes; LL sigma and a3 discrepancies.
    "audit_pm_skewed.json": ["audit", "--theorem", "PM", "--grid", "0:1:1/2",
                             "--phi", "caratheodory", "--psi-coeffs", "2,1"],
    "audit_ll_skewed.json": ["audit", "--theorem", "LL", "--grid", "0:1:1/2",
                             "--phi", "caratheodory", "--psi-coeffs", "2,1"],
    # Thirds on both axes; both brackets vanish at (0, 0), a degenerate row.
    "audit_pp_thirds_degenerate.json": ["audit", "--theorem", "PP", "--grid", "0:1:1/3",
                                        "--phi-coeffs", "1,2", "--psi-coeffs", "1,2"],
    # A tolerance of 0.5 keeps 11 of the 41 LL discrepancy rows.
    "audit_ll_tolerance.csv": ["audit", "--theorem", "LL", "--grid", "0:1:1/4",
                               "--phi", "caratheodory", "--psi-coeffs", "2,1",
                               "--tolerance", "0.5", "--format", "csv"],
}


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


# The audit-grid benchmark's argv shapes at full size (an 11 x 11 grid), in
# every format: sha256 of repr((exit code, stdout, stderr)).
AUDIT_GRID_TARGETS = {
    "equal": ["--phi", "caratheodory", "--psi", "caratheodory"],
    "skewed": ["--phi", "caratheodory", "--psi-coeffs", "2,1"],
}
AUDIT_GRID_DIGESTS = {
    ("PP", "equal", "json"): "de3b1d13de95faa8f0b4d287af471a97d869acdc3974079427939cff210b2a37",
    ("PP", "equal", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("PP", "equal", "pretty"): "b74f46f5213ee7bec6e63b9c707db071c24a855e4057d28bf8cff4cfd265116a",
    ("PP", "skewed", "json"): "fdd669b0d3b24bd00a2f1fe7d8f3cd04f22999aa2e3cb9d5bb16d7194debbc9f",
    ("PP", "skewed", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("PP", "skewed", "pretty"): "b74f46f5213ee7bec6e63b9c707db071c24a855e4057d28bf8cff4cfd265116a",
    ("PM", "equal", "json"): "f7722f46033f0173517a803cf5da284fb2b529c0753a550093c4f316406fa9be",
    ("PM", "equal", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("PM", "equal", "pretty"): "752610ce9ac66d8fc85325ded648ba0af82389850e08f67d9d4f1260a27cce1c",
    ("PM", "skewed", "json"): "819e6771f2c2dde165678b6598ee61e94a66d49597ff41a2ccd71395aa4d2f70",
    ("PM", "skewed", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("PM", "skewed", "pretty"): "752610ce9ac66d8fc85325ded648ba0af82389850e08f67d9d4f1260a27cce1c",
    ("PL", "equal", "json"): "194ac3b008ee4c5cabe1f62614e5c47f3fc00b9491b7e7ae74a5613f820c9088",
    ("PL", "equal", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("PL", "equal", "pretty"): "f323eabfa52a6c67f22fc98d8463c0ca305db869a5dda4f52169b072bb584a7a",
    ("PL", "skewed", "json"): "3117686ce23ee7c909eb84c5ea011a90b0f2b990d84acf13f7b9f5b26f60d42f",
    ("PL", "skewed", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("PL", "skewed", "pretty"): "f323eabfa52a6c67f22fc98d8463c0ca305db869a5dda4f52169b072bb584a7a",
    ("MM", "equal", "json"): "7db85cd0acf72a997d500043feb205fc28aa7704a2515ae4d17b2530cdfb97c8",
    ("MM", "equal", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("MM", "equal", "pretty"): "4a2e2c2214b0c4347bc62d2333561af2c81e3e8cdf16b868a76201c3e08cb10d",
    ("MM", "skewed", "json"): "69ba571bb343bca73a6d612f7d9aada02317bc4444dceadd3ebbd47e7efc0a5c",
    ("MM", "skewed", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("MM", "skewed", "pretty"): "4a2e2c2214b0c4347bc62d2333561af2c81e3e8cdf16b868a76201c3e08cb10d",
    ("ML", "equal", "json"): "ebc0b1fab03a9876281abd0576de0e49a137a0632e068352a8c3524ace84703c",
    ("ML", "equal", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("ML", "equal", "pretty"): "7b6e67ef14f067df77853fc9f05644ab72d9beea63441e0b62382a4ce6d65acc",
    ("ML", "skewed", "json"): "dc882f30b7da77dde7d9aa29ad102414a6f454168d971f5f56cfe319ee0b13cf",
    ("ML", "skewed", "csv"): "cd0ffe2908c92ccc2528771ad321255f13c281a1192c90137f7a97e0e246e907",
    ("ML", "skewed", "pretty"): "7b6e67ef14f067df77853fc9f05644ab72d9beea63441e0b62382a4ce6d65acc",
    ("LL", "equal", "json"): "8705f1320d98a69926a90f0d799f5771f2ddef795f5d1b7833afded039e1f6d7",
    ("LL", "equal", "csv"): "f13f79ac50552adbca132bac648e35dfd6477c472623c76f4448cbf56be19fa7",
    ("LL", "equal", "pretty"): "5428dd3c0c108d9159dafff9a4a00d46af862b545f6da7a19f0ba48e6fa844eb",
    ("LL", "skewed", "json"): "3b7370a8c306164bfa7884d5b63ca3f4cdae8706f58faa9094702d1317944e7c",
    ("LL", "skewed", "csv"): "b0c86e38254782640ad58340429e9057e4effa5e66c915f13c5629ba2e121b71",
    ("LL", "skewed", "pretty"): "c62ac9838215a2c293063c7884a670095840044bc9e6dd51b22b87ab6e8004b4",
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_output(self, name):
        code, text = run_cli(PINNED[name])
        assert code == 0
        assert text == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_repeat_runs_identical(self, name):
        first = run_cli(PINNED[name])
        second = run_cli(PINNED[name])
        assert first == second

    def test_hash_seed_independence(self):
        # byte-identical across interpreter hash randomization
        outputs = set()
        for hashseed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-m", "bibounds", *PINNED["bound.json"]],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert outputs.pop() == (GOLDEN / "bound.json").read_text()

    @pytest.mark.parametrize("tag, targets, fmt", sorted(AUDIT_GRID_DIGESTS))
    def test_audit_grid_digest(self, tag, targets, fmt):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["audit", "--theorem", tag, "--grid", "0:1:1/10",
                             *AUDIT_GRID_TARGETS[targets], "--format", fmt])
        text = repr((code, out.getvalue(), err.getvalue()))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            AUDIT_GRID_DIGESTS[tag, targets, fmt]


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert cli.main(["bound", "--pair", "PP"]) == cli.EXIT_USAGE
        assert cli.main(["bound", "--pair", "XX", "--alpha", "0", "--beta", "0"]) \
            == cli.EXIT_USAGE
        assert cli.main(["sweep", "--pair", "PP", "--alpha", "zebra",
                         "--beta", "0"]) == cli.EXIT_USAGE

    def test_out_of_range_parameter_is_usage_error(self, capsys):
        code = cli.main(
            ["bound", "--pair", "LL", "--alpha", "2", "--beta", "0"]
        )
        assert code == cli.EXIT_USAGE

    def test_degenerate_bound_still_prints(self):
        code, text = run_cli(
            ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--phi-coeffs", "1,2", "--psi-coeffs", "1,2"]
        )
        assert code == cli.EXIT_DEGENERATE
        assert '"a2_printed": null' in text
        assert '"degenerate": true' in text

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        def fake(suite, mode, seed, samples):
            return [CheckResult("broken", False, "witness text")]

        monkeypatch.setattr(cli._harness, "run_identity_suites", fake)
        code, text = run_cli(["verify", "--suite", "identities"])
        assert code == cli.EXIT_VERIFY_FAILED
        assert '"passed": false' in text
        assert "witness text" in capsys.readouterr().err

    def test_large_target_a3_sweep_succeeds(self):
        code, text = run_cli(
            ["sweep", "--pair", "PM", "--alpha", "1/2", "--beta", "1/3",
             "--phi-coeffs", "2,1e8", "--what", "a3"]
        )
        assert code == 0
        assert '"gap": 0.0' in text

    def test_verify_success(self):
        code, text = run_cli(
            ["verify", "--suite", "series", "--seed", "1", "--samples", "5"]
        )
        assert code == 0
        assert '"passed": true' in text


class TestFormats:
    def test_sweep_csv_columns(self):
        # A coefficient past the stored ones reads 0, as in MindaTarget.
        for targets, b2 in (([], "2"), (["--phi-coeffs", "1"], "0")):
            code, text = run_cli(
                ["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0", *targets,
                 "--what", "a2", "--format", "csv"]
            )
            assert code == 0
            header, row = text.strip().splitlines()
            assert header == (
                "theorem,alpha,beta,B1,B2,D1,D2,quantity,max_value,bound,gap,attained"
            )
            fields = row.split(",")
            assert fields[0] == "PP"
            assert fields[4] == b2
            assert fields[7] == "a2"
            assert fields[11] == "true"

    def test_audit_csv(self):
        code, text = run_cli(
            ["audit", "--theorem", "LL", "--grid", "0:1:0.5", "--format", "csv"]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("theorem,alpha,beta,B1,B2,D1,D2,field")
        assert len(lines) == 5  # header + the four alpha*beta != 0 points

    def test_pretty_outputs(self):
        for argv in (
            ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--format", "pretty"],
            ["audit", "--theorem", "PP", "--grid", "0:0:1", "--format", "pretty"],
            ["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--format", "pretty"],
            ["expand", "--class", "P", "--alpha", "0", "--a2", "1", "--a3", "1",
             "--format", "pretty"],
            ["verify", "--suite", "series", "--samples", "3", "--format", "pretty"],
            ["table", "--format", "pretty"],
        ):
            code, text = run_cli(argv)
            assert code == 0, argv
            assert text

    def test_csv_unsupported_for_bound(self):
        code, _ = run_cli(
            ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--format", "csv"]
        )
        assert code == cli.EXIT_USAGE


class TestTargets:
    def test_explicit_coeffs_override_preset(self):
        code, text = run_cli(
            ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--phi", "caratheodory", "--phi-coeffs", "1,1",
             "--psi-coeffs", "1,1"]
        )
        assert code == 0
        assert '"phi": [\n    1.0,\n    1.0\n  ]' in text

    def test_preset_with_parameter(self):
        code, text = run_cli(
            ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--phi", "strong:1/2", "--psi", "strong:1/2"]
        )
        assert code == 0
        assert '"sigma_printed": 2.0' in text

    def test_bad_preset_is_usage_error(self, capsys):
        assert cli.main(
            ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
             "--phi", "nope"]
        ) == cli.EXIT_USAGE


class TestConfigFile:
    def test_defaults_from_file(self, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("# sweep defaults\nradial_steps = 3\nphase_steps = 4\n")
        code, text = run_cli(
            ["--config", str(config), "sweep", "--pair", "PP",
             "--alpha", "0", "--beta", "0"]
        )
        assert code == 0
        assert '"radial_steps": 3' in text
        assert '"phase_steps": 4' in text

    def test_flags_override_file(self, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("radial_steps=3\n")
        code, text = run_cli(
            ["--config", str(config), "sweep", "--pair", "PP",
             "--alpha", "0", "--beta", "0", "--radial-steps", "5"]
        )
        assert code == 0
        assert '"radial_steps": 5' in text

    def test_env_variable(self, tmp_path, monkeypatch):
        config = tmp_path / "env.cfg"
        config.write_text("seed=99\n")
        monkeypatch.setenv(cli.ENV_CONFIG, str(config))
        code, text = run_cli(["verify", "--suite", "series", "--samples", "2"])
        assert code == 0
        assert '"seed": 99' in text

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("bogus=1\n")
        assert cli.main(["--config", str(config), "table"]) == cli.EXIT_USAGE


BOUND = ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0"]
AUDIT = ["audit", "--theorem", "LL", "--grid", "0:1:0.5"]
SWEEP = ["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0"]
EXPAND = ["expand", "--class", "P", "--alpha", "0", "--a2", "1", "--a3", "1"]

# name -> (config file text or None, argv); each must exit 1 with no output.
REJECTED = {
    "bound_order_1": (None, BOUND + ["--order", "1"]),
    "config_order_2": ("order=2\n", BOUND),
    "expand_order_2": (None, EXPAND + ["--order", "2"]),
    "expand_order_1": (None, EXPAND + ["--order", "1"]),
    "verify_samples_0": (None, ["verify", "--samples", "0"]),
    "verify_samples_negative": (None, ["verify", "--samples", "-5"]),
    "config_samples_0": ("samples=0\n", ["verify", "--suite", "series"]),
    "sweep_phase_steps_3": (None, SWEEP + ["--phase-steps", "3"]),
    "sweep_radial_steps_1": (None, SWEEP + ["--radial-steps", "1"]),
    "config_order_not_int": ("order=abc\n", ["table"]),
    "audit_tolerance_nan": (None, AUDIT + ["--tolerance", "nan"]),
    "audit_tolerance_inf": (None, AUDIT + ["--tolerance", "inf"]),
    "audit_tolerance_negative": (None, AUDIT + ["--tolerance", "-1"]),
    "config_tolerance_nan": ("tolerance=nan\n", AUDIT),
    # A relative tolerance of 1 or more would let the audit pass vacuously.
    "audit_tolerance_1": (None, AUDIT + ["--tolerance", "1"]),
    "audit_tolerance_2": (None, AUDIT + ["--tolerance", "2"]),
    "audit_tolerance_1e300": (None, AUDIT + ["--tolerance", "1e300"]),
    "config_tolerance_1": ("tolerance=1\n", AUDIT),
    "config_tolerance_2": ("tolerance=2.5\n", AUDIT),
    "preset_zero_denominator": (None, BOUND + ["--phi", "order:1/0"]),
    "bound_order_65": (None, BOUND + ["--order", "65"]),
    "config_order_65": ("order=65\n", BOUND),
    "config_order_5000_digits": ("order=" + "7" * 5000 + "\n", BOUND),
    "config_key_5000_xs": ("x" * 5000 + "=1\n", BOUND),
    # An empty target flag is refused, not read as the Caratheodory default.
    "bound_phi_empty": (None, BOUND + ["--phi", ""]),
    "bound_psi_empty": (None, BOUND + ["--psi", ""]),
    "bound_phi_coeffs_empty": (None, BOUND + ["--phi-coeffs", ""]),
    "bound_psi_coeffs_empty": (None, BOUND + ["--psi-coeffs", ""]),
    "bound_psi_coeffs_empty_beside_psi": (None, BOUND + ["--psi", "caratheodory",
                                                        "--psi-coeffs", ""]),
    "audit_phi_empty": (None, AUDIT + ["--phi", ""]),
    "audit_psi_empty": (None, AUDIT + ["--psi", ""]),
    "audit_phi_coeffs_empty": (None, AUDIT + ["--phi-coeffs", ""]),
    "audit_psi_coeffs_empty": (None, AUDIT + ["--psi-coeffs", ""]),
    "sweep_phi_empty": (None, SWEEP + ["--phi", ""]),
    "sweep_psi_empty": (None, SWEEP + ["--psi", ""]),
    "sweep_phi_coeffs_empty": (None, SWEEP + ["--phi-coeffs", ""]),
    "sweep_psi_coeffs_empty": (None, SWEEP + ["--psi-coeffs", ""]),
}
# Rationals whose float conversion overflows.
OVERFLOWS = {
    "bound_alpha_beta_1e300": ["bound", "--pair", "PP", "--alpha", "1e300", "--beta", "1e300"],
    "bound_alpha_1e400": ["bound", "--pair", "PP", "--alpha", "1e400", "--beta", "0"],
    "expand_a2_1e400": ["expand", "--class", "P", "--alpha", "0", "--a2", "1e400", "--a3", "0"],
    "expand_l_a2_1e300_order_64": ["expand", "--class", "L", "--alpha", "1/3", "--a2", "1e300",
                                   "--a3", "1", "--order", "64"],
    "expand_l_a2_1e1000_order_64": ["expand", "--class", "L", "--alpha", "1/3", "--a2", "1e1000",
                                    "--a3", "1", "--order", "64"],
    "bound_phi_coeffs_1e400": BOUND + ["--phi-coeffs", "1,1e400"],
    "audit_grid_1e300": ["audit", "--theorem", "MM", "--grid", "1e300:1e300:1"],
    "sweep_alpha_beta_1e300": ["sweep", "--pair", "MM", "--alpha", "1e300", "--beta", "1e300"],
}
REJECTED.update((name, (None, argv)) for name, argv in OVERFLOWS.items())
# Decimal exponents past the parser's limit, and range checks on huge values.
HUGE = {
    "bound_alpha_1e4301": ["bound", "--pair", "PP", "--alpha", "1e4301", "--beta", "0"],
    "bound_alpha_1e-4301": ["bound", "--pair", "PP", "--alpha", "1e-4301", "--beta", "0"],
    "audit_grid_step_1e-4301": ["audit", "--theorem", "PP", "--grid", "0:1:1e-4301"],
    "bound_phi_coeffs_1e4301": BOUND + ["--phi-coeffs", "1,1e4301"],
    "expand_l_alpha_1e300": ["expand", "--class", "L", "--alpha", "1e300",
                             "--a2", "1", "--a3", "1"],
    "bound_alpha_minus_1e300": ["bound", "--pair", "PP", "--alpha=-1e300", "--beta", "0"],
    "audit_grid_points_1e300": ["audit", "--theorem", "PP", "--grid", "0:1e300:1"],
    # Literals of more digits than the parser's limit, with no exponent.
    "bound_alpha_5000_ones": ["bound", "--pair", "PP", "--alpha", "1" * 5000, "--beta", "0"],
    "bound_order_5000_digits": BOUND + ["--order", "7" * 5000],
    "bound_phi_coeffs_5000_digits": BOUND + ["--phi-coeffs", "1," + "7" * 5000],
    "audit_grid_step_5000_digits": ["audit", "--theorem", "PP", "--grid", "0:1:" + "7" * 5000],
    "verify_samples_5000_digits": ["verify", "--samples", "9" * 5000],
    # Long text that is not a number: every message quotes it shortened.
    "bound_pair_5000_xs": ["bound", "--pair", "x" * 5000, "--alpha", "0", "--beta", "0"],
    "bound_alpha_5000_xs": ["bound", "--pair", "PP", "--alpha", "x" * 5000, "--beta", "0"],
    "bound_phi_5000_xs": BOUND + ["--phi", "x" * 5000],
    "bound_phi_coeffs_5000_xs": BOUND + ["--phi-coeffs", "1," + "x" * 5000],
    "audit_grid_5000_xs": ["audit", "--theorem", "PP", "--grid", "x" * 5000],
    "audit_tolerance_5000_xs": AUDIT + ["--tolerance", "x" * 5000],
    "verify_suite_5000_xs": ["verify", "--suite", "x" * 5000],
    "table_5000_xs": ["table", "x" * 5000],
}
REJECTED.update((name, (None, argv)) for name, argv in HUGE.items())


class TestInputContract:
    def test_grid_points_per_axis_are_capped(self):
        assert len(cli._parse_grid("0:100:1")) == 101
        with pytest.raises(cli.UsageError):
            cli._parse_grid("0:101:1")

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejected_with_usage_error(self, name, tmp_path, capsys):
        config_text, argv = REJECTED[name]
        if config_text is not None:
            config = tmp_path / "defaults.cfg"
            config.write_text(config_text)
            argv = ["--config", str(config), *argv]
        code, text = run_cli(argv)
        assert (code, text) == (cli.EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error: ")
        assert len(err) < 200

    @pytest.mark.parametrize("name", sorted(OVERFLOWS))
    def test_float_overflow_is_one_usage_error_line(self, name, capsys):
        assert cli.main(OVERFLOWS[name]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("usage error: a result does not fit a float")

    @pytest.mark.parametrize("name", sorted(n for n, argv in OVERFLOWS.items()
                                            if argv[0] == "expand"))
    def test_expand_overflow_is_refused_before_the_series(self, name, monkeypatch,
                                                          capsys):
        # The floats of the input and the closed form overflow first, so the
        # exact series work never starts.
        def series_engine(*args, **kwargs):
            raise AssertionError("expand ran the series engine")
        monkeypatch.setattr(cli, "functional", series_engine)
        assert cli.main(OVERFLOWS[name]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: a result does not fit a float")

    @pytest.mark.parametrize("name", sorted(HUGE))
    def test_huge_values_give_one_short_usage_error_line(self, name, capsys):
        assert cli.main(HUGE[name]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("usage error: ")
        assert len(err) < 200

    def test_exponent_limit_quotes_the_text(self, capsys):
        assert cli.main(["audit", "--theorem", "PP", "--grid", "0:1:1E-0_4301"]) == 1
        assert "'1E-0_4301'" in capsys.readouterr().err
        assert cli.main(HUGE["bound_alpha_1e4301"]) == 1
        assert "'1e4301'" in capsys.readouterr().err

    def test_short_text_is_quoted_whole(self, capsys):
        # Shortening leaves argparse's and the library's wording as it was.
        for argv, message in (
            (["bound", "--pair", "PP", "--alpha", "zebra", "--beta", "0"],
             "argument --alpha: invalid rational value: 'zebra'"),
            (["bound", "--pair", "xy", "--alpha", "0", "--beta", "0"],
             "unknown pairing tag 'XY'"),
            (AUDIT + ["--tolerance", "tiny"],
             "argument --tolerance: invalid float value: 'tiny'"),
            (BOUND + ["--phi-coeffs", "1,two"], "Invalid literal for Fraction: 'two'"),
        ):
            assert cli.main(argv) == cli.EXIT_USAGE
            assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_tolerance_of_one_or_more_is_refused(self, tmp_path, capsys):
        assert cli.main(AUDIT + ["--tolerance", "2"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "usage error: tolerance must be below 1, got 2.0\n"
        config = tmp_path / "defaults.cfg"
        config.write_text("tolerance=1\n")
        assert cli.main(["--config", str(config), *AUDIT]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "usage error: tolerance must be below 1, got 1.0\n"
        code, text = run_cli(AUDIT + ["--tolerance", "0.999"])
        assert code == cli.EXIT_OK and '"tolerance": 0.999' in text

    def test_order_cap_is_inclusive(self, tmp_path):
        assert run_cli(BOUND + ["--order", str(cli.MAX_ORDER)])[0] == cli.EXIT_OK
        config = tmp_path / "defaults.cfg"
        config.write_text(f"order={cli.MAX_ORDER}\n")
        assert run_cli(["--config", str(config), *EXPAND])[0] == cli.EXIT_OK

    def test_bad_config_value_names_the_key(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("radial_steps=many\n")
        assert cli.main(["--config", str(config), "table"]) == cli.EXIT_USAGE
        assert "radial_steps" in capsys.readouterr().err


def _optional(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


_COUNTS = [str(n) for n in range(-3, 13)]
_RATIONALS = ["0", "1/3", "1/2", "1", "3/2", "-1", "1/0", "x", "1e300", "1e400",
              "1e4301", "1e-4301"]
_TAGS = ["PP", "PM", "PL", "MM", "ML", "LL", "XX"]
_PRESETS = ["caratheodory", "order:1/3", "strong:1/2", "strong:0", "order:1/0", "nope"]
_COEFFS = ["2,2", "1", "1,2", "2,1,1/2", "0,1", "1,x"]
_GRIDS = ["0:1:1/2", "0:0:1", "1:0:1", "0:1:0", "0:1", "0:1:1/0", "a:b:c", "0:1:1/3"]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    parts = [[command]]
    if command in ("bound", "sweep"):
        parts += [["--pair", draw(st.sampled_from(_TAGS))],
                  ["--alpha", draw(st.sampled_from(_RATIONALS))],
                  ["--beta", draw(st.sampled_from(_RATIONALS))]]
    if command == "audit":
        parts += [["--theorem", draw(st.sampled_from(_TAGS))],
                  ["--grid", draw(st.sampled_from(_GRIDS))],
                  draw(_optional("--tolerance", ["0", "1e-3", "nan", "inf", "-1"]))]
    if command in ("bound", "audit", "sweep"):
        parts += [draw(_optional("--phi", _PRESETS)), draw(_optional("--psi", _PRESETS)),
                  draw(_optional("--phi-coeffs", _COEFFS)),
                  draw(_optional("--psi-coeffs", _COEFFS))]
    if command in ("bound", "audit", "sweep", "expand"):
        parts.append(draw(_optional("--order", _COUNTS)))
    if command == "sweep":
        parts += [draw(_optional("--what", ["a2", "a3"])),
                  draw(_optional("--radial-steps", _COUNTS)),
                  draw(_optional("--phase-steps", _COUNTS))]
    if command == "expand":
        parts += [["--class", draw(st.sampled_from(["P", "M", "L", "Q"]))],
                  *(draw(_optional(flag, _RATIONALS))
                    for flag in ("--alpha", "--a2", "--a3"))]
    if command == "verify":
        parts += [draw(_optional("--suite", ["series", "classes", "solver", "bounds"])),
                  draw(_optional("--mode", ["exact", "float"])),
                  draw(_optional("--seed", ["0", "7", "-1"])),
                  ["--samples", str(draw(st.integers(-3, 2)))]]
    parts.append(draw(_optional("--format", ["json", "pretty", "csv", "xml"])))
    return [item for part in parts for item in part]


@settings(max_examples=200, deadline=None)
@given(cli_argv())
def test_fuzzed_argv_exits_with_a_contract_code(argv):
    buffer, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(errors):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code == cli.EXIT_USAGE:
        assert buffer.getvalue() == ""
        assert all(len(line) < 200 for line in errors.getvalue().splitlines())


# ----------------------------------------------------------------------
# the one-pass JSON writer against the two-pass reference


def _canonical(value):
    # The reference rounding: nine significant digits, 0.0 for every zero,
    # Fractions as floats, complex numbers as [re, im], tuples as lists.
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        if value == 0:
            return 0.0
        return float(format(value, ".9g"))
    if isinstance(value, Fraction):
        return _canonical(float(value))
    if isinstance(value, complex):
        return [_canonical(value.real), _canonical(value.imag)]
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _reference_json(payload):
    return json.dumps(_canonical(payload), indent=2) + "\n"


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**60, max_value=10**60),
    st.floats(),
    st.sampled_from([0, 0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                     5e-324, 1.7976931348623157e308, 0.1, 1e16, 123456789.5]),
    st.text(),
    st.text(st.characters(max_codepoint=0x3F)),
    st.complex_numbers(),
    st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**9),
)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_PAYLOADS)
@example({})
@example({"": [], "a": {}, "b": [[], {}, ()], "\u00e9\n\x00\"": {"\x1f\u2028": [True, 1, 1.0]}})
@example([True, False, 1, 0, -0.0, 0.0, math.nan, math.inf, -math.inf, 2**200])
@example({"c": complex(-0.0, math.nan), "f": Fraction(-1, 3), "t": (1, (2, ()))})
# Float texts on both sides of ".9g"'s switch to an exponent, and at the ends
# of the float range.
@example([1e-4, 9.99999999e-5, -1e-4, -9.99999999e-5, 999999999.4, 999999999.6,
          1e9, 1e16, 5e-324, -5e-324, 1.7976931348623157e308])
@example([24.0, 123456789.0, 1234567890123.0, -24.0, 0.5, 1e-4, 1e-4])
# Lists of dicts: one key sequence, a dict with another order or key set, an
# empty first dict, dicts mixed with other values, and an OrderedDict.
@example([{"a": 1.5, "b": [{"c": 1e-4}, {"c": 24.0}]}, {"a": None, "b": []},
          {"a": "x", "b": {"c": 2}}])
@example(({"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1}, {"a": 1, "b": 2, "c": 3},
          {"a": 1, "b": 2}))
@example([{}, {"a": 1}, {}])
@example([{"a": 1.0}, 2, [{"a": 1.0}], None, {"a": 0.5}, "a", (), {"a": {}}])
@example([{"a": 1, "b": 2}, OrderedDict([("a", 1), ("b", 2)]),
          OrderedDict([("b", 0.25)]), {"a": 3, "b": 4}])
@example([OrderedDict([("a", 1)]), {"a": 2}])
def test_render_json_is_the_reference_bytes(payload):
    assert cli.render_json(payload) == _reference_json(payload)


def test_render_json_on_an_audit_payload():
    args = cli.build_parser().parse_args(
        ["audit", "--theorem", "PM", "--grid", "0:1:1/10", "--psi-coeffs", "2,1"])
    payload, _ = cli._run_audit(args, {})
    assert cli.render_json(payload) == _reference_json(payload)


@pytest.mark.parametrize("targets", [
    ["--phi", "caratheodory", "--psi", "caratheodory"],
    ["--psi-coeffs", "2,1"],
    # Degenerate rows where a grid reaches alpha = 0 (LL: alpha = beta = 1).
    ["--phi-coeffs", "1,2", "--psi-coeffs", "1,2"],
], ids=["equal", "skewed", "degenerate"])
@pytest.mark.parametrize("grid", ["0:1:1/10", "0:1:1/3", "1/7:1:2/7", "1/3:1/3:1"])
@pytest.mark.parametrize("tag", ["PP", "PM", "PL", "MM", "ML", "LL"])
def test_render_json_on_audit_payloads(tag, grid, targets):
    args = cli.build_parser().parse_args(
        ["audit", "--theorem", tag, "--grid", grid, *targets])
    payload, _ = cli._run_audit(args, {})
    assert cli.render_json(payload) == _reference_json(payload)


def _hand_report(alpha, discrepancies, **values):
    fields = dict(theorem="LL", alpha=alpha, beta=0.5, phi=(2.0, -0.0), psi=(),
                  sigma_printed=1.0, sigma_derived=1.0, sigma_tilde=-0.0,
                  a2_printed=None, a2_generic=None, a3_printed=None,
                  a3_generic=None, degenerate=True, discrepancies=(),
                  notes=("a note",))
    fields.update(values)
    witness = dict(alpha=alpha, beta=0.5, B1=2.0, B2=-0.0, D1=math.inf, D2=math.nan)
    fields["discrepancies"] = tuple(
        Discrepancy(field, printed, derived, **witness)
        for field, printed, derived in discrepancies)
    return BoundReport(**fields)


def test_render_json_on_hand_built_reports():
    # Rows that hold None, NaN, infinities and -0.0, and a row with three
    # discrepancies, in the audit's row shape and in bound's.
    reports = [
        _hand_report(0.0, []),
        _hand_report(-0.0, [("sigma", math.nan, -0.0), ("a2", math.inf, -math.inf),
                            ("a3", 1e-4, 9.99999999e-5)],
                     sigma_printed=math.nan, a2_printed=math.inf,
                     a2_generic=-math.inf, a3_printed=-0.0, a3_generic=24.0,
                     degenerate=False),
        _hand_report(1e16, [("a2", 5e-324, 1.7976931348623157e308)],
                     a3_printed=123456789.0),
    ]
    payload = {"reports": [cli._report_record(rep, cli._AUDIT_ROW_FIELDS)
                           for rep in reports],
               "bound": [cli._report_record(rep) for rep in reports]}
    assert cli.render_json(payload) == _reference_json(payload)


# Every command but sweep, each in both verify modes.
_NON_SWEEP_ARGVS = [
    ["bound", "--pair", "PL", "--alpha", "1/2", "--beta", "1/3"],
    ["audit", "--theorem", "LL", "--grid", "0:1:1/2", "--psi-coeffs", "2,1"],
    ["expand", "--class", "L", "--alpha", "1/2", "--a2", "1", "--a3", "2"],
    ["table"],
    ["verify", "--suite", "all", "--samples", "2"],
    ["verify", "--suite", "all", "--samples", "2", "--mode", "float"],
]

# Runs in a fresh interpreter, so nothing the test run imported is loaded.
# numpy is hidden, as if only the package without extras were installed.
_RUNTIME_PROBE = f"""
import contextlib, io, sys
before = set(sys.modules)
sys.modules["numpy"] = None
from bibounds import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {_NON_SWEEP_ARGVS!r}]
loaded = {{name.split(".")[0] for name, module in sys.modules.items()
          if module is not None and name not in before}}
print(codes, sorted(loaded - set(sys.stdlib_module_names) - {{"bibounds"}}))
"""

_NO_NUMPY_SWEEP_PROBE = """
import sys
sys.modules["numpy"] = None
from bibounds import cli
sys.exit(cli.main(["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0"]))
"""


def _fresh_env():
    # A fresh interpreter that imports this checkout's bibounds, with no
    # config file supplying defaults.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop(cli.ENV_CONFIG, None)
    return env


def test_five_commands_need_no_third_party_package():
    proc = subprocess.run([sys.executable, "-c", _RUNTIME_PROBE],
                          capture_output=True, text=True, env=_fresh_env(), check=True)
    assert proc.stdout == "[0, 0, 0, 0, 0, 0] []\n"


def test_sweep_without_numpy_is_one_usage_error_line():
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SWEEP_PROBE],
                          capture_output=True, text=True, env=_fresh_env())
    assert (proc.returncode, proc.stdout) == (cli.EXIT_USAGE, "")
    assert proc.stderr == ("usage error: sweep needs numpy, the 'sweep' extra: "
                           "pip install 'bibounds[sweep]'\n")


_LAZY_NUMPY_PROBE = f"""
import contextlib, io, sys
import bibounds, bibounds.cli
from bibounds import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {_NON_SWEEP_ARGVS!r}]
    with contextlib.redirect_stderr(io.StringIO()):  # a rejected sweep
        codes.append(cli.main(["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0",
                               "--phase-steps", "3"]))
    print(codes, "numpy" in sys.modules, file=sys.stderr)
    cli.main(["sweep", "--pair", "PP", "--alpha", "0", "--beta", "0"])
print(codes, "numpy" in sys.modules)
"""


# Run with -I, so PYTHONPATH is ignored and the checkout's src goes first.
_NO_DATACLASSES_PROBE = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / "src")!r})
import bibounds.cli
print("dataclasses" in sys.modules)
"""


def test_cli_import_leaves_dataclasses_unloaded():
    proc = subprocess.run([sys.executable, "-I", "-c", _NO_DATACLASSES_PROBE],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_numpy_loads_only_for_the_sweeps():
    proc = subprocess.run([sys.executable, "-c", _LAZY_NUMPY_PROBE],
                          capture_output=True, text=True, env=_fresh_env(), check=True)
    assert proc.stderr == "[0, 0, 0, 0, 0, 0, 1] False\n"
    assert proc.stdout == "[0, 0, 0, 0, 0, 0, 1] True\n"


# Usage errors (from argparse and from the library), every exit code and
# every output format, for a process that builds its parser once.
_INTERLEAVED = [
    ["bound", "--pair", "PM", "--alpha", "1/2", "--beta", "0", "--psi-coeffs", "2,1"],
    ["audit", "--theorem", "QQ", "--grid", "0:1:1/2"],
    ["audit", "--theorem", "LL", "--grid", "0:1:1/2", "--format", "csv"],
    ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0", "--format", "csv"],
    ["verify", "--suite", "bounds", "--samples", "3", "--format", "pretty"],
    ["bound", "--pair", "PP", "--alpha", "0", "--beta", "0",
     "--phi-coeffs", "1,2", "--psi-coeffs", "1,2"],
    [],
    ["audit", "--theorem", "PM", "--grid", "0:1:1/2", "--psi-coeffs", "2,1",
     "--format", "pretty"],
    ["verify", "--samples", "0"],
    ["bound", "--pair", "LL", "--alpha", "1", "--beta", "1", "--format", "pretty"],
    ["audit", "--theorem", "PP", "--grid", "0:1:1/2", "--tolerance", "-1"],
    ["verify", "--suite", "solver", "--seed", "3", "--samples", "2"],
]


def test_one_parser_serves_interleaved_commands(monkeypatch):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    alone = []
    for argv in _INTERLEAVED:
        proc = subprocess.run([sys.executable, "-m", "bibounds", *argv],
                              capture_output=True, text=True, env=_fresh_env())
        alone.append((proc.stdout, proc.stderr, proc.returncode))
    assert {code for _, _, code in alone} == {0, 1, 2}
    order = list(range(len(_INTERLEAVED)))
    for index in order + order[::-1]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(_INTERLEAVED[index]))
        assert (out.getvalue(), err.getvalue(), code) == alone[index], _INTERLEAVED[index]
    assert cli.build_parser() is cli.build_parser()
