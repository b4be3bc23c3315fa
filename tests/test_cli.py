import csv
import json
import shutil
import subprocess
import sys

import pytest

from shadowkit import cli
from shadowkit.seqcore import ConvergenceError, PreconditionError


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out.strip().splitlines(), captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_shadow_defaults_meet_ratio_bound(tmp_path, capsys):
    out = tmp_path / "run"
    code, lines, _ = run_cli(["shadow", "--out", str(out)], capsys)
    assert code == 0
    assert lines and all(line.startswith("PASS") for line in lines)

    rows = read_csv(out / "shadow.csv")
    assert len(rows) == 1
    assert float(rows[0]["ratio"]) <= 12.0
    assert float(rows[0]["step_error"]) <= 1e-11

    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["system"]["name"] == "weighted_shift_linear"
    assert manifest["config"]["N"] == 64
    assert manifest["config"]["d"] == 1e-4
    assert manifest["config"]["seed"] == 7
    assert manifest["constants"]["L"] == 3.0
    assert manifest["constants"]["M"] == 6.0
    for key in ("python", "numpy", "shadowkit"):
        assert key in manifest["versions"]


def test_shadow_sweep_writes_identical_bytes_on_two_runs(tmp_path, capsys):
    argv_tail = ["--override", "d_sweep=[1e-3, 1e-4]",
                 "--override", "runs=3",
                 "--override", "N=32",
                 "--override", "horizon=12"]
    out1, out2 = tmp_path / "first", tmp_path / "second"

    code1, _, _ = run_cli(["shadow", "--out", str(out1), *argv_tail], capsys)
    code2, _, _ = run_cli(["shadow", "--out", str(out2), *argv_tail], capsys)

    assert code1 == code2 == 0
    first = (out1 / "shadow.csv").read_bytes()
    second = (out2 / "shadow.csv").read_bytes()
    assert first == second
    rows = read_csv(out1 / "shadow.csv")
    assert len(rows) == 6
    assert {row["d"] for row in rows} == {"0.001", "0.0001"}
    assert all(float(row["ratio"]) <= 12.0 for row in rows)


def test_shadow_periodic_orbits_are_exactly_periodic(tmp_path, capsys):
    out = tmp_path / "run"
    code, lines, _ = run_cli(
        ["shadow-periodic", "--out", str(out),
         "--override", "periods=[1, 5]", "--override", "N=32"], capsys)
    assert code == 0
    assert all(line.startswith("PASS") for line in lines)
    rows = read_csv(out / "shadow_periodic.csv")
    assert [row["period"] for row in rows] == ["1", "5"]
    for row in rows:
        assert float(row["ratio"]) <= 12.0
        assert float(row["step_error"]) <= 1e-11


def test_chain_demo_places_periodic_points_within_bound(tmp_path, capsys):
    out = tmp_path / "run"
    code, lines, _ = run_cli(["chain-demo", "--out", str(out)], capsys)
    assert code == 0
    rows = read_csv(out / "chain_demo.csv")
    assert [row["d"] for row in rows] == ["0.01", "0.001", "0.0001"]
    for row in rows:
        assert float(row["distance"]) <= float(row["bound"])
        assert float(row["step_error"]) <= 1e-11
    assert any(line.startswith("PASS chain-distance") for line in lines)


def test_verify_cl_passes_on_base_and_conjugated_systems(tmp_path, capsys):
    out = tmp_path / "base"
    code, lines, _ = run_cli(["verify-cl", "--out", str(out)], capsys)
    assert code == 0
    assert len(lines) == 1 and lines[0].startswith("PASS structure-verifies")
    report = read_json(out / "report.json")
    assert report["verification"]["pass"] is True
    rows = read_csv(out / "verify_cl.csv")
    assert rows[0]["passed"] == "True"

    out2 = tmp_path / "conjugated"
    code2, lines2, _ = run_cli(
        ["verify-cl", "--out", str(out2),
         "--override", "system.name=conjugated:weighted_shift_linear",
         "--override", "points=3", "--override", "horizon=8"], capsys)
    assert code2 == 0
    manifest = read_json(out2 / "manifest.json")
    assert manifest["constants"]["C"] == pytest.approx(1.1080332409972298)


def test_shadow_passes_on_conjugated_system(tmp_path, capsys):
    out = tmp_path / "run"
    code, lines, _ = run_cli(
        ["shadow", "--out", str(out),
         "--override", "system.name=conjugated:weighted_shift_linear"], capsys)
    assert code == 0
    assert lines and all(line.startswith("PASS") for line in lines)


def test_verify_ed_reports_the_expected_separation(tmp_path, capsys):
    out = tmp_path / "run"
    code, lines, _ = run_cli(["verify-ed", "--out", str(out)], capsys)
    assert code == 0
    assert any(line.startswith("PASS structure-cl") for line in lines)
    assert any(line.startswith("FAIL dichotomy-Z+") for line in lines)
    assert any(line.startswith("PASS expected-separation") for line in lines)
    assert any(line.startswith("PASS witness-exact") for line in lines)

    rows = read_csv(out / "verify_ed.csv")
    assert len(rows) == 20
    for row in rows:
        m = int(row["m"])
        assert -20 <= m <= -1
        assert float(row["growth_observed"]) == 2.0 ** (-m)
        assert float(row["growth_observed"]) == float(row["growth_expected"])
        assert row["exact"] == "True"


def test_solver_oracle_agreement_by_seed_sweep(tmp_path, capsys):
    out = tmp_path / "run"
    code, lines, _ = run_cli(
        ["solver-oracle", "--out", str(out), "--override", "runs=10"], capsys)
    assert code == 0
    rows = read_csv(out / "solver_oracle.csv")
    assert len(rows) == 10
    assert max(float(row["discrepancy"]) for row in rows) <= 1e-8
    assert all(int(row["dim"]) <= 6 and int(row["length"]) <= 20 for row in rows)
    manifest = read_json(out / "manifest.json")
    assert manifest["constants"]["L"] == 3.0
    assert any(line.startswith("PASS oracle-agreement") for line in lines)
    assert any(line.startswith("PASS solver-bound") for line in lines)


def test_robustness_transfers_both_routes(tmp_path, capsys):
    out = tmp_path / "run"
    code, lines, _ = run_cli(["robustness", "--out", str(out)], capsys)
    assert code == 0
    rows = read_csv(out / "robustness.csv")
    assert {row["route"] for row in rows} == {"sequence", "diffeo"}
    assert max(float(row["inclusion_residual"]) for row in rows) <= 1e-9
    for name in ("tilt-bound", "contraction", "inclusion-residuals",
                 "certificate-verifies"):
        assert any(line.startswith(f"PASS {name}") for line in lines)
    manifest = read_json(out / "manifest.json")
    assert manifest["constants"]["lam1"] == 0.75
    assert manifest["constants"]["C1"] == 16.0


def test_semiconj_report_and_probe(tmp_path, capsys):
    out = tmp_path / "run"
    code, lines, _ = run_cli(
        ["semiconj", "--out", str(out), "--override", "horizon=2"], capsys)
    assert code == 0
    rows = read_csv(out / "semiconj.csv")
    assert len(rows) == 3
    ball = 2.0 * 1792.0 * 1e-4 * (1.0 + 1e-9)
    for row in rows:
        assert 0.0 < float(row["h1_norm"]) <= ball
        assert 0.0 < float(row["h2_norm"]) <= ball
        assert float(row["residual1"]) <= 1e-9
        assert float(row["residual2"]) <= 1e-9

    manifest = read_json(out / "manifest.json")
    assert manifest["constants"]["L"] == 1792.0
    assert manifest["constants"]["C1"] == 16.0
    assert manifest["constants"]["lam1"] == 0.75
    report = read_json(out / "report.json")
    assert report["job_meta"]["continuity"] == "sampled points only"
    assert "h1_quotient" in report["continuity_probe"]
    assert "h2_quotient" in report["continuity_probe"]
    for name in ("h-norm-ball", "defining-residuals"):
        assert any(line.startswith(f"PASS {name}") for line in lines)


def test_config_file_merges_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "experiment": "shadow",
        "N": 32,
        "horizon": 10,
        "d": 1e-3,
        "seed": 3,
    }))
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["shadow", "--config", str(cfg), "--out", str(out), "--seed", "5",
         "--override", "tolerances.ratio_max=15"], capsys)
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["N"] == 32
    assert manifest["config"]["horizon"] == 10
    assert manifest["config"]["seed"] == 5
    assert manifest["config"]["tolerances"]["ratio_max"] == 15
    assert manifest["config"]["out"] == str(out)


def test_precondition_failures_exit_3_with_error_json(tmp_path, capsys):
    # unknown config key
    out = tmp_path / "a"
    code, _, err = run_cli(
        ["shadow", "--out", str(out), "--override", "bogus_key=1"], capsys)
    assert code == 3
    payload = json.loads(err)
    assert payload["error"]["exit_code"] == 3
    assert "bogus_key" in payload["error"]["message"]
    assert (out / "error.json").exists()

    # both a single d and a sweep
    code, _, err = run_cli(
        ["shadow", "--out", str(tmp_path / "b"),
         "--override", "d=1e-3", "--override", "d_sweep=[1e-3]"], capsys)
    assert code == 3
    assert "d_sweep" in json.loads(err)["error"]["message"]

    # unresolvable system name surfaces at build time
    out_c = tmp_path / "c"
    code, _, err = run_cli(
        ["shadow", "--out", str(out_c),
         "--override", "system.name=no_such_system"], capsys)
    assert code == 3
    assert "no_such_system" in json.loads(err)["error"]["message"]
    assert (out_c / "error.json").exists()

    # config document naming a different experiment than the subcommand
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps({"experiment": "shadow"}))
    code, _, err = run_cli(
        ["verify-ed", "--config", str(cfg), "--out", str(tmp_path / "d")],
        capsys)
    assert code == 3
    assert "experiment" in json.loads(err)["error"]["message"]


# every numeric config key, with the override that sets it to a value
# (NaN, +-inf, or 1e400, which JSON reads as inf); p may be inf, not NaN
_NUMERIC_KEYS = {"N": "N={}", "seed": "seed={}", "runs": "runs={}",
                 "horizon": "horizon={}", "points": "points={}",
                 "periods": "periods=[1, {}]", "p": "p={}", "d": "d={}",
                 "d_sweep": "d_sweep=[1e-3, {}]", "lam1": "lam1={}",
                 "tolerances.step_tol": "tolerances.step_tol={}"}


@pytest.mark.parametrize("key, value", [
    (key, value) for key in _NUMERIC_KEYS
    for value in ("NaN", "Infinity", "-Infinity", "1e400")
    if key != "p" or value == "NaN"])
def test_non_finite_config_numbers_exit_3_naming_the_key(key, value,
                                                         tmp_path, capsys):
    out = tmp_path / "run"
    code, lines, err = run_cli(
        ["shadow", "--out", str(out),
         "--override", _NUMERIC_KEYS[key].format(value)], capsys)
    assert code == 3
    assert not lines
    payload = read_json(out / "error.json")
    assert payload == json.loads(err)
    assert payload["error"]["type"] == "PreconditionError"
    assert payload["error"]["message"].startswith(key)


# integers past int64, as JSON integers and as an integral float; every
# run is refused by load_config, before any array is built
@pytest.mark.parametrize("experiment, override, key", [
    ("verify-cl", "N=1000000000000000000000000000000", "N"),
    ("verify-cl", f"N={2 ** 63}", "N"),
    ("verify-cl", "N=1e30", "N"),
    ("shadow", f"runs={2 ** 63}", "runs"),
    ("shadow", f"seed={2 ** 64}", "seed"),
    ("shadow-periodic", f"periods=[1, {2 ** 63}]", "periods[i]"),
])
def test_integers_past_int64_exit_3_naming_the_key(experiment, override, key,
                                                   tmp_path, capsys):
    out = tmp_path / "run"
    code, lines, err = run_cli(
        [experiment, "--out", str(out), "--override", override], capsys)
    assert code == 3
    assert not lines
    payload = read_json(out / "error.json")
    assert payload == json.loads(err)
    assert payload["error"]["type"] == "PreconditionError"
    assert payload["error"]["message"].startswith(key)
    assert "64-bit" in payload["error"]["message"]


def test_the_largest_int64_passes_the_integer_check():
    top = 2 ** 63 - 1
    assert cli._as_int({"N": top}, "N", 4) == top
    with pytest.raises(PreconditionError):
        cli._as_int({"N": top + 1}, "N", 4)


def test_p_infinity_selects_the_sup_norm(tmp_path, capsys):
    out = tmp_path / "run"
    code, lines, _ = run_cli(
        ["verify-cl", "--out", str(out), "--override", "p=Infinity"], capsys)
    assert code == 0
    assert lines[0].startswith("PASS structure-verifies")
    assert read_json(out / "manifest.json")["config"]["p"] == "inf"


def test_verify_cl_on_an_operator_sequence_system(tmp_path, capsys):
    out = tmp_path / "run"
    code, lines, _ = run_cli(
        ["verify-cl", "--out", str(out),
         "--override", 'system={"name":"linear_no_ed"}'], capsys)
    assert code == 0
    assert len(lines) == 1 and lines[0].startswith("PASS structure-verifies")
    rows = read_csv(out / "verify_cl.csv")
    assert len(rows) == 1 and rows[0]["passed"] == "True"


def test_convergence_error_mid_run_exits_2_with_error_json(tmp_path, capsys,
                                                           monkeypatch):
    def diverging(*args):
        raise ConvergenceError("refinement stalled")

    monkeypatch.setattr(cli, "shadow", diverging)
    out = tmp_path / "run"
    code, lines, err = run_cli(["shadow", "--out", str(out)], capsys)
    assert code == 2
    assert not lines
    payload = read_json(out / "error.json")
    assert payload == json.loads(err)
    assert payload["error"]["type"] == "ConvergenceError"
    assert payload["error"]["exit_code"] == 2
    assert not (out / "shadow.csv").exists()


def test_a_map_without_a_certificate_is_refused_alike(tmp_path, capsys,
                                                     monkeypatch):
    # every registry map carries a certificate, so strip it after building
    make_system = cli.make_system
    monkeypatch.setattr(cli, "make_system",
                        lambda *a, **k: make_system(*a, **k).with_cert(None))
    messages = []
    for experiment in ("verify-cl", "shadow"):
        out = tmp_path / experiment
        code, lines, err = run_cli([experiment, "--out", str(out)], capsys)
        assert code == 3 and not lines
        payload = read_json(out / "error.json")
        assert payload == json.loads(err)
        assert payload["error"]["type"] == "PreconditionError"
        messages.append(payload["error"]["message"])
    assert messages[0] == messages[1]
    assert messages[0] == ("system 'weighted_shift_linear' carries no "
                           "splitting certificate")


def test_lam1_override_reaches_the_robustness_transfer(tmp_path, capsys):
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["robustness", "--out", str(out), "--override", "lam1=0.9"], capsys)
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["lam1"] == 0.9
    assert manifest["constants"]["lam1"] == 0.9

    for bad in ("0", "1", "1.5", "-0.5"):
        out_bad = tmp_path / f"bad{bad}"
        code, _, err = run_cli(
            ["robustness", "--out", str(out_bad),
             "--override", f"lam1={bad}"], capsys)
        assert code == 3
        assert "lam1" in json.loads(err)["error"]["message"]
        assert (out_bad / "error.json").exists()


def test_ms_product_with_a_low_lam1_exits_3(tmp_path, capsys):
    # the profile series cannot pin a(1) = 1 for lam1 up to about 0.15
    out = tmp_path / "low"
    code, _, err = run_cli(
        ["verify-cl", "--out", str(out), "--override",
         'system={"name": "ms_product", "lam1": 0.1}'], capsys)
    assert code == 3
    assert "lam1 = 0.1 " in json.loads(err)["error"]["message"]
    assert (out / "error.json").exists()


@pytest.mark.parametrize("system, key", [
    ('{"name": "ms_product", "lamb1": 0.3}', "'lamb1'"),
    ('{"name": "ms_product", "M": NaN}', "system.M"),
    ('{"name": "ms_product", "M": 1e400}', "system.M"),
    ('{"name": "conjugated:weighted_shift_linear", "amp": "x"}', "system.amp"),
    ('{"name": "linear_no_ed", "interval": []}', "system.interval"),
    ('{"name": "linear_no_ed", "interval": [0, 5]}', "system.interval"),
    ('{"name": "linear_no_ed", "interval": [0, 1.5]}', "system.interval"),
    ('{"name": "weighted_shift_linear", "amp": 0.1}', "'amp'"),
])
def test_bad_system_parameters_exit_3_naming_the_key(system, key, tmp_path,
                                                     capsys):
    out = tmp_path / "run"
    code, lines, err = run_cli(
        ["verify-cl", "--out", str(out), "--override", f"system={system}"],
        capsys)
    assert code == 3
    assert not lines
    payload = read_json(out / "error.json")
    assert payload == json.loads(err)
    assert payload["error"]["type"] == "PreconditionError"
    assert key in payload["error"]["message"]


def test_the_keys_a_system_takes_still_reach_it(tmp_path, capsys):
    for i, system in enumerate((
            '{"name": "linear_no_ed", "interval": [-3, -2, -1, 0]}',
            '{"name": "conjugated:weighted_shift_linear", "amp": 0.1}')):
        out = tmp_path / str(i)
        code, lines, _ = run_cli(
            ["verify-cl", "--out", str(out), "--override", f"system={system}"],
            capsys)
        assert code == 0
        assert lines[0].startswith("PASS structure-verifies")
        assert read_json(out / "manifest.json")["config"]["system"] == \
            json.loads(system)


@pytest.mark.parametrize("N", [4, 7, 8])
def test_a_window_too_small_for_interior_samples_exits_3(N, tmp_path, capsys):
    for system in ("weighted_shift_linear", "conjugated:weighted_shift_linear"):
        out = tmp_path / system.replace(":", "_")
        code, lines, err = run_cli(
            ["verify-cl", "--out", str(out), "--override", f"N={N}",
             "--override", f'system={{"name": "{system}"}}'], capsys)
        if N == 8:
            assert code == 0
            assert (out / "verify_cl.csv").exists()
            continue
        assert code == 3
        assert not lines
        payload = read_json(out / "error.json")
        assert payload == json.loads(err)
        assert payload["error"]["type"] == "PreconditionError"
        assert f"[-{N}, {N}]" in payload["error"]["message"]
        assert "N >= 8" in payload["error"]["message"]


def test_failed_check_exits_2_but_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code, lines, _ = run_cli(
        ["shadow", "--out", str(out),
         "--override", "tolerances.ratio_max=0.0"], capsys)
    assert code == 2
    assert any(line.startswith("FAIL ratio-bound") for line in lines)
    assert (out / "shadow.csv").exists()
    assert (out / "manifest.json").exists()


def test_module_and_console_entry_points(tmp_path):
    out = tmp_path / "module"
    proc = subprocess.run(
        [sys.executable, "-m", "shadowkit.cli", "verify-ed", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "PASS expected-separation" in proc.stdout

    exe = shutil.which("shadowkit")
    if exe is not None:
        out2 = tmp_path / "console"
        proc2 = subprocess.run([exe, "verify-ed", "--out", str(out2)],
                               capture_output=True, text=True, timeout=120)
        assert proc2.returncode == 0, proc2.stderr
