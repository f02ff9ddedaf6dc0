"""CLI smoke tests: JSON output, exit codes, golden-ish round trips."""

import json
import subprocess
import sys

import numpy as np
import pytest

from merminkit import cli, eigenops


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "merminkit", *args],
        capture_output=True, text=True,
    )


class TestState:
    def test_ghz3(self):
        result = run_cli("state", "--id", "ghz3")
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["n"] == 3
        amps = data["amps"]
        assert amps[0] == [1.0, 0.0] and amps[7] == [1.0, 0.0]
        assert sum(1 for re, im in amps if re or im) == 2

    def test_sym_dicke_with_coeffs(self):
        result = run_cli("state", "--id", "v31~", "--coeffs", "1,2+1i,5")
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["amps"][0b010] == [2.0, 1.0]
        assert data["amps"][0b101] == [2.0, 1.0]

    def test_zero_coefficient_is_an_error(self):
        result = run_cli("state", "--id", "v31~", "--coeffs", "1,0,1")
        assert result.returncode == 1
        assert "error" in result.stderr


class TestEigenops:
    def test_solved_w_family(self):
        result = run_cli("eigenops", "--state", "v31~")
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["dimension"] == 2
        assert data["operators"] == ["s(1,1,1)", "s(1,2,2) + s(2,1,2) + s(2,2,1)"]
        assert data["eigenvalues"] == [1.0, 1.0]

    def test_catalog_flag(self):
        result = run_cli("eigenops", "--state", "v41~", "--catalog")
        data = json.loads(result.stdout)
        assert data["dimension"] == 5
        assert data["eigenvalues"] == [1.0, 0.0, 0.0, 0.0, -1.0]


class TestIdentities:
    def test_all_pass_with_exit_zero(self):
        result = run_cli("identities")
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["all_ok"] is True
        assert len(data["identities"]) == 38

    def test_failure_maps_to_exit_two(self, monkeypatch, capsys):
        monkeypatch.setattr(
            eigenops, "verify_identities",
            lambda: [eigenops.IdentityCheck("broken", False)],
        )
        assert cli.main(["identities"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["all_ok"] is False


class TestInstr:
    def test_ghz3_device(self):
        result = run_cli("instr", "--device", "u3")
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["explainable"] is False
        assert data["count"] == 0
        assert data["certificate"] == [0, 1, 2, 3]

    def test_solutions_truncated_by_flag(self):
        result = run_cli("instr", "--device", "v41~", "--max-solutions", "3")
        data = json.loads(result.stdout)
        assert data["count"] == 64
        assert len(data["solutions"]) == 3
        assert set(data["solutions"][0]) == {"xi", "eta"}

    def test_system_file(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps([
            {"expr": "s(1,2,2) + s(2,1,2) + s(2,2,1)", "target": 1},
        ]))
        result = run_cli("instr", "--system-file", str(path))
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["count"] == 24

    def test_system_file_with_polynomial(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps([
            {"expr": "s(1,2,2) + s(2,1,2) + s(2,2,1)", "target": 1, "poly": "f3"},
            {"expr": "s(1,1,1)", "target": 1},
        ]))
        result = run_cli("instr", "--system-file", str(path))
        data = json.loads(result.stdout)
        assert data["count"] == 0

    def test_bad_device(self):
        assert run_cli("instr", "--device", "u9").returncode == 1


class TestBounds:
    def test_balanced_state_uniform(self):
        result = run_cli("bounds", "--state", "v42", "--mode", "uniform")
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["value"] == pytest.approx(6.0, abs=1e-6)
        assert data["gap"] < 1e-6
        assert len(data["setting"]["x"]) == 4

    def test_zero_starts_is_a_usage_error(self):
        result = run_cli("bounds", "--state", "u3", "--starts", "0")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.strip().splitlines() == [
            "merminkit: error: starts must be at least 1, got 0"
        ]


class TestContour:
    def test_writes_csv_and_summary(self, tmp_path):
        out = tmp_path / "grid.csv"
        result = run_cli("contour", "--state", "v42", "--sign", "+",
                         "--res", "41", "--out", str(out))
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["max_abs_mu"] == pytest.approx(6.0, abs=1e-9)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x3,y3,mu"
        assert len(lines) == 1 + 41 * 41

    def test_sign_branches_are_mirror_images(self, tmp_path):
        out_plus = tmp_path / "plus.csv"
        out_minus = tmp_path / "minus.csv"
        run_cli("contour", "--state", "v31", "--sign", "+", "--res", "11",
                "--out", str(out_plus))
        run_cli("contour", "--state", "v31", "--sign", "-", "--res", "11",
                "--out", str(out_minus))

        def grid_of(path):
            rows = [line.split(",") for line in
                    path.read_text().strip().splitlines()[1:]]
            values = np.array([float(mu) for _, _, mu in rows]).reshape(11, 11)
            return values

        assert np.array_equal(grid_of(out_minus), grid_of(out_plus)[:, ::-1])


@pytest.mark.parametrize("argv,system", [
    (["state", "--id", "ghz3", "--coeffs", "1,2"], None),
    (["eigenops", "--state", "u3", "--coeffs", "1"], None),
    (["state", "--id", "v31~", "--coeffs", "1,,2"], None),
    (["state", "--id", "v31~", "--coeffs", " "], None),
    (["state", "--id", "v31~", "--coeffs=-,+,1"], None),
    (["state", "--id", "v31~", "--coeffs", "nan,1,1"], None),
    (["state", "--id", "v31~", "--coeffs", "inf,1,1"], None),
    (["state", "--id", "v31~", "--coeffs", "1e999,1,1"], None),
    (["instr", "--device", "u3", "--max-solutions", "-1"], None),
    (["instr", "--system-file"], []),
    (["instr", "--system-file"], {"expr": "s(1,1,1)", "target": 1}),
    (["instr", "--system-file"], [{"expr": "s(1,1,1)"}]),
    (["instr", "--system-file"], [{"target": 1}]),
    (["instr", "--system-file"], [{"expr": "s(1,1,1)", "target": None}]),
    (["instr", "--system-file"], [{"expr": "s(1,1,1)", "target": 1, "poly": [3]}]),
    (["instr", "--system-file"], [7]),
    (["state", "--id", "zz"], None),
    (["frobnicate"], None),
    (["contour", "--state", "v31"], None),
    (["bounds", "--state", "u3", "--starts", "x"], None),
], ids=["ghz3-coeffs", "u3-coeffs", "empty-chunk", "blank-coeffs", "sign-only",
        "nan", "inf", "overflow", "negative-max-solutions", "empty-system",
        "system-not-a-list", "no-target", "no-expr", "null-target", "list-poly",
        "entry-not-an-object", "unknown-id", "unknown-subcommand",
        "missing-flags", "non-integer-starts"])
def test_bad_input_exits_one_with_one_line(tmp_path, argv, system):
    if system is not None:
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        argv = argv + [str(path)]
    result = run_cli(*argv)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr


class TestUsage:
    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, merminkit.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_unknown_subcommand_exits_one(self):
        assert run_cli("frobnicate").returncode == 1

    def test_unknown_flag_exits_one(self):
        assert run_cli("state", "--id", "ghz3", "--frob").returncode == 1

    def test_missing_required_flag_exits_one(self):
        assert run_cli("contour", "--state", "v31").returncode == 1

    def test_version(self):
        result = run_cli("--version")
        assert result.returncode == 0
        assert result.stdout.startswith("merminkit ")

    def test_json_round_trips(self):
        for args in (("state", "--id", "v42"), ("instr", "--device", "u3")):
            first = run_cli(*args).stdout
            parsed = json.loads(first)
            assert json.loads(json.dumps(cli._quantize(parsed))) == parsed
