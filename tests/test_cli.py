"""CLI smoke tests: JSON output, exit codes, golden-ish round trips."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from merminkit import bounds, cli, eigenops, instructional, states


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


# a valid call of every subcommand; the fuzz cases below break one flag each
_VALID_CALLS = {
    "state": ["state", "--id", "v31~", "--coeffs", "1,2+1i,5"],
    "eigenops": ["eigenops", "--state", "v31~", "--coeffs", "1,2+1i,5"],
    "identities": ["identities"],
    "instr": ["instr", "--device", "u3", "--max-solutions", "3"],
    "bounds": ["bounds", "--state", "u3", "--mode", "uniform", "--seed", "1",
               "--starts", "2"],
    "contour": ["contour", "--state", "v31", "--sign", "+", "--res", "5",
                "--out", "grid.csv"],
}
_MISSING = object()  # the flag is given last, with no value after it
_MALFORMED = {"empty": "", "non-numeric": "x1", "unknown-choice": "zz",
              "missing": _MISSING}


def _fuzz_cases():
    for command, call in _VALID_CALLS.items():
        pairs = list(zip(call[1::2], call[2::2]))
        for k, (flag, _) in enumerate(pairs):
            rest = [a for pair in pairs[:k] + pairs[k + 1:] for a in pair]
            for kind, bad in _MALFORMED.items():
                if flag == "--out" and bad in ("x1", "zz"):
                    continue  # a plain file name is a valid output path
                tail = [flag] if bad is _MISSING else [flag, bad]
                yield pytest.param([command, *rest, *tail],
                                   id=f"{command}{flag}-{kind}")
    for kind, bad in _MALFORMED.items():  # "x1" and "zz" name no file
        tail = ["--system-file"] if bad is _MISSING else ["--system-file", bad]
        yield pytest.param(["instr", *tail], id=f"instr--system-file-{kind}")
    contour = ["contour", "--state", "v31", "--sign", "+"]
    yield pytest.param(contour + ["--res", "5", "--out", "no-such-dir/grid.csv"],
                       id="contour--out-missing-dir")
    yield pytest.param(contour + ["--res", "1000000", "--out", "grid.csv"],
                       id="contour--res-huge")
    yield pytest.param(["bounds", "--state", "u3", "--seed", "-1"],
                       id="bounds--seed-negative")
    yield pytest.param(["eigenops", "--state", "u3", "--catalog=x1"],
                       id="eigenops--catalog-with-value")
    yield pytest.param(["identities", "--frob"], id="identities-unknown-flag")
    yield pytest.param([], id="no-subcommand")


@pytest.mark.parametrize("command", sorted(_VALID_CALLS))
def test_fuzz_base_calls_succeed(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert cli.main(_VALID_CALLS[command]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("argv", _fuzz_cases())
def test_fuzz_malformed_flag_exits_one_with_one_line(tmp_path, monkeypatch, capsys,
                                                     argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err


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


class TestInstrIndices:
    def test_ten_qubit_system_file_prints_only_max_solutions(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps([{"expr": "s(1,1,1,1,1,1,1,1,1,1)", "target": 1}]))
        result = run_cli("instr", "--system-file", str(path), "--max-solutions", "2")
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["count"] == 524288
        assert data["solutions"] == [
            {"xi": [1] * 10, "eta": [1] * 10},
            {"xi": [-1, -1] + [1] * 8, "eta": [1] * 10},
        ]


def test_negative_seed_names_the_flag_and_value():
    result = run_cli("bounds", "--state", "u3", "--seed", "-1")
    assert result.returncode == 1
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert "seed" in line and "-1" in line


def test_starts_above_cap_is_one_line_error():
    # refused before any start is drawn, so this allocates nothing large
    result = run_cli("bounds", "--state", "u3", "--starts", "4097")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "merminkit: error: starts 4097 refused (above 4096)"
    ]


@pytest.mark.parametrize("expr", ["12582912*s(1,1,1)", "1e30*s(1,1,1)"])
def test_coefficient_sum_above_limit_is_one_line_error(tmp_path, capsys, expr):
    path = tmp_path / "system.json"
    path.write_text(json.dumps([{"expr": expr, "target": 14680064, "poly": "f3"}]))
    assert cli.main(["instr", "--system-file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert "coefficient magnitudes sum to" in err


def test_memory_error_is_one_line_error(capsys, monkeypatch):
    def out_of_memory(system):
        raise MemoryError("Unable to allocate 16.0 GiB for an array")

    monkeypatch.setattr(instructional, "solve", out_of_memory)
    assert cli.main(["instr", "--device", "u3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["merminkit: error: Unable to allocate 16.0 GiB for an array"]


def test_malformed_system_file_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text('[{"expr": "s(1,1,1)", "target": 1')
    assert cli.main(["instr", "--system-file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith("merminkit: error: Expecting")


@pytest.mark.parametrize("target", [0, 1])
def test_nan_coefficient_in_system_file_is_one_line_error(tmp_path, capsys, target):
    path = tmp_path / "system.json"
    path.write_text(json.dumps([{"expr": "nan*s(1,1,1)", "target": target}]))
    assert cli.main(["instr", "--system-file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["merminkit: error: coefficient 'nan' is not a number"]


@pytest.mark.parametrize("scale", ["1e-200", "1e-160", "1e200"])
def test_eigenops_output_does_not_depend_on_scale(capsys, scale):
    assert cli.main(["eigenops", "--state", "v41~", "--coeffs", "1,1,1,1"]) == 0
    reference = json.loads(capsys.readouterr().out)
    assert cli.main(["eigenops", "--state", "v41~", "--coeffs", ",".join([scale] * 4)]) == 0
    assert json.loads(capsys.readouterr().out) == reference


def test_eigenops_on_a_coefficient_whose_modulus_overflows(capsys):
    # the same state times 2**-1000 gives the same basis
    assert cli.main(["eigenops", "--state", "v31~", "--coeffs",
                     f"{(1.7e308 + 1.7e308j) * 2.0 ** -1000},{2.0 ** -1000},{2.0 ** -1000}"]) == 0
    reference = json.loads(capsys.readouterr().out)
    assert cli.main(["eigenops", "--state", "v31~", "--coeffs", "1.7e308+1.7e308i,1,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == reference["dimension"] == 4
    assert (doc["operators"], doc["eigenvalues"]) == (reference["operators"],
                                                      reference["eigenvalues"])


def test_version_is_looked_up_only_for_the_flag(monkeypatch, capsys):
    from importlib import metadata

    def refuse(name):
        raise AssertionError(f"metadata.version({name!r}) called")

    monkeypatch.setattr(metadata, "version", refuse)
    cli.build_parser()
    assert cli.main(["state", "--id", "u3"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3
    # the flag itself does look the version up
    monkeypatch.setattr(metadata, "version", lambda name: "9.8.7")
    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out == "merminkit 9.8.7\n"


@pytest.mark.parametrize("argv,read", [
    (["contour", "--state", "v42", "--sign", "+", "--res", "2001", "--out", "/dev/stdout"], 10),
    (["state", "--id", "u3"], 0),
], ids=["contour-to-stdout", "state-json"])
def test_closed_stdout_ends_quietly(argv, read):
    # stdout block-buffered, as it is for a pipe unless PYTHONUNBUFFERED is set
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "merminkit", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.read(read)
    proc.stdout.close()  # before the JSON is written, so that its flush meets a closed pipe
    try:
        stderr = proc.communicate(timeout=60)[1]
    finally:
        proc.kill()
    assert (proc.returncode, stderr) == (0, b"")


@pytest.mark.parametrize("expr, message", [
    ("0.9999999999*s(1,1,1)", "coefficient (0.9999999999+0j) is not an integer"),
    ("(1+1e-17i)*s(1,1,1)", "coefficient (1+1e-17j) is not an integer"),
    ("1e-13*s(1,1,1)", "coefficient '1e-13' is at most 1e-12"),
])
def test_inexact_coefficient_in_system_file_is_one_line_error(tmp_path, capsys, expr,
                                                              message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps([{"expr": expr, "target": 0}]))
    assert cli.main(["instr", "--system-file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"merminkit: error: {message}"]


def test_integer_valued_float_coefficient_in_system_file_is_accepted(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps([{"expr": "-3.0*s(1,1,1)", "target": -3}]))
    assert cli.main(["instr", "--system-file", str(path), "--max-solutions", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 32


@pytest.mark.parametrize("expr, message", [
    ("(1.7e308+1.7e308i)*s(1,1,1)",
     "the terms of s(1,1,1) sum to 1.7e+308+1.7e+308j, whose modulus is beyond the float range"),
    ("0.1*s(1,1,1) + 0.2*s(1,1,1) - 0.3*s(1,1,1)",
     "the terms of s(1,1,1) sum to 5.55e-17+0j, which is nonzero but not above 1e-12"),
])
def test_unusable_summed_coefficient_in_system_file_is_one_line_error(tmp_path, capsys, expr,
                                                                      message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps([{"expr": expr, "target": 0}]))
    assert cli.main(["instr", "--system-file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"merminkit: error: {message}"]


@pytest.mark.parametrize("expr", ["*s(1,1,1)", "-*s(1,1,1)", "s(1,1,1) + *s(2,2,1)"])
def test_empty_coefficient_in_system_file_is_one_line_error(tmp_path, capsys, expr):
    path = tmp_path / "system.json"
    path.write_text(json.dumps([{"expr": expr, "target": 1}]))
    assert cli.main(["instr", "--system-file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith("merminkit: error: bad term at '")


def test_system_file_reads_an_exponent_sign_after_a_trailing_point(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps([{"expr": "1.E+0*s(1,2,2) +\ts(2,1,2)\n+ s(2,2,1)",
                                 "target": 1, "poly": "f3"}]))
    assert cli.main(["instr", "--system-file", str(path), "--max-solutions", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 32


def test_unknown_device_is_one_line_error_listing_the_devices(capsys):
    assert cli.main(["instr", "--device", "zz"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert "unknown device 'zz'; known devices: u3, u3-last3, u4-1," in err


@pytest.mark.parametrize("chunks", ["1,,2", " ,1,1", "-,+,1", "1,2,*"])
def test_coeffs_chunk_that_is_not_a_number_is_refused(chunks):
    with pytest.raises(ValueError, match="bad coefficient"):
        cli._parse_coeff_list(chunks)


def test_devices_are_built_only_when_a_device_is_asked_for():
    code = ("import contextlib, io, merminkit.cli as cli, merminkit.instructional as ins\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['state', '--id', 'u3']) == 0\n"
            "    assert cli.main(['instr', '--help']) == 0\n"
            "assert ins._build_devices.cache_info().misses == 0\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['instr', '--device', 'u3-last3']) == 0\n"
            "assert ins._build_devices.cache_info().misses == 1\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", sorted(_VALID_CALLS))
def test_handler_returns_the_payload_that_main_emits(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    args = cli.build_parser().parse_args(_VALID_CALLS[command])
    payload = args.func(args)
    assert isinstance(payload, dict)
    assert capsys.readouterr() == ("", "")  # a handler writes nothing itself
    assert cli.main(_VALID_CALLS[command]) == 0
    from_main = capsys.readouterr().out
    cli.emit(payload)
    assert capsys.readouterr().out == from_main


def test_one_parser_per_process_with_fresh_defaults_per_call(capsys):
    cli.build_parser.cache_clear()
    assert cli.main(["instr", "--device", "v41~", "--max-solutions", "1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["solutions"]) == 1
    assert cli.main(["instr", "--device", "v41~"]) == 0
    assert len(json.loads(capsys.readouterr().out)["solutions"]) == 10
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()


def test_choices_are_the_tuples_the_library_checks(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for state_id in states.CATALOG_IDS:
        argv = ["contour", "--state", state_id, "--sign", "+", "--res", "2", "--out", "g.csv"]
        closed = state_id in bounds.CLOSED_FORM_IDS
        assert cli.main(argv) == (0 if closed else 1)
        if not closed:
            with pytest.raises(ValueError, match="^no closed form for state "):
                bounds.collinear_mu(state_id, 1, 0.0, 0.0)
    for mode in bounds.MODES:
        assert cli.main(["bounds", "--state", "u3", "--mode", mode, "--starts", "1"]) == 0
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        bounds.maximize(states.ghz(3), mode="bogus")


def test_a_system_over_the_work_budget_is_one_line_error(tmp_path, capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):  # 4^16 assignments would not fit in memory
        raise AssertionError("enumeration began")

    monkeypatch.setattr(instructional.np, "arange", no_enumeration)
    path = tmp_path / "system.json"
    path.write_text(json.dumps([{"expr": "s(" + ",".join(["1"] * 16) + ")", "target": 1}]))
    assert cli.main(["instr", "--system-file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "merminkit: error: enumeration of 4^16 assignments x 1 monomials refused "
        f"(above the work budget {instructional.MAX_WORK})"]
