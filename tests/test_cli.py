import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sosre import cli, partition, verify, weights
from sosre.params import (
    IllConditionedWarning,
    InvariantViolation,
    ParseError,
    SosError,
    validate_params,
)

FIXTURE = {
    "eta": [0.7, 0.0],
    "zeta": [1.1, 0.0],
    "theta": [0.9, 0.0],
    "lambdas": [[0.3, 0.0]],
    "xis": [[0.2, 0.0]],
}


def write_config(tmp_path, doc, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sampled_config(tmp_path, n, seed=5):
    rng = np.random.default_rng(seed)
    p = verify.sample_params(verify.SuiteConfig(), n, rng)
    path = tmp_path / f"params{n}.json"
    path.write_text(cli.dump_model_params(p))
    return str(path), p


def test_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    p = verify.sample_params(verify.SuiteConfig(), 3, rng)
    path = tmp_path / "round.json"
    path.write_text(cli.dump_model_params(p))
    q = cli.load_model_params(str(path))
    assert q == p


def test_load_errors(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        cli.load_model_params(str(tmp_path / "absent.json"))

    bad = tmp_path / "bad.json"
    bad.write_text('{"eta": [0.7, 0.0],')
    with pytest.raises(ParseError, match="line 1"):
        cli.load_model_params(str(bad))

    bad.write_text("[1, 2]")
    with pytest.raises(ParseError, match="top level"):
        cli.load_model_params(str(bad))

    doc = dict(FIXTURE)
    del doc["zeta"]
    with pytest.raises(ParseError, match="missing field 'zeta'"):
        cli.load_model_params(write_config(tmp_path, doc))

    doc = dict(FIXTURE, eta="0.7")
    with pytest.raises(ParseError, match="eta"):
        cli.load_model_params(write_config(tmp_path, doc))

    doc = dict(FIXTURE, lambdas=[[0.3, 0.0, 0.0]])
    with pytest.raises(ParseError, match=r"lambdas\[0\]"):
        cli.load_model_params(write_config(tmp_path, doc))

    doc = dict(FIXTURE, lambdas=[[True, 0.0]])
    with pytest.raises(ParseError, match=r"lambdas\[0\]"):
        cli.load_model_params(write_config(tmp_path, doc))

    doc = dict(FIXTURE, xis=[[0.2, 0.0], [0.4, 0.0]])
    with pytest.raises(InvariantViolation, match="equal length"):
        cli.load_model_params(write_config(tmp_path, doc))

    bad.write_bytes(b'{"eta": "\xff"}')
    with pytest.raises(ParseError, match="bad.json"):
        cli.load_model_params(str(bad))


def test_oversized_integer_exits_2(tmp_path, capsys):
    # 400 digits parse as a Python int but overflow a float
    path = write_config(tmp_path, dict(FIXTURE, lambdas=[[10**400, 0]]))
    sweep = ["sweep", "--config", path, "--vary", "1", "--from", "0.1,0", "--to", "0.2,0",
             "--points", "2"]
    for argv in (["compute", "--config", path], sweep):
        assert cli.main(argv) == 2
        assert "lambdas[0]: integer too large for a float" in capsys.readouterr().err
    # 5000 digits exceed the digit limit of int parsing inside json
    text = json.dumps(FIXTURE).replace("[[0.3, 0.0]]", "[[1" + "0" * 5000 + ", 0]]")
    (tmp_path / "params.json").write_text(text)
    assert cli.main(["compute", "--config", path]) == 2
    assert "digits" in capsys.readouterr().err


def test_compute_both(tmp_path, capsys):
    path = write_config(tmp_path, FIXTURE)
    rc = cli.main(["compute", "--config", path, "--method", "both"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rel_diff"] < 1e-12
    methods = [r["method"] for r in doc["results"]]
    assert methods == ["determinant", "brute-force"]
    det, brute = doc["results"]
    assert "cond_hint" in det and "log_Z" in det
    assert "cond_hint" not in brute and "log_Z" not in brute
    assert det["n"] == 1 and brute["n"] == 1


def test_compute_single_method(tmp_path, capsys):
    path = write_config(tmp_path, FIXTURE)
    assert cli.main(["compute", "--config", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "determinant"
    assert set(doc) == {"Z", "method", "elapsed_ms", "n", "cond_hint", "log_Z"}
    assert cli.main(["compute", "--config", path, "--method", "brute"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"Z", "method", "elapsed_ms", "n"}


def test_compute_agreement_n3(tmp_path, capsys):
    path, _ = sampled_config(tmp_path, 3)
    assert cli.main(["compute", "--config", path, "--method", "both"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rel_diff"] < 1e-9


def test_compute_output_file(tmp_path, capsys):
    path = write_config(tmp_path, FIXTURE)
    out = tmp_path / "z.json"
    assert cli.main(["compute", "--config", path, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["method"] == "determinant"


@pytest.mark.parametrize("argv", [["compute", "--config", None],
                                  ["verify", "--suite", "weights", "--samples", "1"]],
                         ids=["compute", "verify"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    argv = [write_config(tmp_path, FIXTURE) if a is None else a for a in argv]
    out = tmp_path / "missing" / "x.json"
    assert cli.main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_compute_overflowing_z_is_strict_json(tmp_path, capsys):
    # Z overflows a double while log Z stays finite: Z is written as null
    doc = {"eta": [0.62, 0], "zeta": [1.05, 0], "theta": [0.83, 0],
           "lambdas": [[90.1, 0], [90.4, 0.1], [89.7, 0.2]],
           "xis": [[0.24, 0], [0.11, 0], [0.37, 0.1]]}
    path = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        assert cli.main(["compute", "--config", path]) == 0
    det = _strict_json(capsys.readouterr().out)
    assert det["Z"] == [None, None]
    assert all(np.isfinite(det["log_Z"]))
    # the contraction overflows too; their relative difference is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        assert cli.main(["compute", "--config", path, "--method", "both"]) == 0
    both = _strict_json(capsys.readouterr().out)
    assert both["results"][0]["Z"] == [None, None]
    assert both["rel_diff"] is None
    # at Re lambda_0 = 400 the smallest pivot is NaN: cond_hint is null
    doc = {"eta": [0.62, 0], "zeta": [1.05, 0], "theta": [0.83, 0],
           "lambdas": [[400, 0], [0.47, 0]], "xis": [[0.24, 0], [0.11, 0]]}
    path = write_config(tmp_path, doc, "nan_pivot.json")
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", IllConditionedWarning)
        assert cli.main(["compute", "--config", path, "--method", "det"]) == 0
    assert _strict_json(capsys.readouterr().out)["cond_hint"] is None


def test_compute_guard_violation_exit2(tmp_path, capsys):
    doc = dict(FIXTURE, lambdas=[[-1.1, 0.0]])
    path = write_config(tmp_path, doc)
    rc = cli.main(["compute", "--config", path])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zeta+lambda[0]" in err


def test_compute_brute_cap_exit2(tmp_path, capsys):
    path, _ = sampled_config(tmp_path, 9)
    assert cli.main(["compute", "--config", path, "--method", "det"]) == 0
    capsys.readouterr()
    rc = cli.main(["compute", "--config", path, "--method", "brute"])
    assert rc == 2
    assert "N <= 8" in capsys.readouterr().err


def test_compute_brute_refuses_the_n11_draw(tmp_path, capsys):
    # verify's N = 11 draw, where contraction was 1.25 off a 50-digit value
    p = verify.sample_params(verify.SuiteConfig(), 11,
                             np.random.default_rng(np.random.SeedSequence((42, 49, 0))))
    path = tmp_path / "params11.json"
    path.write_text(cli.dump_model_params(p))
    assert cli.main(["compute", "--config", str(path), "--method", "brute"]) == 2
    assert capsys.readouterr().err == (
        "error: brute-force contraction needs N <= 8, got N = 11\n")


def test_compute_large_chain_is_fast(tmp_path, capsys):
    path, _ = sampled_config(tmp_path, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(["compute", "--config", path, "--method", "det"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["elapsed_ms"] < 100.0
    assert np.isfinite(doc["log_Z"][0])


def test_env_guard_tol_rejects_coarse_instances(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, FIXTURE)
    assert cli.main(["compute", "--config", path]) == 0
    capsys.readouterr()
    monkeypatch.setenv("SOS_GUARD_TOL", "0.5")
    rc = cli.main(["compute", "--config", path])
    assert rc == 2
    assert "non-generic" in capsys.readouterr().err
    monkeypatch.setenv("SOS_GUARD_TOL", "plenty")
    assert cli.main(["compute", "--config", path]) == 2


def test_verify_cli_reproducible(capsys):
    args = ["verify", "--suite", "all", "--seed", "42", "--samples", "2"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["summary"]["failed"] == 0


def test_verify_max_n(capsys):
    rc = cli.main(["verify", "--suite", "algebra", "--samples", "1", "--max-n", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(c["n"] <= 1 for c in doc["cases"])
    assert cli.main(["verify", "--suite", "algebra", "--samples", "1", "--max-n", "0"]) == 2


def test_verify_flag_validation(capsys):
    assert cli.main(["verify", "--suite", "weights", "--seed", "-1"]) == 2
    assert cli.main(["verify", "--suite", "weights", "--samples", "0"]) == 2


def test_verify_exit1_on_failure(capsys, monkeypatch):
    original = weights.face_weights

    def crooked(lam, theta, eta):
        w = original(lam, theta, eta)
        return weights.FaceWeightSet(w.a, w.b_plus, w.b_minus, -w.c_plus, w.c_minus)

    monkeypatch.setattr(weights, "face_weights", crooked)
    cfg = verify.SuiteConfig(n_values=(1,), samples_per_case=1)
    canned = verify.run_suite("weights", cfg)
    assert canned.summary["failed"] > 0
    monkeypatch.setattr(verify, "run_suite", lambda *a, **k: canned)
    assert cli.main(["verify", "--suite", "weights"]) == 1


def test_removed_bench_command_exits_2(capsys):
    assert cli.main(["bench", "--max-n", "2"]) == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--config", "p.json", "--vary", "1", "--from", "0,0", "--to", "1,0",
      "--points", "abc"], "invalid int value: 'abc'"),
    (["compute", "--method", "det"], "the following arguments are required: --config"),
    # contraction's one limit is partition.BRUTE_CAP; the --cap flag is gone
    (["compute", "--config", "p.json", "--cap", "8"], "unrecognized arguments: --cap 8"),
])
def test_usage_errors_return_2(capsys, argv, message):
    # argparse's usage errors come back as exit code 2, like a bad file or
    # flag value, instead of raising SystemExit
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


def test_help_returns_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "{compute,verify,sweep}" in capsys.readouterr().out


def test_sweep_grid(tmp_path, capsys):
    path, p = sampled_config(tmp_path, 2)
    rc = cli.main([
        "sweep", "--config", path, "--vary", "2",
        "--from", "0.1,0.05", "--to", "0.6,0.05", "--points", "10",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lambda_re,lambda_im,z_re,z_im,status"
    assert len(lines) == 11
    assert all(line.endswith(",ok") for line in lines[1:])
    first = lines[1].split(",")
    assert abs(float(first[0]) - 0.1) < 1e-15 and abs(float(first[1]) - 0.05) < 1e-15


def test_sweep_marks_singular_points(tmp_path, capsys):
    doc = {
        "eta": [0.7, 0.0], "zeta": [1.1, 0.0], "theta": [0.9, 0.0],
        "lambdas": [[0.3, 0.0], [0.45, 0.0]], "xis": [[0.15, 0.0], [0.6, 0.0]],
    }
    path = write_config(tmp_path, doc)
    # the first grid point lands exactly on lambda_1 = zeta, an O(1) row,
    # then on lambda_1 = xi_2, a lambda-xi grid entry
    for start, stop in (("1.1,0", "1.35,0"), ("0.6,0", "0.7,0")):
        rc = cli.main([
            "sweep", "--config", path, "--vary", "1",
            "--from", start, "--to", stop, "--points", "2",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].endswith(",,,skipped")
        assert lines[2].endswith(",ok")


def test_sweep_marks_nonfinite_points(tmp_path, capsys):
    # the README example with lambda_0 swept past Re 177.5, where Z leaves a
    # double's range: the row keeps its lambda, not a NaN Z marked ok
    doc = {
        "eta": [0.62, 0.0], "zeta": [1.05, 0.0], "theta": [0.83, 0.0],
        "lambdas": [[0.31, 0.0], [0.47, 0.0]], "xis": [[0.24, 0.0], [0.11, 0.0]],
    }
    path = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        rc = cli.main([
            "sweep", "--config", path, "--vary", "1",
            "--from", "170,0", "--to", "180,0", "--points", "5",
        ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.endswith(",ok") and "nan" not in line for line in lines[1:5])
    assert lines[5] == "180,0,,,nonfinite"


def test_sweep_negative_start(tmp_path, capsys):
    # "-0.3,0.1" starts with '-', which argparse alone would read as a flag
    path, _ = sampled_config(tmp_path, 2)
    common = ["sweep", "--config", path, "--vary", "1", "--points", "5"]
    assert cli.main(common + ["--from", "-0.3,0.1", "--to", "-0.1,-0.2"]) == 0
    separate = capsys.readouterr().out
    assert cli.main(common + ["--from=-0.3,0.1", "--to=-0.1,-0.2"]) == 0
    assert capsys.readouterr().out == separate
    lines = separate.strip().splitlines()
    assert len(lines) == 6
    first, last = lines[1].split(","), lines[-1].split(",")
    assert (float(first[0]), float(first[1])) == (-0.3, 0.1)
    assert abs(complex(float(last[0]), float(last[1])) - complex(-0.1, -0.2)) < 1e-15


def test_sweep_flag_validation(tmp_path, capsys):
    path = write_config(tmp_path, FIXTURE)
    base = ["sweep", "--config", path, "--from", "0,0", "--to", "1,0"]
    assert cli.main(base + ["--vary", "2", "--points", "3"]) == 2
    assert cli.main(base + ["--vary", "1", "--points", "0"]) == 2
    assert cli.main([
        "sweep", "--config", path, "--vary", "1",
        "--from", "zero", "--to", "1,0", "--points", "3",
    ]) == 2


def test_sweep_one_point_is_the_from_row(tmp_path, capsys):
    path, p = sampled_config(tmp_path, 3)
    rc = cli.main(["sweep", "--config", path, "--vary", "2", "--from", "0.2,-0.1",
                   "--to", "0.7,0.3", "--points", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    lre, lim, zre, zim, status = lines[1].split(",")
    assert (float(lre), float(lim), status) == (0.2, -0.1, "ok")
    want = partition.z_determinant(p.replace_lambda(1, complex(0.2, -0.1))).value
    assert abs(complex(float(zre), float(zim)) - want) <= 1e-10 * abs(want)


def test_sweep_refuses_points_past_memory(tmp_path, capsys):
    # 10**15 int64 grid indices alone are 8 PB, past any address space, so
    # the allocation fails at once; nothing is evaluated
    path = write_config(tmp_path, FIXTURE)
    rc = cli.main(["sweep", "--config", path, "--vary", "1", "--from", "0.1,0",
                   "--to", "0.2,0", "--points", str(10**15)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --points 1000000000000000 ") and "Traceback" not in err


def _reference_sweep_csv(p, vary, start, stop, points):
    """The CSV of the per-point loop `sweep` ran before its batch route:
    validate_params then z_determinant at every grid point."""
    grid = start + (stop - start) * np.arange(points) / (points - 1)
    rows = ["lambda_re,lambda_im,z_re,z_im,status"]
    for v in grid.tolist():
        lam = f"{v.real:.17g},{v.imag:.17g}"
        q = p.replace_lambda(vary - 1, v)
        try:
            validate_params(q)
            z = partition.z_determinant(q).value
        except SosError:
            rows.append(f"{lam},,,skipped")
            continue
        if np.isfinite(z):
            rows.append(f"{lam},{z.real:.17g},{z.imag:.17g},ok")
        else:
            rows.append(f"{lam},,,nonfinite")
    return "\n".join(rows) + "\n"


def test_sweep_fallback_is_the_per_point_route(tmp_path, capsys, monkeypatch):
    # with an accept bound of 0 every point falls back, block after block
    monkeypatch.setattr(partition, "SWEEP_ACCEPT_ERR", 0.0)
    monkeypatch.setattr(partition, "SWEEP_BLOCK", 3)
    readme = {
        "eta": [0.62, 0.0], "zeta": [1.05, 0.0], "theta": [0.83, 0.0],
        "lambdas": [[0.31, 0.0], [0.47, 0.0]], "xis": [[0.24, 0.0], [0.11, 0.0]],
    }
    sampled, _ = sampled_config(tmp_path, 3)
    cases = [
        (sampled, 2, complex(-0.6, 0.1), complex(0.6, -0.2), 11),
        # the first point on lambda_1 = zeta, the last past a double's range
        (write_config(tmp_path, FIXTURE, "fixture.json"), 1, 1.1, 1.35, 4),
        (write_config(tmp_path, readme, "readme.json"), 1, 170.0, 180.0, 5),
    ]
    for path, vary, start, stop, points in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            rc = cli.main(["sweep", "--config", path, "--vary", str(vary),
                           f"--from={start.real!r},{start.imag!r}",
                           f"--to={stop.real!r},{stop.imag!r}", "--points", str(points)])
            want = _reference_sweep_csv(cli.load_model_params(path), vary, complex(start),
                                        complex(stop), points)
        assert rc == 0
        assert capsys.readouterr().out == want


@pytest.mark.parametrize("start,stop,message", [
    ("0,0", "1e308,1e308", "grid point 2 (from 0) between --from and --to is not finite"),
    ("-1e308,0", "1e308,0", "grid point 0 (from 0) between --from and --to is not finite"),
    ("nan,0", "1,0", "--from expects finite floats, got 'nan,0'"),
    ("0,0", "1,inf", "--to expects finite floats, got '1,inf'"),
])
def test_sweep_rejects_a_grid_that_is_not_finite(tmp_path, capsys, monkeypatch,
                                                 start, stop, message):
    # before anything is evaluated, and without numpy warnings
    def evaluate(*args):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(partition, "z_sweep", evaluate)
    path = write_config(tmp_path, FIXTURE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["sweep", "--config", path, "--vary", "1", f"--from={start}",
                       f"--to={stop}", "--points", "3"])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_module_entrypoint_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sosre", "verify", "--suite", "weights", "--samples", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["failed"] == 0


def test_import_does_not_load_scipy():
    # the determinant imports scipy.linalg on its first call, not before,
    # and its worker thread's pool on the first call that uses it
    code = ("import sys, threading, sosre.cli; print('scipy' in sys.modules, "
            "'concurrent.futures' in sys.modules, threading.active_count())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "False", "1"]
