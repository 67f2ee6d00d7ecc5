import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sosre import cli, verify, weights
from sosre.params import InvariantViolation, ParseError

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


def test_bench_csv(capsys):
    assert cli.main(["bench", "--max-n", "6", "--seed", "42"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,t_det_ms,t_brute_ms,rel_diff"
    assert len(lines) == 7
    for k, line in enumerate(lines[1:], start=1):
        n, t_det, t_brute, rd = line.split(",")
        assert int(n) == k
        assert float(t_det) >= 0 and float(t_brute) >= 0
        assert float(rd) < 1e-9


def test_bench_marks_rows_beyond_cap(capsys):
    assert cli.main(["bench", "--max-n", "9", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[9].startswith("9,") and lines[9].endswith(",-,-")
    assert cli.main(["bench", "--max-n", "0"]) == 2


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
    # the first grid point lands exactly on lambda_1 = zeta
    rc = cli.main([
        "sweep", "--config", path, "--vary", "1",
        "--from", "1.1,0", "--to", "1.35,0", "--points", "2",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].endswith(",,,skipped")
    assert lines[2].endswith(",ok")


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


def test_module_entrypoint_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sosre", "verify", "--suite", "weights", "--samples", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["failed"] == 0
