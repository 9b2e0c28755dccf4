import json
import math
import shlex
from pathlib import Path

import pytest
from scipy.special import mathieu_b

from hillmap.cli import run


def read_rows(path, n_cols):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line:
            continue
        parts = line.split(",")
        if parts[0][0].isalpha():
            continue  # header
        rows.append([float(v) for v in parts[:n_cols]])
    return rows


def test_coeffs_prints_quintic(capsys):
    assert run(["coeffs", "--m", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1 0 -5 0 5 0"


def test_bands_free_edges(tmp_path):
    out = tmp_path / "b.csv"
    code = run([
        "bands", "--potential", "free", "--l", "1", "--lambda-max", "40",
        "--out", str(out), "--no-timestamp", "--k-points", "5",
    ])
    assert code == 0
    rows = read_rows(out, 3)
    by_band = {}
    for idx, k, lam in rows:
        by_band.setdefault(idx, []).append((k, lam))
    # band 1 spans [0, pi^2], band 2 continues to 4 pi^2
    assert abs(by_band[1.0][0][1] - 0.0) < 1e-6
    assert abs(by_band[1.0][-1][1] - math.pi**2) < 1e-6
    assert abs(by_band[2.0][-1][1] - math.pi**2) < 1e-6
    assert abs(by_band[2.0][0][1] - 4 * math.pi**2) < 1e-5


def test_bands_json(tmp_path):
    out = tmp_path / "b.json"
    assert run(["bands", "--l", "1", "--lambda-max", "12", "--out", str(out),
                "--no-timestamp"]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["lambda_max"] == 12.0
    assert abs(doc["bands"][0][1] - math.pi**2) < 1e-6


def test_bands_piecewise_potential(tmp_path):
    out = tmp_path / "pw.json"
    assert run([
        "bands", "--potential", "piecewise", "--breakpoints", "0,0.3,0.7",
        "--values", "0,1,-0.5", "--l", "1", "--lambda-max", "15",
        "--out", str(out), "--no-timestamp",
    ]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["bands"]) >= 1
    a, b = doc["bands"][0]
    assert a < b


@pytest.mark.parametrize("cell", [
    ["--potential", "cosine", "--value", "7.8326", "--lambda-max", "60"],
    ["--potential=piecewise", "--breakpoints=0,0.3,0.7", "--values=0,1,-0.5",
     "--lambda-max", "40"],
], ids=["cosine", "piecewise"])
def test_bands_csv_zone_ends_are_the_json_edges(tmp_path, cell):
    base = ["bands", *cell, "--k-points", "5", "--no-timestamp", "--out"]
    assert run([*base, str(tmp_path / "b.json")]) == 0
    assert run([*base, str(tmp_path / "x.csv")]) == 0
    first = (tmp_path / "x.csv").read_bytes()
    assert run([*base, str(tmp_path / "x.csv")]) == 0
    assert (tmp_path / "x.csv").read_bytes() == first
    bands = json.loads((tmp_path / "b.json").read_text())["bands"]
    rows = read_rows(tmp_path / "x.csv", 3)
    assert len(rows) == 5 * len(bands)
    lambda_max = float(cell[-1])
    assert bands[-1][1] == lambda_max  # the JSON clips the last band ...
    for i, (a, b) in enumerate(bands):
        ends = sorted((rows[5 * i][2], rows[5 * i + 4][2]))  # k = 0 and pi
        assert abs(ends[0] - a) <= 1e-9
        if b < lambda_max:
            assert abs(ends[1] - b) <= 1e-9
        else:  # ... the CSV writes it whole
            assert ends[1] > lambda_max + 1.0


def test_orbit_csv(tmp_path):
    out = tmp_path / "o.csv"
    assert run(["orbit", "--map", "logistic", "--x0", "0.75", "--n", "4",
                "--out", str(out), "--no-timestamp"]) == 0
    rows = read_rows(out, 2)
    assert [r[1] for r in rows] == [0.75] * 5


def test_density_evolve_json(tmp_path):
    out = tmp_path / "evo.json"
    assert run(["density-evolve", "--m", "2", "--steps", "3",
                "--resolution", "1024", "--out", str(out), "--no-timestamp"]) == 0
    doc = json.loads(out.read_text())
    report = doc["report"]
    assert [r["step"] for r in report] == [0, 1, 2, 3]
    assert all(abs(r["mass"] - 1.0) < 1e-9 for r in report)
    assert report[3]["l1_to_invariant"] < report[1]["l1_to_invariant"]


def test_ensemble_json_and_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["ensemble", "--m", "2", "--samples", "20000", "--iters", "3",
            "--seed", "42", "--no-timestamp"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    a, b = out1.read_text(), out2.read_text()
    assert a.replace(str(out1), "X") == b.replace(str(out2), "X")
    doc = json.loads(a)
    assert doc["report"]["seed"] == 42
    assert len(doc["report"]["distances"]) == 4


def test_threads_accepted_without_effect(tmp_path):
    # --threads is still parsed and echoed, but the report does not depend on it
    docs = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}.json"
        assert run(["ensemble", "--m", "3", "--samples", "20000", "--iters", "2",
                    "--threads", threads, "--out", str(out), "--no-timestamp"]) == 0
        docs.append(json.loads(out.read_text())["report"])
    assert [d["config"].pop("threads") for d in docs] == [1, 3]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("m", ["24", "64"])
def test_ensemble_high_order_stays_in_domain(tmp_path, m):
    # Horner's rounding error, ~(1 + sqrt 2)^m eps, threw these ensembles out
    # of [-2, 2] at the first iteration (exit 1)
    out = tmp_path / "e.json"
    assert run(["ensemble", "--m", m, "--iters", "1", "--out", str(out),
                "--no-timestamp"]) == 0
    assert len(json.loads(out.read_text())["report"]["distances"]) == 2


def test_ensemble_csv(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["ensemble", "--m", "2", "--samples", "5000", "--iters", "2",
                "--seed", "1", "--out", str(out), "--no-timestamp"]) == 0
    rows = read_rows(out, 2)
    assert len(rows) == 3
    assert rows[0][1] > rows[2][1]


def test_lyapunov_quadrature(capsys, tmp_path):
    out = tmp_path / "l.json"
    assert run(["lyapunov", "--m", "3", "--out", str(out), "--no-timestamp"]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["result"]["value"] - math.log(3.0)) < 1e-4
    assert "lyapunov(3)" in capsys.readouterr().out


def test_lyapunov_quadrature_high_order(tmp_path):
    # the x quadrature exited 2 for every m >= 22; in the angle it reaches
    # log m to 1e-12 and reports a bound that covers its error
    out = tmp_path / "l128.json"
    assert run(["lyapunov", "--m", "128", "--out", str(out), "--no-timestamp"]) == 0
    res = json.loads(out.read_text())["result"]
    err = abs(res["value"] - math.log(128.0))
    assert err <= 1e-12
    assert err <= res["error_estimate"] <= 1e-10


def test_integral_sweep(tmp_path):
    out = tmp_path / "I.csv"
    assert run(["integral-sweep", "--a-min", "-1", "--a-max", "1",
                "--count", "5", "--out", str(out), "--no-timestamp"]) == 0
    rows = read_rows(out, 2)
    assert len(rows) == 5
    assert all(abs(r[1]) < 1e-6 for r in rows)


def test_mixing_check(tmp_path):
    out = tmp_path / "mix.csv"
    assert run(["mixing-check", "--m", "3", "--a-left", "0", "--a-right", "1/3",
                "--b-left", "1/3", "--b-right", "2/3", "--n-max", "4",
                "--out", str(out), "--no-timestamp"]) == 0
    rows = read_rows(out, 3)
    # resolution-1 m-adic sets decorrelate exactly from n = 1
    assert all(r[2] == 1.0 for r in rows)


def test_mathieu_pipeline(capsys, tmp_path):
    out = tmp_path / "m.csv"
    assert run(["mathieu", "--x0", "0.2", "--n", "2", "--out", str(out),
                "--no-timestamp"]) == 0
    text = capsys.readouterr().out
    assert "lambda0" in text
    lam0 = float(text.splitlines()[0].split("=")[1])
    # printed to 8 decimals: -pi^2 b_1(q) at q = 1 / (2 pi^2)
    assert abs(lam0 + math.pi**2 * mathieu_b(1, 1.0 / (2.0 * math.pi**2))) <= 5e-9
    rows = read_rows(out, 4)
    assert all(r[3] < 1e-5 for r in rows)
    first = out.read_bytes()
    assert run(["mathieu", "--x0", "0.2", "--n", "2", "--out", str(out),
                "--no-timestamp"]) == 0
    assert out.read_bytes() == first


def test_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("m = 4\nout = ignored.csv\n")
    out = tmp_path / "c.csv"
    assert run(["coeffs", "--config", str(conf), "--out", str(out),
                "--no-timestamp", "--m", "3"]) == 0
    rows = read_rows(out, 2)
    assert [r[1] for r in rows] == [1.0, 0.0, -3.0, 0.0]  # flag m=3 wins


def test_unknown_config_key_rejected(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("bogus = 1\n")
    assert run(["coeffs", "--config", str(conf)]) == 1


def test_bad_flag_exits_one(capsys):
    assert run(["coeffs", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_domain_error_exits_one(capsys, tmp_path):
    out = tmp_path / "o.csv"
    code = run(["orbit", "--map", "tent", "--m", "2", "--x0", "1.5",
                "--out", str(out)])
    assert code == 1


def test_nonconvergence_exits_two(tmp_path):
    out = tmp_path / "I.csv"
    code = run(["integral-sweep", "--a-min", "2", "--a-max", "2", "--count", "1",
                "--abs-tol", "1e-30", "--out", str(out)])
    assert code == 2


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HILLMAP_OUT_DIR", str(tmp_path))
    assert run(["coeffs", "--m", "2", "--out", "sub/c.csv", "--no-timestamp"]) == 0
    assert (tmp_path / "sub" / "c.csv").exists()


def readme_cli_lines():
    """Every command line of the README's ``## CLI`` section, as argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("\n## ", 1)[0].split("```")[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("hillmap ")]


def test_readme_covers_every_subcommand():
    assert {argv[0] for argv in readme_cli_lines()} == {
        "coeffs", "bands", "orbit", "density-evolve", "ensemble", "lyapunov",
        "integral-sweep", "mathieu", "mixing-check",
    }


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
def test_readme_example_exits_zero(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("HILLMAP_OUT_DIR", str(tmp_path))
    assert run(argv) == 0
