import json
import math
import shlex
import time
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


def test_bands_band_list_warning_goes_to_stderr(tmp_path, capsys, monkeypatch):
    from hillmap import hill

    blist = hill.BandList(((0.0, 1.0),), ("planted band-list warning",))
    monkeypatch.setattr(hill, "spectrum_bands", lambda V, l, lambda_max: blist)
    out = tmp_path / "w.json"
    assert run(["bands", "--l", "1", "--lambda-max", "1", "--out", str(out),
                "--no-timestamp"]) == 0
    assert "warning: planted band-list warning" in capsys.readouterr().err
    assert json.loads(out.read_text())["warnings"] == ["planted band-list warning"]


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


@pytest.mark.parametrize("out", ["b.csv", "b.json"])
def test_bands_below_spectral_floor_refused(tmp_path, capsys, out):
    # the CSV path extends lambda_max to whole bands first; below the floor
    # it must still reach spectrum_bands' refusal
    assert run(["bands", "--potential", "constant", "--value", "5",
                "--lambda-max", "3", "--out", str(tmp_path / out)]) == 1
    assert "lambda_max must exceed the spectral floor" in capsys.readouterr().err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("out", ["b.csv", "b.json"])
@pytest.mark.parametrize("cell", [
    ["--potential", "constant", "--value", "5", "--lambda-max", "5"],
    ["--potential", "cosine", "--value", "3", "--lambda-max", "-3"],
], ids=["constant", "cosine"])
def test_bands_at_spectral_floor_refused_in_both_formats(tmp_path, capsys, cell, out):
    # lambda_max = min V: no band starts below it, and neither format
    # writes an empty table
    assert run(["bands", *cell, "--out", str(tmp_path / out)]) == 1
    assert "lambda_max must exceed the spectral floor" in capsys.readouterr().err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("argv", [
    ["mathieu", "--x0", "0.3", "--n", "8"],
    ["mathieu", "--x0", "0.3", "--n", "8", "--out", "m.csv"],
    ["bands", "--potential", "cosine", "--value", "7.8326", "--out", "b.csv"],
    ["bands", "--potential", "cosine", "--value", "7.8326", "--out", "b.json"],
], ids=" ".join)
def test_cosine_cells_run_no_ode(argv, tmp_path, monkeypatch):
    # cosine band lists and Mathieu orbits come from the Fourier-Hill chains
    # alone: an ODE solve anywhere in the package fails the run
    def refuse(*args, **kwargs):
        raise AssertionError("integrate_ivp called")

    monkeypatch.setattr("hillmap.numerics.integrate_ivp", refuse)
    monkeypatch.setattr("hillmap.hill.integrate_ivp", refuse)
    monkeypatch.setenv("HILLMAP_OUT_DIR", str(tmp_path))
    assert run([*argv, "--no-timestamp"]) == 0


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


def test_density_evolve_csv_and_saved_density(tmp_path):
    # the CSV rows are the JSON records, and the saved final density has mass 1
    argv = ["density-evolve", "--m", "3", "--steps", "2", "--resolution", "1000",
            "--no-timestamp"]
    out_json, out_csv, saved = tmp_path / "e.json", tmp_path / "e.txt", tmp_path / "p.csv"
    assert run(argv + ["--out", str(out_json)]) == 0
    assert run(argv + ["--out", str(out_csv), "--format", "csv",
                       "--save-density", str(saved)]) == 0
    keys = ("step", "l1_to_invariant", "mass", "resolution")
    records = json.loads(out_json.read_text())["report"]
    assert read_rows(out_csv, 4) == [[float(r[k]) for k in keys] for r in records]
    cells = read_rows(saved, 3)
    assert cells and all(lo < hi for lo, hi, _ in cells)
    assert abs(sum((hi - lo) * v for lo, hi, v in cells) - 1.0) < 1e-12


def test_ensemble_json_and_determinism(tmp_path):
    # 65537 samples leave a last chunk of one, and at seed 65 its first draw
    # lies past 2: the chunk rejects all of its first draws and must redraw
    for samples, seed in (20000, 42), (65537, 65):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["ensemble", "--m", "2", "--samples", str(samples), "--iters", "3",
                "--seed", str(seed), "--no-timestamp"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        a, b = out1.read_text(), out2.read_text()
        assert a.replace(str(out1), "X") == b.replace(str(out2), "X")
        doc = json.loads(a)
        assert doc["report"]["seed"] == seed
        assert len(doc["report"]["distances"]) == 4
        assert doc["report"]["config"]["dist"] == {
            "kind": "shifted_gamma", "clamp_to_domain": False}


def test_threads_do_not_change_the_report(tmp_path):
    # --threads is echoed, and the report does not depend on it
    docs = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}.json"
        assert run(["ensemble", "--m", "3", "--samples", "100000", "--iters", "2",
                    "--threads", threads, "--out", str(out), "--no-timestamp"]) == 0
        docs.append(json.loads(out.read_text())["report"])
    assert [d["config"].pop("threads") for d in docs] == [1, 3]
    assert docs[0] == docs[1]


def test_ensemble_uniform_initial_law(tmp_path):
    out = tmp_path / "u.json"
    assert run(["ensemble", "--m", "2", "--samples", "5000", "--iters", "2",
                "--dist", "uniform", "--seed", "3", "--out", str(out), "--no-timestamp"]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["config"]["dist"]["kind"] == "uniform"
    assert report["rejections"] == 0 and len(report["distances"]) == 3


def test_negative_threads_rejected(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run(["ensemble", "--m", "2", "--samples", "2000", "--iters", "2",
                "--threads", "-5", "--out", str(out), "--no-timestamp"]) == 1
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


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


def test_lyapunov_orbit_through_the_fixed_point_reads_log_m(capsys, tmp_path):
    # x0 = 0 lands on the fixed point -2 at its first step; moved back
    # inside, the orbit leaves it and reads log 2, not 2 log 2
    out = tmp_path / "orbit.json"
    argv = ["lyapunov", "--m", "2", "--method", "orbit", "--x0", "0", "--n", "1000",
            "--out", str(out), "--no-timestamp"]
    assert run(argv) == 0
    res = json.loads(out.read_text())["result"]
    assert abs(res["value"] - math.log(2.0)) <= 4.0 * res["error_estimate"]
    assert res["restarts"] == 1
    assert "warnings" not in res
    assert capsys.readouterr().err == ""


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


def test_mixing_check_full_target_is_fast(tmp_path):
    # A = [0, 1] pulls back to all of [0, 1] through 2^40 branches; counting
    # branches costs O(1) per n where listing them cost 2^n
    out = tmp_path / "mix.csv"
    t0 = time.perf_counter()
    assert run(["mixing-check", "--m", "2", "--a-left", "0", "--a-right", "1",
                "--n-max", "40", "--out", str(out), "--no-timestamp"]) == 0
    assert time.perf_counter() - t0 < 0.5
    rows = read_rows(out, 3)
    assert len(rows) == 40 and all(r[1] == 0.0 and r[2] == 1.0 for r in rows)


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


@pytest.mark.parametrize("argv", [["--x0", "1.5"], ["--n", "-3"]], ids=["x0-1.5", "n-negative"])
def test_mathieu_refuses_before_printing(argv, capsys):
    # these once printed "lambda0 = ..." to stdout before the error
    assert run(["mathieu", *argv, "--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_mathieu_one_formula_call(monkeypatch, capsys):
    from hillmap import maps

    calls = []
    formula = maps.mathieu_formula
    monkeypatch.setattr(maps, "mathieu_formula", lambda x0, n: calls.append(n) or formula(x0, n))
    assert run(["mathieu", "--x0", "0.3", "--n", "6", "--no-timestamp"]) == 0
    assert calls == [range(7)]
    assert len(capsys.readouterr().out.splitlines()) == 2 + 7


@pytest.mark.parametrize("cell", [
    ["--potential", "free", "--l", "2"],
    ["--potential", "cosine", "--value", "7.8326"],
    ["--potential=piecewise", "--breakpoints=0,0.3,0.7", "--values=0,1,-0.5"],
], ids=["free", "cosine", "piecewise"])
def test_bands_csv_one_band_function_call(tmp_path, monkeypatch, cell):
    # every band of the table from one call, each equal to its own call
    from hillmap import hill

    calls = []
    band_function = hill.band_function
    monkeypatch.setattr(hill, "band_function",
                        lambda *args: calls.append(args) or band_function(*args))
    out = tmp_path / "b.csv"
    assert run(["bands", *cell, "--lambda-max", "40", "--k-points", "5", "--no-timestamp",
                "--out", str(out)]) == 0
    assert len(calls) == 1
    V, l, bands, indices, ks = calls[0]
    assert len(indices) >= 2
    rows = read_rows(out, 3)
    assert [r[0] for r in rows] == [i for i in indices for _ in ks]
    assert [r[2] for r in rows] == [
        lam for i in indices for lam in band_function(V, l, bands, i, ks).tolist()]


def test_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("m = 4\nout = ignored.csv\n")
    out = tmp_path / "c.csv"
    assert run(["coeffs", "--config", str(conf), "--out", str(out),
                "--no-timestamp", "--m", "3"]) == 0
    rows = read_rows(out, 2)
    assert [r[1] for r in rows] == [1.0, 0.0, -3.0, 0.0]  # flag m=3 wins


def test_one_parser_per_process_keeps_no_state(tmp_path, monkeypatch, capsys):
    # each call, run after the others on one cached parser, gives what it
    # gives on a parser of its own
    from hillmap import cli

    conf = tmp_path / "run.conf"
    conf.write_text("m = 4\n")
    cell = ["--potential", "piecewise", "--breakpoints", "0,0.3,0.7",
            "--values=0,1,-0.5", "--lambda-max", "30"]
    ens = ["ensemble", "--m", "2", "--samples", "4000", "--iters", "2"]
    calls = [
        ["coeffs", "--bogus"],
        ["coeffs", "--m", "3", "--out", "c.csv"],
        [*ens, "--clamp", "--out", "e.json"],
        [*ens, "--out", "e.json"],
        ["coeffs", "--config", str(conf), "--out", "c.csv"],
        ["coeffs", "--out", "c.csv"],
        ["bands", *cell, "--out", "b.json"],
        ["bands", *cell, "--k-points", "5", "--out", "b.csv"],
    ]

    def outcome(argv, out_dir):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(out_dir))
        code = run([*argv, "--no-timestamp"])
        written = out_dir / argv[-1] if "--out" in argv else None
        return code, capsys.readouterr(), written.read_bytes() if written else None

    cli._build_parser.cache_clear()
    warm = [outcome(argv, tmp_path / f"warm{i}") for i, argv in enumerate(calls)]
    assert cli._build_parser.cache_info().misses == 1
    for i, argv in enumerate(calls):
        cli._build_parser.cache_clear()
        assert outcome(argv, tmp_path / f"cold{i}") == warm[i], argv
    assert [code for code, _, _ in warm] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert b'"clamp": true' in warm[2][2] and b'"clamp": false' in warm[3][2]
    assert b"# config: m = 4" in warm[4][2] and b"# config: m = 2" in warm[5][2]


@pytest.mark.parametrize("word, clamp", [
    ("on", True), ("Yes", True), ("1", True), ("off", False), ("FALSE", False),
    ("0", False), ("ture", None), ("", None),
])
def test_config_file_booleans(tmp_path, capsys, word, clamp):
    # a word that is neither true nor false exits 1 rather than reading False
    conf = tmp_path / "run.conf"
    conf.write_text(f"clamp = {word}\n")
    out = tmp_path / "e.json"
    code = run(["ensemble", "--config", str(conf), "--samples", "2000",
                "--iters", "2", "--out", str(out), "--no-timestamp"])
    if clamp is None:
        assert code == 1
        assert "clamp" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["clamp"] is clamp
        assert doc["report"]["config"]["dist"]["clamp_to_domain"] is clamp


@pytest.mark.parametrize("argv, conf", [
    (["lyapunov", "--method", "bogus", "--n", "1000", "--out", "l.json"], None),
    (["lyapunov", "--n", "1000", "--out", "l.json"], "method = bogus"),
    (["ensemble", "--dist", "bogus", "--samples", "2000", "--iters", "2"], None),
    (["ensemble", "--samples", "2000", "--iters", "2"], "dist = Uniform"),
    (["ensemble", "--format", "xml", "--samples", "2000", "--iters", "2"], None),
    (["bands", "--format", "bogus", "--out", "b.json"], None),
    (["density-evolve", "--format", "xml", "--resolution", "64"], None),
    (["density-evolve", "--resolution", "64"], "format = "),
    (["density-evolve", "--init", "uniform", "--resolution", "64"], None),
    (["density-evolve", "--resolution", "64"], "init = uniform"),
], ids=["method", "method-config", "dist", "dist-config", "ensemble-format", "bands-format",
        "evolve-format", "evolve-format-config", "init-gone", "init-config-gone"])
def test_unlisted_option_values_exit_one(tmp_path, monkeypatch, capsys, argv, conf):
    # an enumerated option takes only its listed values, from a flag or a
    # config file alike, and a refused run writes nothing
    out_dir = tmp_path / "out"
    monkeypatch.setenv("HILLMAP_OUT_DIR", str(out_dir))
    if conf is not None:
        (tmp_path / "run.conf").write_text(conf + "\n")
        argv = [*argv, "--config", str(tmp_path / "run.conf")]
    assert run([*argv, "--no-timestamp"]) == 1
    assert capsys.readouterr().err
    assert not out_dir.exists()


def test_unknown_config_key_rejected(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("bogus = 1\n")
    assert run(["coeffs", "--config", str(conf)]) == 1


@pytest.mark.parametrize("argv", [
    ["lyapunov", "--m=3", "--method=orbit", "--n=5000", "--x0=-0.4", "--out=l.json"],
    ["ensemble", "--m=3", "--samples=3000", "--iters=3", "--clamp", "--dist=shifted_gamma",
     "--format=csv", "--out=e.csv"],
    ["ensemble", "--samples=3000", "--iters=3", "--no-clamp", "--out=e.json"],
    ["bands", "--potential=piecewise", "--breakpoints=0,0.3,0.7", "--values=0,1,-0.5",
     "--lambda-max=20", "--k-points=3", "--out=b.csv"],
    ["integral-sweep", "--a-min=-2.5", "--a-max=2.5", "--count=5", "--abs-tol=1e-9",
     "--out=i.csv"],
    ["density-evolve", "--m=3", "--steps=2", "--resolution=81", "--save-density=d.csv",
     "--out=v.csv"],
], ids=lambda argv: argv[0])
def test_config_file_entries_are_the_same_flags(tmp_path, monkeypatch, argv):
    # each entry is parsed as the subcommand's own flag, so a run from the
    # file writes the bytes of the run with those flags
    lines = []
    for flag in argv[1:]:
        key, _, value = flag[2:].partition("=")
        if key.startswith("no-") and not value:
            key, value = key[3:], "off"
        lines.append(f"{key} = {value or 'on'}")
    (tmp_path / "run.conf").write_text("\n".join(lines) + "\n")
    written = []
    for args in (argv, [argv[0], "--config", str(tmp_path / "run.conf")]):
        out_dir = tmp_path / f"out{len(written)}"
        monkeypatch.setenv("HILLMAP_OUT_DIR", str(out_dir))
        assert run([*args, "--no-timestamp"]) == 0
        written.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert written[0] == written[1]


@pytest.mark.parametrize("sub, conf", [
    ("coeffs", "m = 2.5"), ("bands", "lambda = 30"), ("ensemble", "no-clamp = on"),
    ("coeffs", "config = x.conf"),
], ids=["cast", "abbreviation", "negated-switch", "config"])
def test_config_entry_that_is_no_flag_value_exits_one(tmp_path, capsys, sub, conf):
    # the flag's cast applies to the file's value; a key must name an option
    # in full, although a flag may abbreviate it
    (tmp_path / "run.conf").write_text(conf + "\n")
    assert run([sub, "--config", str(tmp_path / "run.conf"), "--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("argv", [
    ["bands", "--l", "0", "--out", "b.csv"],
    ["bands", "--l", "-1", "--out", "b.csv"],
    ["coeffs", "--config", "missing.conf"],
    ["coeffs", "--m", "3", "--out", "a_file/c.csv"],
    ["integral-sweep", "--a-min", "nan", "--count", "3", "--out", "i.csv"],
    ["density-evolve", "--m", "0", "--out", "e.json"],
    ["density-evolve", "--steps", "-1", "--out", "e.json"],
    ["mixing-check", "--b-left", "1/2", "--b-right", "1/4", "--out", "m.csv"],
    ["mixing-check", "--b-left", "-1", "--b-right", "3", "--n-max", "3", "--out", "m.csv"],
    # sizes past any address space, refused before any memory is touched
    ["ensemble", "--samples", "100000000000000000", "--out", "e.json"],
    ["density-evolve", "--resolution", "144115188075855872", "--out", "e.json"],
], ids=["l-zero", "l-negative", "missing-config", "out-under-a-file", "a-nan", "m-zero",
        "negative-steps", "b-reversed", "b-past-the-unit-interval", "samples-711-PiB",
        "resolution-1-EiB"])
def test_input_fault_exits_one_with_an_error_line(tmp_path, monkeypatch, capsys, argv):
    # each of these once raised out of run or exited 2 (a-nan), or wrote a
    # table and exited 0 (negative-steps, b-*); the two sizes ended in
    # NumPy's MemoryError traceback
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "a_file").write_text("")
    monkeypatch.setenv("HILLMAP_OUT_DIR", str(out_dir))
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--no-timestamp"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in out_dir.iterdir()] == ["a_file"]


@pytest.mark.parametrize("argv, name", [
    (["bands", "--k-points", "0", "--out", "b.csv"], "--k-points"),
    (["bands", "--k-points", "1", "--out", "b.csv"], "--k-points"),
    (["mixing-check", "--n-max", "0", "--out", "m.csv"], "--n-max"),
    (["mixing-check", "--n-max", "-1", "--out", "m.csv"], "--n-max"),
    (["integral-sweep", "--count", "0", "--out", "i.csv"], "--count"),
    (["bands", "--lambda-max", "nan", "--out", "b.csv"], "lambda_max"),
    (["bands", "--lambda-max", "nan", "--out", "b.json"], "lambda_max"),
    (["integral-sweep", "--a-max", "inf", "--out", "i.csv"], "--a-max"),
    (["integral-sweep", "--a-min=-inf", "--count", "3", "--out", "i.csv"], "--a-min"),
    (["density-evolve", "--resolution", "0", "--out", "e.json"], "resolution"),
    (["bands", "--l", "inf", "--out", "b.json"], "cell length"),
    (["bands", "--l", "inf", "--out", "b.csv"], "cell length"),
    (["bands", "--potential", "cosine", "--l", "inf", "--out", "b.json"], "cell length"),
    (["integral-sweep", "--abs-tol", "0", "--out", "i.csv"], "abs_tol"),
    (["integral-sweep", "--abs-tol", "nan", "--out", "i.csv"], "abs_tol"),
    (["ensemble", "--seed", "-1", "--out", "e.json"], "seed"),
    (["ensemble", "--seed", str(1 << 64), "--out", "e.json"], "seed"),
], ids=["k-points-0", "k-points-1", "n-max-0", "n-max-negative", "count-0",
        "lambda-max-nan-csv", "lambda-max-nan-json", "a-max-inf", "a-min-inf",
        "resolution-0", "l-inf-json", "l-inf-csv", "l-inf-cosine", "abs-tol-0",
        "abs-tol-nan", "seed-negative", "seed-2**64"])
def test_input_that_names_its_fault(tmp_path, monkeypatch, capsys, argv, name):
    # each of these once wrote a table with no rows (or only k = 0) and
    # exited 0, or exited 1 with another reason (NaN bands, NumPy's
    # RuntimeWarning from the grid, "need n+1 edges"), or ended in a
    # traceback (l = inf); the abs-tol cases guard a refusal that moved
    # into the quadrature kernel; the seeds exited 1 with NumPy's message
    # on the Philox key, which names neither the seed nor its range
    monkeypatch.setenv("HILLMAP_OUT_DIR", str(tmp_path))
    assert run([*argv, "--no-timestamp"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert list(tmp_path.iterdir()) == []


def test_bad_flag_exits_one(capsys):
    assert run(["coeffs", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_domain_error_exits_one(capsys, tmp_path):
    out = tmp_path / "o.csv"
    code = run(["orbit", "--map", "tent", "--m", "2", "--x0", "1.5",
                "--out", str(out)])
    assert code == 1


@pytest.mark.parametrize("bad", ["inf", "nan"])
@pytest.mark.parametrize("potential", [
    ["--potential", "piecewise", "--breakpoints=0,0.5", "--values=0,{}"],
    ["--potential", "cosine", "--value={}"],
    ["--potential", "constant", "--value={}"],
    ["--potential", "piecewise", "--breakpoints=0,{}", "--values=0,1"],
], ids=["piecewise-values", "cosine", "constant", "piecewise-breakpoints"])
def test_non_finite_potential_exits_one(tmp_path, capsys, bad, potential):
    out = tmp_path / "b.csv"
    argv = ["bands", *(arg.format(bad) for arg in potential), "--l", "1",
            "--lambda-max", "40", "--out", str(out), "--no-timestamp"]
    assert run(argv) == 1
    assert "potential data must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("big", ["1e14", "1e300"])
@pytest.mark.parametrize("args", [
    ["--potential", "cosine", "--value={}", "--lambda-max", "40"],
    ["--potential", "piecewise", "--breakpoints=0,0.5", "--values=0,{}", "--lambda-max", "40"],
    ["--potential", "free", "--lambda-max", "{}"],
], ids=["cosine", "piecewise-values", "lambda-max"])
@pytest.mark.parametrize("ext", ["csv", "json"])
def test_too_large_to_compute_exits_one(tmp_path, capsys, big, args, ext):
    # refused by name before any array is sized, not by a NumPy failure
    out = tmp_path / f"b.{ext}"
    argv = ["bands", *(arg.format(big) for arg in args), "--l", "1",
            "--out", str(out), "--no-timestamp"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "bands, more than the 1e+06 computed with" in err
    assert ("lambda" if "free" in args else "the potential's range") in err
    assert not out.exists()


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
def test_readme_example_exits_zero(argv, tmp_path, monkeypatch, capsys):
    # each line exits 0, and a rerun with --no-timestamp writes the same bytes
    runs = []
    for rerun in ("first", "second"):
        out_dir = tmp_path / rerun
        monkeypatch.setenv("HILLMAP_OUT_DIR", str(out_dir))
        assert run([*argv, "--no-timestamp"]) == 0
        files = {str(p.relative_to(out_dir)): p.read_bytes()
                 for p in out_dir.rglob("*") if p.is_file()}
        assert bool(files) == ("--out" in argv)
        runs.append((capsys.readouterr().out, files))
    assert runs[0] == runs[1]
