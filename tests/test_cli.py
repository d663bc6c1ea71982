"""CLI parsing, CSV emission, determinism, and the verify command."""

import numpy as np
import pytest

from greendecay import ParameterError, build_grid
from greendecay import cli
from greendecay.cli import (
    VERIFY_SUITES,
    ExperimentConfig,
    main,
    parse_lambda,
    parse_potential,
    resolve_config,
    build_parser,
)


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


# ---------------------------------------------------------------- parsing


def test_parse_lambda_forms():
    assert parse_lambda("-10") == complex(-10.0)
    assert parse_lambda("-1+0.5i") == complex(-1.0, 0.5)
    assert parse_lambda("2i") == complex(0.0, 2.0)
    assert parse_lambda("-1 + 0.5j") == complex(-1.0, 0.5)
    with pytest.raises(ParameterError):
        parse_lambda("ten")


def test_parse_potential_forms(tmp_path):
    assert parse_potential("none").kind == "zero"
    pot = parse_potential("gaussian:10,0.2")
    assert (pot.amplitude, pot.rate, pot.center) == (10.0, 0.2, 0.0)
    pot = parse_potential("gaussian:10,0.2,5.0")
    assert pot.center == 5.0
    table = tmp_path / "v.txt"
    table.write_text("\n".join(str(0.1 * i) for i in range(16)))
    pot = parse_potential(f"file:{table}")
    assert pot.kind == "tabulated"
    assert len(pot.table) == 16
    with pytest.raises(ParameterError):
        parse_potential("gaussian:10")
    with pytest.raises(ParameterError):
        parse_potential("harmonic:1")


def test_config_file_merge_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("L=80\ndx=0.1\nlambda=-5\nscheme=fd2\nx2=5.0\n")
    parser = build_parser()
    args = parser.parse_args(["profile", "--config", str(cfg_file), "--L", "40"])
    args.experiment = "profile"
    cfg = resolve_config(args)
    assert cfg.L == 40.0  # flag wins
    assert cfg.dx == 0.1  # from file
    assert cfg.lam == complex(-5.0)
    assert cfg.schemes == ("fd2",)
    assert cfg.x2 == 5.0


def test_config_rejects_dx_and_n_together(tmp_path):
    parser = build_parser()
    args = parser.parse_args(["profile", "--dx", "0.1", "--n", "400"])
    args.experiment = "profile"
    with pytest.raises(ParameterError):
        resolve_config(args)


def test_config_validation_surfaces_grid_errors():
    parser = build_parser()
    args = parser.parse_args(["profile", "--L", "0.5"])
    args.experiment = "profile"
    with pytest.raises(ParameterError):
        resolve_config(args)


def test_bad_config_line_reported(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("L 80\n")
    parser = build_parser()
    args = parser.parse_args(["profile", "--config", str(cfg_file)])
    args.experiment = "profile"
    with pytest.raises(ParameterError):
        resolve_config(args)


@pytest.mark.parametrize("line", ["lamda=-5", "dense_cap=8192", "workers=2"])
def test_unknown_config_key_is_a_parameter_error(tmp_path, capsys, line):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"L=16\ndx=0.25\n{line}\n")
    rc = main(["profile", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert line.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- experiments


def test_profile_experiment_files_and_schema(tmp_path):
    rc = main([
        "profile", "--L", "16", "--dx", "0.25", "--lambda", "-4",
        "--scheme", "fd2", "--scheme", "ps",
        "--potential", "gaussian:2,0.5", "--out", str(tmp_path),
    ])
    assert rc == 0
    for name in ("profile_fd2.csv", "profile_ps.csv", "potential.csv", "run.meta"):
        assert (tmp_path / name).exists()
    lines = read_lines(tmp_path / "profile_fd2.csv")
    assert lines[0] == "x,absG"
    assert len(lines) == 1 + 33  # N/2 + 1 rows
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    meta = dict(line.split("=", 1) for line in read_lines(tmp_path / "run.meta"))
    assert meta["experiment"] == "profile"
    assert meta["schemes"] == "fd2,ps"
    assert "wall_time_s" in meta
    assert "numpy_version" in meta


def test_profile_floats_are_full_precision(tmp_path):
    main(["profile", "--L", "16", "--dx", "0.25", "--lambda", "-4",
          "--scheme", "fd2", "--out", str(tmp_path)])
    rows = read_lines(tmp_path / "profile_fd2.csv")[1:]
    value = rows[1].split(",")[1]
    assert float(value) != 0.0
    assert len(value.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 15


def test_profile_determinism(tmp_path):
    args = ["profile", "--L", "16", "--dx", "0.25", "--lambda", "-4",
            "--scheme", "mps", "--potential", "gaussian:2,0.5"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    body_a = (tmp_path / "a" / "profile_mps.csv").read_bytes()
    body_b = (tmp_path / "b" / "profile_mps.csv").read_bytes()
    assert body_a == body_b


def test_gamma_sweep_l_rows(tmp_path):
    rc = main(["gamma-sweep-l", "--dx", "0.25", "--lambda", "-4",
               "--sweep-l", "16,32", "--out", str(tmp_path)])
    assert rc == 0
    lines = read_lines(tmp_path / "gamma_sweep_l_fd2.csv")
    assert lines[0] == "L,gamma"
    assert [float(r.split(",")[0]) for r in lines[1:]] == [16.0, 32.0]
    gammas = [float(r.split(",")[1]) for r in lines[1:]]
    assert all(g > 0 for g in gammas)


def test_gamma_sweep_kc_rows(tmp_path):
    rc = main(["gamma-sweep-kc", "--L", "16", "--lambda", "-4", "--scheme", "mps",
               "--sweep-dx", "0.25,0.125", "--out", str(tmp_path)])
    assert rc == 0
    lines = read_lines(tmp_path / "gamma_sweep_kc_mps.csv")
    assert lines[0] == "kc,gamma"
    kcs = [float(r.split(",")[0]) for r in lines[1:]]
    assert kcs == sorted(kcs)  # kc grows as dx shrinks through the sweep order
    assert kcs[0] == pytest.approx(np.pi / 0.25)


def test_mollifier_experiment(tmp_path):
    rc = main(["mollifier", "--L", "16", "--dx", "0.25", "--out", str(tmp_path)])
    assert rc == 0
    lines = read_lines(tmp_path / "mollifier.csv")
    assert lines[0] == "k,theta0,theta,h"
    grid = build_grid(16.0, 64)
    rows = np.array([[float(v) for v in r.split(",")] for r in lines[1:]])
    assert rows.shape == (64, 4)
    np.testing.assert_allclose(rows[:, 0], grid.k, rtol=1e-15)
    # theta0 is the sharp step at (5/8) kc
    step = np.abs(grid.k) <= 0.625 * grid.kc
    np.testing.assert_allclose(rows[:, 1], step.astype(float), atol=0)
    assert np.all(rows[:, 2] <= 1.0)
    assert np.all(rows[:, 3] <= grid.kc**2 * (1 + 1e-15))


def test_moments_experiment(tmp_path):
    rc = main(["moments", "--L", "16", "--dx", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    lines = read_lines(tmp_path / "moments_mps.csv")
    assert lines[0] == "m,lhs,rhs"
    rows = [[float(v) for v in r.split(",")] for r in lines[1:]]
    assert [r[0] for r in rows] == list(range(11))
    assert all(r[1] <= r[2] * (1 + 1e-10) for r in rows)


def test_spectral_profile_has_no_size_cap(tmp_path):
    # ps columns are matrix-free: N = 4200 lies above the 4096 of the dense paths
    rc = main(["profile", "--L", "42", "--n", "4200", "--lambda", "-4", "--scheme", "ps",
               "--potential", "gaussian:2,0.5", "--out", str(tmp_path)])
    assert rc == 0
    assert len(read_lines(tmp_path / "profile_ps.csv")) == 1 + 2101


def test_malformed_potential_table_in_config_is_a_parameter_error(tmp_path, capsys):
    table = tmp_path / "v.txt"
    table.write_text("0.1\nnot-a-number\n")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"potential=file:{table}\n")
    rc = main(["profile", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error: cannot read potential table" in capsys.readouterr().err
    with pytest.raises(ParameterError):
        parse_potential(f"file:{tmp_path / 'missing.txt'}")


def test_invalid_parameter_exit_code(tmp_path, capsys):
    rc = main(["profile", "--L", "0.5", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("L, dx", [(float("nan"), 0.02), (float("inf"), 0.02), (40.0, float("nan")),
                                   (40.0, float("inf")), (40.0, 0.0)])
def test_grid_for_rejects_non_finite_spacing(L, dx):
    with pytest.raises(ParameterError):
        ExperimentConfig(experiment="profile", L=L, dx=dx).grid_for()


@pytest.mark.parametrize("flags", [
    ["--lambda", "nan"],
    ["--lambda=-1+nani"],
    ["--potential", "gaussian:nan,0.2"],
    ["--potential", "gaussian:10,inf"],
    ["--dx", "nan"],
    ["--L", "nan"],
    ["--L", "inf"],
])
def test_non_finite_input_exits_with_parameter_error(tmp_path, capsys, flags):
    # values that fail their type's own check exit through argparse, also with code 2
    try:
        rc = main(["profile", "--scheme", "fd2", "--out", str(tmp_path)] + flags)
    except SystemExit as stop:
        rc = stop.code
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run.meta").exists()


# ---------------------------------------------------------------- verify


def test_verify_fast_suites_pass(capsys):
    rc = main(["verify", "lattice", "leibniz"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS lattice.parseval" in out
    assert "PASS leibniz.leibniz_real_space" in out
    assert "FAIL" not in out


def test_verify_defaults_to_all_suites(monkeypatch, capsys):
    assert build_parser().parse_args(["verify"]).suites == []
    assert main(["verify", "lattice"]) == 0
    assert "PASS lattice.parseval" in capsys.readouterr().out
    ran = []
    monkeypatch.setattr(cli, "verify", lambda suites: ran.append(suites) or 0)
    assert main(["verify"]) == 0
    assert ran == [VERIFY_SUITES]
    assert len(VERIFY_SUITES) == 6


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_experiment_config_defaults_resolve():
    cfg = ExperimentConfig(experiment="profile")
    cfg.validate()
    assert cfg.grid_for().N == 2000
