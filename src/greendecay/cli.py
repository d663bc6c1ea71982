"""Command-line front end: figure-reproduction experiments, verification, CSV output.

Every experiment resolves its parameters (defaults < config file < flags),
validates them against the module contracts, writes plot-ready CSV files plus
a run.meta key=value file, and is deterministic: the same configuration
produces byte-identical CSV bodies.
"""

import argparse
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ParameterError
from .greens import solve_green_column
from .lattice import (
    GridSpec,
    LatticeFunction,
    SpectralFunction,
    build_grid,
    dft,
    idft,
    mollified_distance,
    norm,
)
from .mollifier import MollifierSpec, bump_phi, h_on_grid, theta, theta_on_grid
from .operators import (
    FD2,
    MPS,
    PS,
    SCHEMES,
    PotentialSpec,
    ProblemSpec,
    difference,
    spectral_difference,
)
from .analysis import (
    fd_characteristic_rate,
    h_ratio_sup,
    measure_gamma,
    decay_profile,
    moment_check,
    weighted_G_h_norm,
    weighted_resolvent_norm,
)

EXPERIMENTS = ("profile", "gamma_sweep_l", "gamma_sweep_kc", "mollifier", "moments", "verify")
VERIFY_SUITES = ("lattice", "mollifier", "leibniz", "moments", "fd_theorem", "mps_theorems")


# --------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    experiment: str
    L: float = 40.0
    dx: float | None = 0.02
    n: int | None = None
    lam: complex = complex(-10.0)
    schemes: tuple[str, ...] = (FD2, PS, MPS)
    potential: PotentialSpec = field(default_factory=PotentialSpec.zero)
    x1: float = 1.0
    x2: float = 7.0
    sigma: float = 0.125
    sweep_l: tuple[float, ...] = (40.0, 80.0, 160.0, 320.0)
    sweep_dx: tuple[float, ...] = (0.05, 0.02, 0.01)
    out_dir: Path = Path("out")

    def grid_for(self, L: float | None = None, dx: float | None = None) -> GridSpec:
        L = self.L if L is None else L
        if self.n is not None and dx is None:
            return build_grid(L, self.n)
        dx = self.dx if dx is None else dx
        if not (np.isfinite(L) and 0.0 < dx < np.inf):
            raise ParameterError(f"need finite L and dx > 0, got L = {L}, dx = {dx}")
        N = int(round(L / dx))
        if abs(N * dx - L) > 1e-9 * L:
            raise ParameterError(f"L = {L} is not an integer multiple of dx = {dx}")
        return build_grid(L, N)

    def problem(self, scheme: str, L: float | None = None, dx: float | None = None) -> ProblemSpec:
        return ProblemSpec(
            grid=self.grid_for(L, dx),
            lam=self.lam,
            potential=self.potential,
            scheme=scheme,
            mollifier=MollifierSpec(sigma=self.sigma),
        )

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ParameterError(f"unknown experiment {self.experiment!r}")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ParameterError(f"unknown scheme {s!r}")
        if not 0 < self.x1 < self.x2:
            raise ParameterError(f"need 0 < x1 < x2, got x1={self.x1}, x2={self.x2}")
        self.problem(FD2)  # surfaces grid, lam and sigma errors early


def parse_lambda(text: str) -> complex:
    """Parse 'a', 'a+bi', 'bi' (also with 'j') into a complex number."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise ParameterError(f"cannot parse lambda value {text!r}; use forms like -10 or -1+0.5i")


def parse_potential(text: str) -> PotentialSpec:
    """Parse none | gaussian:A,ALPHA[,C] | file:PATH."""
    text = text.strip()
    if text == "none":
        return PotentialSpec.zero()
    if text.startswith("gaussian:"):
        parts = text[len("gaussian:"):].split(",")
        if len(parts) not in (2, 3):
            raise ParameterError(f"gaussian potential needs A,ALPHA[,C], got {text!r}")
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            raise ParameterError(f"non-numeric gaussian parameter in {text!r}")
        return PotentialSpec.gaussian(*nums)
    if text.startswith("file:"):
        try:
            values = np.loadtxt(Path(text[len("file:"):]), ndmin=1)
        except (OSError, ValueError) as err:
            raise ParameterError(f"cannot read potential table {text!r}: {err}") from None
        return PotentialSpec.tabulated(values)
    raise ParameterError(f"cannot parse potential {text!r}")


def _read_config_file(path: Path) -> dict[str, str]:
    out = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}; "
                                 f"known keys: {', '.join(_CONFIG_KEYS)}")
        out[key] = value
    return out


def _floats_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ParameterError(f"cannot parse float list {text!r}")


# config-file keys, each with the ExperimentConfig field it sets and the parser of
# its text; flags carry the same names (--lambda is stored as lam) and win over the file
_CONFIG_KEYS = {
    "L": ("L", float), "dx": ("dx", float), "n": ("n", int), "lambda": ("lam", parse_lambda),
    "scheme": ("schemes", lambda text: tuple(s.strip() for s in text.split(",") if s.strip())),
    "potential": ("potential", parse_potential), "x1": ("x1", float), "x2": ("x2", float),
    "sigma": ("sigma", float), "sweep_l": ("sweep_l", _floats_list), "sweep_dx": ("sweep_dx", _floats_list),
    "out": ("out_dir", Path),
}


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then the config file, then explicit flags (flags win)."""
    cfg = ExperimentConfig(experiment=args.experiment)
    if cfg.experiment == "gamma_sweep_l":
        cfg.schemes = (FD2,)
    elif cfg.experiment == "gamma_sweep_kc":
        cfg.schemes = (FD2, MPS)
    elif cfg.experiment == "moments":
        cfg.schemes = (MPS,)
        cfg.lam = complex(-1.0)

    file_values = _read_config_file(Path(args.config)) if getattr(args, "config", None) else {}
    given = {}
    for key, (name, parse) in _CONFIG_KEYS.items():
        flag = getattr(args, "lam" if key == "lambda" else key, None)
        if flag is not None:
            given[name] = tuple(flag) if name == "schemes" else flag
        elif key in file_values:
            given[name] = parse(file_values[key])
    if "n" in given:
        if "dx" in given:
            raise ParameterError("give either --dx or --n, not both")
        given["dx"] = None
    for name, value in given.items():
        setattr(cfg, name, value)
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# CSV / metadata emission


def _fmt(v) -> str:
    return f"{v:.17g}"


def write_csv(path: Path, header: str, rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def write_meta(path: Path, entries: dict) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")
    return path


def _meta_entries(cfg: ExperimentConfig, wall_time: float) -> dict:
    import scipy

    pot = cfg.potential
    if pot.kind == "gaussian":
        pot_text = f"gaussian:{pot.amplitude},{pot.rate},{pot.center}"
    elif pot.kind == "tabulated":
        pot_text = f"tabulated[{len(pot.table)}]"
    else:
        pot_text = "none"
    return {
        "experiment": cfg.experiment,
        "L": _fmt(cfg.L),
        "dx": "none" if cfg.dx is None else _fmt(cfg.dx),
        "n": "none" if cfg.n is None else cfg.n,
        "lambda": cfg.lam,
        "schemes": ",".join(cfg.schemes),
        "potential": pot_text,
        "x1": _fmt(cfg.x1),
        "x2": _fmt(cfg.x2),
        "sigma": _fmt(cfg.sigma),
        "sweep_l": ",".join(_fmt(v) for v in cfg.sweep_l),
        "sweep_dx": ",".join(_fmt(v) for v in cfg.sweep_dx),
        "greendecay_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "wall_time_s": f"{wall_time:.3f}",
    }


# --------------------------------------------------------------------------
# experiments


def run_profile(cfg: ExperimentConfig, out: Path) -> list[Path]:
    files = [write_csv(out / f"profile_{scheme}.csv", "x,absG",
                       decay_profile(solve_green_column(cfg.problem(scheme), 0)))
             for scheme in cfg.schemes]
    grid = cfg.grid_for()
    return files + [write_csv(out / "potential.csv", "x,V", zip(grid.x, cfg.potential.evaluate(grid)))]


def _gamma_sweep(cfg: ExperimentConfig, out: Path, column: str, points, problem_at) -> list[Path]:
    """gamma over sweep points per scheme, one CSV each, first column the grid's L or kc."""
    files = []
    for scheme in cfg.schemes:
        cols = [solve_green_column(problem_at(scheme, point), 0) for point in points]
        rows = [(getattr(col.problem.grid, column), measure_gamma(col, cfg.x1, cfg.x2)) for col in cols]
        name = f"gamma_sweep_{column.lower()}_{scheme}.csv"
        files.append(write_csv(out / name, f"{column},gamma", rows))
    return files


def run_gamma_sweep_l(cfg: ExperimentConfig, out: Path) -> list[Path]:
    return _gamma_sweep(cfg, out, "L", cfg.sweep_l, lambda scheme, L: cfg.problem(scheme, L=L))


def run_gamma_sweep_kc(cfg: ExperimentConfig, out: Path) -> list[Path]:
    return _gamma_sweep(cfg, out, "kc", cfg.sweep_dx, lambda scheme, dx: cfg.problem(scheme, dx=dx))


def run_mollifier(cfg: ExperimentConfig, out: Path) -> list[Path]:
    grid = cfg.grid_for()
    spec = MollifierSpec(sigma=cfg.sigma)
    theta0 = (np.abs(grid.k) <= 0.625 * grid.kc).astype(float)
    rows = zip(grid.k, theta0, theta_on_grid(grid, spec), h_on_grid(grid, spec))
    return [write_csv(out / "mollifier.csv", "k,theta0,theta,h", rows)]


def run_moments(cfg: ExperimentConfig, out: Path) -> list[Path]:
    files = []
    for scheme in cfg.schemes:
        col = solve_green_column(cfg.problem(scheme), 0)
        m_max = min(10, col.problem.grid.N // 16)
        rows = [(m,) + moment_check(col, m) for m in range(m_max + 1)]
        files.append(write_csv(out / f"moments_{scheme}.csv", "m,lhs,rhs", rows))
    return files


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Run one experiment, returning the written files (run.meta last)."""
    runners = {
        "profile": run_profile,
        "gamma_sweep_l": run_gamma_sweep_l,
        "gamma_sweep_kc": run_gamma_sweep_kc,
        "mollifier": run_mollifier,
        "moments": run_moments,
    }
    if cfg.experiment not in runners:
        raise ParameterError(f"experiment {cfg.experiment!r} is not file-producing")
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    files = runners[cfg.experiment](cfg, out)
    wall = time.perf_counter() - start
    files.append(write_meta(out / "run.meta", _meta_entries(cfg, wall)))
    return files


# --------------------------------------------------------------------------
# verification suites (fixed desk-scale parameters)


def _suite_lattice():
    checks = []
    rng = np.random.default_rng(2024)
    worst_par, worst_rt = 0.0, 0.0
    for N in (64, 256):
        grid = build_grid(40.0, N)
        for _ in range(25):
            f = LatticeFunction(grid, rng.standard_normal(N) + 1j * rng.standard_normal(N))
            fh = dft(f)
            worst_par = max(worst_par, abs(norm(fh) ** 2 - 2 * np.pi * norm(f) ** 2)
                            / (2 * np.pi * norm(f) ** 2))
            worst_rt = max(worst_rt, np.max(np.abs(idft(fh).values - f.values))
                           / np.max(np.abs(f.values)))
    checks.append(("parseval", worst_par <= 1e-12, f"max rel err {worst_par:.3e}"))
    checks.append(("round_trip", worst_rt <= 1e-12, f"max rel err {worst_rt:.3e}"))

    worst_x = np.inf
    for (L, N) in ((40.0, 2000), (2 * np.pi, 16)):
        grid = build_grid(L, N)
        xs = grid.x[grid.x <= L / 2 + 1e-12]
        lhs = np.abs(np.exp(1j * grid.dk * xs) - 1.0) / grid.dk
        worst_x = min(worst_x, float(np.min(lhs - 2 * xs / np.pi)))
    checks.append(("phase_gap_lower_bound", worst_x >= -1e-12, f"min slack {worst_x:.3e}"))

    h = 1e-5
    xs = np.linspace(-5.0, 45.0, 401)
    val_p, *_ = mollified_distance(xs + h, 0.0, 40.0)
    val_m, *_ = mollified_distance(xs - h, 0.0, 40.0)
    _, d1, _ = mollified_distance(xs, 0.0, 40.0)
    err = np.max(np.abs((val_p - val_m) / (2 * h) - d1))
    checks.append(("distance_derivative", err <= 1e-6, f"max abs err {err:.3e}"))
    checks.append(("distance_slope_bound", float(np.max(np.abs(d1))) <= 1.0 + 1e-12,
                   f"max |d1| {np.max(np.abs(d1)):.6f}"))
    return checks


def _suite_mollifier():
    checks = []
    spec = MollifierSpec()
    for kc in (62.8, 157.1):
        checks.append((f"theta_plateau_one_kc{kc}", theta(0.4 * kc, kc, spec) == 1.0, "exact"))
        checks.append((f"theta_plateau_zero_kc{kc}", theta(0.8 * kc, kc, spec) == 0.0, "exact"))
        mid = theta(0.625 * kc, kc, spec)
        checks.append((f"theta_halfway_kc{kc}", abs(mid - 0.5) <= 1e-10, f"theta = {mid:.12f}"))
        edge = bump_phi(spec.sigma * kc, kc, spec)
        checks.append((f"bump_support_kc{kc}", edge == 0.0, "exact"))
    grids = [build_grid(40.0, N) for N in (800, 2000)]
    mono_ok = all(np.all(np.diff(theta_on_grid(g, spec)[g.k >= 0]) <= 1e-12) for g in grids)
    checks.append(("theta_monotone", mono_ok, "non-increasing for k >= 0"))
    return checks


def _suite_leibniz():
    rng = np.random.default_rng(11)
    N = 128
    grid = build_grid(40.0, N)
    pos = np.mod(np.arange(N)[:, None] - np.arange(N)[None, :] + N // 2 - 1, N)
    worst_real = worst_fourier = worst_conv = 0.0
    for _ in range(1000):
        f = LatticeFunction(grid, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        g = LatticeFunction(grid, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        fg = LatticeFunction(grid, f.values * g.values)
        lhs = difference(fg, "backward").values
        rhs = difference(f, "backward").values * g.values \
            + np.roll(f.values, 1) * difference(g, "backward").values
        worst_real = max(worst_real, np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(lhs))))

        fh = SpectralFunction(grid, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        gh = SpectralFunction(grid, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        prod = SpectralFunction(grid, fh.values * gh.values)
        lhs2 = spectral_difference(prod).values
        rhs2 = spectral_difference(fh).values * np.roll(gh.values, 1) \
            + fh.values * spectral_difference(gh).values
        worst_fourier = max(worst_fourier, np.max(np.abs(lhs2 - rhs2)) / max(1.0, np.max(np.abs(lhs2))))

        conv = fh.values[pos]  # convolution matrix Vhat_{k-l} built from fh
        lhs3 = spectral_difference(SpectralFunction(grid, conv @ gh.values)).values
        rhs3 = conv @ spectral_difference(gh).values
        worst_conv = max(worst_conv, np.max(np.abs(lhs3 - rhs3)) / max(1.0, np.max(np.abs(lhs3))))
    checks = [
        ("leibniz_real_space", worst_real <= 1e-12, f"max rel residual {worst_real:.3e}"),
        ("leibniz_fourier", worst_fourier <= 1e-12, f"max rel residual {worst_fourier:.3e}"),
        ("convolution_commutation", worst_conv <= 1e-12, f"max rel residual {worst_conv:.3e}"),
    ]
    return checks


def _suite_moments():
    lam = complex(-1.0)
    checks = []
    grid = build_grid(40.0, 2000)
    problem = ProblemSpec(grid, lam, PotentialSpec.zero(), MPS)
    col = solve_green_column(problem, 0)
    rows = [(m,) + moment_check(col, m) for m in range(11)]
    ok = all(lhs <= rhs * (1 + 1e-10) for _, lhs, rhs in rows)
    checks.append(("moment_inequalities_m0_10", ok,
                   "lhs <= rhs for all m" if ok else str(rows)))
    m0 = rows[0]
    checks.append(("moment_parseval_m0", abs(m0[1] - m0[2]) <= 1e-12 * m0[2],
                   f"lhs {m0[1]:.6e} rhs {m0[2]:.6e}"))
    return checks


def _suite_fd_theorem():
    lam = complex(-10.0)
    vals = []
    for (L, dx) in ((40.0, 0.05), (80.0, 0.05), (40.0, 0.02)):
        grid = build_grid(L, int(round(L / dx)))
        problem = ProblemSpec(grid, lam, PotentialSpec.zero(), FD2)
        kappa = fd_characteristic_rate(lam, grid.dx)
        vals.append(weighted_resolvent_norm(problem, kappa / 2.0, 0))
    ratio = max(vals) / min(vals)
    checks = [("weighted_norm_uniformity", ratio <= 4.0,
               f"values {['%.5f' % v for v in vals]}, ratio {ratio:.3f}")]
    neg = []
    for L in (40.0, 80.0):
        grid = build_grid(L, int(round(L / 0.05)))
        problem = ProblemSpec(grid, lam, PotentialSpec.zero(), FD2)
        kappa = fd_characteristic_rate(lam, grid.dx)
        neg.append(weighted_resolvent_norm(problem, 1.2 * kappa, 0))
    checks.append(("weighted_norm_negative_control", neg[1] >= 10.0 * neg[0],
                   f"{neg[0]:.3e} -> {neg[1]:.3e} as L doubles"))
    return checks


def _suite_mps_theorems():
    lam = complex(-10.0)
    spec = MollifierSpec()
    checks = []
    sups = []
    for dx in (0.05, 0.02):
        grid = build_grid(40.0, int(round(40.0 / dx)))
        sups.append(max(h_ratio_sup(grid, spec, m) for m in (1, 2, 3)))
    ratio = max(sups) / min(sups)
    checks.append(("h_ratio_uniformity", ratio <= 4.0,
                   f"max-over-m values {['%.4f' % s for s in sups]}, ratio {ratio:.3f}"))

    grid = build_grid(40.0, 800)
    gauss = PotentialSpec.gaussian(10.0, 0.2)
    res = weighted_G_h_norm(ProblemSpec(grid, lam, gauss, MPS))
    checks.append(("weighted_G_h_bound", res.value <= res.bound,
                   f"value {res.value:.4f} <= bound {res.bound:.4f}"))

    col_ps = solve_green_column(ProblemSpec(grid, lam, PotentialSpec.zero(), PS), 0)
    col_mps = solve_green_column(ProblemSpec(grid, lam, PotentialSpec.zero(), MPS), 0)
    i15 = int(round(15.0 / grid.dx))
    a_ps, a_mps = abs(col_ps.g.values[i15]), abs(col_mps.g.values[i15])
    checks.append(("mps_tail_below_ps", a_mps < a_ps,
                   f"|G_mps(15)| {a_mps:.3e} < |G_ps(15)| {a_ps:.3e}"))
    return checks


def verify(suites=VERIFY_SUITES) -> int:
    """Run the named suites, print one PASS/FAIL line per invariant, return exit code."""
    runners = {
        "lattice": _suite_lattice,
        "mollifier": _suite_mollifier,
        "leibniz": _suite_leibniz,
        "moments": _suite_moments,
        "fd_theorem": _suite_fd_theorem,
        "mps_theorems": _suite_mps_theorems,
    }
    failures = 0
    for suite in suites:
        if suite not in runners:
            raise ParameterError(f"unknown verify suite {suite!r}; choose from {VERIFY_SUITES}")
        for name, ok, detail in runners[suite]():
            status = "PASS" if ok else "FAIL"
            failures += 0 if ok else 1
            print(f"{status} {suite}.{name}: {detail}")
    return 1 if failures else 0


# --------------------------------------------------------------------------
# argument parsing


def _common_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="key=value config file; explicit flags override it")
    p.add_argument("--L", type=float, default=None, help="domain length (>= 1)")
    p.add_argument("--dx", type=float, default=None, help="grid spacing (<= 1)")
    p.add_argument("--n", type=int, default=None, help="number of grid points (even), alternative to --dx")
    p.add_argument("--lambda", dest="lam", type=parse_lambda, default=None,
                   help="spectral parameter, e.g. -10 or -1+0.5i")
    p.add_argument("--scheme", dest="scheme", action="append", choices=sorted(SCHEMES),
                   default=None, help="discretization scheme (repeatable)")
    p.add_argument("--potential", type=parse_potential, default=None,
                   help="none | gaussian:A,ALPHA[,C] | file:PATH (one value per line)")
    p.add_argument("--x1", type=float, default=None, help="first decay-rate sample offset")
    p.add_argument("--x2", type=float, default=None, help="second decay-rate sample offset")
    p.add_argument("--sigma", type=float, default=None, help="mollifier half-width fraction")
    p.add_argument("--sweep-l", dest="sweep_l", type=_floats_list, default=None,
                   help="comma-separated domain lengths for the L sweep")
    p.add_argument("--sweep-dx", dest="sweep_dx", type=_floats_list, default=None,
                   help="comma-separated spacings for the kc sweep")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    return p


def _suite_name(name: str) -> str:
    if name not in VERIFY_SUITES:
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {VERIFY_SUITES})")
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greendecay",
        description="Discretized Green's functions for periodic Schrodinger-type "
                    "operators and their off-diagonal decay.",
    )
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("profile", parents=[common],
                   help="half-interval |G(x,0)| profiles per scheme")
    sub.add_parser("gamma-sweep-l", parents=[common],
                   help="decay rate vs domain length at fixed dx")
    sub.add_parser("gamma-sweep-kc", parents=[common],
                   help="decay rate vs Fourier edge at fixed L")
    sub.add_parser("mollifier", parents=[common],
                   help="dump k, theta0, theta, h on the Fourier grid")
    sub.add_parser("moments", parents=[common],
                   help="moment-bound table m, lhs, rhs per scheme")
    vp = sub.add_parser("verify", parents=[common], help="run verification suites")
    # checked per name, not by choices: Python 3.11 argparse checks an empty list against choices
    vp.add_argument("suites", nargs="*", type=_suite_name, metavar="SUITE",
                    help=f"suites to run, from {', '.join(VERIFY_SUITES)} (default: all)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        if command == "verify":
            return verify(tuple(args.suites) or VERIFY_SUITES)
        args.experiment = command.replace("-", "_")
        cfg = resolve_config(args)
        files = run_experiment(cfg)
        for path in files:
            print(path)
        return 0
    except ParameterError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # surface solver/I-O failures verbatim, nonzero exit
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
