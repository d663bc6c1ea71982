"""The three workloads: seeded inputs, the op (calls into the package), its checks.

Within a workload every op does the same work at the same problem size; ops
differ only in seeded inputs (lam, V, L, source index) that leave the cost
unchanged.  `op` is the timed part and returns a record; `check` compares the
record with the independent computations in oracle.py and returns the worst
relative disagreement, or raises CheckFailed.
"""

import contextlib
import io
import math
from pathlib import Path

import numpy as np

import greendecay as gd
import oracle
from greendecay import cli
from oracle import expect, rel

# input ranges shared by the workloads
LAM_RANGE = (-10.0, -1.0)  # real lam < 0 <= min V: inside the resolvent set
AMPLITUDE_RANGE = (1.0, 10.0)
RATE_RANGE = (0.1, 0.5)
L_RANGE = (30.0, 50.0)


def _potential(rng, L, near_source=False):
    center = rng.uniform(-2.0, 2.0) % L if near_source else rng.uniform(0.0, L)
    return {"A": rng.uniform(*AMPLITUDE_RANGE), "rate": rng.uniform(*RATE_RANGE), "c": center}


@contextlib.contextmanager
def capture(module, name):
    """Record the return values of module.name while inside the block."""
    inner = getattr(module, name)
    seen = []

    def recording(*args, **kwargs):
        out = inner(*args, **kwargs)
        seen.append(out)
        return out

    setattr(module, name, recording)
    try:
        yield seen
    finally:
        setattr(module, name, inner)


class Workload:
    name: str
    n_per_op: int  # unknowns solved per op
    deferred = False  # True: checks run after the timed phase, after peak RSS is read

    def __init__(self, workdir):
        self.workdir = Path(workdir)


class SpectralColumns(Workload):
    """One mps Green's column at N = 2000 (dense Fourier LU), then gamma, profile, moments."""

    name = "spectral-columns"
    N = n_per_op = 2000  # O(N) checks run between ops, outside the timed span

    def params(self, rng):
        L = rng.uniform(*L_RANGE)
        return {"L": L, "lam": rng.uniform(*LAM_RANGE), "y": int(rng.integers(self.N)),
                **_potential(rng, L)}

    def op(self, p):
        grid = gd.build_grid(p["L"], self.N)
        pot = gd.PotentialSpec.gaussian(p["A"], p["rate"], p["c"])
        col = gd.solve_green_column(gd.ProblemSpec(grid, p["lam"], pot, gd.MPS), p["y"])
        i1, i2 = round(1.0 / grid.dx), round(7.0 / grid.dx)
        gamma = gd.measure_gamma(col, i1 * grid.dx, i2 * grid.dx)
        profile = gd.decay_profile(col)
        moments = [gd.moment_check(col, m) for m in range(11)]
        return {"p": p, "g": col.g.values, "i1": i1, "i2": i2, "gamma": gamma,
                "profile": profile, "moments": moments}

    def check(self, rec):
        p, g, N = rec["p"], rec["g"], self.N
        L, lam, y = p["L"], p["lam"], p["y"]
        dx = L / N
        V = oracle.gaussian(L, N, p["A"], p["rate"], p["c"])
        h = oracle.mps_symbol(oracle.fft_wavenumbers(L, N), (N // 2) * 2.0 * np.pi / L)
        errs = [oracle.theta_midpoint_error()]
        expect(errs[0] <= 1e-14, f"oracle theta(5kc/8) is off 1/2 by {errs[0]:.2e}")

        res = oracle.column_residual(g, y, lam, L, lambda f: oracle.mps_apply(f, L, V, h))
        expect(res <= oracle.RESIDUAL_TOL, f"mps residual {res:.3e} > {oracle.RESIDUAL_TOL:.0e}")
        errs.append(res)

        i1, i2 = rec["i1"], rec["i2"]
        a1, a2 = abs(g[(y + i1) % N]), abs(g[(y + i2) % N])
        gamma = -(math.log(a2) - math.log(a1)) / (i2 * dx - i1 * dx)
        errs.append(rel(rec["gamma"], gamma))
        expect(errs[-1] <= 1e-12, f"gamma {rec['gamma']!r} != two-point rate {gamma!r}")

        prof = rec["profile"]
        half = np.arange(N // 2 + 1)
        expect(prof.shape == (N // 2 + 1, 2), f"profile shape {prof.shape}")
        expect(np.array_equal(prof[:, 0], half * dx), "profile offsets are not i*dx")
        expect(np.array_equal(prof[:, 1], np.abs(g[(y + half) % N])), "profile is not |G(x+y, y)|")

        for m, (lhs, rhs) in enumerate(rec["moments"]):
            own_lhs, own_rhs = oracle.moment_sides(g, y, L, m)
            errs += [rel(lhs, own_lhs), rel(rhs, own_rhs)]
            expect(errs[-2] <= 1e-12 and errs[-1] <= 1e-9,
                   f"moment m={m}: ({lhs!r}, {rhs!r}) against ({own_lhs!r}, {own_rhs!r})")
            if m == 0:
                errs.append(rel(lhs, rhs))
                expect(errs[-1] <= 1e-12, f"Parseval: lhs {lhs!r} != rhs {rhs!r}")
            else:
                expect(lhs <= rhs, f"moment bound fails at m={m}: {lhs!r} > {rhs!r}")
        return max(errs)


class Fd2Long(Workload):
    """One `greendecay profile --scheme fd2` CLI run at L = 2000, N = 100000."""

    name = "fd2-long"
    L = 2000.0
    N = n_per_op = 100_000  # O(N) checks between ops; the next op overwrites the CSV files
    HEAD_L = 40.0

    def params(self, rng):
        return {"lam": rng.uniform(*LAM_RANGE), **_potential(rng, self.L, near_source=True)}

    def argv(self, p):
        return ["profile", "--scheme", "fd2", "--L", repr(self.L), "--n", str(self.N),
                "--lambda", repr(p["lam"]),
                "--potential", f"gaussian:{p['A']!r},{p['rate']!r},{p['c']!r}",
                "--out", str(self.workdir)]

    def op(self, p):
        printed = io.StringIO()
        with capture(cli, "solve_green_column") as cols, contextlib.redirect_stdout(printed):
            code = cli.main(self.argv(p))
        return {"p": p, "code": code, "printed": printed.getvalue().split(), "cols": cols}

    def _read_csv(self, name, header):
        path = self.workdir / name
        with open(path, encoding="utf-8") as fh:
            expect(fh.readline() == header + "\n", f"{name} header is not {header!r}")
            return np.loadtxt(fh, delimiter=",", ndmin=2)

    def check(self, rec):
        p, L, N = rec["p"], self.L, self.N
        dx = L / N
        expect(rec["code"] == 0, f"CLI exit code {rec['code']}")
        names = ["profile_fd2.csv", "potential.csv", "run.meta"]
        expect(rec["printed"] == [str(self.workdir / n) for n in names], f"printed {rec['printed']}")
        expect(len(rec["cols"]) == 1, f"{len(rec['cols'])} columns solved, expected 1")
        g = rec["cols"][0].g.values
        V = oracle.gaussian(L, N, p["A"], p["rate"], p["c"])

        res = oracle.column_residual(g, 0, p["lam"], L, lambda f: oracle.fd2_apply(f, L, V))
        expect(res <= oracle.RESIDUAL_TOL, f"fd2 residual {res:.3e} > {oracle.RESIDUAL_TOL:.0e}")
        errs = [res]
        # lam - H is minus an M-matrix for real lam < min V: the column is negative
        live = np.abs(g) >= np.finfo(float).tiny
        expect(np.all(g.real[live] < 0.0) and np.all(g.imag == 0.0),
               "fd2 column is not negative and real above the underflow range")

        prof = self._read_csv("profile_fd2.csv", "x,absG")
        half = np.arange(N // 2 + 1)
        expect(prof.shape == (N // 2 + 1, 2), f"profile shape {prof.shape}")
        expect(np.array_equal(prof[:, 0], half * dx), "profile offsets are not i*dx")
        expect(np.array_equal(prof[:, 1], np.abs(g[half])), "CSV |G| does not round-trip the column")

        pot = self._read_csv("potential.csv", "x,V")
        expect(np.array_equal(pot[:, 0], np.arange(N) * dx), "potential.csv x is not i*dx")
        errs.append(float(np.max(np.abs(pot[:, 1] - V))) / p["A"])
        expect(errs[-1] <= 1e-14, f"potential.csv V is off by {errs[-1]:.2e} of A")

        # the head on [0, 7] does not depend on L: compare with a solve at L = 40.  The
        # periodic image there is at most 1.2e-8 relative over the input ranges (lam = -1,
        # A = 10, rate = 0.1, centre +2: the barrier on the +x side dims the direct path)
        n40 = round(self.HEAD_L / dx)
        V40 = oracle.gaussian(self.HEAD_L, n40, p["A"], p["rate"], p["c"] % self.HEAD_L)
        g40 = oracle.fd2_column(self.HEAD_L, n40, p["lam"], V40)
        head = np.arange(round(7.0 / dx) + 1)
        errs.append(float(np.max(np.abs(prof[head, 1] - np.abs(g40[head])) / np.abs(g40[head]))))
        expect(errs[-1] <= 1e-6, f"profile head differs from the L=40 solve by {errs[-1]:.2e}")

        meta = (self.workdir / "run.meta").read_text(encoding="utf-8")
        expect("experiment=profile\n" in meta and "schemes=fd2\n" in meta, "run.meta mismatch")
        return max(errs)


class WeightedNorms(Workload):
    """Combes-Thomas verifiers: fd2 weighted resolvent norm (N=1600), mps ||Ghat(1+h)|| (N=800)."""

    name = "weighted-norms"
    N_FD2 = 1600
    N_MPS = 800
    n_per_op = N_FD2 + N_MPS
    LANCZOS_TOL = 1e-6  # the package's ARPACK tolerance for N > 1024
    deferred = True  # the dense checks would otherwise set the peak RSS

    def params(self, rng):
        L = rng.uniform(*L_RANGE)
        lam = rng.uniform(*LAM_RANGE)
        dx = L / self.N_FD2
        kappa = math.acosh(1.0 + abs(lam) * dx * dx / 2.0) / dx
        return {"L": L, "lam": lam, "gamma": kappa / 2.0, "y": int(rng.integers(self.N_FD2)),
                **_potential(rng, L)}

    def op(self, p):
        pot = gd.PotentialSpec.gaussian(p["A"], p["rate"], p["c"])
        fd2 = gd.ProblemSpec(gd.build_grid(p["L"], self.N_FD2), p["lam"], pot, gd.FD2)
        value_fd2 = gd.weighted_resolvent_norm(fd2, p["gamma"], p["y"])
        mps = gd.weighted_G_h_norm(gd.ProblemSpec(gd.build_grid(p["L"], self.N_MPS), p["lam"], pot, gd.MPS))
        return {"p": p, "fd2": value_fd2, "mps": tuple(float(v) for v in mps)}

    def check(self, rec):
        p = rec["p"]
        L, lam = p["L"], p["lam"]
        V = oracle.gaussian(L, self.N_FD2, p["A"], p["rate"], p["c"])
        own = oracle.fd2_weighted_norm(L, self.N_FD2, lam, V, p["gamma"], p["y"])
        errs = [rel(rec["fd2"], own)]
        expect(errs[0] <= self.LANCZOS_TOL, f"fd2 weighted norm {rec['fd2']!r} != 1/sigma_min {own!r}")

        value, bound, resolvent = rec["mps"]
        V = oracle.gaussian(L, self.N_MPS, p["A"], p["rate"], p["c"])
        own_value, own_bound, own_resolvent = oracle.mps_weighted_norms(L, self.N_MPS, lam, V)
        for name, got, want in (("||Ghat(1+h)||", value, own_value), ("bound", bound, own_bound),
                                ("||Ghat||", resolvent, own_resolvent)):
            errs.append(rel(got, want))
            expect(errs[-1] <= 1e-9, f"mps {name} {got!r} != {want!r}")
        expect(value <= own_bound, f"||Ghat(1+h)|| {value!r} exceeds the a-priori bound {own_bound!r}")
        return max(errs)


WORKLOADS = {w.name: w for w in (SpectralColumns, Fd2Long, WeightedNorms)}
