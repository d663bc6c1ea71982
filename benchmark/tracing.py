"""Spans around calls into the package's public functions, recorded from outside.

While a Tracer is active, every module attribute of the package that is one
of the traced functions (including the copies bound by `from .x import f`)
is replaced by a wrapper that records a span, so calls made inside the
package are seen too.  Nothing in the package is edited.  A layer's self
time is its span's duration minus the time its child spans cover.
"""

import contextlib
import sys
import time
from collections import defaultdict

# (module, function) -> layer metric; dft_values/idft_values are the lattice
# transforms behind dft/idft and behind every internal transform
LAYERS = {
    ("mollifier", "h_on_grid"): "mollifier.h_on_grid_s",
    ("operators", "fourier_hamiltonian_matrix"): "operators.fourier_hamiltonian_matrix_s",
    ("operators", "apply_hamiltonian"): "operators.apply_hamiltonian_s",
    ("greens", "solve_green_column"): "greens.solve_green_column_s",
    ("greens", "solve_green_matrix"): "greens.solve_green_matrix_s",
    ("analysis", "matrix_2norm"): "analysis.matrix_2norm_s",
    ("analysis", "weighted_resolvent_norm"): "analysis.weighted_resolvent_norm_s",
    ("analysis", "weighted_G_h_norm"): "analysis.weighted_G_h_norm_s",
    ("analysis", "moment_check"): "analysis.moment_check_s",
    ("analysis", "decay_profile"): "analysis.decay_profile_s",
    ("lattice", "dft_values"): "lattice.dft_s",
    ("lattice", "idft_values"): "lattice.dft_s",
    ("cli", "write_csv"): "cli.write_csv_s",
    ("cli", "run_experiment"): "cli.run_experiment_s",
}
LAYER_METRICS = sorted(set(LAYERS.values()))
RESIDUAL_LAYER = "greens.solve_green_column_s"  # its GreensColumn carries the residual
PACKAGE = "greendecay"


class Tracer:
    """Span recorder for one process; spans stay in memory until the run ends."""

    def __init__(self):
        self.spans = []  # (id, parent id, op, layer, start, end)
        self.per_op = []  # one {layer: self seconds} dict per traced op
        self.residual_max = 0.0
        self._stack = []  # [span id, child seconds] of the open spans

    def _wrap(self, layer, fn, op, self_time):
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)  # reserve the id in start order
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self_time[layer] += duration - frame[1]
                self.spans[span_id] = (span_id, parent, op, layer, start, end)
            if layer == RESIDUAL_LAYER:
                self.residual_max = max(self.residual_max, out.residual)
            return out

        return traced

    @contextlib.contextmanager
    def op(self, index: int):
        """Trace one op: install the wrappers, open a root span, restore on exit."""
        self_time = defaultdict(float)
        wrappers = {}  # id of the original function -> its wrapper
        for (module, func), layer in LAYERS.items():
            fn = getattr(sys.modules[f"{PACKAGE}.{module}"], func)
            wrappers[id(fn)] = self._wrap(layer, fn, index, self_time)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append([span_id, 0.0])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, None, index, "op", start, end)
            for mod, attr, value in patched:
                setattr(mod, attr, value)
            self.per_op.append(dict(self_time))
