"""Span tracer that wraps auglqr's public functions from outside the package.

``Tracer.install`` replaces each wrapped function by attribute in every
loaded ``auglqr`` module that refers to it (the defining module, the package
namespace and importers such as ``auglqr.cli``), so calls made by the CLI, by
other auglqr modules and by the benchmark itself are all recorded.
``uninstall`` puts the originals back.  No file under ``src/`` changes.

A span records its name, start, end, parent span and operation id, plus one
number read from the call (iterations, matrix size, horizon, gate verdict).
Spans live in compact arrays in memory and are written out once, when the
run ends; per-layer metrics are derived from them, self time being a span's
duration less its direct children's.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from array import array
from time import perf_counter

import numpy as np

#: (module, function) pairs wrapped in traced runs; the module is the layer
WRAPPED = (
    ("kernel", "solve_linear"),
    ("model", "load_model"),
    ("model", "validate"),
    ("model", "rescale"),
    ("checks", "run_checks"),
    ("regulator", "solve_riccati"),
    ("augmented", "solve_sylvester"),
    ("anchor", "anchor_x0"),
    ("simulate", "build_closed_loop"),
    ("simulate", "simulate_path"),
    ("simulate", "irf"),
    ("varrep", "to_var"),
    ("varrep", "var_simulate_check"),
    ("oracle", "backward_induction"),
    ("cli", "main"),
)
BUSY_LAYERS = ("model", "checks", "regulator", "augmented", "anchor", "simulate", "varrep", "oracle")


def _span_value(name: str, args, kwargs, result) -> float:
    """The one number each span keeps, read from the call or its result."""
    if name == "kernel.solve_linear":
        return float(np.shape(args[0])[0])
    if name == "checks.run_checks":
        return float(result.ok)
    if name == "regulator.solve_riccati":
        return float(result.iterations)
    if name == "augmented.solve_sylvester":
        return float(args[0].dims.n_y * args[0].dims.n_z)
    if name == "simulate.simulate_path":
        return float(kwargs["horizon"] if "horizon" in kwargs else args[4])
    return float("nan")


class Tracer:
    def __init__(self):
        self.names = [f"{module}.{func}" for module, func in WRAPPED]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("d")
        self.op_id = -1
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] = []

    def _wrap(self, nid: int, fn):
        tracer, name = self, self.names[nid]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.value.append(float("nan"))
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            tracer.value[idx] = _span_value(name, args, kwargs, result)
            return result

        return wrapper

    def install(self, op_id: int):
        """Wrap every function in WRAPPED; new spans carry ``op_id``."""
        self.op_id = op_id
        if not self._sites:
            modules = [m for n, m in sys.modules.items() if n == "auglqr" or n.startswith("auglqr.")]
            for nid, (module_name, func) in enumerate(WRAPPED):
                original = getattr(sys.modules[f"auglqr.{module_name}"], func)
                wrapped = self._wrap(nid, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._sites.append((module, attr, original, wrapped))
        for module, attr, _, wrapped in self._sites:
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """Every span as arrays, with derived duration and self time."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "value": np.frombuffer(self.value, dtype=float),
            "dur": dur,
            "self": dur - child,
        }

    def write(self, path):
        """Write every span to ``path`` (.npz); ``names`` maps the name ids."""
        spans = self.spans()
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            **{k: spans[k] for k in ("name", "start", "end", "parent", "op", "value")},
        )


def layer_metrics(tracer: Tracer, op_model: dict[int, str], stabilizable: set[str]) -> dict:
    """Per-layer metrics from the spans of a traced run.

    ``op_model`` maps each operation id to its model name; ``stabilizable``
    names the models the reference solver stabilizes, so a gate rejection of
    one of them counts as a false rejection.
    """
    s = tracer.spans()
    ids = {name: i for i, name in enumerate(tracer.names)}

    def pick(name):
        return s["name"] == ids[name]

    def layer(prefix):
        return np.isin(s["name"], [i for n, i in ids.items() if n.startswith(prefix + ".")])

    out = {f"{lay}.busy_s": float(s["self"][layer(lay)].sum()) for lay in BUSY_LAYERS}
    out["cli.self_s"] = float(s["self"][layer("cli")].sum())

    checks = pick("checks.run_checks")
    rejected = checks & (s["value"] == 0.0)
    out["checks.rejects"] = int(rejected.sum())
    out["checks.false_rejects"] = sum(op_model.get(int(o)) in stabilizable for o in s["op"][rejected])

    ric = pick("regulator.solve_riccati")
    iters = s["value"][ric]
    out["regulator.iters"] = int(iters.sum())
    out["regulator.us_per_iter"] = 1e6 * float(s["dur"][ric].sum()) / max(iters.sum(), 1.0)
    for case in ("hard1", "hard2", "hard3"):
        mine = [v for o, v in zip(s["op"][ric], iters) if op_model.get(int(o)) == case]
        out[f"regulator.iters.{case}"] = int(mine[-1]) if mine else 0

    n = s["value"][pick("augmented.solve_sylvester")]
    out["augmented.flops_computed"] = float((2.0 / 3.0 * n**3).sum())
    out["augmented.bytes_computed"] = float((8.0 * n**2).sum())

    sim = pick("simulate.simulate_path")
    periods = float(s["value"][sim].sum())
    out["simulate.periods"] = int(periods)
    out["simulate.us_per_period"] = 1e6 * float(s["dur"][sim].sum()) / max(periods, 1.0)

    lin = pick("kernel.solve_linear")
    out["kernel.solve_linear.calls"] = int(lin.sum())
    out["kernel.solve_linear.busy_s"] = float(s["self"][lin].sum())
    out["kernel.solve_linear.max_n"] = int(s["value"][lin].max()) if lin.any() else 0
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy and auglqr's own modules.

    Reads ``python -X importtime -c "import auglqr"`` output; numpy and scipy
    are counted wherever they first load, and auglqr's figure excludes them.
    """
    cumulative: dict[str, float] = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            cumulative.setdefault(m.group(4), int(m.group(2)) / 1e6)
    numpy_s = cumulative.get("numpy", 0.0)
    scipy_s = cumulative.get("scipy.linalg", 0.0) + cumulative.get("scipy", 0.0) * (
        "scipy.linalg" not in cumulative
    )
    return {
        "import.numpy_s": numpy_s,
        "import.scipy_s": scipy_s,
        "import.auglqr_s": cumulative.get("auglqr", 0.0) - numpy_s - scipy_s,
    }
