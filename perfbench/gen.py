"""Seeded workload generator: model documents in the auglqr JSON schema.

Every random model is drawn from ``numpy.random.default_rng([seed, tag])``
with a fixed tag per model, and written with ``json.dumps`` (shortest
round-trip float repr), so the same seed gives byte-identical files.
Fixture models are copied from ``models/`` and the hard scalar cases are
fixed, so only the seeded models change from seed to seed.

Run ``python3 perfbench/gen.py --workload cli-mix --seed 7 --out DIR`` to
write one workload's model files.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import zlib
from pathlib import Path

import numpy as np

WORKLOADS = ("cli-mix", "solve-ladder", "riccati-hard", "simulate-long")

#: workload -> model names; fixtures come from models/, the rest are generated
MODEL_SETS = {
    "cli-mix": (
        "golden", "back", "s4232", "si60",
        "uncontrollable", "explosive_forcing", "bad_schema",
    ),
    # several seeded models per rung (suffix _2, _3): the median lands inside
    # the cluster of six (10,10,10,*) operations and the 90th percentile on
    # the (30,30,30,10) rung, and their seed-to-seed cost differences average
    "solve-ladder": (
        "golden", "back",
        "s4232", "s4232_2", "s4232_3",
        "s10-10-10-5", "s10-10-10-5_2", "s10-10-10-5_3",
        "s10-10-10-10", "s10-10-10-10_2", "s10-10-10-10_3",
        "si60", "si60_2",
        "s30-30-30-10", "s30-30-30-10_2",
    ),
    # hard3 (about 183k Riccati steps) runs in the traced run only; with 23
    # weak models the cycle has 25 positions, so the median and the 90th
    # percentile fall inside a position rather than on a boundary
    "riccati-hard": ("hard1", "hard2", "hard3") + tuple(f"weak{i:02d}" for i in range(23)),
    "simulate-long": ("golden", "back", "s2222"),
}
FIXTURES = ("golden", "back", "uncontrollable", "explosive_forcing", "bad_schema")

#: the three weakly controlled scalar cases: (a, b, q, beta)
HARD_CASES = {
    "hard1": (1.0, 0.01, 1.0, 0.99),
    "hard2": (1.0, 1e-3, 1.0, 0.9999),
    "hard3": (1.005, 1e-3, 1e-6, 0.99),
}

#: persistent forcing for the long simulations: paths decay by 0.999^t and
#: never underflow within 10,000 periods, so every seed renders full-width
#: numbers and the per-period cost does not depend on the seed's decay rate
ZZ_RADIUS = {"s2222": 0.999}

#: per-family ranges of the stratified weakly controlled models
WEAK_BETA = (0.99, 0.9999)
WEAK_B = (5e-3, 3e-2)


def _document(beta, n_k, a_yy, a_yz, a_zz, b_y, q_yy, q_yz, r, k0, z0) -> dict:
    n_y, n_z, n_u = len(a_yy), len(a_zz), len(r)
    return {
        "beta": float(beta),
        "dims": {"n_k": n_k, "n_x": n_y - n_k, "n_z": n_z, "n_u": n_u},
        "A_yy": np.asarray(a_yy, float).tolist(),
        "A_yz": np.asarray(a_yz, float).reshape(n_y, n_z).tolist(),
        "A_zz": np.asarray(a_zz, float).reshape(n_z, n_z).tolist(),
        "B_y": np.asarray(b_y, float).reshape(n_y, n_u).tolist(),
        "Q_yy": np.asarray(q_yy, float).tolist(),
        "Q_yz": np.asarray(q_yz, float).reshape(n_y, n_z).tolist(),
        "R": np.asarray(r, float).tolist(),
        "k0": np.asarray(k0, float).reshape(-1).tolist(),
        "z0": np.asarray(z0, float).reshape(-1).tolist(),
    }


def _with_radius(rng, n: int, radius: float) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return m * (radius / max(abs(np.linalg.eigvals(m))))


def _symmetric_pd(rng, n: int, floor: float) -> np.ndarray:
    m = rng.standard_normal((n, n))
    s = m @ m.T / n + floor * np.eye(n)
    return (s + s.T) / 2.0


def random_model(rng, n_k, n_x, n_z, n_u, beta=0.95, zz_radius=0.8) -> dict:
    """Dense random model: A_yy at spectral radius 0.95, A_zz at ``zz_radius``, Q and R definite."""
    n_y = n_k + n_x
    return _document(
        beta,
        n_k,
        _with_radius(rng, n_y, 0.95),
        rng.standard_normal((n_y, n_z)),
        _with_radius(rng, n_z, zz_radius),
        rng.standard_normal((n_y, n_u)),
        _symmetric_pd(rng, n_y, 0.1),
        0.1 * rng.standard_normal((n_y, n_z)),
        _symmetric_pd(rng, n_u, 1.0),
        rng.standard_normal(n_k),
        rng.standard_normal(n_z),
    )


def single_input_model(rng, n_y=60) -> dict:
    """Single-input model with n_y predetermined states and one forcing variable.

    Stabilizable (the Riccati iteration converges in a few hundred steps) but
    its Kalman matrix [B, AB, ...] is numerically rank deficient.
    """
    return _document(
        0.95,
        n_y,
        _with_radius(rng, n_y, 0.97),
        rng.standard_normal((n_y, 1)),
        [[0.5]],
        rng.standard_normal((n_y, 1)),
        np.eye(n_y),
        np.zeros((n_y, 1)),
        [[1.0]],
        rng.standard_normal(n_y),
        [1.0],
    )


def scalar_model(a, b, q, beta) -> dict:
    """Scalar forward-looking model with one forcing variable (golden's layout)."""
    return _document(beta, 0, [[a]], [[1.0]], [[0.5]], [[b]], [[q]], [[0.0]], [[1.0]], [], [1.0])


def weak_family(rng, count: int) -> list[dict]:
    """Stratified family of weakly controlled models, n_y = 1..3.

    beta and b are stratified draws: member i takes a seeded point in stratum
    i of beta (linear scale) and in stratum 7i mod count of b (log scale);
    count must be coprime to 7.
    The fixed pairing spreads slow and fast cases over the family, so every
    seed covers both ranges evenly and the family's cost spread is nearly
    the same from seed to seed.
    """
    out = []
    for i in range(count):
        u_beta, u_b = (i + rng.random()) / count, ((7 * i) % count + rng.random()) / count
        beta = WEAK_BETA[0] + (WEAK_BETA[1] - WEAK_BETA[0]) * u_beta
        log_b = math.log(WEAK_B[0]) + math.log(WEAK_B[1] / WEAK_B[0]) * u_b
        n_y = 1 + i % 3
        out.append(
            _document(
                beta,
                n_y - 1,
                np.diag(1.0 - 0.02 * np.arange(n_y)),
                np.ones((n_y, 1)),
                [[0.5]],
                math.exp(log_b) * np.ones((n_y, 1)),
                np.eye(n_y),
                np.zeros((n_y, 1)),
                [[1.0]],
                np.ones(n_y - 1),
                [1.0],
            )
        )
    return out


def _tag(name: str) -> int:
    """Stable per-name integer (Python's str hash is salted per process)."""
    return zlib.crc32(name.encode())


def generate(workload: str, seed: int) -> dict[str, dict]:
    """Generated model documents of one workload, by model name (fixtures excluded)."""
    names = [n for n in MODEL_SETS[workload] if n not in FIXTURES]
    docs = {}
    weak = [n for n in names if n.startswith("weak")]
    if weak:
        family = weak_family(np.random.default_rng([seed, _tag("weak")]), len(weak))
        docs.update(zip(weak, family))
    for name in names:
        rng = np.random.default_rng([seed, _tag(name)])
        if name in HARD_CASES:
            docs[name] = scalar_model(*HARD_CASES[name])
        elif name.startswith("si60"):
            docs[name] = single_input_model(rng)
        elif not name.startswith("weak"):
            rung = name[1:].split("_")[0]
            dims = rung.split("-") if "-" in rung else list(rung)
            docs[name] = random_model(rng, *map(int, dims), zz_radius=ZZ_RADIUS.get(name, 0.8))
    return docs


def write_models(workload: str, seed: int, out: Path, fixtures: Path) -> dict[str, Path]:
    """Write every model file of a workload into ``out``; return name -> path."""
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in MODEL_SETS[workload]:
        path = out / f"{name}.json"
        if name in FIXTURES:
            shutil.copyfile(fixtures / f"{name}.json", path)
        paths[name] = path
    for name, doc in generate(workload, seed).items():
        paths[name].write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--fixtures", type=Path, default=Path("models"))
    args = parser.parse_args(argv)
    for name, path in write_models(args.workload, args.seed, args.out, args.fixtures).items():
        print(f"{name}\t{path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
