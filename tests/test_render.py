"""The path-table renderer against the per-cell renderers it replaced.

``old_render_table`` is the previous ``cli._render_table``: every JSON cell
went through ``_jsonable`` and the json encoder, every CSV cell through
``_csv_cell``, the t column among them.  The flat renderer prints t
itself, so it must print the bytes the old one printed for the rows behind
a float column 0, 1, ..., except that a CSV header cell holding a comma,
quote, CR or LF is now quoted.
"""

import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auglqr import (
    anchor_x0,
    build_closed_loop,
    irf,
    simulate_path,
    solve_riccati,
    solve_sylvester,
)
from auglqr.cli import _csv_cell, _jsonable, _render_table, _trajectory_table

from _support import random_stabilizable_model


def old_render_table(columns, rows, fmt, extra):
    if fmt == "json":
        report = dict(extra)
        report["columns"] = columns
        report["rows"] = rows
        return json.dumps(_jsonable(report), indent=2) + "\n"
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def old_render(columns, rows, fmt, extra):
    """``old_render_table`` of ``rows`` behind the float t column it took."""
    t = np.arange(len(rows), dtype=float)[:, None]
    return old_render_table(columns, np.hstack([t, rows]), fmt, extra)


SMALLEST_NORMAL = 2.2250738585072014e-308

cells = st.one_of(
    # integral values, which repr prints with ".0" and %g without
    st.integers(-(10**17), 10**17).map(float),
    # %g switches to an exponent at 1e12, repr only at 1e16
    st.floats(1e12, 1e16, exclude_max=True),
    st.floats(-1e16, -1e12, exclude_min=True),
    st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, SMALLEST_NORMAL,
         999999999999.5, 9999999999999998.0, 1e16, 1e-5, 9.99999999999995e-5]
    ),
    st.floats(-SMALLEST_NORMAL, SMALLEST_NORMAL),  # subnormals
    # near-integers, which %.12g rounds to integral text
    st.tuples(st.integers(-(10**12), 10**12), st.sampled_from([1 - 1e-13, 1 + 1e-13])).map(
        lambda p: p[0] * p[1]
    ),
    st.just(999999999999.9),  # %.12g rounds it to 1e+12
    st.floats(),
)
labels = st.text(
    alphabet=st.one_of(st.sampled_from(list('ab,"\r\n \'\\{}%é€π')), st.characters()),
    max_size=6,
)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 5))
    height = draw(st.integers(1, 5))
    rows = np.array(
        draw(st.lists(st.lists(cells, min_size=width, max_size=width), min_size=height,
                      max_size=height)),
        dtype=float,
    )
    # a path table's first column is always "t", which the renderer prints
    columns = ["t"] + draw(st.lists(labels, min_size=width, max_size=width))
    extra = {"loss": draw(cells), "truncation_bound": draw(cells)}
    if draw(st.booleans()):
        extra = {"shock_index": draw(st.integers(0, 9)), **extra}
    return columns, rows, extra


@settings(max_examples=200, deadline=None)
@given(tables())
def test_json_table_matches_per_cell_encoder(table):
    columns, rows, extra = table
    assert _render_table(columns, rows, "json", extra) == old_render(
        columns, rows, "json", extra
    )


@settings(max_examples=200, deadline=None)
@given(tables())
def test_csv_table_matches_per_cell_renderer(table):
    columns, rows, extra = table
    new = _render_table(columns, rows, "csv", extra)
    old = old_render(columns, rows, "csv", extra)
    body = old[len(",".join(columns)) + 1 :]
    assert new.endswith("\n" + body)
    header = new[: len(new) - len(body) - 1]
    assert list(csv.reader(io.StringIO(header, newline=""))) == [columns]
    if not any(c in label for label in columns for c in ',"\r\n'):
        assert new == old


# the cells a path settles on
settled_cells = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -1e-323]),
    st.floats(-SMALLEST_NORMAL, SMALLEST_NORMAL),
    cells,
)


@st.composite
def settled_tables(draw):
    """Tables that end in rows repeating one row bit for bit.

    The row before them may hold the same values with every zero's sign
    flipped, which == cannot tell apart.
    """
    columns, rows, extra = draw(tables())
    if draw(st.booleans()):
        rows = rows[:0]  # the whole table settled
    width = len(columns) - 1
    settled = draw(st.lists(settled_cells, min_size=width, max_size=width))
    block = [settled] * draw(st.integers(1, 12))
    if draw(st.booleans()):
        block = [[-v if v == 0 else v for v in settled]] + block
    return columns, np.vstack([rows, np.array(block, dtype=float)]), extra


@settings(max_examples=300, deadline=None)
@given(settled_tables())
def test_settled_rows_match_per_cell_renderers(table):
    columns, rows, extra = table
    assert _render_table(columns, rows, "json", extra) == old_render(
        columns, rows, "json", extra
    )
    new = _render_table(columns, rows, "csv", extra)
    body = old_render(columns, rows, "csv", extra)[len(",".join(columns)) + 1 :]
    assert new.endswith("\n" + body)
    header = new[: len(new) - len(body) - 1]
    assert list(csv.reader(io.StringIO(header, newline=""))) == [columns]


@pytest.mark.parametrize("path", ["simulate", "irf"])
@pytest.mark.parametrize("solved", ["golden_solved", "back_solved"])
def test_json_table_matches_per_cell_encoder_at_long_horizon(request, solved, path):
    # tens of thousands of zeros and about 20k subnormals on back
    spec, reg, aug, _, system = request.getfixturevalue(solved)
    if path == "simulate":
        traj = simulate_path(system, spec, reg, aug, 10_000)
    else:
        traj = irf(system, spec, reg, aug, 10_000, 0)
    columns, rows = _trajectory_table(traj, spec)
    extra = {"loss": traj.loss, "truncation_bound": traj.truncation_bound}
    assert _render_table(columns, rows, "json", extra) == old_render(
        columns, rows, "json", extra
    )


def test_repeated_exact_values_match_per_cell_encoder():
    # each pre-rendered value many times over, as on a path stuck at a
    # subnormal fixed point, among zeros of both signs and non-finite cells
    repeated = [5e-324, -1.5e-310, 2.2e-308, 3.0000000000001, -41.99999999999999,
                12345678901234.5, -9999999999999998.0, 999999999999.9]
    others = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.25]
    rng = np.random.default_rng(7)
    cells = rng.permutation(np.resize(repeated * 3 + others, 600 * 5))
    rows = cells.reshape(600, 5)
    columns = ["t", "a%s", "b%%", "{0}", "c", "d"]
    extra = {"loss": 5e-324, "truncation_bound": math.inf}
    for fmt in ("json", "csv"):
        assert _render_table(columns, rows, fmt, extra) == old_render(
            columns, rows, fmt, extra
        )


@pytest.fixture(scope="module")
def persistent_2222():
    """A seeded (2,2,2,2) model whose forcing decays like 0.999^t, as in the
    simulate-long benchmark: all 13 columns stay full-width numbers."""
    spec = random_stabilizable_model(np.random.default_rng(2222), 2, 2, 2, 2, 0.95)
    a_zz = spec.A_zz * (0.999 / np.max(np.abs(np.linalg.eigvals(spec.A_zz))))
    spec = replace(spec, A_zz=a_zz)
    reg = solve_riccati(spec)
    aug = solve_sylvester(spec, reg)
    system = build_closed_loop(spec, reg, aug, anchor_x0(spec, reg, aug))
    return spec, reg, aug, system


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_wide_table_matches_per_cell_renderer_at_long_horizon(persistent_2222, fmt):
    spec, reg, aug, system = persistent_2222
    traj = simulate_path(system, spec, reg, aug, 10_000)
    columns, rows = _trajectory_table(traj, spec)
    assert rows.shape == (10_000, 12)
    extra = {"loss": traj.loss, "truncation_bound": traj.truncation_bound}
    assert _render_table(columns, rows, fmt, extra) == old_render(columns, rows, fmt, extra)
