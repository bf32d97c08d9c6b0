"""The path-table renderer against the per-cell renderers it replaced.

``old_render_table`` is the previous ``cli._render_table``: every JSON cell
went through ``_jsonable`` and the json encoder, every CSV cell through
``_csv_cell``.  The flat renderer must print the same bytes, except that a
CSV header cell holding a comma, quote, CR or LF is now quoted.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auglqr import irf, simulate_path
from auglqr.cli import _csv_cell, _jsonable, _render_table, _trajectory_table


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
    alphabet=st.one_of(st.sampled_from(list('ab,"\r\n \'\\{}é€π')), st.characters()),
    max_size=6,
)


@st.composite
def tables(draw):
    width = draw(st.integers(2, 6))
    height = draw(st.integers(1, 5))
    rows = np.array(
        draw(st.lists(st.lists(cells, min_size=width, max_size=width), min_size=height,
                      max_size=height)),
        dtype=float,
    )
    # a path table's first column is always "t"
    columns = ["t"] + draw(st.lists(labels, min_size=width - 1, max_size=width - 1))
    extra = {"loss": draw(cells), "truncation_bound": draw(cells)}
    if draw(st.booleans()):
        extra = {"shock_index": draw(st.integers(0, 9)), **extra}
    return columns, rows, extra


@settings(max_examples=200, deadline=None)
@given(tables())
def test_json_table_matches_per_cell_encoder(table):
    columns, rows, extra = table
    assert _render_table(columns, rows, "json", extra) == old_render_table(
        columns, rows, "json", extra
    )


@settings(max_examples=200, deadline=None)
@given(tables())
def test_csv_table_matches_per_cell_renderer(table):
    columns, rows, extra = table
    new = _render_table(columns, rows, "csv", extra)
    old = old_render_table(columns, rows, "csv", extra)
    body = old[len(",".join(columns)) + 1 :]
    assert new.endswith("\n" + body)
    header = new[: len(new) - len(body) - 1]
    assert list(csv.reader(io.StringIO(header, newline=""))) == [columns]
    if not any(c in label for label in columns for c in ',"\r\n'):
        assert new == old


@pytest.mark.parametrize("path", ["simulate", "irf"])
@pytest.mark.parametrize("solved", ["golden_solved", "back_solved"])
def test_json_table_matches_per_cell_encoder_at_long_horizon(request, solved, path):
    # tens of thousands of zeros, about 20k subnormals on back, and the
    # integral t column
    spec, reg, aug, _, system = request.getfixturevalue(solved)
    if path == "simulate":
        traj = simulate_path(system, spec, reg, aug, 10_000)
    else:
        traj = irf(system, spec, reg, aug, 10_000, 0)
    columns, rows = _trajectory_table(traj, spec)
    extra = {"loss": traj.loss, "truncation_bound": traj.truncation_bound}
    assert _render_table(columns, rows, "json", extra) == old_render_table(
        columns, rows, "json", extra
    )
