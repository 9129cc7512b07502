"""Hypothesis strategies shared by the property tests: the spec strings
of random ``poly`` (degree <= 4) and ``table`` (2-6 nodes) distributions.
A two-node table is one linear segment, with no interior kink."""

from hypothesis import strategies as st_

_coef = st_.floats(-4.0, 4.0, allow_nan=False).map(lambda c: round(c, 3))
_polys = st_.lists(_coef, min_size=1, max_size=5).map(
    lambda cs: "poly " + " ".join(map(str, cs)))
_tables = st_.tuples(
    st_.lists(st_.integers(1, 99), min_size=0, max_size=4, unique=True),
    st_.lists(_coef, min_size=6, max_size=6),
).map(lambda tv: "table " + " ".join(
    f"{t}:{v}" for t, v in zip([0.0] + sorted(k / 100 for k in tv[0]) + [1.0], tv[1])))

dist_specs = st_.one_of(_polys, _tables)
