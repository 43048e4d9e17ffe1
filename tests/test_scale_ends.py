"""Every public decision gives its scale-1 answer at the ends of the float
range: catalog rows times 0.75 * 2^1023 * (1 + 1j) and times 2^-1070 (both
exact, as catalog entries are 0 and 1), and cond <= 100 images scaled by a
power of two so that their largest real or imaginary part lies in
[2^1022, 2^1023)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slocc3 as s
from slocc3.tensor import ldexp, unit_exponent

BIG = 0.75 * 2.0**1023 * (1 + 1j)
TINY = 2.0**-1070
ROWS = [e.id for e in s.catalog_list() if max(e.system) <= 4]
# rows whose support has a mode of dim <= 2, where rank_interval closes by
# construction; elsewhere its upper bound is an ALS search
TWO_SLICE = {e.id for e in s.catalog_list() if min(e.system) <= 2}


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _answers(t, two_slice):
    """Each public decision on ``t``, as a comparable value."""
    n1, n2, n3 = t.shape
    out = {
        "local_ranks": s.local_ranks(t),
        "is_product_state": s.is_product_state(t),
        "rank_lower_bound": s.rank_lower_bound(t),
        "range_criterion_compare": [s.range_criterion_compare(t, t, p, starts=2) for p in "ABC"],
    }
    for p in "ABC":
        report = _outcome(s.range_product_count, t, p, starts=2)
        if not isinstance(report, str) and report.exactness == "LowerBound":
            report = "search"  # k >= 4: a seeded search, not a decision
        elif not isinstance(report, str):
            report = (report.exactness, report.independent_count, report.continuum)
        out[f"range_product_count {p}"] = report
    if t.shape == (2, 2, 2):
        out["classify_222"] = s.classify_222(t)
    if two_slice:
        interval = s.rank_interval(t, restarts=1, max_iter=20)
        out["rank_interval"] = (interval.lower, interval.upper, interval.certificate_lower)
    if n1 == 2:
        inv = s.pencil_invariants(t)
        out["pencil_invariants"] = (inv.normal_rank, inv.signature(), inv.borderline)
        if n2 <= 3 and n3 <= 6:
            res = s.classify_2mn(t)
            out["classify_2mn"] = (res.entry.id if res.entry else None, res.compressed_dims)
    if n1 == n2 and n3 == 3:
        out["detpoly_equiv_test"] = s.detpoly_equiv_test(t, t, restarts=2).kind
    report = _outcome(s.find_product_vectors, s.MatrixSubspace(n2, n3, list(t)), starts=2)
    if not isinstance(report, str):
        report = (report.exactness, report.independent_count, report.continuum)
    out["find_product_vectors"] = report
    return out


def _scaled_answers(t, scaled, two_slice):
    """The answers on ``scaled``, where the comparisons with a second state
    take the unscaled ``t``."""
    out = _answers(scaled, two_slice)
    out["range_criterion_compare"] = [s.range_criterion_compare(scaled, t, p, starts=2)
                                      for p in "ABC"]
    if "detpoly_equiv_test" in out:
        out["detpoly_equiv_test"] = s.detpoly_equiv_test(scaled, t, restarts=2).kind
    return out


@pytest.mark.parametrize("factor", [BIG, TINY], ids=["big", "tiny"])
@pytest.mark.parametrize("entry_id", ROWS)
def test_catalog_rows_at_the_ends(entry_id, factor):
    t = s.catalog_build(entry_id)
    scaled = t * factor
    assert np.all(np.isfinite(scaled))
    if factor == TINY:
        assert np.array_equal(ldexp(scaled, 1070), t)  # exact
    assert _scaled_answers(t, scaled, entry_id in TWO_SLICE) == _answers(t, entry_id in TWO_SLICE)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(entry_id=st.sampled_from(ROWS), map_seed=st.integers(0, 2**31 - 1))
def test_images_at_the_top_of_the_range(entry_id, map_seed):
    t = s.catalog_build(entry_id)
    image = s.apply_slocc(t, *s.random_slocc(t.shape, map_seed, cond_bound=100))
    top = ldexp(image, 1023 - unit_exponent(image))
    assert 2.0**1022 <= np.max(np.abs(top.view(float))) < 2.0**1023
    assert _scaled_answers(image, top, entry_id in TWO_SLICE) == _answers(image, entry_id in TWO_SLICE)
