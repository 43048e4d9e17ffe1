"""Tests for rank bounds, CP-ALS, and the 2 x M x N classifier."""

import contextlib
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slocc3 as s
from slocc3 import rank
from slocc3.tensor import ldexp, unfolding_svds, unit_exponent


def random_tensor(rng, dims):
    return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)


def test_hyperdeterminant_values():
    ghz_normalized = s.ghz_state() / np.sqrt(2)
    assert abs(s.hyperdeterminant_222(ghz_normalized) - 0.25) < 1e-12
    assert abs(s.hyperdeterminant_222(s.w_state())) < 1e-12


def test_hyperdeterminant_weight_under_local_maps():
    """Det scales by det(A)^2 det(B)^2 det(C)^2 under local maps."""
    rng = np.random.default_rng(0)
    t = random_tensor(rng, (2, 2, 2))
    a, b, c = s.random_slocc((2, 2, 2), 5, cond_bound=20)
    lhs = s.hyperdeterminant_222(s.apply_slocc(t, a, b, c))
    factor = (np.linalg.det(a) * np.linalg.det(b) * np.linalg.det(c)) ** 2
    rhs = factor * s.hyperdeterminant_222(t)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(entries=st.lists(st.integers(-9, 9), min_size=8, max_size=8))
def test_hyperdeterminant_is_the_discriminant_of_the_slice_pencil(entries):
    """On integer tensors the value is exact: b^2 - 4ac from the x^2, x and
    1 coefficients of det(A + xB), A and B the two slices, taken by sympy."""
    import sympy

    t = np.array(entries, dtype=complex).reshape(2, 2, 2)
    x = sympy.Symbol("x")
    a_mat, b_mat = (sympy.Matrix(2, 2, entries[4 * i:4 * i + 4]) for i in range(2))
    poly = sympy.Poly((a_mat + x * b_mat).det(), x)
    c2, c1, c0 = (poly.coeff_monomial(x**d) for d in (2, 1, 0))
    assert s.hyperdeterminant_222(t) == complex(int(c1**2 - 4 * c2 * c0))


def test_classify_222_all_classes():
    assert s.classify_222(s.zero_tensor((2, 2, 2))) == "Zero"
    assert s.classify_222(s.parse_ket("|011>", (2, 2, 2))) == "Product"
    assert s.classify_222(s.parse_ket("|000>+|011>", (2, 2, 2))) == "BiSeparable-A"
    assert s.classify_222(s.parse_ket("|000>+|101>", (2, 2, 2))) == "BiSeparable-B"
    assert s.classify_222(s.parse_ket("|000>+|110>", (2, 2, 2))) == "BiSeparable-C"
    assert s.classify_222(s.ghz_state()) == "GHZclass"
    assert s.classify_222(s.w_state()) == "Wclass"


def test_classify_222_wrong_dims():
    with pytest.raises(ValueError):
        s.classify_222(np.zeros((2, 2, 3), dtype=complex))


def test_rank_lower_bound_examples():
    assert s.rank_lower_bound(s.ghz_state()) == (2, "Classifier222(GHZclass)")
    assert s.rank_lower_bound(s.w_state()) == (3, "Classifier222(Wclass)")
    diag3 = s.catalog_build("3x3x3-diag")
    assert s.rank_lower_bound(diag3) == (3, "LocalRank")
    with pytest.raises(ValueError):
        s.rank_lower_bound(s.zero_tensor((2, 2, 2)))


def test_cp_als_ghz_rank_two():
    res = s.cp_als(s.ghz_state(), 2, seed=0)
    assert res.success
    assert res.residual < 1e-10
    np.testing.assert_allclose(res.reconstruct(), s.ghz_state(), atol=1e-8)


def test_cp_als_direct_construction_at_trivial_bound():
    rng = np.random.default_rng(1)
    t = random_tensor(rng, (3, 4, 5))
    res = s.cp_als(t, 12, seed=0)  # 12 = 3*4, product of two smallest dims
    assert res.success and res.residual < 1e-12
    np.testing.assert_allclose(res.reconstruct(), t, atol=1e-10)


def _reference_direct_decomposition(t, r):
    """The slice construction as a double loop over the two smallest modes."""
    dims = t.shape
    order = np.argsort(dims)
    m1, m2 = sorted(order[:2])
    m3 = 3 - m1 - m2
    factors = [np.zeros((d, r), dtype=complex) for d in dims]
    col = 0
    for i1 in range(dims[m1]):
        for i2 in range(dims[m2]):
            idx = [slice(None)] * 3
            idx[m1], idx[m2] = i1, i2
            factors[m1][i1, col] = 1.0
            factors[m2][i2, col] = 1.0
            factors[m3][:, col] = t[tuple(idx)]
            col += 1
    return tuple(factors)


@pytest.mark.parametrize("dims", [(2, 3, 4), (4, 3, 2), (3, 2, 4), (3, 3, 3), (2, 2, 5),
                                  (5, 1, 2)])
def test_cp_als_direct_slice_construction_is_exact(dims):
    t = random_tensor(np.random.default_rng(sum(dims)), dims)
    d1, d2 = sorted(dims)[:2]
    for r in (d1 * d2, d1 * d2 + 2):
        res = s.cp_als(t, r)
        assert res.detail == "direct slice construction"
        assert np.array_equal(res.reconstruct(), t)
        for got, want in zip(res.factors, _reference_direct_decomposition(t, r)):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape


def test_cp_als_failure_is_a_value():
    """The permutation state has border rank 4: R=3 stays bounded away."""
    perm = s.catalog_build("3x3x3-perm")
    res = s.cp_als(perm, 3, restarts=4, max_iter=400, seed=0)
    assert not res.success
    assert res.residual > 1e-3


def _refuse_work(monkeypatch):
    """Fail any unfolding SVD, the first work of both searches."""
    def refuse(*args, **kwargs):
        raise AssertionError("work done before the tol check")

    monkeypatch.setattr(rank, "unfolding_svds", refuse)


@pytest.mark.parametrize("tol", [np.nan, -1e-8, np.inf])
def test_cp_als_refuses_a_bad_tol(tol, monkeypatch):
    """Once, tol=inf reported success for GHZ at R=1 at residual 0.707."""
    _refuse_work(monkeypatch)
    with pytest.raises(ValueError, match="tol"):
        s.cp_als(s.ghz_state(), 1, tol=tol)


@pytest.mark.parametrize("tol", [np.nan, -1e-8, np.inf])
def test_rank_interval_refuses_a_bad_tol(tol, monkeypatch):
    """Once, tol=nan ran every R and returned [3, 9] for the 3x3x3 diagonal
    state from the slice-wise construction."""
    _refuse_work(monkeypatch)
    with pytest.raises(ValueError, match="tol"):
        s.rank_interval(s.catalog_build("3x3x3-diag"), tol=tol, restarts=1, max_iter=5)


def test_cp_als_border_rank_creep_is_flagged_by_factor_norms():
    """W at R=2 may 'succeed' numerically only via diverging factors."""
    res = s.cp_als(s.w_state(), 2, restarts=4, max_iter=2000, seed=0)
    if res.success:
        norms = [np.linalg.norm(f) for f in res.factors]
        assert max(norms) > 1e4  # the telltale of a border-rank approximation
    # the exact classifier keeps the W interval immune to this
    interval = s.rank_interval(s.w_state())
    assert (interval.lower, interval.upper) == (3, 3)


def test_cp_als_w_squared_rank_seven():
    w2 = s.kron_regroup(s.w_state(), s.w_state())
    res = s.cp_als(w2, 7, restarts=128, seed=0, tol=1e-6)
    assert res.success and res.residual < 1e-6
    rebuilt = res.reconstruct()
    assert np.linalg.norm(rebuilt - w2) < 1e-6 * np.linalg.norm(w2) * 10


def test_map_cp_factors_monotone_bound():
    """Termwise-mapped decompositions certify ranks of one-way images."""
    rng = np.random.default_rng(2)
    t = s.catalog_build("3x3x3-diag")
    res = s.cp_als(t, 3, seed=0)
    assert res.success
    for trial in range(5):
        a, b, c = s.random_slocc((3, 3, 3), 50 + trial, cond_bound=30)
        a = a.copy()
        a[:, 2] = 0  # make the first-party map singular (one-way)
        image = s.apply_slocc(t, a, b, c)
        mapped = s.map_cp_factors(res.factors, a, b, c)
        rebuilt = np.einsum("ir,jr,kr->ijk", *mapped)
        assert np.linalg.norm(rebuilt - image) < 1e-8 * max(1.0, np.linalg.norm(image))
        assert mapped[0].shape[1] == 3  # same term count: upper bound unchanged


def test_rank_interval_product_state():
    t = s.parse_ket("|0>(|0>+|1>)|1>", (2, 2, 2))
    interval = s.rank_interval(t)
    assert (interval.lower, interval.upper) == (1, 1)


def test_rank_interval_ghz_w():
    ghz = s.rank_interval(s.ghz_state())
    assert (ghz.lower, ghz.upper) == (2, 2)
    w = s.rank_interval(s.w_state())
    assert (w.lower, w.upper) == (3, 3)
    assert w.certificate_lower == "Classifier222(Wclass)"


def test_rank_interval_invariant_under_slocc():
    """Computed intervals agree between a tensor and its nonsingular images."""
    rng = np.random.default_rng(3)
    sources = [s.ghz_state(), s.w_state(), s.catalog_build("2x2x3-2"),
               s.catalog_build("2x3x3-1")]
    for trial in range(50):
        t = sources[trial % len(sources)] if trial % 2 else random_tensor(
            rng, [(2, 2, 2), (2, 2, 3)][trial % 4 // 2]
        )
        base = s.rank_interval(t)
        maps = s.random_slocc(t.shape, 900 + trial, cond_bound=10)
        image = s.rank_interval(s.apply_slocc(t, *maps))
        assert (image.lower, image.upper) == (base.lower, base.upper), trial


def test_rank_interval_decomposition_reconstructs():
    rng = np.random.default_rng(4)
    t = random_tensor(rng, (2, 2, 3))
    interval = s.rank_interval(t)
    cert = interval.certificate_upper
    rebuilt = cert.reconstruct()
    assert np.linalg.norm(rebuilt - t) <= max(cert.residual * np.linalg.norm(t) * 1.01, 1e-12)
    assert interval.lower <= interval.upper


def test_classify_2mn_table_selfmap_subset():
    for entry_id in ("2x2x2-1", "2x2x2-2", "2x3x3-1", "2x3x4-5", "1x2x2-1", "2x1x2-1"):
        res = s.classify_2mn(s.catalog_build(entry_id))
        assert res.matched and res.entry.id == entry_id


def test_classify_2mn_embedded_smaller_state():
    """A GHZ padded into 2 x 3 x 4 dims still classifies as GHZ."""
    t = np.zeros((2, 3, 4), dtype=complex)
    t[:2, :2, :2] = s.ghz_state()
    res = s.classify_2mn(t)
    assert res.matched and res.entry.id == "2x2x2-1"
    assert res.compressed_dims == (2, 2, 2)


def test_classify_2mn_slocc_invariance():
    for trial in range(10):
        t = s.apply_slocc(s.w_state(), *s.random_slocc((2, 2, 2), trial, cond_bound=20))
        res = s.classify_2mn(t)
        assert res.matched and res.entry.id == "2x2x2-2"


def test_classify_2mn_rejects_out_of_range():
    with pytest.raises(ValueError):
        s.classify_2mn(np.zeros((3, 3, 3), dtype=complex))
    with pytest.raises(ValueError):
        s.classify_2mn(np.zeros((2, 3, 7), dtype=complex))
    with pytest.raises(ValueError):
        s.classify_2mn(s.zero_tensor((2, 2, 2)))


def test_rank_interval_json_has_certificates():
    import json

    doc = json.loads(s.rank_interval(s.ghz_state()).to_json())
    assert doc["lower"] == 2 and doc["upper"] == 2
    assert "factors" in doc["certificate_upper"]
    assert "border rank" in doc["caveat"]


@pytest.mark.parametrize("scale", [1e-90, 1e90])
def test_classify_222_is_scale_invariant(scale):
    assert s.classify_222(s.ghz_state() * scale) == "GHZclass"
    assert s.classify_222(s.w_state() * scale) == "Wclass"


def test_rank_interval_tiny_ghz_keeps_rank_two():
    interval = s.rank_interval(s.ghz_state() * 1e-90)
    assert (interval.lower, interval.upper) == (2, 2)


def _reference_cp_als(t, r, restarts, max_iter, seed, tol, stall_tol):
    """The CP-ALS loop on ``np.linalg.lstsq``; also returns the smallest
    numerical rank of any design matrix it solved with."""
    from slocc3.rank import _als_init, _spectral_init
    from slocc3.tensor import ldexp, unfold, unfolding_svds

    def khatri_rao(u, v):
        return np.einsum("jr,kr->jkr", u, v).reshape(-1, r)

    norm_t = float(np.linalg.norm(t))
    unfolds = [unfold(t, m) for m in (1, 2, 3)]
    [e], _, svds = unfolding_svds(t[None], vectors=(0, 1, 2))
    vectors = [svd.U[0] for svd in svds]
    spectral = _spectral_init(ldexp(t, -e), r, vectors)
    best, min_rank = None, r
    for restart in range(max(1, restarts)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, restart]))
        if restart == 1 and spectral is not None:
            a, b, c = (f.copy() for f in spectral)
        else:
            a, b, c = _als_init(t, r, rng, vectors if restart == 0 else None)
        prev_res = np.inf
        residual = np.inf
        for _ in range(max_iter):
            x, _, k1, _ = np.linalg.lstsq(khatri_rao(b, c), unfolds[0].T, rcond=None)
            a = x.T
            x, _, k2, _ = np.linalg.lstsq(khatri_rao(a, c), unfolds[1].T, rcond=None)
            b = x.T
            x, _, k3, _ = np.linalg.lstsq(khatri_rao(a, b), unfolds[2].T, rcond=None)
            c = x.T
            min_rank = min(min_rank, k1, k2, k3)
            model = np.einsum("ir,jr,kr->ijk", a, b, c)
            residual = float(np.linalg.norm(t - model) / norm_t)
            if residual < tol or abs(prev_res - residual) < stall_tol:
                break
            prev_res = residual
        if best is None or residual < best[0]:
            best = (residual, (a, b, c), restart)
        if residual < tol:
            break
    residual, factors, restart = best
    result = s.CpResult(residual < tol, r, residual, factors,
                        f"ALS, best of {restart + 1} restart(s)")
    return result, min_rank


def _als_reference_cases():
    rng = np.random.default_rng(12)
    cases = [("2x2x2", random_tensor(rng, (2, 2, 2)), 2, 100)]
    for dims, ranks in (((2, 3, 3), (3, 4, 5)), ((3, 3, 3), (3, 4, 5)),
                        ((2, 3, 4), (4, 5))):
        t = random_tensor(rng, dims)
        cases += [("x".join(map(str, dims)), t, r, 100) for r in ranks]
    product = np.einsum("i,j,k->ijk", *(random_tensor(rng, (d,)) for d in (2, 3, 3)))
    cases.append(("product", product, 2, 100))
    # design singular values ~1e-10 apart: another cutoff changes the iterates
    cases.append(("near-product", product + 1e-10 * random_tensor(rng, (2, 3, 3)), 2, 100))
    cases.append(("WxW", s.kron_regroup(s.w_state(), s.w_state()), 7, 30))
    return cases


@pytest.mark.parametrize("tols", [{}, {"tol": 0.0, "stall_tol": 0.0}],
                         ids=["default-tol", "zero-tol"])
def test_cp_als_matches_lstsq_reference_bit_for_bit(tols):
    """The prepared zgelsd solves give exactly the lstsq loop's iterates."""
    params = {"tol": 1e-8, "stall_tol": 1e-12, **tols}
    for name, t, r, max_iter in _als_reference_cases():
        got = s.cp_als(t, r, restarts=2, max_iter=max_iter, seed=3, **params)
        want, min_rank = _reference_cp_als(t, r, 2, max_iter, 3, **params)
        assert got.success == want.success, (name, r)
        assert got.residual == want.residual, (name, r)
        assert got.detail == want.detail, (name, r)
        for f_got, f_want in zip(got.factors, want.factors):
            assert f_got.shape == f_want.shape, (name, r)
            assert np.array_equal(f_got, f_want), (name, r)
        if name == "product":  # the design loses rank as the two terms align
            assert min_rank < r


# --- certified lower bounds ------------------------------------------------------


TWO_SLICE_ROWS = [e.id for e in s.catalog_list(table_only=True) if e.system[0] == 2]


def _jaja_of(t):
    """Ja'Ja's formula on the slice pencil of ``t`` restricted to its support."""
    core = rank._support(t)[1]
    inv = s.pencil_invariants(np.moveaxis(core, core.shape.index(2), 0))
    assert not inv.borderline
    return rank._jaja_rank(inv)


@pytest.mark.parametrize("entry_id", TWO_SLICE_ROWS)
def test_jaja_formula_equals_rank_note(entry_id):
    entry = s.catalog_get(entry_id)
    t = entry.build()
    assert "Ja'Ja'" in entry.rank_note["source"]
    note = entry.rank_note["rank"]
    assert _jaja_of(t) == note
    for seed in range(3):
        image = s.apply_slocc(t, *s.random_slocc(t.shape, 70 + seed, cond_bound=20))
        assert _jaja_of(image) == note, seed
    interval = s.rank_interval(t)
    assert (interval.lower, interval.upper) == (note, note)


BOUND_STATES = TWO_SLICE_ROWS + ["3x3x3-diag", "3x3x3-perm"]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(entry_id=st.sampled_from(BOUND_STATES),
       map_seed=st.integers(0, 2**31 - 1),
       exponent=st.sampled_from([-150, 0, 150]))
def test_rank_lower_bound_invariant_under_slocc_and_scale(entry_id, map_seed, exponent):
    entry = s.catalog_get(entry_id)
    t = entry.build()
    image = s.apply_slocc(t, *s.random_slocc(t.shape, map_seed, cond_bound=100))
    bound = s.rank_lower_bound(image * 10.0**exponent)
    assert bound == s.rank_lower_bound(t)
    assert bound[0] <= entry.rank_note["rank"]


def test_rank_lower_bound_certificates():
    assert s.rank_lower_bound(s.catalog_build("2x3x4-4")) == (5, "JaJa")
    assert s.rank_lower_bound(s.catalog_build("2x3x3-1")) == (3, "LocalRank")
    assert s.rank_lower_bound(s.catalog_build("3x3x3-perm")) == (4, "Strassen")


def test_rank_lower_bound_on_split_triple_root_image():
    """0.05 from this image's triple eigenvalue the 3-jet's smallest singular
    value falls below the rank tolerance, so reference nullities taken at a
    point there read partition (2,) and borderline, not a split root; on the
    support it is one Jordan block of size 3."""
    maps = s.random_slocc((2, 3, 3), 10050, cond_bound=20)
    image = s.apply_slocc(s.catalog_build("2x3x3-4"), *maps)
    assert s.rank_lower_bound(image) == (4, "JaJa")


def test_borderline_pencil_falls_back_to_local_rank(monkeypatch):
    def borderline(t, *args, **kwargs):
        inv = s.pencil_invariants(t, *args, **kwargs)
        return dataclasses.replace(inv, borderline=True)

    monkeypatch.setattr(rank, "pencil_invariants", borderline)
    assert s.rank_lower_bound(s.catalog_build("2x3x3-4")) == (3, "LocalRank")


@contextlib.contextmanager
def counted_cp_als():
    """Wrap ``rank.cp_als``; yields the list of ranks it was called with."""
    ranks = []
    cp_als = rank.cp_als

    def counted(t, r, *args, **kwargs):
        ranks.append(r)
        return cp_als(t, r, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank, "cp_als", counted)
        yield ranks


def test_random_333_interval_runs_als_only_at_generic_rank():
    t = random_tensor(np.random.default_rng(31), (3, 3, 3))
    with counted_cp_als() as ranks:
        interval = s.rank_interval(t, restarts=2, max_iter=300)
    assert (interval.lower, interval.upper) == (5, 5)
    assert interval.certificate_lower == "Strassen"
    assert ranks == [5]


# generic rank of random tensors of these dims
GENERIC_TWO_SLICE = {(2, 2, 2): 2, (2, 3, 3): 3, (2, 3, 4): 4}
TWO_SLICE_CASES = TWO_SLICE_ROWS + ["ghz", "w"] + [
    "random" + "x".join(map(str, dims)) for dims in GENERIC_TWO_SLICE]


@pytest.mark.parametrize("name", TWO_SLICE_CASES)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(map_seed=st.integers(0, 2**31 - 1), exponent=st.sampled_from([-150, 0, 150]))
def test_two_slice_interval_closes_by_construction(name, map_seed, exponent):
    """Every tensor whose support has a mode of dim 2 gets [rank, rank] from
    the padded-pencil construction, with no CP-ALS call."""
    if name.startswith("random"):
        dims = tuple(int(d) for d in name[len("random"):].split("x"))
        t, known = random_tensor(np.random.default_rng(map_seed), dims), GENERIC_TWO_SLICE[dims]
    else:
        t, known = s.catalog_build(name), s.catalog_get(name).rank_note["rank"]
    image = s.apply_slocc(t, *s.random_slocc(t.shape, map_seed, cond_bound=100))
    image = image * 10.0**exponent
    with counted_cp_als() as ranks:
        interval = s.rank_interval(image)
    assert ranks == []
    assert (interval.lower, interval.upper) == (known, known)
    cert = interval.certificate_upper
    assert cert.success and cert.detail == "padded pencil construction"
    rebuilt = cert.reconstruct()
    assert np.linalg.norm(rebuilt - image) < 1e-8 * np.linalg.norm(image)


@pytest.mark.parametrize("entry_id", ["2x3x4-1", "2x3x4-3"])
def test_default_interval_closes_on_l_eps_rows(entry_id):
    """The rows where ALS misses the certified rank even at the default
    budget now close at [4, 4]."""
    t = s.catalog_build(entry_id)
    for seed in range(4):
        image = s.apply_slocc(t, *s.random_slocc(t.shape, 60 + seed, cond_bound=100))
        interval = s.rank_interval(image)
        assert (interval.lower, interval.upper) == (4, 4), seed


@pytest.mark.parametrize("name, r", [("w", 2), ("2x3x4-4", 4)])
def test_pencil_construction_below_rank_never_succeeds(name, r):
    t = s.catalog_build(name)
    for seed in range(10):
        image = s.apply_slocc(t, *s.random_slocc(t.shape, 80 + seed, cond_bound=100))
        for exponent in (-150, 0, 150):
            scaled = image * 10.0**exponent
            support = rank._support(scaled)
            assert rank._pencil_construction(scaled, support, r, 1e-8) is None, seed


def _two_slice_input(name):
    """A table row, or W embedded as a 2 x 2 x 2 support in a 3 x 3 x 3 shape."""
    if name != "embedded-w":
        return s.catalog_build(name), s.catalog_get(name).rank_note["rank"]
    t = np.zeros((3, 3, 3), dtype=complex)
    t[:2, :2, :2] = s.catalog_build("w")
    return t, 3


def _invariants_first_interval(t, tol=1e-8):
    """Ja'Ja's bound first (``rank_lower_bound``), then the padded-pencil
    construction at that bound, which closes every two-slice interval."""
    lower, cert = s.rank_lower_bound(t)
    result = rank._pencil_construction(t, rank._support(t), lower, tol)
    assert result is not None
    return lower, cert, result


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(TWO_SLICE_ROWS + ["embedded-w"]),
       map_seed=st.none() | st.integers(0, 2**31 - 1),
       exponent=st.integers(-150, 150))
def test_local_rank_first_interval_equals_invariants_first(name, map_seed, exponent):
    """Trying the construction at the local rank before Ja'Ja's bound gives
    the same interval, certificates and bit-identical factors."""
    t, _ = _two_slice_input(name)
    if map_seed is not None:
        t = s.apply_slocc(t, *s.random_slocc(t.shape, map_seed, cond_bound=100))
    t = t * 10.0**exponent
    interval = s.rank_interval(t)
    lower, cert, want = _invariants_first_interval(t)
    assert (interval.lower, interval.upper) == (lower, lower)
    assert interval.certificate_lower == cert
    got = interval.certificate_upper
    assert (got.success, got.rank, got.residual, got.detail) == (
        want.success, want.rank, want.residual, want.detail)
    for f_got, f_want in zip(got.factors, want.factors, strict=True):
        assert f_got.shape == f_want.shape
        assert f_got.tobytes() == f_want.tobytes()


# supports with a mode of dim 2 whose rank exceeds their largest local rank
ABOVE_LOCAL_RANK = ["2x3x3-3", "2x3x3-4", "2x3x3-5", "2x3x3-6", "2x3x4-4", "embedded-w"]


@contextlib.contextmanager
def recorded_eigenbasis_conds():
    """Wrap ``rank._diagonalize_pencil``; yields the condition numbers of
    the eigenbases it returns."""
    conds = []
    diagonalize = rank._diagonalize_pencil

    def recording(p0, p1):
        w, v, c = diagonalize(p0, p1)
        conds.append(np.linalg.cond(w))
        return w, v, c

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank, "_diagonalize_pencil", recording)
        yield conds


@pytest.mark.parametrize("name", ABOVE_LOCAL_RANK)
def test_eigenbasis_guard_refuses_the_construction_at_the_local_rank(name):
    """Below the rank the padded pencil is defective: its eigenbasis
    condition number is over 1000 times ``_EIGENBASIS_COND_MAX``, so the
    construction returns None there and the interval closes at Ja'Ja's rank."""
    t, known = _two_slice_input(name)
    for seed in range(5):
        image = s.apply_slocc(t, *s.random_slocc(t.shape, 90 + seed, cond_bound=100))
        for exponent in (-150, 0, 150):
            scaled = image * 10.0**exponent
            support = rank._support(scaled)
            local = max(support[1].shape)
            assert local < known
            with recorded_eigenbasis_conds() as conds:
                assert rank._pencil_construction(scaled, support, local, 1e-8) is None
            assert conds[0] > 1000 * rank._EIGENBASIS_COND_MAX, (seed, exponent)
            interval = s.rank_interval(scaled)
            assert (interval.lower, interval.upper) == (known, known), (seed, exponent)
            assert interval.certificate_lower == "JaJa"


def test_local_rank_first_order_rests_on_the_eigenbasis_guard(monkeypatch):
    """Without the guard, round-off lets the defective pencil at the local
    rank pass ``tol`` (on 9 of the 10 images at seeds 90-99), and the
    interval would close below the rank."""
    monkeypatch.setattr(rank, "_EIGENBASIS_COND_MAX", np.inf)
    t, known = _two_slice_input("2x3x4-4")
    wrong = []
    for seed in range(5):
        image = s.apply_slocc(t, *s.random_slocc(t.shape, 90 + seed, cond_bound=100))
        interval = s.rank_interval(image)
        if interval.lower < known:
            assert (interval.upper, interval.certificate_lower) == (known - 1, "LocalRank")
            wrong.append(seed)
    assert wrong


def test_interval_below_rank_falls_back_to_als(monkeypatch):
    """With the lower bound forced below the rank, the construction fails
    there, ALS runs at that R, and the construction closes one higher."""
    monkeypatch.setattr(rank, "_class_222", lambda t, ranks: "GHZclass")

    def borderline(t, *args, **kwargs):
        return dataclasses.replace(s.pencil_invariants(t, *args, **kwargs), borderline=True)

    monkeypatch.setattr(rank, "pencil_invariants", borderline)
    for name, lower in (("w", 2), ("2x3x4-4", 4)):
        with counted_cp_als() as ranks:
            interval = s.rank_interval(s.catalog_build(name), restarts=1, max_iter=50)
        assert ranks == [lower], name
        assert (interval.lower, interval.upper) == (lower, lower + 1), name
        assert interval.certificate_upper.detail == "padded pencil construction", name


@pytest.mark.parametrize("entry_id", ["2x3x3-1", "2x3x3-2", "3x3x3-diag"])
def test_spectral_init_reconstructs_repeated_eigenvalue_images(entry_id):
    t = s.catalog_build(entry_id)
    for seed in range(5):
        image = s.apply_slocc(t, *s.random_slocc(t.shape, 40 + seed, cond_bound=100))
        vectors = [svd.U[0] for svd in unfolding_svds(image[None], vectors=(0, 1, 2))[2]]
        factors = rank._spectral_init(image, 3, vectors)
        rebuilt = np.einsum("ir,jr,kr->ijk", *factors)
        assert np.linalg.norm(rebuilt - image) <= 1e-12 * np.linalg.norm(image), seed


def test_rank_intervals_demo_runs():
    demo = Path(__file__).resolve().parents[1] / "demos" / "02_rank_intervals.py"
    src = str(Path(s.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, check=False, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("3x3x3-perm   interval [4, 4]  lower via Strassen")
               for line in proc.stdout.splitlines()), proc.stdout


# --- any nonzero scale: 10^k for |k| <= 300 ----------------------------------------


def _scaled_image(entry_id, map_seed, exponent):
    t = s.catalog_build(entry_id)
    image = s.apply_slocc(t, *s.random_slocc(t.shape, map_seed, cond_bound=100))
    return t, image * 10.0**exponent


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(entry_id=st.sampled_from(TWO_SLICE_ROWS),
       map_seed=st.integers(0, 2**31 - 1),
       exponent=st.integers(-300, 300))
def test_rank_lower_bound_at_any_scale(entry_id, map_seed, exponent):
    t, image = _scaled_image(entry_id, map_seed, exponent)
    assert s.rank_lower_bound(image) == s.rank_lower_bound(t)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(entry_id=st.sampled_from(TWO_SLICE_ROWS),
       map_seed=st.integers(0, 2**31 - 1),
       exponent=st.integers(-300, 300))
def test_two_slice_interval_at_any_scale(entry_id, map_seed, exponent):
    """[rank, rank], with a certificate whose residual, taken on the tensor
    and the model scaled by the same power of two, is below ``tol``."""
    _, image = _scaled_image(entry_id, map_seed, exponent)
    known = s.catalog_get(entry_id).rank_note["rank"]
    interval = s.rank_interval(image, restarts=1, max_iter=50)
    assert (interval.lower, interval.upper) == (known, known)
    cert = interval.certificate_upper
    e = unit_exponent(image)
    a, b, c = cert.factors
    model = np.einsum("ir,jr,kr->ijk", ldexp(a, -e), b, c)
    residual = np.linalg.norm(model - ldexp(image, -e)) / np.linalg.norm(ldexp(image, -e))
    assert cert.success and residual < 1e-8


TABLE_ROWS = [e.id for e in s.catalog_list(table_only=True)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(entry_id=st.sampled_from(TABLE_ROWS),
       map_seeds=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
       exponents=st.tuples(st.integers(-150, 150), st.integers(-150, 150)))
def test_no_certified_verdict_contradicts_the_catalog(entry_id, map_seeds, exponents):
    """On images of a table row: its class, a rank bracket that holds its
    catalog rank (where the catalog gives one), and no range-criterion
    ``Inequivalent`` between two images."""
    t1, t2 = (_scaled_image(entry_id, seed, e)[1] for seed, e in zip(map_seeds, exponents))
    assert s.classify_2mn(t1).entry.id == entry_id
    note = s.catalog_get(entry_id).rank_note
    if note is not None:
        interval = s.rank_interval(t1, restarts=1, max_iter=50)
        assert s.rank_lower_bound(t1)[0] <= note["rank"] <= interval.upper
    for party in "ABC":
        assert s.range_criterion_compare(t1, t2, party, starts=4) != "Inequivalent", party


@pytest.mark.parametrize("scale", [0.75 * 2.0**1023 * (1 + 1j), 2.0**-1070])
def test_pencil_certificate_factors_stay_finite(scale):
    """The factors share 2^e as 2^q, 2^q and 2^(e - 2q), so a certificate at
    either end of the float range holds no inf and no vanished column."""
    t = s.catalog_build("ghz") * scale
    interval = s.rank_interval(t)
    cert = interval.certificate_upper
    assert (interval.lower, interval.upper) == (2, 2)
    assert cert.detail == "padded pencil construction"
    assert all(np.all(np.isfinite(f)) and np.all(np.any(f != 0, axis=0)) for f in cert.factors)
    e = unit_exponent(t)
    a, b, c = cert.factors
    model = np.einsum("ir,jr,kr->ijk", ldexp(a, -e), b, c)
    assert np.linalg.norm(model - ldexp(t, -e)) / np.linalg.norm(ldexp(t, -e)) < 1e-8


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(entry_id=st.sampled_from(TWO_SLICE_ROWS),
       map_seed=st.integers(0, 2**31 - 1),
       exponent=st.integers(-300, 300))
def test_classify_2mn_at_any_scale(entry_id, map_seed, exponent):
    _, image = _scaled_image(entry_id, map_seed, exponent)
    result = s.classify_2mn(image)
    assert result.matched and result.entry.id == entry_id, result.detail


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31 - 1), exponent=st.integers(-300, 300))
def test_cp_als_on_a_rank_three_tensor_fails_at_rank_one_at_any_scale(seed, exponent):
    """Below about 1e-162 the norm of the tensor once underflowed to 0, and
    the zero-tensor branch reported rank 1 with residual 0."""
    rng = np.random.default_rng(seed)
    t = np.einsum("ir,jr,kr->ijk", *(random_tensor(rng, (3, 3)) for _ in range(3)))
    result = s.cp_als(t * 10.0**exponent, 1, restarts=2, max_iter=50)
    assert not result.success
    assert result.residual > 1e-3


RESCALED_ROWS = ["3x3x3-diag", "3x3x3-perm", "w-squared"]


@st.composite
def _normal_rescalings(draw):
    """A cond <= 100 image of a row, or a random rank-r 3x3x3 or 4x4x4
    tensor, and two powers of two that keep every nonzero part of it
    normal: the top one, which puts the largest part in [2^1023, 2^1024),
    and the bottom one (smallest part in [2^-1022, 2^-1021)) or any
    between."""
    kind = draw(st.sampled_from([*RESCALED_ROWS, 3, 4]))
    seed = draw(st.integers(0, 2**31 - 1))
    if isinstance(kind, str):
        t = s.catalog_build(kind)
        t = s.apply_slocc(t, *s.random_slocc(t.shape, seed, cond_bound=100))
    else:
        rng = np.random.default_rng(seed)
        r = draw(st.integers(1, kind))
        t = np.einsum("ir,jr,kr->ijk", *(random_tensor(rng, (kind, r)) for _ in range(3)))
    parts = np.abs(t.view(float))
    bottom = -1021 - math.frexp(parts[parts > 0].min())[1]
    top = 1024 - unit_exponent(t)
    return t, (top, draw(st.sampled_from([bottom]) | st.integers(bottom, top)))


def _unit_residual(t, factors):
    """Relative residual of the model of ``factors`` against ``t``, with
    each factor taken at its own power-of-two scale and ``t`` at their sum,
    so no product over- or underflows however the scale is shared."""
    exps = [unit_exponent(f) for f in factors]
    model = np.einsum("ir,jr,kr->ijk", *(ldexp(f, -x) for f, x in zip(factors, exps)))
    return rank._relative_residual(ldexp(t, -sum(exps)), model)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(case=_normal_rescalings())
def test_rank_interval_is_the_same_under_normal_power_of_two_rescaling(case):
    """Interval, lower certificate, residual and detail equal their scale-1
    values, and the factors are finite and reconstruct the rescaled tensor.
    Once, ALS started restart 1 from the input scale and put all of 2^e back
    into the first factor, so at the top of the range intervals widened and
    certificates held inf."""
    t, exponents = case
    want = s.rank_interval(t, restarts=2, max_iter=300)
    for k in exponents:
        got = s.rank_interval(ldexp(t, k), restarts=2, max_iter=300)
        assert (got.lower, got.upper, got.certificate_lower) == (
            want.lower, want.upper, want.certificate_lower), k
        cert = got.certificate_upper
        assert (cert.residual, cert.detail) == (
            want.certificate_upper.residual, want.certificate_upper.detail), k
        assert all(np.all(np.isfinite(f)) for f in cert.factors), k
        assert _unit_residual(ldexp(t, k), cert.factors) < 1e-8, k


def test_cp_als_factors_stay_finite_at_the_top_of_the_range():
    """A random 3x3x3 tensor at R = 5, its largest part 1.796e308: the
    scale-1 success, residual and detail, with finite factors.  Once, a
    success at residual 9.8e-9 whose first factor held inf."""
    t = random_tensor(np.random.default_rng(5), (3, 3, 3))
    top = ldexp(t, 1024 - unit_exponent(t))
    assert np.max(np.abs(top.view(float))) > 1.79e308
    want = s.cp_als(t, 5, restarts=2, max_iter=300)
    got = s.cp_als(top, 5, restarts=2, max_iter=300)
    assert got.success and want.success
    assert (got.residual, got.detail) == (want.residual, want.detail)
    assert all(np.all(np.isfinite(f)) for f in got.factors)
    assert _unit_residual(top, got.factors) < 1e-8


def test_fixed_draws_are_made_once_per_shape(monkeypatch):
    """The padding pencil (per r) and Strassen's slice mix (per slice count)
    are drawn on the first call, not on every call."""
    t = s.apply_slocc(s.catalog_build("2x3x4-4"), *s.random_slocc((2, 3, 4), 9, cond_bound=20))
    perm = s.catalog_build("3x3x3-perm")
    first = s.rank_interval(t), s.rank_lower_bound(perm)

    def refuse(*args, **kwargs):
        raise AssertionError("fixed draw made again")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    again = s.rank_interval(t), s.rank_lower_bound(perm)
    assert again[0].to_json() == first[0].to_json() and again[1] == first[1]


# --- unfolding SVDs: one routine, counted ----------------------------------------


def _counted_svds(monkeypatch):
    """Record the shape of every ``np.linalg.svd`` argument."""
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


def test_cp_als_takes_the_unfolding_svds_once(monkeypatch):
    """Restart 0's start and restart 1's spectral start read one routine
    call: 3 unfolding SVDs before the sweeps, where each start took its own
    3 (6 in all)."""
    t = random_tensor(np.random.default_rng(5), (3, 3, 3))
    shapes = _counted_svds(monkeypatch)
    s.cp_als(t, 3, restarts=3, max_iter=2)
    assert shapes == [(1, 3, 9)] * 3


def test_rank_interval_of_a_w_image_takes_three_unfolding_svds(monkeypatch):
    """The support's SVDs also give the 2 x 2 x 2 class its local ranks."""
    image = s.apply_slocc(s.w_state(), *s.random_slocc((2, 2, 2), 4, cond_bound=20))
    shapes = _counted_svds(monkeypatch)
    interval = s.rank_interval(image)
    assert (interval.lower, interval.upper, interval.certificate_lower) == (
        3, 3, "Classifier222(Wclass)")
    assert shapes == [(1, 2, 4)] * 3
