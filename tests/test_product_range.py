"""Tests for product-vector search and the range-criterion comparison."""

import cmath
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slocc3 as s
import slocc3.product_range as pr
from slocc3.pencil import EIGEN_CLUSTER_RADIUS, _chordal
from slocc3.tensor import matrix_rank_tol
from slocc3.product_range import (
    MINOR_TOL,
    RECONSTRUCT_TOL,
    RESULTANT_ZERO_TOL,
    MatrixSubspace,
    _all_minors,
    _chart_zeros,
    _minor_form,
    _minor_quadrics,
    _accept,
    _exact,
    _minor_residual,
    _pencil_zeros,
    _ranks_and_ranges,
    _report,
    _search,
)

# the per-minor loops the vectorised kernel replaced, kept as references


def _all_minors_loop(mat) -> np.ndarray:
    m, n = mat.shape
    vals = []
    for r1 in range(m):
        for r2 in range(r1 + 1, m):
            for c1 in range(n):
                for c2 in range(c1 + 1, n):
                    vals.append(
                        mat[r1, c1] * mat[r2, c2] - mat[r1, c2] * mat[r2, c1]
                    )
    return np.array(vals, dtype=complex)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _orthos(space) -> np.ndarray:
    """The orthonormal basis of ``space`` as a stack of one (1, k, m, n)."""
    return space.ortho.reshape(1, space.dim, space.m, space.n)


def _in_span(space, mat) -> float:
    """Distance of ``mat`` from its projection onto the orthonormal rows of ``space``."""
    vec = np.ravel(mat)
    return np.linalg.norm((space.ortho.conj() @ vec) @ space.ortho - vec)


KERNEL_SHAPES = [(1, 4), (4, 1), (2, 2), (3, 3), (3, 4), (4, 3), (2, 6)]


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_minor_kernel_matches_loop_exactly(shape):
    rng = np.random.default_rng(sum(shape))
    count = (shape[0] * (shape[0] - 1) // 2) * (shape[1] * (shape[1] - 1) // 2)
    for _ in range(20):
        mat = _random_complex(rng, shape)
        got, ref = _all_minors(mat), _all_minors_loop(mat)
        assert got.shape == ref.shape == (count,)
        assert (got == ref).all()


def test_minor_kernel_on_a_stack_matches_each_matrix_exactly():
    rng = np.random.default_rng(5)
    for shape in KERNEL_SHAPES:
        mats = _random_complex(rng, (2, 3) + shape)
        got = _all_minors(mats)
        for i, j in np.ndindex(2, 3):
            assert (got[i, j] == _all_minors(mats[i, j])).all()


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 3)])
def test_closed_form_pencil_forms_match_determinant_kernel(shape):
    """The binary forms (A_00, 2 A_01, A_11) of the minor quadrics of a
    pencil x*B1 + y*B2.  Reference: the two-term permutation expansion of
    each 2x2 minor, in ``_minor_index`` order (row pairs outer)."""
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    m, n = shape
    for _ in range(10):
        b1, b2 = _random_complex(rng, shape), _random_complex(rng, shape)

        def lin(i, j):
            return np.array([b1[i, j], b2[i, j]])

        ref = np.array([
            np.convolve(lin(r1, c1), lin(r2, c2)) - np.convolve(lin(r1, c2), lin(r2, c1))
            for r1, r2 in itertools.combinations(range(m), 2)
            for c1, c2 in itertools.combinations(range(n), 2)
        ])
        quads = _minor_quadrics(np.stack([b1, b2]))
        got = np.stack([quads[:, 0, 0], 2.0 * quads[:, 0, 1], quads[:, 1, 1]], axis=-1)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("m,n,k", [(2, 2, 1), (2, 2, 2), (3, 3, 2), (3, 3, 3), (3, 4, 3), (4, 4, 5)])
def test_subspace_factorisation(m, n, k):
    """An orthonormal basis of the same span."""
    rng = np.random.default_rng(m * 100 + n * 10 + k)
    for scale in (1e-150, 1.0, 1e150):
        space = MatrixSubspace(m, n, list(scale * _random_complex(rng, (k, m, n))))
        np.testing.assert_allclose(space.ortho @ space.ortho.conj().T, np.eye(k), atol=1e-14)
        # the basis is reproduced from its projection onto the orthonormal rows
        proj = (space.stack @ space.ortho.conj().T) @ space.ortho
        np.testing.assert_allclose(proj, space.stack, rtol=0,
                                   atol=1e-13 * np.abs(space.stack).max())


def test_subspace_rejects_dependent_bases():
    rng = np.random.default_rng(8)
    b1, b2 = _random_complex(rng, (3, 3)), _random_complex(rng, (3, 3))
    for basis in ([b1, b2, b1 - 2j * b2], [b1, b1 * (1 + 1e-12)], [b1, np.zeros((3, 3))],
                  [np.zeros((2, 2))]):
        with pytest.raises(ValueError, match="dependent"):
            MatrixSubspace(basis[0].shape[0], basis[0].shape[1], basis)


# (2, 2, 3) has fewer residual rows than unknowns, so the search uses trf
@pytest.mark.parametrize("m,n,k", [(3, 3, 3), (3, 4, 3), (3, 3, 4), (3, 4, 5), (2, 2, 3)])
def test_minor_residual_and_jacobian(m, n, k):
    rng = np.random.default_rng(m * 100 + n * 10 + k)
    basis = _random_complex(rng, (k, m, n))
    form = _minor_form(basis)
    h = 1e-6
    for _ in range(5):
        x = rng.standard_normal(2 * k)
        res, jac = _minor_residual(x, form)
        # the residual is the minors of the normalised member, then |c| - 1
        c = x[:k] + 1j * x[k:]
        minors = _all_minors_loop(np.tensordot(c / np.linalg.norm(c), basis, 1))
        expect = np.concatenate([minors.real, minors.imag, [np.linalg.norm(c) - 1.0]])
        np.testing.assert_allclose(res, expect, rtol=0, atol=1e-12 * np.abs(expect).max())
        fd = np.stack(
            [
                (_minor_residual(x + h * e, form)[0] - _minor_residual(x - h * e, form)[0])
                / (2 * h)
                for e in np.eye(2 * k)
            ],
            axis=1,
        )
        assert np.abs(jac - fd).max() <= 1e-6 * np.abs(jac).max()


def test_subspace_rejects_dependent_basis():
    b = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        MatrixSubspace(2, 2, [b, 2 * b])


def test_k1_rank_one_basis():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    space = MatrixSubspace(3, 4, [np.outer(u, v)])
    report = s.find_product_vectors(space)
    assert report.exactness == "Exact"
    assert report.independent_count == 1
    fu, fv = report.vectors[0]
    rebuilt = np.outer(fu, fv)
    member = np.outer(u, v) / np.linalg.norm(np.outer(u, v))
    phase = np.vdot(rebuilt.ravel(), member.ravel())
    assert abs(abs(phase) - 1.0) < 1e-10


def test_k1_full_rank_basis_has_none():
    space = MatrixSubspace(2, 2, [np.eye(2, dtype=complex)])
    report = s.find_product_vectors(space)
    assert report.exactness == "Exact"
    assert report.independent_count == 0


def test_ghz_range_has_two_product_vectors():
    report = s.range_product_count(s.ghz_state(), "A")
    assert report.exactness == "Exact"
    assert report.independent_count == 2
    assert not report.continuum


def test_w_range_has_one_product_vector():
    report = s.range_product_count(s.w_state(), "A")
    assert report.exactness == "Exact"
    assert report.independent_count == 1
    # the single product vector is |00>
    u, v = report.vectors[0]
    m = np.outer(u, v)
    assert abs(m[0, 0]) > 0.99 * np.linalg.norm(m)


def test_product_state_any_party_counts_one():
    psi = s.parse_ket("|0>(|0>+|1>)|1>", (2, 2, 2))
    for party in ("A", "B", "C"):
        report = s.range_product_count(psi, party)
        assert report.exactness == "Exact"
        assert report.independent_count == 1


@pytest.mark.parametrize("count, planted_rank", [(0, 0), (1, 1), (3, 3), (4, 2), (6, 3)])
def test_report_counts_unit_members_as_matrix_rank_tol_does(count, planted_rank):
    """The rank of the found members' span, from one unscaled SVD of the
    unit members, is the rank ``matrix_rank_tol`` decides at their scale."""
    rng = np.random.default_rng(70 + count)
    first = rng.standard_normal((planted_rank, 9)) + 1j * rng.standard_normal((planted_rank, 9))
    # members beyond the planted rank are random combinations of the first ones
    mixes = np.vstack([np.eye(planted_rank), rng.standard_normal((count - planted_rank,
                                                                   planted_rank))])
    members = mixes @ first
    members /= np.linalg.norm(members, axis=1, keepdims=True)
    report = _report([(None, None, m.reshape(3, 3)) for m in members], "Exact")
    assert report.independent_count == matrix_rank_tol(members, 1e-9) == planted_rank


def test_accept_candidate_minor_check_enforces_caller_tol():
    """diag(1, 1e-10) reconstructs from its rank-1 part within RECONSTRUCT_TOL,
    so only the minor check rejects it at a tol below its 1e-10 minor."""
    space = MatrixSubspace(2, 2, [np.diag([1.0, 1e-10])])
    coords = [space.ortho.conj() @ space.stack[0]]  # of the basis matrix itself
    assert _accept(_orthos(space), [0], coords, 1e-12) == [None]
    [accepted] = _accept(_orthos(space), [0], coords, MINOR_TOL)
    assert accepted is not None
    u, v, m_hat = accepted
    np.testing.assert_allclose(m_hat, np.diag([1.0, 1e-10]), rtol=0, atol=1e-15)
    assert np.linalg.norm(np.outer(u, v) - m_hat) <= RECONSTRUCT_TOL


def _accept_candidate_loop(space, coeffs, tol):
    """The per-candidate polish and checks that ``_accept`` batches, kept
    as its reference: always 4 rounds of rank-1 truncation and projection,
    with coordinates in the orthonormal basis."""

    def member(c):
        return (c @ space.ortho).reshape(space.m, space.n)

    c = np.asarray(coeffs, dtype=complex)
    for _ in range(4):
        m = member(c)
        if np.linalg.norm(m) == 0:
            return None
        uu, ss, vh = np.linalg.svd(m / np.linalg.norm(m))
        c = space.ortho.conj() @ (ss[0] * np.outer(uu[:, 0], vh[0])).ravel()
    if np.linalg.norm(c) == 0:
        return None
    m = member(c / np.linalg.norm(c))
    if np.linalg.norm(m) < 1e-12:
        return None
    m_hat = m / np.linalg.norm(m)
    if np.max(np.abs(_all_minors(m_hat)), initial=0.0) > tol:
        return None
    uu, ss, vh = np.linalg.svd(m_hat)
    u, v = uu[:, 0] * ss[0], vh[0]
    if np.linalg.norm(np.outer(u, v) - m_hat) > RECONSTRUCT_TOL:
        return None
    return u, v, m_hat


def _recorded_accept(monkeypatch):
    """Replace ``_accept`` by a wrapper that records each call's arguments."""
    calls = []
    real = pr._accept

    def recording(orthos, owner, coeffs, tol):
        calls.append((orthos, np.asarray(owner), np.asarray(coeffs), tol))
        return real(orthos, owner, coeffs, tol)

    monkeypatch.setattr(pr, "_accept", recording)
    return calls


def _accept_cases():
    rng = np.random.default_rng(17)
    yield "1x4 continuum pencil", MatrixSubspace(1, 4, list(_random_complex(rng, (2, 1, 4)))), 2
    planted = [np.outer(_random_complex(rng, 3), _random_complex(rng, 3)) for _ in range(3)]
    yield "planted k = 4 search", MatrixSubspace(3, 3, planted + [_random_complex(rng, (3, 3))]), 3


ACCEPT_CASES = list(_accept_cases())


@pytest.mark.parametrize("name,space,count", ACCEPT_CASES, ids=[c[0] for c in ACCEPT_CASES])
def test_batched_accept_reports_the_per_candidate_vectors(monkeypatch, name, space, count):
    """The continuum samples and the search's end points go through one
    batched accept, which reports the vectors the per-candidate polish
    reports on the same candidates, in the same order."""
    calls = _recorded_accept(monkeypatch)
    report = s.find_product_vectors(space, seed=1)
    [(orthos, owner, coeffs, tol)] = calls
    assert np.array_equal(orthos, _orthos(space)) and (owner == 0).all() and tol == MINOR_TOL
    expected = []
    for c in coeffs:
        cand = _accept_candidate_loop(space, c, tol)
        if cand is not None and all(abs(np.vdot(m, cand[2])) <= 1.0 - 1e-6
                                    for _, _, m in expected):
            expected.append(cand)
    assert report.independent_count == count
    assert len(report.vectors) == len(expected) >= count
    for (u, v), (eu, ev, _) in zip(report.vectors, expected):
        np.testing.assert_allclose(u, eu, rtol=0, atol=1e-10)
        np.testing.assert_allclose(v, ev, rtol=0, atol=1e-10)


@pytest.mark.parametrize("pair", ["3x3x3-diag vs perm", "2x2x2 image"])
def test_range_compare_accepts_both_states_in_one_call(monkeypatch, pair):
    """Both ranges' screened candidates go through one ``_accept``; every
    candidate of perm's range, which holds no product vector, is discarded
    by the screen before it."""
    if pair == "2x2x2 image":
        s1 = s.ghz_state()
        s2 = s.apply_slocc(s1, *s.random_slocc((2, 2, 2), 4, cond_bound=20))
        expect, owners = "Inconclusive", {0, 1}
    else:
        s1, s2 = s.catalog_build("3x3x3-diag"), s.catalog_build("3x3x3-perm")
        expect, owners = "Inequivalent", {0}
    calls = _recorded_accept(monkeypatch)
    assert s.range_criterion_compare(s1, s2, "A") == expect
    [(orthos, owner, _, _)] = calls
    assert len(orthos) == 2 and set(owner.tolist()) == owners


@pytest.mark.parametrize("tol", [float("nan"), -1e-7])
def test_nan_or_negative_tol_rejected(tol):
    ghz = s.ghz_state()
    space = MatrixSubspace(2, 2, [np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(ValueError, match="tol"):
        s.find_product_vectors(space, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        s.range_product_count(ghz, "A", tol=tol)
    with pytest.raises(ValueError, match="tol"):
        s.range_criterion_compare(ghz, ghz, "A", tol=tol)


def test_negative_starts_rejected():
    space = _range_space(_diag_plus_random_slab(np.random.default_rng(6)))
    assert space.dim == 4
    with pytest.raises(ValueError, match="starts"):
        s.find_product_vectors(space, starts=-1)


def test_continuum_pencil_flagged():
    basis = [
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.array([[0, 1], [0, 0]], dtype=complex),
    ]
    report = s.find_product_vectors(MatrixSubspace(2, 2, basis))
    assert report.continuum
    assert report.exactness == "LowerBound"
    assert report.independent_count >= 2


@pytest.mark.parametrize("m,n", [(1, 3), (3, 1), (1, 2)])
def test_one_row_or_column_pencil_is_continuum(m, n):
    """There are no 2x2 minors, so every member is rank <= 1."""
    rng = np.random.default_rng(m + 10 * n)
    space = MatrixSubspace(m, n, [_random_complex(rng, (m, n)) for _ in range(2)])
    report = s.find_product_vectors(space)
    assert report.continuum
    assert report.exactness == "LowerBound"
    assert report.independent_count == 2


def test_k2_undecided_candidate_falls_back_to_search():
    """diag(1, 1e-8, 0) is the pencil's only finite eigen-point: its minor
    1e-8 is above tol = 1e-9 but below the pencil's rejection margin, so the
    screen cannot decide it and the count comes from the search, a lower
    bound.  At the default tol the same minor is decided."""
    basis = [np.diag([1.0, 1e-8, 0.0]), np.diag([0.0, 0.0, 1.0])]
    space = MatrixSubspace(3, 3, basis)
    report = s.find_product_vectors(space, tol=1e-9)
    assert report.exactness == "LowerBound"
    assert "multi-start search" in report.detail
    assert report.independent_count == 1
    report = s.find_product_vectors(space)
    assert (report.independent_count, report.exactness) == (2, "Exact")


def test_reported_vectors_satisfy_minors_and_reconstruct():
    rng = np.random.default_rng(1)
    for trial in range(10):
        t = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        report = s.range_product_count(t, "A")
        for u, v in report.vectors:
            m = np.outer(u, v)
            m_hat = m / np.linalg.norm(m)
            minors = _all_minors(m_hat)
            assert np.max(np.abs(minors)) < 1e-7


def test_diag_333_range_has_three_product_vectors():
    diag = s.catalog_build("3x3x3-diag")
    for seed in range(5):
        report = s.range_product_count(diag, "A", seed=seed)
        assert report.exactness == "Exact"
        assert report.independent_count == 3
    for seed in range(5):
        image = s.apply_slocc(diag, *s.random_slocc((3, 3, 3), seed, cond_bound=20))
        assert s.range_product_count(image, "A").independent_count == 3


@pytest.mark.parametrize("dims", [(3, 3, 3), (3, 3, 4)])
def test_search_vectors_satisfy_minors_and_reconstruct(dims):
    rng = np.random.default_rng(4)
    # random ranges hold no product vector; an image of |000>+|111>+|222>
    # (padded to dims) holds three, so the checks below are reached
    diag = np.zeros(dims, dtype=complex)
    diag[0, 0, 0] = diag[1, 1, 1] = diag[2, 2, 2] = 1.0
    states = [_random_complex(rng, dims) for _ in range(4)]
    states.append(s.apply_slocc(diag, *s.random_slocc(dims, 5, cond_bound=20)))
    found = 0
    for t in states:
        report = s.range_product_count(t, "A")
        assert report.exactness == "Exact"
        found += _check_range_vectors(t, report)
    assert found >= 3


def _check_range_vectors(t, report) -> int:
    """Assert every reported vector is a product vector in the range of the
    state traced at A; returns how many there are."""
    rng_basis = np.stack(s.range_basis(s.reduced_density(t, t.shape, [0])), axis=1)
    for u, v in report.vectors:
        m = np.outer(u, v)
        m_hat = m / np.linalg.norm(m)
        assert np.max(np.abs(_all_minors(m_hat))) <= MINOR_TOL
        # the product vector lies in the range it was found in
        vec = m_hat.ravel()
        assert np.linalg.norm(rng_basis @ (rng_basis.conj().T @ vec) - vec) <= RECONSTRUCT_TOL
    return len(report.vectors)


def _diag_plus_random_slab(rng) -> np.ndarray:
    """|000>+|111>+|222> plus |3> (x) a random 3x3 slab: a k = 4 range that
    holds the three product vectors of the diagonal state."""
    t = np.zeros((4, 3, 3), dtype=complex)
    t[0, 0, 0] = t[1, 1, 1] = t[2, 2, 2] = 1.0
    t[3] = _random_complex(rng, (3, 3))
    return t


def test_search_k4_vectors_satisfy_minors_and_reconstruct():
    """k = 4 still goes to the multi-start search, a lower bound."""
    rng = np.random.default_rng(6)
    for seed in range(3):
        t = _diag_plus_random_slab(rng)
        image = s.apply_slocc(t, *s.random_slocc((4, 3, 3), seed, cond_bound=20))
        report = s.range_product_count(image, "A", seed=seed)
        assert report.exactness == "LowerBound"
        assert "multi-start search" in report.detail
        assert _check_range_vectors(image, report) >= 3
        assert report.independent_count == 3


def test_count_invariant_under_basis_change():
    ghz = s.ghz_state()
    rho = s.reduced_density(ghz, (2, 2, 2), [0])
    basis = [v.reshape(2, 2) for v in s.range_basis(rho)]
    base_report = s.find_product_vectors(MatrixSubspace(2, 2, basis))
    rng = np.random.default_rng(2)
    for _ in range(5):
        mix = s.random_nonsingular(2, rng.integers(1 << 30), cond_bound=30)
        mixed = [
            mix[0, 0] * basis[0] + mix[0, 1] * basis[1],
            mix[1, 0] * basis[0] + mix[1, 1] * basis[1],
        ]
        report = s.find_product_vectors(MatrixSubspace(2, 2, mixed))
        assert report.independent_count == base_report.independent_count
        assert report.exactness == "Exact"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from([(2, 3), (3, 3), (3, 4), (4, 3)]),
       k=st.sampled_from([2, 3]),
       planted=st.integers(0, 3),
       basis_seed=st.integers(0, 2**31 - 1),
       mix_seed=st.integers(0, 2**31 - 1),
       exponent=st.integers(-300, 300))
def test_exact_count_does_not_depend_on_the_basis(shape, k, planted, basis_seed, mix_seed,
                                                  exponent):
    """The decision is made in an orthonormal basis of the span, so mixing
    the user's basis by a cond <= 100 map and scaling it leaves every pair
    of exact counts equal."""
    rng = np.random.default_rng(basis_seed)
    planted = min(planted, k)
    basis = [np.outer(_random_complex(rng, shape[0]), _random_complex(rng, shape[1]))
             for _ in range(planted)]
    basis = np.array(basis + [_random_complex(rng, shape) for _ in range(k - planted)])
    mix = s.random_nonsingular(k, mix_seed, cond_bound=100)
    mixed = 10.0**exponent * np.tensordot(mix, basis, 1)
    r1 = s.find_product_vectors(MatrixSubspace(*shape, list(basis)))
    r2 = s.find_product_vectors(MatrixSubspace(*shape, list(mixed)))
    if r1.exactness == r2.exactness == "Exact":
        assert r1.independent_count == r2.independent_count


def test_range_compare_ghz_w_inequivalent():
    assert s.range_criterion_compare(s.ghz_state(), s.w_state(), "A") == "Inequivalent"


def test_range_compare_never_false_positive_on_self():
    for state in (s.ghz_state(), s.w_state()):
        assert s.range_criterion_compare(state, state, "A") == "Inconclusive"


def test_range_compare_differing_local_ranks():
    prod = s.parse_ket("|000>", (2, 2, 2))
    assert s.range_criterion_compare(prod, s.ghz_state(), "A") == "Inequivalent"


def test_range_compare_slocc_pairs_stay_inconclusive():
    rng = np.random.default_rng(3)
    for trial in range(15):
        t = s.apply_slocc(s.ghz_state(), *s.random_slocc((2, 2, 2), trial, cond_bound=20))
        verdict = s.range_criterion_compare(s.ghz_state(), t, "A")
        assert verdict == "Inconclusive"


# --- the range decision ----------------------------------------------------------


def test_range_dimension_is_local_rank_under_ill_conditioned_maps():
    """|000>+|111>+1e-6|222> and its image under D (x) D (x) D with
    D = diag(1, 1, 100): both have local ranks (3, 3, 3), so both ranges are
    3-dimensional and the counts agree; no Inequivalent from a range cut at
    a different tolerance than the local ranks."""
    t = np.zeros((3, 3, 3), dtype=complex)
    t[0, 0, 0] = t[1, 1, 1] = 1.0
    t[2, 2, 2] = 1e-6
    d = np.diag([1.0, 1.0, 100.0])
    image = s.apply_slocc(t, d, d, d)
    assert s.local_ranks(t) == s.local_ranks(image) == (3, 3, 3)
    assert s.range_criterion_compare(t, image, "A") == "Inconclusive"


@pytest.mark.parametrize("exponent", [-200, -170, 170, 200])
@pytest.mark.parametrize("name", ["3x3x3-diag", "ghz"])
def test_range_count_at_extreme_scales(name, exponent):
    t = s.ghz_state() if name == "ghz" else s.catalog_build(name)
    base = s.range_product_count(t, "A")
    report = s.range_product_count(t * 10.0**exponent, "A")
    assert (report.independent_count, report.exactness) == (
        base.independent_count, base.exactness)


def test_range_count_of_zero_tensor_raises():
    with pytest.raises(ValueError):
        s.range_product_count(np.zeros((2, 2, 2)), "A")


def test_range_criterion_demo_runs():
    demo = Path(__file__).resolve().parents[1] / "demos" / "04_range_criterion.py"
    src = str(Path(s.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, check=False, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for expected in ("verdict: Inequivalent", "GHZ vs transformed GHZ: Inconclusive",
                     "diag vs perm: Inequivalent"):
        assert expected in lines


def test_report_json_fields():
    report = s.range_product_count(s.ghz_state(), "A")
    import json

    doc = json.loads(report.to_json())
    assert doc["independent_count"] == 2
    assert doc["exactness"] == "Exact"
    assert len(doc["vectors"]) == 2


# --- exact k = 3 counts --------------------------------------------------------


def _range_space(t, party=0) -> MatrixSubspace:
    kept = [d for i, d in enumerate(t.shape) if i != party]
    rho = s.reduced_density(t, t.shape, [party])
    return MatrixSubspace(kept[0], kept[1], [v.reshape(kept) for v in s.range_basis(rho)])


def _planted_space(rng, shape, count) -> MatrixSubspace:
    """count random rank-1 matrices and 3 - count random ones: generically
    the span holds exactly ``count`` product vectors."""
    basis = [np.outer(_random_complex(rng, shape[0]), _random_complex(rng, shape[1]))
             for _ in range(count)]
    basis += [_random_complex(rng, shape) for _ in range(3 - count)]
    return MatrixSubspace(shape[0], shape[1], basis)


def _k3_cases():
    """(name, k = 3 subspace, its product-vector count)."""
    rng = np.random.default_rng(11)
    for entry, count in (("3x3x3-diag", 3), ("3x3x3-perm", 0)):
        t = s.catalog_build(entry)
        yield entry, _range_space(t), count
        for seed in range(5):
            image = s.apply_slocc(t, *s.random_slocc((3, 3, 3), seed, cond_bound=20))
            yield f"{entry} image {seed}", _range_space(image), count
    for dims in ((3, 3, 3), (3, 3, 4)):
        for i in range(4):
            yield f"random {dims} {i}", _range_space(_random_complex(rng, dims)), 0
    for shape in ((3, 3), (3, 4), (4, 3)):
        for count in (1, 2):
            for i in range(3):
                yield f"planted {count} in {shape} {i}", _planted_space(rng, shape, count), count


K3_CASES = list(_k3_cases())


@pytest.mark.parametrize("name,space,count", K3_CASES, ids=[c[0] for c in K3_CASES])
def test_exact_k3_counts(name, space, count):
    report = s.find_product_vectors(space, seed=3)
    assert report.exactness == "Exact"
    assert report.independent_count == len(report.vectors) == count
    for u, v in report.vectors:
        m = np.outer(u, v)
        m_hat = m / np.linalg.norm(m)
        assert np.max(np.abs(_all_minors(m_hat))) <= MINOR_TOL
        assert _in_span(space, m_hat) <= RECONSTRUCT_TOL


def test_exact_k3_count_at_least_search_count():
    for seed, (name, space, _) in enumerate(K3_CASES):
        exact = _exact(_orthos(space), MINOR_TOL, seed)[0]
        assert exact is not None, name
        search = _search(_orthos(space)[0], MINOR_TOL, 4, seed)
        assert exact.independent_count >= search.independent_count, name


def test_range_compare_diag_perm_images_inequivalent():
    diag, perm = s.catalog_build("3x3x3-diag"), s.catalog_build("3x3x3-perm")
    for seed in range(3):
        d = s.apply_slocc(diag, *s.random_slocc((3, 3, 3), 2 * seed, cond_bound=20))
        p = s.apply_slocc(perm, *s.random_slocc((3, 3, 3), 2 * seed + 1, cond_bound=20))
        assert s.range_criterion_compare(d, p, "A", starts=4, seed=seed) == "Inequivalent"


def _continuum_spaces():
    e = np.eye(3)
    rng = np.random.default_rng(13)
    # every member is rank 1, so every minor quadric vanishes
    yield "first row", [np.outer(e[0], e[j]) for j in range(3)]
    # a line of rank-1 members: the two quadrics share that line
    yield "line", [np.outer(e[0], e[0]), np.outer(e[0], e[1]), _random_complex(rng, (3, 3))]
    # rank-1 members [[a, c], [c, b]] with ab = c^2: one quadric, a conic
    yield "conic", [np.outer(e[0], e[0]), np.outer(e[1], e[1]),
                    np.outer(e[0], e[1]) + np.outer(e[1], e[0])]


CONTINUUM_SPACES = list(_continuum_spaces())


@pytest.mark.parametrize("name,basis", CONTINUUM_SPACES, ids=[c[0] for c in CONTINUUM_SPACES])
def test_k3_continuum_falls_back_to_search(name, basis):
    """A curve of product vectors makes the two quadrics share a component,
    so the quartic vanishes and only a lower bound remains."""
    space = MatrixSubspace(3, 3, basis)
    for seed in range(3):
        assert _exact(_orthos(space), MINOR_TOL, seed)[0] is None
    report = s.find_product_vectors(space, starts=4)
    assert report.exactness == "LowerBound"
    assert "multi-start search" in report.detail
    assert report.independent_count >= 1


def test_k3_undecided_root_falls_back_to_search():
    """An image of 2x3x4-4 traced at B: one spurious common zero of the two
    quadrics has second singular value ~1e-3, so its minors (~7e-4) are
    neither below tol nor above the rejection margin."""
    entry = s.catalog_get("2x3x4-4")
    image = s.apply_slocc(entry.build(), *s.random_slocc(entry.system, 53, cond_bound=50))
    space = _range_space(image, party=1)
    assert space.dim == 3
    assert _exact(_orthos(space), MINOR_TOL, 3)[0] is None
    report = s.find_product_vectors(space, seed=3)
    assert report.exactness == "LowerBound"
    assert report.independent_count == 1
    # other combinations decide the same subspace exactly
    exact = _exact(_orthos(space), MINOR_TOL, 1)[0]
    assert exact is not None and exact.independent_count == 1


def _range_states():
    """(state, count, exactness) traced at A: k = 3 ranges, then the 2 x M x N
    table rows, whose k <= 2 ranges are referenced by their count at scale 1."""
    states = {
        "3x3x3-diag": (s.catalog_build("3x3x3-diag"), 3, "Exact"),
        "3x3x3-perm": (s.catalog_build("3x3x3-perm"), 0, "Exact"),
        "random 3x3x3": (_random_complex(np.random.default_rng(21), (3, 3, 3)), 0, "Exact"),
        "random 3x3x4": (_random_complex(np.random.default_rng(22), (3, 3, 4)), 0, "Exact"),
    }
    for entry in s.catalog_list(table_only=True):
        if entry.system[0] == 2:
            base = s.range_product_count(entry.build(), "A")
            states[entry.id] = (entry.build(), base.independent_count, base.exactness)
    return states


RANGE_STATES = _range_states()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(RANGE_STATES)),
       map_seed=st.integers(0, 2**31 - 1),
       exponent=st.integers(-300, 300),
       seed=st.integers(0, 2**31 - 1))
def test_k3_count_invariant_under_slocc_and_scale(name, map_seed, exponent, seed):
    t, count, exactness = RANGE_STATES[name]
    image = s.apply_slocc(t, *s.random_slocc(t.shape, map_seed, cond_bound=20))
    report = s.range_product_count(image * 10.0**exponent, "A", seed=seed)
    assert (report.independent_count, report.exactness) == (count, exactness)


# --- the comparison against its public composition --------------------------

# the range-criterion benchmark's random dims
IMAGE_DIMS = ((2, 2, 2), (3, 3, 3), (2, 3, 3), (3, 3, 4), (2, 3, 4))


def _compare_sources():
    rng = np.random.default_rng(41)
    sources = {f"random {d}": _random_complex(rng, d) for d in IMAGE_DIMS}
    for entry in s.catalog_list(table_only=True):
        if entry.system[0] == 2 and min(entry.system) >= 2:
            sources[entry.id] = entry.build()
    for name in ("3x3x3-diag", "3x3x3-perm"):
        sources[name] = s.catalog_build(name)
    return sources


COMPARE_SOURCES = _compare_sources()
# two table rows of one system are inequivalent
CATALOG_PAIRS = [
    (e1.id, e2.id) for e1, e2 in itertools.combinations(s.catalog_list(table_only=True), 2)
    if e1.system == e2.system and e1.system[0] == 2 and min(e1.system) >= 2
]


def _composed_verdict(s1, s2, party, **kwargs):
    """range_criterion_compare written with the public functions only."""
    if s.local_ranks(s1) != s.local_ranks(s2):
        return "Inequivalent"
    r1 = s.range_product_count(s1, party, **kwargs)
    r2 = s.range_product_count(s2, party, **kwargs)
    if "LowerBound" in (r1.exactness, r2.exactness):
        return "Inconclusive"
    return "Inequivalent" if r1.independent_count != r2.independent_count else "Inconclusive"


def _image(t, map_seed, exponent):
    return s.apply_slocc(t, *s.random_slocc(t.shape, map_seed, cond_bound=100)) * 10.0**exponent


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(COMPARE_SOURCES)),
       map_seed=st.integers(0, 2**31 - 1),
       exponent=st.integers(-300, 300),
       party=st.sampled_from("ABC"),
       seed=st.integers(0, 2**31 - 1))
def test_range_compare_of_an_image_is_never_inequivalent(name, map_seed, exponent, party, seed):
    t = COMPARE_SOURCES[name]
    image = _image(t, map_seed, exponent)
    verdict = s.range_criterion_compare(t, image, party, starts=4, seed=seed)
    assert verdict == "Inconclusive"
    assert verdict == _composed_verdict(t, image, party, starts=4, seed=seed)
    p = "ABC".index(party)
    [(ranks, rows)] = _ranks_and_ranges(image[None], p)
    assert ranks == s.local_ranks(t)
    assert len(rows) == s.local_ranks(t)[p]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(CATALOG_PAIRS),
       map_seeds=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
       exponent=st.integers(-300, 300),
       party=st.sampled_from("ABC"))
def test_range_compare_of_catalog_pairs_is_its_public_composition(pair, map_seeds, exponent,
                                                                  party):
    s1, s2 = (_image(s.catalog_build(i), seed, exponent) for i, seed in zip(pair, map_seeds))
    verdict = s.range_criterion_compare(s1, s2, party, starts=4, seed=1)
    assert verdict == _composed_verdict(s1, s2, party, starts=4, seed=1)


# --- closed-form candidates and call counts -----------------------------------


def _quadratic_forms():
    """(name, coefficients of x^2, xy, y^2)."""
    rng = np.random.default_rng(29)
    for i in range(20):
        yield f"random {i}", _random_complex(rng, 3)
    for i, r in enumerate(_random_complex(rng, 3)):
        c2 = _random_complex(rng, ())
        yield f"double root {i}", np.array([c2 * r * r, -2.0 * c2 * r, c2])
    c0, c1 = _random_complex(rng, 2)
    yield "root at 0", np.array([0.0, c1, 1.0 + 2.0j])
    yield "c2 = 0", np.array([c0, c1, 0.0])
    yield "c2 below 1e-12 of the peak", np.array([c0, c1, 1e-14 * abs(c1)])
    yield "c1 = c2 = 0", np.array([c0, 0.0, 0.0])
    yield "c1 = c0 = 0", np.array([0.0, 0.0, c1])
    yield "zero form", np.zeros(3, dtype=complex)


QUADRATIC_FORMS = list(_quadratic_forms())


def _quadratic_points(form) -> list:
    """The zeros (x, y) of the binary quadratic ``form`` (coefficients c0, c1,
    c2 of x^2, xy and y^2) by the stable quadratic formula, kept as a
    closed-form reference: (1, y) at q / c2 and c0 / q with
    q = -(c1 + sqrt(c1^2 - 4 c2 c0)) / 2, the square root's sign chosen so
    that it does not cancel c1; two roots within ``EIGEN_CLUSTER_RADIUS``
    become their centroid -c1 / (2 c2).  A coefficient at most 1e-12 of the
    largest drops the degree, and each dropped degree is a zero at (0, 1)."""
    c0, c1, c2 = form
    peak = max(abs(c0), abs(c1), abs(c2))
    if abs(c2) > 1e-12 * peak:
        root = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
        q = -0.5 * (c1 + root if (c1.conjugate() * root).real >= 0.0 else c1 - root)
        # q = 0 only when c1 = c0 = 0: a double root at 0
        ys = (q / c2, c0 / q) if q else (0.0, 0.0)
        if _chordal((1.0, ys[0]), (1.0, ys[1])) <= EIGEN_CLUSTER_RADIUS:
            ys = (-c1 / (2.0 * c2),)
        return [(1.0, y) for y in ys]
    if abs(c1) > 1e-12 * peak:
        return [(0.0, 1.0), (1.0, -c0 / c1)]
    return [(0.0, 1.0)]


def _merged(points) -> list:
    """Points (x, y) of P^1, with two within ``EIGEN_CLUSTER_RADIUS`` (a
    double root that round-off splits) merged into their mean in the affine
    chart of the first: the split is symmetric to first order, so the mean is
    the root to second order."""
    out = []
    for x, y in points:
        for i, (x0, y0) in enumerate(out):
            if _chordal((x, y), (x0, y0)) <= EIGEN_CLUSTER_RADIUS:
                out[i] = ((1.0, (y0 / x0 + y / x) / 2.0) if abs(x0) >= abs(y0)
                          else ((x0 / y0 + x / y) / 2.0, 1.0))
                break
        else:
            out.append((x, y))
    return out


def _form_matrix(form) -> np.ndarray:
    """Symmetric A with c^T A c = c0 x^2 + c1 xy + c2 y^2 at c = (x, y)."""
    c0, c1, c2 = form
    return np.array([[c0, 0.5 * c1], [0.5 * c1, c2]], dtype=complex)


@pytest.mark.parametrize("name,form", QUADRATIC_FORMS, ids=[c[0] for c in QUADRATIC_FORMS])
def test_quadratic_points_match_candidate_points(name, form):
    """The companion eigensolve in the fixed chart of ``_pencil_zeros`` gives
    the zeros of the stable quadratic formula, to chordal distance 1e-12 once
    a split double root is merged on both sides; the zero form is a
    continuum."""
    [got] = _pencil_zeros(_form_matrix(form)[None])
    if not form.any():
        assert got is pr._PENCIL_SAMPLES
        return
    got, ref = _merged(got.tolist()), _quadratic_points(form.tolist())
    assert len(got) == len(ref)
    for point in got:
        assert min(_chordal(point, r) for r in ref) <= 1e-12, (point, ref)


def test_zero_at_the_chart_infinity_is_undecided():
    """A form vanishing at H (1, 0), the infinity of the fixed chart, has no
    leading chart coefficient: it is left to the search (None), in a stack
    whose other forms are solved."""
    h0 = pr._PENCIL_CHART[:, 0]
    line = np.array([h0[1], -h0[0]])  # line . h0 = 0
    rng = np.random.default_rng(41)
    forms = np.stack([_form_matrix(_random_complex(rng, 3)),
                      _sym(np.outer(line, _random_complex(rng, 2))),
                      _form_matrix(_random_complex(rng, 3))])
    got = _pencil_zeros(forms)
    assert [p is None for p in got] == [False, True, False]
    assert [p.shape for p in got if p is not None] == [(2, 2), (2, 2)]


def _chart_zeros_loop(q, h):
    """The per-pair quartic, ``np.roots`` and back-substitution that
    ``_chart_zeros`` batches, kept as its reference."""
    a = q[:, 0, 0]
    b = 2.0 * q[:, 0, 1:]
    c = np.stack([q[:, 1, 1], 2.0 * q[:, 1, 2], q[:, 2, 2]], axis=1)
    ac = a[0] * c[1] - a[1] * c[0]
    ab = a[0] * b[1] - a[1] * b[0]
    bc = np.convolve(b[0], c[1]) - np.convolve(b[1], c[0])
    quartic = np.convolve(ac, ac) - np.convolve(ab, bc)
    peak = np.max(np.abs(quartic))
    if peak <= RESULTANT_ZERO_TOL * np.prod(np.sum(np.abs(q) ** 2, axis=(1, 2))):
        return None
    if abs(quartic[0]) <= 1e-12 * peak:
        return None
    points = []
    for y in np.roots(quartic):
        by, cy = b @ [y, 1.0], c @ [y * y, y, 1.0]
        den = a[0] * by[1] - a[1] * by[0]
        if abs(den) <= 1e-8 * (abs(a[0] * by[1]) + abs(a[1] * by[0])):
            return None  # the quadratics in x are proportional at y
        points.append((-(a[0] * cy[1] - a[1] * cy[0]) / den, y, 1.0))
    return np.array(points) @ h.T


def _sym(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _proportional_pair(seed):
    """Gaussian-integer Q_a and Q_b = 2 Q_a + (y - w) L in (x, y, w): the
    two zeros of Q_a on y = w share y = 1, where the quadratics in x are
    proportional.  Every product is exact, so both paths see one quartic."""
    rng = np.random.default_rng(seed)
    qa = _sym(rng.integers(-3, 4, (3, 3)) + 1j * rng.integers(-3, 4, (3, 3)))
    line = rng.integers(-3, 4, 3) + 1j * rng.integers(-3, 4, 3)
    return np.array([qa, 2.0 * qa + _sym(np.outer([0.0, 1.0, -1.0], line))])


def _chart_cases():
    rng = np.random.default_rng(31)
    h = np.linalg.qr(_random_complex(rng, (3, 3)))[0]
    qs = _sym(_random_complex(rng, (6, 2, 3, 3)))
    qs[2, 1] = (1.0 - 2.0j) * qs[2, 0]  # Q_a ~ Q_b: the quartic vanishes
    yield "random stack", qs, h, [2]
    yield ("proportional quadratics", np.stack([_proportional_pair(i) for i in range(4)]),
           np.eye(3), [0, 1, 2, 3])


CHART_CASES = list(_chart_cases())


def _refuse_np_roots(monkeypatch):
    def refuse(p):
        raise AssertionError("_chart_zeros called np.roots")

    monkeypatch.setattr(np, "roots", refuse)


@pytest.mark.parametrize("name,qs,h,undecided", CHART_CASES, ids=[c[0] for c in CHART_CASES])
def test_batched_chart_zeros_match_per_pair_loop(monkeypatch, name, qs, h, undecided):
    """One ``eigvals`` of the stacked companion matrices and a vectorised
    back-substitution give the per-pair loop's zeros, in its order, to
    1e-12, with no ``np.roots`` call; a vanishing quartic, or a root with
    proportional quadratics in x, leaves the pair undecided (None)."""
    ref = [_chart_zeros_loop(q, h) for q in qs]
    _refuse_np_roots(monkeypatch)
    got = _chart_zeros(qs, h)
    assert [i for i, p in enumerate(ref) if p is None] == undecided
    assert [p is None for p in got] == [p is None for p in ref]
    for g, r in zip(got, ref):
        if r is not None:
            assert g.shape == r.shape
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12 * max(1.0, np.abs(r).max()))


def _line_pair(l, m):
    """Symmetric matrix of the conic l(c) * m(c), c = (x, y, w)."""
    return 0.5 * (np.outer(l, m) + np.outer(m, l))


def test_chart_zeros_leave_proportional_quadratics_undecided(monkeypatch):
    """Two conics of the pencil through (1,0,1), (2,0,1), (0,1,1) and
    (3,2,1): both quadratics in x vanish at x = 1, 2 on y = 0, so they are
    proportional at the double root y = 0 of the quartic.  The pair is left
    to the search (None) rather than solved for x by a second root finder."""
    qa = _line_pair([1.0, 1.0, -1.0], [2.0, -1.0, -4.0])  # (x+y-1)(2x-y-4)
    qb = _line_pair([0.0, 1.0, 0.0], [1.0, -3.0, 3.0])  # y (x-3y+3)
    for qi in (qa, qb):
        for c in ((1, 0, 1), (2, 0, 1), (0, 1, 1), (3, 2, 1)):
            assert np.array(c) @ qi @ np.array(c) == 0
    _refuse_np_roots(monkeypatch)
    assert _chart_zeros(np.array([[qa, qb]], dtype=complex), np.eye(3)) == [None]


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("dims,eigvals", [((3, 3, 3), 1), ((2, 3, 4), 1), ((2, 2, 2), 1)])
def test_range_compare_candidates_need_one_eigensolve(monkeypatch, dims, eigvals):
    """A pair takes both states' roots from one ``eigvals`` call, the
    quartics of k = 3 and the quadratic minor forms of k = 2 alike; neither
    calls ``np.roots``."""
    t = _random_complex(np.random.default_rng(37), dims)
    image = s.apply_slocc(t, *s.random_slocc(dims, 5, cond_bound=20))
    eig_calls = _counting(monkeypatch, np.linalg, "eigvals")
    root_calls = _counting(monkeypatch, np, "roots")
    assert s.range_criterion_compare(t, image, "A") == "Inconclusive"
    assert (len(eig_calls), len(root_calls)) == (eigvals, 0)


def test_range_rows_reach_reports_unchanged(monkeypatch):
    """The range's orthonormal rows are the basis every decision is made
    in: both range functions hand them to ``_reports`` as they are, with no
    second factorisation."""
    t = _random_complex(np.random.default_rng(39), (3, 3, 4))
    image = s.apply_slocc(t, *s.random_slocc(t.shape, 1, cond_bound=20))
    [(_, rows)] = _ranks_and_ranges(t[None], 0)
    [(_, image_rows)] = _ranks_and_ranges(image[None], 0)
    assert rows.shape == (3, 3, 4)
    flat = rows.reshape(3, -1)
    np.testing.assert_allclose(flat @ flat.conj().T, np.eye(3), rtol=0, atol=1e-14)
    calls = _counting(monkeypatch, pr, "_reports")
    s.range_product_count(t, "A")
    s.range_criterion_compare(t, image, "A")
    [(single, *_), (pair, *_)] = calls
    assert single.shape == (1, 3, 3, 4) and (single[0] == rows).all()
    assert pair.shape == (2, 3, 3, 4) and (pair[0] == rows).all() and (pair[1] == image_rows).all()


SCALE_EXPONENTS = [-200, -170, -13, 0, 150, 200]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("exponent", SCALE_EXPONENTS)
def test_planted_rank_one_count_is_exact_at_every_scale(k, exponent):
    """k rank-1 matrices u_i v_i^T span a subspace with exactly k product
    vectors at any scale of the basis (at 1e-170 and beyond the norm of a
    basis matrix under- or overflows)."""
    rng = np.random.default_rng(43)
    u, v = _random_complex(rng, (3, 3)), _random_complex(rng, (3, 3))
    space = MatrixSubspace(3, 3, [10.0**exponent * np.outer(u[i], v[i]) for i in range(k)])
    with np.errstate(all="raise"):
        report = s.find_product_vectors(space)
    assert (report.independent_count, report.exactness) == (k, "Exact")
    for fu, fv in report.vectors:
        assert _in_span(space, np.outer(fu, fv)) <= RECONSTRUCT_TOL


@pytest.mark.parametrize("exponent", SCALE_EXPONENTS)
def test_search_count_does_not_depend_on_scale(exponent):
    """The k = 4 search runs in the orthonormal basis: three planted rank-1
    matrices and a random one give the same lower bound at every scale (the
    user basis's minor form under- or overflows beyond 1e-13 and 1e150)."""
    rng = np.random.default_rng(47)
    basis = [np.outer(_random_complex(rng, 3), _random_complex(rng, 3)) for _ in range(3)]
    basis.append(_random_complex(rng, (3, 3)))
    space = MatrixSubspace(3, 3, [10.0**exponent * b for b in basis])
    with np.errstate(all="raise"):
        report = s.find_product_vectors(space, seed=1)
    assert (report.independent_count, report.exactness) == (3, "LowerBound")
