"""Tests for dense tensor primitives."""

import json
import tracemalloc

import numpy as np
import pytest

import slocc3 as s
from slocc3.tensor import column_space, least_squares, matrix_rank_tol, unfolding_svds


def random_tensor(rng, dims):
    return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)


RANK_TOL_CALLS = {
    "local_ranks": lambda tol: s.local_ranks(s.ghz_state(), tol),
    "is_product_state": lambda tol: s.is_product_state(s.parse_ket("|000>", (2, 2, 2)), tol),
    "range_basis": lambda tol: s.range_basis(s.reduced_density(s.ghz_state(), (2, 2, 2), [0]),
                                             tol),
    "classify_222": lambda tol: s.classify_222(s.ghz_state(), tol),
    "rank_lower_bound": lambda tol: s.rank_lower_bound(s.catalog_build("2x3x3-4"), tol),
    "pencil_invariants": lambda tol: s.pencil_invariants(s.catalog_build("2x3x3-4"), tol),
}


@pytest.mark.parametrize("name", sorted(RANK_TOL_CALLS))
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_rank_tol_must_be_positive_and_finite(name, tol):
    """A NaN tol fails every comparison, so it would count no singular value
    and give a wrong certified answer; it is rejected like the others."""
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        RANK_TOL_CALLS[name](tol)


def test_slice_of_worked_tensor():
    """Mode-3 slice 0 of the diagonal 3x3x3 tensor is diag(1, 0, 0)."""
    t = s.parse_ket("|000>+|111>+|222>", (3, 3, 3))
    np.testing.assert_array_equal(s.tensor_slice(t, 3, 0), np.diag([1, 0, 0]))
    np.testing.assert_array_equal(s.tensor_slice(t, 3, 1), np.diag([0, 1, 0]))
    np.testing.assert_array_equal(s.tensor_slice(t, 3, 2), np.diag([0, 0, 1]))


def test_slice_zero_tensor():
    t = s.zero_tensor((2, 2, 3))
    for mode, index in ((1, 0), (2, 1), (3, 2)):
        assert not np.any(s.tensor_slice(t, mode, index))


def test_slice_matches_flat_layout():
    """slice(., 1, i)[j][k] equals entry (i, j, k) for a random tensor."""
    rng = np.random.default_rng(0)
    t = random_tensor(rng, (3, 4, 5))
    for i in range(3):
        m = s.tensor_slice(t, 1, i)
        for j in range(4):
            for k in range(5):
                assert m[j, k] == t[i, j, k]


def test_slice_index_out_of_range():
    t = s.zero_tensor((2, 2, 3))
    with pytest.raises(ValueError):
        s.tensor_slice(t, 3, 3)
    with pytest.raises(ValueError):
        s.tensor_slice(t, 1, -1)


def test_unfold_ghz():
    ghz = s.parse_ket("|000>+|111>", (2, 2, 2))
    m = s.unfold(ghz, 1)
    np.testing.assert_array_equal(m, [[1, 0, 0, 0], [0, 0, 0, 1]])


def test_unfold_rank_one():
    rng = np.random.default_rng(1)
    u, v, w = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (2, 3, 4))
    t = np.einsum("i,j,k->ijk", u, v, w)
    for mode in (1, 2, 3):
        assert np.linalg.matrix_rank(s.unfold(t, mode)) == 1


def test_unfold_refold_roundtrip():
    rng = np.random.default_rng(2)
    t = random_tensor(rng, (2, 3, 4))
    for mode in (1, 2, 3):
        back = s.refold(s.unfold(t, mode), mode, t.shape)
        np.testing.assert_array_equal(back, t)


def test_local_ranks_examples():
    ghz = s.parse_ket("|000>+|111>", (2, 2, 2))
    assert s.local_ranks(ghz) == (2, 2, 2)
    prod = s.parse_ket("|0,1,2>", (3, 3, 3))
    assert s.local_ranks(prod) == (1, 1, 1)
    assert s.local_ranks(s.w_state()) == (2, 2, 2)
    assert s.local_ranks(s.zero_tensor((2, 2, 2))) == (0, 0, 0)


def test_is_product_state():
    assert s.is_product_state(s.parse_ket("|0>(|0>+|1>)|1>", (2, 2, 2)))
    assert not s.is_product_state(s.ghz_state())
    assert not s.is_product_state(s.w_state())
    with pytest.raises(ValueError):
        s.is_product_state(s.zero_tensor((2, 2, 2)))


def test_kron_regroup_dims_and_entries():
    w2 = s.kron_regroup(s.w_state(), s.w_state())
    assert w2.shape == (4, 4, 4)
    # product of products stays a product
    p = s.parse_ket("|000>", (2, 2, 2))
    q = s.parse_ket("|111>", (2, 2, 2))
    assert s.local_ranks(s.kron_regroup(p, q)) == (1, 1, 1)


def test_kron_regroup_refuses_an_oversized_product_before_allocating():
    a = np.ones((100, 100, 1), dtype=complex)
    b = np.ones((101, 1, 1), dtype=complex)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="1010000 entries"):
            s.kron_regroup(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the product would take 1,010,000 * 16 bytes, about 16 MB
    assert peak < 1_000_000


def test_kron_regroup_rank_multiplicativity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = random_tensor(rng, (2, 2, 3))
        b = random_tensor(rng, (2, 3, 2))
        ra = s.local_ranks(a)
        rb = s.local_ranks(b)
        rab = s.local_ranks(s.kron_regroup(a, b))
        assert rab == tuple(x * y for x, y in zip(ra, rb))


def test_kron_regroup_associative():
    # bit-exact on exactly representable entries; float rounding otherwise
    rng = np.random.default_rng(4)
    a, b, c = (
        (rng.integers(-3, 4, (2, 2, 2)) + 1j * rng.integers(-3, 4, (2, 2, 2))).astype(
            complex
        )
        for _ in range(3)
    )
    np.testing.assert_array_equal(
        s.kron_regroup(s.kron_regroup(a, b), c),
        s.kron_regroup(a, s.kron_regroup(b, c)),
    )
    x, y, z = (random_tensor(rng, (2, 2, 2)) for _ in range(3))
    np.testing.assert_allclose(
        s.kron_regroup(s.kron_regroup(x, y), z),
        s.kron_regroup(x, s.kron_regroup(y, z)),
        rtol=1e-13,
    )


def test_kron_regroup_size_limit():
    big = s.zero_tensor((100, 100, 100))
    with pytest.raises(MemoryError):
        s.kron_regroup(big, big)


def test_local_ranks_invariant_under_nonsingular_maps():
    """Multiplying any one slice family by a nonsingular matrix keeps ranks."""
    rng = np.random.default_rng(5)
    eyes = [np.eye(2), np.eye(3), np.eye(4)]
    for trial in range(100):
        t = random_tensor(rng, (2, 3, 4))
        mode = trial % 3
        maps = list(eyes)
        maps[mode] = s.random_nonsingular((2, 3, 4)[mode], trial, cond_bound=100)
        assert s.local_ranks(s.apply_slocc(t, *maps), 1e-8) == s.local_ranks(t, 1e-8)


def test_tensor_json_roundtrip():
    rng = np.random.default_rng(6)
    t = random_tensor(rng, (2, 3, 4))
    back = s.tensor_from_json(s.tensor_to_json(t))
    np.testing.assert_array_equal(back, t)


PAIRS = [[0.0, 0.0]] * 8
BAD_TENSOR_DOCS = [
    {"dims": [2, 2], "entries": []},
    {"dims": [2, 2, 2], "entries": [[0.0, 0.0]]},
    {"dims": [2, 2, 2], "entries": [5] + PAIRS[1:]},
    {"dims": [2, 2, 2], "entries": [["a", 0]] + PAIRS[1:]},
    {"dims": [2, 2, 2], "entries": [[None, 0]] + PAIRS[1:]},
    {"dims": [2, 2, 2], "entries": 5},
    {"dims": [2, 2, 2], "entries": {"0": [0.0, 0.0]}},
    {"dims": [2, 2, 2.7], "entries": PAIRS},
    {"dims": [2, 2, 1.5], "entries": PAIRS[:4]},
    {"dims": [2, 2, True], "entries": PAIRS[:4]},
]


def test_tensor_json_rejects_bad_input():
    """A document that is not three positive integer dims and as many
    [re, im] pairs of numbers raises ValueError: no TypeError escapes, and
    no fractional dim is truncated."""
    for doc in BAD_TENSOR_DOCS:
        with pytest.raises(ValueError):
            s.tensor_from_json(json.dumps(doc))


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    np.testing.assert_array_equal(s.matrix_from_json(s.matrix_to_json(m)), m)


def test_as_tensor_rejects_nonfinite():
    bad = np.zeros((2, 2, 2), dtype=complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        s.as_tensor(bad)


def _json_encoders():
    from slocc3.detpoly import EquivVerdict, HomPoly3
    from slocc3.pencil import PencilInvariants
    from slocc3.product_range import ProductVectorReport
    from slocc3.rank import CpResult

    t = np.array([0.5 - 1j, 0.1, -2.0, 3e-17j, 1, 0, 0.25j, -1.5]).reshape(2, 2, 2)
    m = np.array([[1 - 1j, 0.1], [-0.0, 2.5j]])
    u, v = np.array([1, 0.1j]), np.array([-1.0, 0.3 - 0.2j])
    factors = (np.array([[1j], [0.5]]), np.array([[1.0]]), np.array([[-2 + 0.1j]]))
    return {
        "tensor": s.tensor_to_json(t),
        "matrix": s.matrix_to_json(m),
        "density": s.density_to_json(m, (2,)),
        "cp": CpResult(True, 1, 0.0, factors, "d").to_json(),
        "verdict": EquivVerdict("CandidateFound", 1e-20, np.diag([1 - 0.5j, 2, 1j]), "x").to_json(),
        "poly": HomPoly3(2, {(2, 0, 0): 1.0, (0, 1, 1): 0.1 - 2j}).to_json(),
        "pencil": PencilInvariants((2, 2), 2, (), (), ((-0.5 + 0.1j, (1, 1)),), (1,)).to_json(),
        "report": ProductVectorReport([(u, v)], 1, "Exact").to_json(),
    }


JSON_LITERALS = {
    "tensor": '{"dims": [2, 2, 2], "entries": [[0.5, -1.0], [0.1, 0.0], [-2.0, 0.0], '
              '[0.0, 3e-17], [1.0, 0.0], [0.0, 0.0], [0.0, 0.25], [-1.5, 0.0]]}',
    "matrix": '{"rows": 2, "cols": 2, "entries": [[1.0, -1.0], [0.1, 0.0], [-0.0, 0.0], '
              '[0.0, 2.5]]}',
    "density": '{"party_dims": [2], "rows": 2, "cols": 2, "entries": [[1.0, -1.0], '
               '[0.1, 0.0], [-0.0, 0.0], [0.0, 2.5]]}',
    "cp": '{"detail": "d", "factor_shapes": [[2, 1], [1, 1], [1, 1]], "factors": '
          '[[[0.0, 1.0], [0.5, 0.0]], [[1.0, 0.0]], [[-2.0, 0.1]]], "rank": 1, '
          '"residual": 0.0, "success": true}',
    "verdict": '{"detail": "x", "g": [[1.0, -0.5], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
               '[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]], '
               '"kind": "CandidateFound", "residual": 1e-20}',
    "poly": '{"degree": 2, "terms": [{"exp": [2, 0, 0], "coef": [1.0, 0.0]}, '
            '{"exp": [0, 1, 1], "coef": [0.1, -2.0]}]}',
    "pencil": '{"borderline": false, "col_min_indices": [], "condition_note": "", '
              '"finite_divisors": [{"eigenvalue": [-0.5, 0.1], "partition": [1, 1]}], '
              '"infinite_partition": [1], "normal_rank": 2, "row_min_indices": [], '
              '"shape": [2, 2]}',
    "report": '{"continuum": false, "detail": "", "exactness": "Exact", '
              '"independent_count": 1, "vectors": [{"u": [[1.0, 0.0], [0.0, 0.1]], '
              '"v": [[-1.0, 0.0], [0.3, -0.2]]}]}',
}


@pytest.mark.parametrize("name", sorted(JSON_LITERALS))
def test_complex_json_wire_format(name):
    """Every document writes complex numbers as [re, im] in one format."""
    assert _json_encoders()[name] == JSON_LITERALS[name]


def test_complex_json_decoders_invert_the_encoders():
    from slocc3.detpoly import HomPoly3

    docs = _json_encoders()
    t = s.tensor_from_json(docs["tensor"])
    assert s.tensor_to_json(t) == docs["tensor"]
    assert s.matrix_to_json(s.matrix_from_json(docs["matrix"])) == docs["matrix"]
    poly = HomPoly3.from_json(docs["poly"])
    assert poly.coeffs == {(2, 0, 0): 1.0, (0, 1, 1): 0.1 - 2j}
    decoders = {"tensor": s.tensor_from_json, "matrix": s.matrix_from_json,
                "poly": HomPoly3.from_json}
    for name, decode in decoders.items():
        for bad in ([float("nan"), 0.0], 5, ["a", 0], [None, 0]):  # in place of one coefficient
            doc = json.loads(docs[name])
            if name == "poly":
                doc["terms"][0]["coef"] = bad
            else:
                doc["entries"][0] = bad
            with pytest.raises(ValueError):
                decode(json.dumps(doc))
    # a fractional size or degree is refused, never truncated
    for name, key in (("tensor", "dims"), ("matrix", "rows"), ("matrix", "cols"),
                      ("poly", "degree")):
        doc = json.loads(docs[name])
        if key == "dims":
            doc[key][0] = 2.5
        else:
            doc[key] = doc[key] + 0.5
        with pytest.raises(ValueError):
            decoders[name](json.dumps(doc))


def _rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def _rosenbrock_jac(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


@pytest.mark.parametrize("jac", [_rosenbrock_jac, None])
def test_least_squares_reaches_a_zero_residual(jac):
    sol = least_squares(_rosenbrock, np.array([-1.2, 1.0]), jac=jac)
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-7)
    assert sol.nfev < 200


def test_least_squares_stops_at_cost_zero():
    """A start at an exact zero takes one evaluation, not more steps."""
    sol = least_squares(_rosenbrock, np.array([1.0, 1.0]), jac=_rosenbrock_jac)
    assert sol.nfev == 1
    np.testing.assert_array_equal(sol.x, [1.0, 1.0])


@pytest.mark.parametrize("jac", [lambda x: np.array([[1.0], [0.0]]), None])
def test_least_squares_stops_at_a_nonzero_minimum(jac):
    """r(x) = [x0, 1] has minimum cost 1 at x0 = 0: the search stops once the
    cost stops falling, far below its evaluation budget."""
    sol = least_squares(lambda x: np.array([x[0], 1.0]), np.array([3.0]), jac=jac,
                        max_nfev=4000)
    assert abs(sol.x[0]) < 1e-7
    assert sol.nfev < 100


def test_least_squares_counts_difference_quotients():
    """Without ``jac`` each Jacobian costs x.size evaluations, all in nfev."""
    calls = []

    def fun(x):
        calls.append(x.copy())
        return _rosenbrock(x)

    x0 = np.array([-1.2, 1.0])
    for budget in (1 + x0.size, 2 + x0.size):
        calls.clear()
        sol = least_squares(fun, x0, max_nfev=budget)
        assert sol.nfev == len(calls) == budget
    np.testing.assert_array_equal(calls[0], x0)
    sol = least_squares(fun, x0, jac=_rosenbrock_jac, max_nfev=3)
    assert sol.nfev == 3


@pytest.mark.parametrize("jac", [_rosenbrock_jac, None])
def test_least_squares_is_deterministic(jac):
    """Equal seeds give equal starts, and equal starts bit-identical ends."""
    ends = [least_squares(_rosenbrock, np.random.default_rng(8).standard_normal(2), jac=jac)
            for _ in range(2)]
    np.testing.assert_array_equal(ends[0].x, ends[1].x)
    assert ends[0].nfev == ends[1].nfev


# --- one routine for every unfolding SVD ----------------------------------------


def _planted(rng, dims, ranks):
    """A random tensor whose unfoldings have (generically) the given ranks:
    a random core of dims ``ranks`` mapped by random n_q x r_q matrices."""
    core = random_tensor(rng, ranks)
    maps = [random_tensor(rng, (d, r)) for d, r in zip(dims, ranks)]
    return np.einsum("ip,jq,kr,pqr->ijk", *maps, core)


def _projector(basis):
    """Orthogonal projector onto the span of the columns of ``basis``."""
    return basis @ basis.conj().T


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 3, 5)])
def test_unfolding_svds_match_the_per_unfolding_loop(dims):
    """The reference is one ``matrix_rank_tol``/``column_space`` call per
    unfolding; the routine gives the same ranks, the same column spaces
    from its left vectors, and, from its right vectors, the same range of
    the reduced density with that party traced out (the column space of the
    kept x traced unfolding), on random stacks at several scales and on
    stacks with planted rank deficiencies."""
    rng = np.random.default_rng(sum(dims))
    planted = [tuple(max(1, d - k) for d in dims) for k in (0, 1, 2)]
    stacks = [np.stack([random_tensor(rng, dims) * 10.0**k for k in (-200, 0, 200)]),
              np.stack([_planted(rng, dims, r) for r in planted]),
              np.stack([s.zero_tensor(dims), s.basis_tensor(dims, (0, 0, 0))])]
    for stack in stacks:
        e, ranks, svds = unfolding_svds(stack, vectors=(0, 1, 2))
        assert e.shape == (len(stack),)
        for t, te, tr, i in zip(stack, e, ranks, range(len(stack))):
            assert tuple(tr) == tuple(matrix_rank_tol(s.unfold(t, m)) for m in (1, 2, 3))
            for q, (u, _, vh) in enumerate(svds):
                r = tr[q]
                want = column_space(s.unfold(t, q + 1))
                assert want.shape[1] == r
                np.testing.assert_allclose(_projector(u[i, :, :r]), _projector(want), atol=1e-12)
                kept_by_traced = np.moveaxis(t, q, -1).reshape(-1, dims[q])
                np.testing.assert_allclose(_projector(vh[i, :r].T),
                                           _projector(column_space(kept_by_traced)), atol=1e-12)
            if np.any(t):
                assert 0.5 <= np.max(np.abs(np.ldexp(t.view(float), -int(te)))) < 1.0
        assert [tuple(r) for r in ranks] == [s.local_ranks(t) for t in stack]
    assert [tuple(r) for r in unfolding_svds(stacks[1])[1]] == [
        tuple(min(r, int(np.prod(rs)) // r) for r in rs) for rs in planted]


def test_unfolding_svds_take_vectors_only_where_asked(monkeypatch):
    """One batched SVD call per mode, with vectors only for the asked modes."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    stack = random_tensor(np.random.default_rng(3), (5, 2, 3, 4))
    _, _, svds = unfolding_svds(stack, vectors=(1,))
    assert calls == [((5, 2, 12), False), ((5, 3, 8), True), ((5, 4, 6), False)]
    assert svds[0] is None and svds[2] is None
    assert svds[1].U.shape == (5, 3, 3) and svds[1].Vh.shape == (5, 3, 8)
