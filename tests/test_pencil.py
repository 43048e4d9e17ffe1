"""Tests for Kronecker pencil invariants, against hand-computed structures."""

import functools
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slocc3 as s
import slocc3.pencil as pencil
from slocc3.detpoly import det_coefficients


def _binary_form_det(s0, s1, rows, cols) -> np.ndarray:
    """Reference: determinant of the pencil submatrix as a binary form in
    (x, y) by the r!-term permutation expansion.

    Returns coefficients c[j] of x^(r-j) y^j, j = 0..r.
    """
    r = len(rows)
    acc = np.zeros(r + 1, dtype=complex)
    for perm in permutations(range(r)):
        sign = 1.0
        seen = list(perm)
        # permutation parity
        visited = [False] * r
        for start in range(r):
            if visited[start]:
                continue
            length = 0
            j = start
            while not visited[j]:
                visited[j] = True
                j = seen[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = np.array([1.0 + 0.0j])
        for i, j in enumerate(perm):
            lin = np.array([s0[rows[i], cols[j]], s1[rows[i], cols[j]]])
            term = np.convolve(term, lin)
        acc[: term.size] += sign * term
    return acc


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 3), (4, 4), (4, 5), (5, 4)])
def test_minor_forms_match_permutation_expansion(shape):
    """``det_coefficients`` on each r x r minor's pencil, r = 1..4, equals the
    r!-term expansion."""
    rng = np.random.default_rng(sum(shape))
    m, n = shape
    s0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for r in range(1, min(m, n, 4) + 1):
        pairs = [(rows, cols) for rows in combinations(range(m), r)
                 for cols in combinations(range(n), r)]
        ref = np.array([_binary_form_det(s0, s1, rows, cols) for rows, cols in pairs])
        forms = np.array([det_coefficients(s1[np.ix_(rows, cols)], s0[np.ix_(rows, cols)])
                          for rows, cols in pairs])
        assert forms.shape == ref.shape
        np.testing.assert_allclose(forms, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def test_ghz_pencil_two_simple_eigenvalues():
    """x*diag(1,0) + y*diag(0,1): simple rank drops at (1:0) and (0:1)."""
    inv = s.pencil_invariants(s.ghz_state())
    assert inv.normal_rank == 2
    assert inv.col_min_indices == ()
    assert inv.row_min_indices == ()
    assert inv.all_partitions() == ((1,), (1,))
    assert inv.infinite_partition == (1,)
    assert len(inv.finite_divisors) == 1
    ev, part = inv.finite_divisors[0]
    assert abs(ev) < 1e-10 and part == (1,)


def test_w_pencil_single_double_block():
    """W's pencil determinant is -x^2: one size-2 block at infinity."""
    inv = s.pencil_invariants(s.w_state())
    assert inv.normal_rank == 2
    assert inv.col_min_indices == ()
    assert inv.row_min_indices == ()
    assert inv.all_partitions() == ((2,),)


def test_2x1x2_pencil_single_minimal_index():
    """[x, y] has one right minimal index 1 and nothing else."""
    t = s.catalog_build("2x1x2-1")
    inv = s.pencil_invariants(t)
    assert inv.normal_rank == 1
    assert inv.col_min_indices == (1,)
    assert inv.row_min_indices == ()
    assert inv.all_partitions() == ()


def test_2x2x1_pencil_single_left_index():
    t = s.catalog_build("2x2x1-1")
    inv = s.pencil_invariants(t)
    assert inv.normal_rank == 1
    assert inv.col_min_indices == ()
    assert inv.row_min_indices == (1,)
    assert inv.all_partitions() == ()


def test_singular_3x3_pencil_minimal_indices_both_sides():
    """|010>+|001>+|112>+|121>: L1 + transposed L1, no divisors."""
    t = s.catalog_build("2x3x3-3")
    inv = s.pencil_invariants(t)
    assert inv.normal_rank == 2
    assert inv.col_min_indices == (1,)
    assert inv.row_min_indices == (1,)
    assert inv.all_partitions() == ()


def test_2x3x3_regular_pencil_with_cubed_eigenvalue():
    """|100>+|010>+|001>+|112>+|121>: determinant -y^3, one size-3 block."""
    t = s.catalog_build("2x3x3-4")
    inv = s.pencil_invariants(t)
    assert inv.normal_rank == 3
    assert inv.col_min_indices == ()
    assert inv.row_min_indices == ()
    assert inv.all_partitions() == ((3,),)


def test_2x3x3_pencil_with_partition_2_1():
    """|100>+|010>+|001>+|022>: determinant -x^3 with rank drop 2 at x=0."""
    t = s.catalog_build("2x3x3-5")
    inv = s.pencil_invariants(t)
    assert inv.all_partitions() == ((2, 1),)


def test_2x3x5_pencils_distinguished_by_minimal_indices():
    inv1 = s.pencil_invariants(s.catalog_build("2x3x5-1"))
    inv2 = s.pencil_invariants(s.catalog_build("2x3x5-2"))
    assert inv1.col_min_indices == (1, 1)
    assert inv1.all_partitions() == ((1,),)
    assert inv2.col_min_indices == (1, 2)
    assert inv2.all_partitions() == ()
    assert inv1.signature() != inv2.signature()


def test_pencil_requires_mode1_dim_two():
    with pytest.raises(ValueError):
        s.pencil_invariants(np.zeros((3, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        s.pencil_invariants(np.zeros((2, 2, 2), dtype=complex))


def test_biseparable_pencil_partition():
    """|000>+|011>: pencil x*I2, a single rank-2 drop point with blocks (1,1)."""
    inv = s.pencil_invariants(s.parse_ket("|000>+|011>", (2, 2, 2)))
    assert inv.normal_rank == 2
    assert inv.col_min_indices == () and inv.row_min_indices == ()
    assert inv.all_partitions() == ((1, 1),)


def test_signature_invariant_under_random_slocc():
    """Partition data and minimal indices survive random nonsingular maps."""
    cases = ["2x2x2-1", "2x2x2-2", "2x3x3-4", "2x3x3-5", "2x3x2-1", "2x2x3-2"]
    trial = 0
    for entry_id in cases:
        t = s.catalog_build(entry_id)
        base_sig = s.pencil_invariants(t).signature()
        for _ in range(9):
            trial += 1
            maps = s.random_slocc(t.shape, trial, cond_bound=20)
            image = s.apply_slocc(t, *maps)
            sig = s.pencil_invariants(image).signature()
            assert sig == base_sig, (entry_id, trial)


def test_moebius_moves_eigenvalues_but_not_partitions():
    """A first-party map relocates eigenvalues; partitions stay put."""
    ghz = s.ghz_state()
    a = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    image = s.apply_slocc(ghz, a, np.eye(2), np.eye(2))
    inv = s.pencil_invariants(image)
    assert inv.all_partitions() == ((1,), (1,))
    # the transformed pencil has two finite eigenvalues, no infinite block
    assert inv.infinite_partition == () and len(inv.finite_divisors) == 2


def test_triple_eigenvalue_survives_float_perturbation():
    """Partition (3) is recovered through root clustering after a random map."""
    t = s.catalog_build("2x3x3-4")
    maps = s.random_slocc((2, 3, 3), 777, cond_bound=10)
    inv = s.pencil_invariants(s.apply_slocc(t, *maps))
    assert inv.all_partitions() == ((3,),)
    assert not inv.borderline


def test_split_reference_point_image_keeps_triple_block():
    """0.05 from this image's triple eigenvalue the 3-jet's smallest singular
    value is 8e-10, below the rank tolerance, so reference nullities taken at
    a point there read partition (2,); the pencil is one block of size 3."""
    maps = s.random_slocc((2, 3, 3), 10050, cond_bound=20)
    inv = s.pencil_invariants(s.apply_slocc(s.catalog_build("2x3x3-4"), *maps))
    assert inv.all_partitions() == ((3,),)
    assert not inv.borderline, inv.condition_note


def test_one_completion_eigensolve_per_call(monkeypatch):
    """Eigen-points come from one ``eigvals`` call on the square completion,
    of size M + N - r, and from no eigenvector solve."""
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return eigvals(a)

    def refuse(*args, **kwargs):
        raise AssertionError("eigenvectors computed")

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    t = s.catalog_build("2x3x5-1")  # L1 + L1 + one 1x1 regular block: normal rank 3
    inv = s.pencil_invariants(s.apply_slocc(t, *s.random_slocc(t.shape, 3, cond_bound=20)))
    assert inv.all_partitions() == ((1,),)
    assert calls == [(5, 5)]


TABLE_ROWS = [e.id for e in s.catalog_list(table_only=True)
              if e.system[0] == 2 and min(e.system) >= 2]


@pytest.mark.parametrize("entry_id", TABLE_ROWS)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(map_seed=st.integers(0, 2**31 - 1),
       cond=st.sampled_from([20.0, 100.0]),
       exponent=st.integers(-150, 150))
def test_signature_invariant_under_slocc_and_scale(entry_id, map_seed, cond, exponent):
    t = s.catalog_build(entry_id)
    image = s.apply_slocc(t, *s.random_slocc(t.shape, map_seed, cond_bound=cond))
    inv = s.pencil_invariants(image * 10.0**exponent)
    assert not inv.borderline, inv.condition_note
    assert inv.signature() == s.pencil_invariants(t).signature()


@pytest.mark.parametrize("entry_id", TABLE_ROWS)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(map_seed=st.integers(0, 2**31 - 1), exponent=st.integers(-300, 300))
def test_signature_at_any_scale(entry_id, map_seed, exponent):
    """The pencil is first scaled by a power of two, so its norm neither
    overflows (from about 1e155) nor underflows (below about 1e-162)."""
    t = s.catalog_build(entry_id)
    image = s.apply_slocc(t, *s.random_slocc(t.shape, map_seed, cond_bound=100))
    inv = s.pencil_invariants(image * 10.0**exponent)
    assert not inv.borderline, inv.condition_note
    assert inv.signature() == s.pencil_invariants(t).signature()


# --- stacked rank decisions, against one SVD call per matrix ---------------------


def _reference_rank(mat, tol) -> int:
    return int(np.count_nonzero(np.linalg.svd(mat, compute_uv=False) > tol))


def _reference_unit(point):
    x, y = point
    scale = np.hypot(abs(x), abs(y))
    return x / scale, y / scale


def _reference_pencil_at(s0, s1, point):
    x, y = _reference_unit(point)
    return x * s0 + y * s1


def _reference_normal_rank(s0, s1, tol) -> int:
    rng = np.random.default_rng(20230517)
    best = 0
    for _ in range(6):
        v = rng.standard_normal(4)
        point = (complex(v[0], v[1]), complex(v[2], v[3]))
        best = max(best, _reference_rank(_reference_pencil_at(s0, s1, point), tol))
    return best


def _reference_jet_nullities(s0, s1, point, kmax, tol) -> list:
    x, y = _reference_unit(point)
    p, p_perp = x * s0 + y * s1, -np.conj(y) * s0 + np.conj(x) * s1
    (m, n), out = p.shape, []
    for k in range(1, kmax + 1):
        jet = np.zeros((k * m, k * n), dtype=complex)
        for i in range(k):
            jet[i * m : (i + 1) * m, i * n : (i + 1) * n] = p
            if i > 0:
                jet[i * m : (i + 1) * m, (i - 1) * n : i * n] = p_perp
        out.append(k * n - _reference_rank(jet, tol))
    return out


@pytest.mark.parametrize("entry_id", TABLE_ROWS)
def test_stacked_rank_decisions_match_one_svd_per_matrix(entry_id):
    """Normal rank, drop set and jet nullities equal those of one SVD call per
    pencil and per jet matrix, as the decisions were made before stacking."""
    tol = pencil.PENCIL_RANK_TOL
    t = s.catalog_build(entry_id)
    for seed in range(8):
        image = s.apply_slocc(t, *s.random_slocc(t.shape, seed, cond_bound=100))
        s0, s1 = image / max(np.linalg.norm(image[0]), np.linalg.norm(image[1]))
        r = pencil._normal_rank(s0, s1, tol)
        assert r == _reference_normal_rank(s0, s1, tol), seed
        points = pencil._clustered(pencil._completion_roots(s0, s1, r),
                                   pencil.EIGEN_CLUSTER_RADIUS)
        drops, nullities = pencil._drops_and_jets(s0, s1, points, r, r, tol)
        assert drops == [pt for pt in points
                         if _reference_rank(_reference_pencil_at(s0, s1, pt), tol) < r], seed
        assert nullities.tolist() == [_reference_jet_nullities(s0, s1, pt, r, tol)
                                      for pt in drops], seed


# --- the compressed determinant, the former source of eigen-points -------------


@functools.cache
def _isometries(m: int, n: int, r: int):
    """Fixed isometries W (r x m) and V (n x r), drawn once per shape."""
    rng = np.random.default_rng(1979)
    w, v = (np.linalg.qr(rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r)))[0]
            for d in (m, n))
    return w.conj().T, v


def _form_roots(coeffs) -> list:
    """Roots y/x of one binary form, entry j the coefficient of x^(d-j) y^j,
    in the order of ``np.roots``: leading coefficients at most 1e-12 of the
    largest drop the degree, exactly zero trailing ones are roots at 0."""
    coeffs = np.asarray(coeffs, dtype=complex)[::-1].tolist()  # descending in y after x = 1
    floor = 1e-12 * max(map(abs, coeffs))
    lead = next((j for j, c in enumerate(coeffs) if abs(c) > floor), len(coeffs))
    poly = coeffs[lead:]
    while poly and not poly[-1]:
        poly.pop()
    lams = np.roots(poly).tolist() if len(poly) > 1 else []
    return lams + [0j] * (len(coeffs) - lead - len(poly))


def _compressed_determinant_roots(s0, s1, r) -> list:
    """Roots y/x of the binary form det(W (x*S0 + y*S1) V), which vanishes
    wherever the pencil has rank below r, and possibly elsewhere: the
    candidate eigen-points before the square completion, kept as its
    reference."""
    w, v = _isometries(*s0.shape, r)
    return _form_roots(det_coefficients(w @ s1 @ v, w @ s0 @ v))


def _compressed_determinant_invariants(t) -> pencil.PencilInvariants:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pencil, "_completion_roots", _compressed_determinant_roots)
        return s.pencil_invariants(t)


TWO_SLICE_ROWS = [e.id for e in s.catalog_list(table_only=True) if e.system[0] == 2]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(entry_id=st.sampled_from(TWO_SLICE_ROWS),
       map_seed=st.integers(0, 2**31 - 1),
       cond=st.sampled_from([20.0, 100.0]),
       exponent=st.integers(-300, 300))
def test_completion_gives_the_compressed_determinants_invariants(
        entry_id, map_seed, cond, exponent):
    """The square completion's eigen-points give the signature, the
    ``borderline`` flag and the normal rank of the compressed determinant's
    roots on every two-slice table row."""
    t = s.catalog_build(entry_id)
    image = s.apply_slocc(t, *s.random_slocc(t.shape, map_seed, cond_bound=cond))
    image = image * 10.0**exponent
    got, want = s.pencil_invariants(image), _compressed_determinant_invariants(image)
    assert (got.signature(), got.borderline, got.normal_rank) == (
        want.signature(), want.borderline, want.normal_rank)


# --- pencils assembled from Kronecker blocks -------------------------------------


def _kronecker_tensor(blocks) -> np.ndarray:
    """2 x M x N tensor of the block-diagonal pencil x*S0 + y*S1: ("L", e)
    is L_e, e x (e + 1), ("LT", e) its transpose, ("J", k, lam) a k x k
    Jordan block where S0 + lam*S1 is singular, at infinity for lam None."""
    parts = []
    for kind, size, *lam in blocks:
        if kind == "J":
            nil = np.eye(size, k=1)
            parts.append((np.eye(size), nil) if lam[0] is None
                         else (nil - lam[0] * np.eye(size), np.eye(size)))
        else:
            pair = (np.eye(size, size + 1), np.eye(size, size + 1, k=1))
            parts.append(pair if kind == "L" else tuple(p.T for p in pair))
    m, n = (sum(p[0].shape[i] for p in parts) for i in (0, 1))
    t = np.zeros((2, m, n), dtype=complex)
    i = j = 0
    for p0, p1 in parts:
        t[:, i:i + p0.shape[0], j:j + p0.shape[1]] = p0, p1
        i, j = i + p0.shape[0], j + p0.shape[1]
    return t


def _jaja_rank_of(blocks) -> int:
    """Ja'Ja's rank of the pencil of ``_kronecker_tensor(blocks)``."""
    minimal = sum(b[1] + 1 for b in blocks if b[0] != "J")
    jordan = [b for b in blocks if b[0] == "J"]
    delta = max((sum(b[1] >= 2 and b[2] == lam for b in jordan) for _, _, lam in jordan),
                default=0)
    return minimal + sum(b[1] for b in jordan) + delta


_BLOCKS = st.lists(
    st.tuples(st.sampled_from(["L", "LT"]), st.integers(1, 2))
    | st.tuples(st.just("J"), st.integers(1, 3), st.sampled_from([0.0, 1.0, -2.0, None])),
    min_size=1, max_size=4,
).filter(lambda blocks: max(_kronecker_tensor(blocks).shape) <= 7)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(blocks=_BLOCKS, map_seed=st.integers(0, 2**31 - 1), cond=st.sampled_from([20.0, 50.0]))
def test_rank_lower_bound_never_exceeds_the_jaja_rank_of_assembled_pencils(
        blocks, map_seed, cond):
    """Pencils of up to 7 x 7 assembled from L_eps, L_eta^T and finite and
    infinite Jordan blocks, under cond <= 50 maps: the certified bound is at
    most the rank Ja'Ja's formula gives for the blocks."""
    t = _kronecker_tensor(blocks)
    image = s.apply_slocc(t, *s.random_slocc(t.shape, map_seed, cond_bound=cond))
    assert s.rank_lower_bound(image)[0] <= _jaja_rank_of(blocks)


def test_jordan_block_of_size_four_reads_jajas_rank():
    """[I, 2I + N] on 4 x 4 has rank 4 + 1 = 5.  The compressed determinant's
    roots split by about eps^(1/4), beyond both cluster radii, and left the
    bound at ``LocalRank`` 4 on 38 of these 40 images; the completion's
    eigenvalues cluster, and the bound is Ja'Ja's."""
    t = np.array([np.eye(4), 2.0 * np.eye(4) + np.eye(4, k=1)], dtype=complex)
    bounds = [s.rank_lower_bound(s.apply_slocc(t, *s.random_slocc(t.shape, seed, cond_bound=cond)))
              for cond in (20.0, 100.0) for seed in range(20)]
    assert bounds.count((5, "JaJa")) >= 35, bounds


def test_completion_scales_the_pencil_to_unit_largest_entry():
    """On this image the pencil at unit Frobenius norm, written into the
    padding as it is, splits the double eigenvalue of ``2x3x4-4`` into two
    simple points; at unit largest entry, the padding's scale, it does not."""
    t = s.catalog_build("2x3x4-4")
    image = s.apply_slocc(t, *s.random_slocc(t.shape, 7, cond_bound=20)) * 1e-150
    inv = s.pencil_invariants(image)
    assert not inv.borderline, inv.condition_note
    assert inv.signature() == ((1,), (), ((2,),)) == s.pencil_invariants(t).signature()


def test_singular_completion_leaves_the_pencil_borderline(monkeypatch):
    """When the completion's mixed slice cannot be inverted, no eigen-point
    is listed: the invariants are ``borderline`` and the bound falls back
    to the local rank."""
    image = s.apply_slocc(s.catalog_build("2x3x3-4"), *s.random_slocc((2, 3, 3), 6, cond_bound=20))

    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    inv = s.pencil_invariants(image)
    assert inv.borderline and "divisor degrees sum to 0, expected 3" in inv.condition_note
    assert s.rank_lower_bound(image) == (3, "LocalRank")


def test_regular_pencil_decides_each_stage_in_one_svd_call(monkeypatch):
    """Three simple eigen-points of a regular 3 x 3 pencil: one SVD call for
    the normal rank, one for the drops at the four candidate points
    (infinity included), which also gives the 1-jets, and one per jet order
    k = 2, 3; one call per matrix made 19."""
    t = np.array([np.eye(3), np.diag([1.0, 2.0, 3.0])], dtype=complex)
    image = s.apply_slocc(t, *s.random_slocc(t.shape, 5, cond_bound=20))
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    inv = s.pencil_invariants(image)
    assert inv.all_partitions() == ((1,), (1,), (1,))
    assert shapes == [(6, 3, 3), (4, 3, 3), (3, 6, 6), (3, 9, 9)]


def test_jordan_block_decides_both_radii_in_one_svd_call_per_stage(monkeypatch):
    """A triple eigenvalue (``2x3x3-4``): its completion's eigenvalues
    split by about eps^(1/3), so at radius 1e-6 three points drop and their
    degrees over-count, while 1e-4 joins them.  The drops at the union of
    both radii's points (infinity, three split roots, one centroid) take one
    SVD call, and each jet order k = 2, 3 one more; deciding the radii one
    after the other took two calls per stage."""
    t = s.catalog_build("2x3x3-4")
    image = s.apply_slocc(t, *s.random_slocc(t.shape, 5, cond_bound=20))
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    inv = s.pencil_invariants(image)
    assert inv.all_partitions() == ((3,),)
    assert not inv.borderline, inv.condition_note
    assert shapes == [(6, 3, 3), (5, 3, 3), (4, 6, 6), (4, 9, 9)]


def _divisor_structure_radius_by_radius(s0, s1, roots, r, total_divisor, tol):
    """The divisor stage one radius at a time: cluster, decide and assign at
    1e-6, and only if the degrees miss their total, all again at 1e-4; the
    reference for the one-pass stage."""
    for radius in (1e-6, 1e-4):
        points = []
        for cand in pencil._clustered(roots, radius):
            if all(pencil._chordal(cand, q) > radius for q in points):
                points.append(cand)
        drops, nullities = pencil._drops_and_jets(s0, s1, points, r, total_divisor, tol)
        base = np.arange(1, total_divisor + 1) * (s0.shape[1] - r)
        finite, infinite, assigned, notes = [], (), 0, []
        for pt, nul in zip(drops, nullities):
            part = pencil._partition_from_weyr((nul - base).tolist())
            if part is None or not part:
                notes.append(f"irregular nullity sequence at point {pt}")
                continue
            assigned += sum(part)
            x, y = pt
            if abs(x) <= radius * np.hypot(abs(x), abs(y)):
                infinite = part
            else:
                finite.append((y / x, part))
        if assigned == total_divisor:
            return finite, infinite, notes, False
    notes.append(f"divisor degrees sum to {assigned}, expected {total_divisor}")
    return finite, infinite, notes, True


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(entry_id=st.sampled_from(TABLE_ROWS),
       map_seed=st.integers(0, 2**31 - 1),
       cond=st.sampled_from([20.0, 100.0, 1e4]),
       exponent=st.integers(-300, 300))
def test_one_pass_divisor_stage_equals_radius_by_radius(entry_id, map_seed, cond, exponent):
    """Deciding both radii's points in one stack gives the invariants of
    one radius at a time, eigenvalues and notes included, bit for bit."""
    t = s.catalog_build(entry_id)
    image = s.apply_slocc(t, *s.random_slocc(t.shape, map_seed, cond_bound=cond))
    image = image * 10.0**exponent
    got = s.pencil_invariants(image)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pencil, "_divisor_structure", _divisor_structure_radius_by_radius)
        want = s.pencil_invariants(image)
    assert got == want


def test_one_pass_divisor_stage_equals_radius_by_radius_when_both_miss():
    """A 5 x 5 Jordan block's eigenvalues split by about eps^(1/5), beyond
    both radii: the degrees miss their total twice, and the borderline
    result, assembled at 1e-4, is the one the radius-by-radius stage gives."""
    j5 = 2.0 * np.eye(5) + np.eye(5, k=1)
    t = np.array([np.eye(5), j5], dtype=complex)
    for seed in range(8):
        image = s.apply_slocc(t, *s.random_slocc(t.shape, seed, cond_bound=20))
        got = s.pencil_invariants(image)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pencil, "_divisor_structure", _divisor_structure_radius_by_radius)
            want = s.pencil_invariants(image)
        assert got.borderline and "divisor degrees sum to" in got.condition_note, seed
        assert got == want, seed


def test_second_call_on_a_shape_draws_nothing(monkeypatch):
    """The generic points and the padding pencil of the square completion
    are drawn once per shape, not per call."""
    t = s.apply_slocc(s.catalog_build("2x3x4-4"), *s.random_slocc((2, 3, 4), 8, cond_bound=20))
    first = s.pencil_invariants(t)

    def refuse(*args, **kwargs):
        raise AssertionError("fixed draw made again")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    assert s.pencil_invariants(2.0 * t) == first


def test_2x1x1_pencil_drops_rank_at_its_root():
    """a*x + b*y vanishes at y/x = -a/b; the drop there is a (1,) block."""
    rng = np.random.default_rng(211)
    for _ in range(50):
        t = rng.standard_normal((2, 1, 1)) + 1j * rng.standard_normal((2, 1, 1))
        inv = s.pencil_invariants(t)
        assert not inv.borderline, inv.condition_note
        assert inv.all_partitions() == ((1,),)
        (ev, part), = inv.finite_divisors
        assert abs(ev + t[0, 0, 0] / t[1, 0, 0]) < 1e-10 * abs(ev)


def test_pencil_vanishing_at_a_point_has_full_drop():
    """S0 = I2, S1 = 2*I2: (x + 2y)*I2 vanishes at lambda = -1/2, blocks (1, 1)."""
    t = np.array([np.eye(2), 2 * np.eye(2)], dtype=complex)
    inv = s.pencil_invariants(t)
    assert not inv.borderline, inv.condition_note
    assert inv.infinite_partition == ()
    (ev, part), = inv.finite_divisors
    assert abs(ev + 0.5) < 1e-12 and part == (1, 1)


def test_pencil_invariants_call_no_np_roots(monkeypatch):
    """The eigen-points come from the stacked companion eigensolve alone."""
    calls = []
    monkeypatch.setattr(np, "roots", lambda *args: calls.append(args))
    t = s.apply_slocc(s.catalog_build("2x3x3-4"), *s.random_slocc((2, 3, 3), 4, cond_bound=20))
    assert s.pencil_invariants(t).all_partitions() == ((3,),)
    assert calls == []


def _partition_from_weyr_loop(deltas):
    """The loop ``pencil._partition_from_weyr`` replaced, kept as its reference."""
    weyr, prev = [], 0
    for d in deltas:
        weyr.append(d - prev)
        prev = d
    if any(w < 0 for w in weyr) or any(weyr[i] < weyr[i + 1] for i in range(len(weyr) - 1)):
        return None
    parts = []
    for size in range(1, len(weyr) + 1):
        parts.extend([size] * (weyr[size - 1] - (weyr[size] if size < len(weyr) else 0)))
    return tuple(sorted(parts, reverse=True))


def test_partition_from_weyr_matches_loop():
    """Every nullity sequence of length at most 5 with entries in -1..5."""
    for length in range(6):
        for deltas in product(range(-1, 6), repeat=length):
            assert (pencil._partition_from_weyr(list(deltas))
                    == _partition_from_weyr_loop(list(deltas))), deltas
