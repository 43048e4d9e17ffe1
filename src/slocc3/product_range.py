"""Product vectors in a subspace of a bipartite space.

Vectors of C^M tensor C^N reshaped as M x N matrices turn "product vector"
into "rank-1 matrix", so counting linearly independent product states in the
range of a reduced density matrix becomes finding the rank-1 locus of a
matrix subspace.  Every decision is made in an orthonormal basis of the
subspace, and subspaces of one shape and dimension k are decided as one
stack (count, k, m, n) of such bases, with candidates as coordinates in
them.  ``range_criterion_compare`` stacks its two states' ranges, whose
orthonormal rows come with the local ranks from one ``tensor.unfolding_svds``
call (``_ranks_and_ranges``); ``find_product_vectors`` decides the orthonormal
basis of a user's subspace (``MatrixSubspace.ortho``) as a stack of one.
k = 1, 2 and 3 are decided exactly (``_exact``), k = 2 and 3 in a generic
unitary chart whose infinity is left to the search: k = 2 from the zeros of
each pencil's largest minor form (``_pencil_zeros``), k = 3 from two random
combinations of the minor quadrics through a resultant quartic
(``_chart_zeros``), the whole stack's from one companion eigensolve, and its
candidates through one rank-1 screen and one batched polish and check
(``_accept``).  k >= 4, and a subspace the screen leaves undecided, go to a
seeded multi-start Levenberg-Marquardt search, a lower bound, never an exact
count.  Every minor form comes from one kernel (``_minor_quadrics``) and every
minor value from another (``_all_minors``), both over the gathered entries of
``_minor_entries``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .tensor import (DEFAULT_RANK_TOL, _ranks_above, as_tensor, column_space, complex_to_pairs,
                     least_squares, unfolding_svds)

MINOR_TOL = 1e-7
RECONSTRUCT_TOL = 1e-8
# a k = 3 resultant quartic below this, relative to |Q_a|^2 |Q_b|^2 (its
# coefficients are of degree 2 in each quadric), is identically zero; the
# coefficients of one that is zero in exact arithmetic are round-off, ~1e-16
RESULTANT_ZERO_TOL = 1e-10
# A candidate whose unit-norm member has a 2x2 minor above its margin is far
# from every rank-1 member.  Round-off moves a root of multiplicity r by
# about eps^(1/r) relative, and a minor of a unit-norm member moves by at
# most twice as much as the member, so a perturbed rank-1 member stays below
# the margin; a candidate neither accepted nor above it leaves the count
# undecided.  The k = 3 quartic has r <= 4, eps^(1/4) ~ 1.2e-4; the
# quadratic minor form of a k = 2 pencil has r <= 2, eps^(1/2) ~ 1.5e-8.
REJECT_MARGIN = 1e-3
PENCIL_REJECT_MARGIN = 1e-7

PARTY_NAMES = {"A": 0, "B": 1, "C": 2}


@dataclass
class MatrixSubspace:
    """Linearly independent basis of M x N complex matrices."""

    m: int
    n: int
    basis: list
    # (k, m*n): row j is basis[j] flattened
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    # (k, m*n): orthonormal rows spanning the same space, the coordinates
    # every decision is made in
    ortho: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.basis = [np.asarray(b, dtype=complex) for b in self.basis]
        k = len(self.basis)
        if not 1 <= k <= self.m * self.n:
            raise ValueError(f"subspace dimension {k} out of range")
        for b in self.basis:
            if b.shape != (self.m, self.n):
                raise ValueError(f"basis matrix shape {b.shape} != ({self.m},{self.n})")
        self.stack = np.stack([b.ravel() for b in self.basis])
        self.ortho = column_space(self.stack.T, DEFAULT_RANK_TOL).T
        if len(self.ortho) != k:
            raise ValueError("basis matrices are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass
class ProductVectorReport:
    """Product vectors found in a subspace, with an exactness guarantee.

    ``vectors`` holds (u, v) pairs whose outer products lie in the subspace
    (up to scale); ``independent_count`` is the rank of their span.
    ``exactness`` is "Exact" when the computation provably found the whole
    rank-1 locus and "LowerBound" otherwise; ``continuum`` marks pencils
    whose every member is a product vector.
    """

    vectors: list
    independent_count: int
    exactness: str
    continuum: bool = False
    detail: str = ""

    def to_json(self) -> str:
        vecs = [
            {"u": complex_to_pairs(u), "v": complex_to_pairs(v)}
            for u, v in self.vectors
        ]
        return json.dumps(
            {
                "vectors": vecs,
                "independent_count": self.independent_count,
                "exactness": self.exactness,
                "continuum": self.continuum,
                "detail": self.detail,
            },
            sort_keys=True,
        )


@cache
def _minor_index(m: int, n: int) -> np.ndarray:
    """Flat positions (a, d, b, c) of every 2x2 minor ad - bc of an m x n matrix.

    Row pairs r1 < r2 are the outer order and column pairs c1 < c2 the inner
    one; a = (r1, c1), d = (r2, c2), b = (r1, c2), c = (r2, c1).  Shape
    (4, minor count); read-only, since every caller shares it.
    """
    rows, cols = np.triu_indices(m, 1), np.triu_indices(n, 1)
    r1, r2 = (np.repeat(r, cols[0].size) for r in rows)
    c1, c2 = (np.tile(c, rows[0].size) for c in cols)
    idx = np.stack([r1 * n + c1, r2 * n + c2, r1 * n + c2, r2 * n + c1])
    idx.setflags(write=False)
    return idx


def _minor_entries(mats) -> np.ndarray:
    """Entries (a, d, b, c) of every 2x2 minor of each matrix in a stack.

    ``mats`` has shape (..., m, n); the result has shape (..., 4, minor count).
    """
    mats = np.asarray(mats, dtype=complex)
    m, n = mats.shape[-2:]
    return mats.reshape(*mats.shape[:-2], m * n)[..., _minor_index(m, n)]


def _cmul(x, y) -> np.ndarray:
    """Elementwise complex product, bit-identical to numpy's scalar product.

    Numpy's vectorised complex multiply may fuse multiply-adds, so it can
    differ in the last bit from ``x[i] * y[i]`` depending on the array length;
    rounding each real product and sum on its own, as the scalar product
    does, makes every minor bit-identical to a per-minor scalar loop.
    """
    out = np.empty(x.shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _all_minors(mats) -> np.ndarray:
    """Every 2x2 minor of each matrix in a stack (..., m, n), in
    ``_minor_index`` order; shape (..., minor count)."""
    e = _minor_entries(mats)
    return _cmul(e[..., 0, :], e[..., 1, :]) - _cmul(e[..., 2, :], e[..., 3, :])


def _accept(orthos, owner, coeffs, tol) -> list:
    """Polish candidates and keep those that are genuine rank-1 members.

    ``coeffs[i]`` are coordinates in the basis ``orthos[owner[i]]`` of a
    stack (count, k, m, n) of orthonormal bases.  A round is one batched SVD
    of the unit members; each member whose second singular value is above
    1e-14 of its first is truncated to rank 1 and projected back onto its
    subspace by the conjugate basis, at most 4 times.  A zero member is
    dropped: the basis is orthonormal, so only zero coordinates give one.
    On the final SVD, every minor must be at most ``tol`` (which enforces a
    ``tol`` below ``RECONSTRUCT_TOL``) and the unit member within
    ``RECONSTRUCT_TOL`` of its rank-1 part.  Returns (u, v, unit member) or
    None per candidate.
    """
    if len(owner) == 0:
        return []
    count, k, m, n = orthos.shape
    bases = orthos.reshape(count, k, m * n)[owner]
    c = np.array(coeffs, dtype=complex)
    units = np.zeros((len(c), m, n), dtype=complex)
    u, v = np.zeros((len(c), m), dtype=complex), np.zeros((len(c), n), dtype=complex)
    idx = np.arange(len(c))
    for projections in range(5):
        members = (c[idx, None] @ bases[idx])[:, 0]
        norms = np.linalg.norm(members, axis=1)
        ok = norms > 0.0
        units[idx[~ok]] = np.nan  # fails both checks
        idx = idx[ok]
        units[idx] = (members[ok] / norms[ok, None]).reshape(-1, m, n)
        uu, ss, vh = np.linalg.svd(units[idx], full_matrices=False)
        u[idx], v[idx] = uu[:, :, 0] * ss[:, :1], vh[:, 0]
        idx = idx[np.any(ss[:, 1:] > 1e-14 * ss[:, :1], axis=1)]
        if projections == 4 or not idx.size:
            break
        rank1 = (u[idx, :, None] * v[idx, None, :]).reshape(-1, m * n, 1)
        c[idx] = (bases[idx].conj() @ rank1)[:, :, 0]
    good = ((np.max(np.abs(_all_minors(units)), axis=1, initial=0.0) <= tol)
            & (np.linalg.norm(u[:, :, None] * v[:, None, :] - units, axis=(1, 2))
               <= RECONSTRUCT_TOL))
    return [(u[i], v[i], units[i]) if good[i] else None for i in range(len(c))]


def _check_args(tol, starts):
    # a NaN tol would fail every comparison: no candidate, yet an exact count
    if not (tol >= 0 and starts >= 0):
        raise ValueError(f"tol and starts must be non-negative, got {tol!r} and {starts!r}")


def find_product_vectors(space: MatrixSubspace, tol: float = MINOR_TOL,
                         starts: int = 16, seed: int = 0) -> ProductVectorReport:
    """Find rank-1 members of a matrix subspace, decided in its orthonormal
    basis ``space.ortho`` as a stack of one.

    k = 1: the basis matrix either is rank 1 or is not.  k = 2: candidates
    are the zeros of the largest minor form of the orthonormal pencil in a
    fixed generic chart, from one companion eigensolve, or a continuum
    when every minor vanishes.  k = 3: the at most 4 common zeros of two
    random combinations of the minor quadrics (``seed`` fixes them), the
    roots of their resultant quartic from one companion eigensolve for the
    whole stack.  Both are exact only if one screen decides every candidate
    (``_exact``); every decision is made on unit-norm members, so the count
    does not depend on the scale of the basis.
    k >= 4, and an undecided k = 2 or 3 subspace: seeded multi-start
    Levenberg-Marquardt on the normalised minor equations, a lower
    bound.  Every candidate is polished by rank-1 truncation and projection
    in one batched ``_accept``, and kept only if its minors are below
    ``tol`` and it reconstructs as an outer product.  Raises ValueError for
    a NaN or negative ``tol`` or negative ``starts``.
    """
    _check_args(tol, starts)
    [report] = _reports(space.ortho.reshape(1, space.dim, space.m, space.n), tol, starts, seed)
    return report


def _reports(orthos, tol, starts, seed) -> list:
    """Per orthonormal basis of a stack (count, k, m, n), its ``_exact``
    report or its own search's."""
    if not orthos.shape[1]:  # only a zero state's range; a MatrixSubspace has k >= 1
        raise ValueError("reduced density matrix has empty range")
    return [_search(ortho, tol, starts, seed) if report is None else report
            for ortho, report in zip(orthos, _exact(orthos, tol, seed))]


def _report(cands, exactness, continuum=False, detail="") -> ProductVectorReport:
    """Report of the accepted candidates (the ones not None), in order,
    without repeats of a member, and the rank of their span; the members
    have unit norm, so one SVD at their own scale decides it."""
    found = []
    for cand in cands:
        if cand is not None and all(abs(np.vdot(m_hat, cand[2])) <= 1.0 - 1e-6
                                    for _, _, m_hat in found):
            found.append(cand)
    members = np.array([m.ravel() for _, _, m in found])
    count = (int(_ranks_above(np.linalg.svd(members, compute_uv=False), DEFAULT_RANK_TOL))
             if found else 0)
    return ProductVectorReport(
        vectors=[(u, v) for u, v, _ in found],
        independent_count=count,
        exactness=exactness,
        continuum=continuum,
        detail=detail,
    )


def _exact_k1(b_hat, tol):
    """Report of the span of one unit matrix ``b_hat`` (m, n)."""
    if np.max(np.abs(_all_minors(b_hat)), initial=0.0) <= tol:
        uu, ss, vh = np.linalg.svd(b_hat)
        return _report([(uu[:, 0] * ss[0], vh[0], b_hat)], "Exact")
    return _report([], "Exact", detail="single basis matrix has rank >= 2")


# members x*B1 + y*B2 sampled from a pencil whose every member is rank <= 1
_PENCIL_SAMPLES = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0, 1.0j]])


def _exact(orthos, tol, seed) -> list:
    """Per orthonormal basis of a stack (count, k, m, n), its exact report,
    or None where only the search can decide.

    k = 2 and 3 get coordinates that include every rank-1 member, or None
    where a zero lies at a chart's infinity: ``_pencil_zeros`` of the
    largest minor form of the pencil (largest entry modulus), or
    ``_k3_points``.  One minor
    evaluation discards those with a minor above max(tol, margin), and one
    ``_accept`` takes the rest; a count is exact only if each candidate is
    discarded or accepted.  A pencil whose every member is rank <= 1 reports
    its accepted ``_PENCIL_SAMPLES`` as a lower bound and a continuum.
    """
    count, k, m, n = orthos.shape
    if k == 1:
        return [_exact_k1(ortho[0], tol) for ortho in orthos]
    if k > 3:
        return [None] * count
    if k == 2:
        quads = _minor_quadrics(orthos).reshape(count, -1, 4)
        if not quads.shape[1]:  # a 1 x n or m x 1 pencil has no 2x2 minor
            quads = np.zeros((count, 1, 4), dtype=complex)
        largest = np.argmax(np.max(np.abs(quads), axis=2), axis=1)
        points = _pencil_zeros(quads[np.arange(count), largest])
        margin, detail = PENCIL_REJECT_MARGIN, ""
    else:
        points = _k3_points(orthos, seed)
        margin, detail = REJECT_MARGIN, "common zeros of two minor quadrics"
    decided = [i for i, p in enumerate(points) if p is not None]
    if not decided:
        return [None] * count
    owner = np.repeat(decided, [len(points[i]) for i in decided])
    coords = np.concatenate([points[i] for i in decided])
    flat = orthos.reshape(count, k, m * n)
    members = np.concatenate([points[i] @ flat[i] for i in decided])
    units = members / np.linalg.norm(members, axis=1, keepdims=True)
    peaks = np.max(np.abs(_all_minors(units.reshape(-1, m, n))), axis=1, initial=0.0)
    owner, coords = owner[peaks <= max(tol, margin)], coords[peaks <= max(tol, margin)]
    accepted = _accept(orthos, owner, coords, tol)
    reports = [None] * count
    for i in decided:
        cands = [accepted[j] for j in np.flatnonzero(owner == i)]
        if points[i] is _PENCIL_SAMPLES:
            reports[i] = _report(cands, "LowerBound", continuum=True,
                                 detail="every member of the pencil is a product vector")
        elif None not in cands:
            reports[i] = _report(cands, "Exact", detail=detail)
    return reports


def _minor_quadrics(basis) -> np.ndarray:
    """Complex symmetric matrices A_i of the minors of a member.

    The minors of M(c) = sum_j c_j B_j are q_i(c) = c^T A_i c with
    A_i = sym(B_a[:, i] B_d[:, i]^T - B_b[:, i] B_c[:, i]^T), where B_a .. B_c
    are the kernel's gathered entries of the basis (..., k, m, n).  Shape
    (..., count, k, k).
    """
    e = np.swapaxes(_minor_entries(basis), -3, -1)  # (..., count, 4, k)
    ga, gd, gb, gc = (e[..., i, :] for i in range(4))
    a = ga[..., :, None] * gd[..., None, :] - gb[..., :, None] * gc[..., None, :]
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _minor_form(basis) -> np.ndarray:
    """Real quadratic forms of the minors of a member, one per residual row.

    With the A_i of ``_minor_quadrics`` and x = [Re c, Im c],
    Re q_i = x^T T_i x and Im q_i = x^T T_{count+i} x with the symmetric
    blocks below.  Shape (2 * count, 2k, 2k).
    """
    a = _minor_quadrics(basis)
    ar, ai = a.real, a.imag
    return np.block([[[ar, -ai], [-ai, -ar]], [[ai, ar], [ar, -ai]]])


def _minor_residual(x, form):
    """Residual of the normalised-minor equations and its real Jacobian.

    With c = x[:k] + i x[k:], s = |x|^2 and ``form`` from ``_minor_form``,
    the residual is [Re, Im](q(c) / s), |c| - 1.  The minors q are quadratic
    and holomorphic in c, so row i has the gradient 2 T_i x / s - 2 (q_i / s) x / s:
    the real form of D_j / s - 2 q Re c_j / s^2 (and i D_j / s - 2 q Im c_j / s^2)
    with D_j = dq/dc_j.  Returns (residual, jacobian).
    """
    rows, n2, _ = form.shape
    s = x @ x
    if s < 1e-24:
        return np.full(rows + 1, 1.0), np.zeros((rows + 1, n2))
    norm = np.sqrt(s)
    tx = form @ x
    res = (tx @ x) / s
    jac = np.empty((rows + 1, n2))
    jac[:-1] = (tx - res[:, None] * x) * (2.0 / s)
    jac[-1] = x / norm
    return np.concatenate([res, [norm - 1.0]]), jac


# fixed generic unitary chart c = H (y, 1) of a pencil, and the map from the
# entries of a symmetric A to (q00, 2 q01, q11) of c^T A c, Q = H^T A H
_PENCIL_CHART = np.linalg.qr(np.random.default_rng(2).standard_normal((2, 2))
                             + 1j * np.random.default_rng(3).standard_normal((2, 2)))[0]
_CHART_COEFFS = ((_PENCIL_CHART[:, None, [0, 0, 1]] * _PENCIL_CHART[None, :, [0, 1, 1]])
                 .reshape(4, 3) * [1, 2, 1])


def _pencil_zeros(forms) -> list:
    """Zeros c = H (y, 1) of each form c^T A c of a stack (count, 2, 2) of
    symmetric A, from one ``_companion_roots`` call in the fixed chart:
    ``_PENCIL_SAMPLES`` for a form at most 1e-12, None for one whose q00 is
    at most 1e-12 of its largest coefficient (a zero at the chart's
    infinity, left to the search).  A double root split by round-off gives
    two candidates, which ``_accept`` polishes onto one member."""
    forms = forms.reshape(-1, 4)
    polys = forms @ _CHART_COEFFS
    live = np.max(np.abs(forms), axis=1) > 1e-12
    solved = live & (np.abs(polys[:, 0]) > 1e-12 * np.max(np.abs(polys), axis=1))
    ys = _companion_roots(polys[solved])
    found = iter(ys[..., None] * _PENCIL_CHART[:, 0] + _PENCIL_CHART[:, 1])
    return [next(found) if ok else None if on else _PENCIL_SAMPLES
            for ok, on in zip(solved, live)]


def _k3_points(orthos, seed) -> list:
    """Candidates for every rank-1 member of each 3-dimensional subspace of
    a stack (count, 3, m, n) of orthonormal bases, or None if undecided.

    The rank-1 members are the common zeros on P^2 of the minor quadrics
    q_i(c) = c^T A_i c.  Two random combinations Q_a, Q_b of them meet in at
    most 4 points unless they share a component (Bezout).  In coordinates
    c = H w with a random unitary H, almost surely no common zero lies on
    w_3 = 0 and no two share a y, so on the chart w = (x, y, 1) each Q reads
    a x^2 + b(y) x + c(y), the resultant in x is the quartic
    (a1 c2 - a2 c1)^2 - (a1 b2 - a2 b1)(b1 c2 - b2 c1) in y (Cox, Little &
    O'Shea, Using Algebraic Geometry, ch. 3), and x is the common root of the
    two quadratics.  None if the quartic vanishes or loses its degree.
    ``seed`` fixes the combinations and H; they depend only on (seed, m, n),
    so the stack shares them.
    """
    count, _, m, n = orthos.shape
    quads = _minor_quadrics(orthos)
    rng = np.random.default_rng(np.random.SeedSequence([seed, m, n, 3]))
    mix = rng.standard_normal((2, quads.shape[1])) + 1j * rng.standard_normal((2, quads.shape[1]))
    h = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    # Q_a, Q_b of each subspace in the w coordinates, shape (count, 2, 3, 3)
    qs = h.T @ (mix @ quads.reshape(count, -1, 9)).reshape(count, 2, 3, 3) @ h
    return _chart_zeros(qs, h)


def _polymul(p, q) -> np.ndarray:
    """Products of polynomials (descending coefficients on the last axis)."""
    out = np.zeros(p.shape[:-1] + (p.shape[-1] + q.shape[-1] - 1,), dtype=complex)
    for i in range(p.shape[-1]):
        out[..., i:i + q.shape[-1]] += p[..., i, None] * q
    return out


def _companion_roots(polys) -> np.ndarray:
    """Roots of each polynomial of a stack (count, degree + 1), descending
    coefficients, nonzero leading: one ``eigvals`` of ``np.roots``' companions."""
    count, size = polys.shape
    companion = np.zeros((count, size - 1, size - 1), dtype=complex)
    companion[:, 0] = -polys[:, 1:] / polys[:, :1]
    companion[:, np.arange(1, size - 1), np.arange(size - 2)] = 1.0  # the subdiagonal
    return np.linalg.eigvals(companion)


def _chart_zeros(qs, h) -> list:
    """Common zeros c = H (x, y, 1) of each pair ``qs[i]`` = (Q_a, Q_b) of a
    stack (count, 2, 3, 3), or None.

    Every pair's resultant quartic is formed at once, and the quartics that
    neither vanish nor lose their degree are solved by one
    ``_companion_roots`` call; x is back-substituted for every
    (pair, root) at once.  A root where the two quadratics in x are
    proportional leaves the pair undecided (None), as a vanishing quartic does.
    """
    a0, a1 = qs[:, :1, 0, 0], qs[:, 1:, 0, 0]
    b = 2.0 * qs[:, :, 0, 1:]
    c = np.stack([qs[:, :, 1, 1], 2.0 * qs[:, :, 1, 2], qs[:, :, 2, 2]], axis=-1)
    ac = a0 * c[:, 1] - a1 * c[:, 0]
    ab = a0 * b[:, 1] - a1 * b[:, 0]
    bc = _polymul(b[:, 0], c[:, 1]) - _polymul(b[:, 1], c[:, 0])
    quartics = _polymul(ac, ac) - _polymul(ab, bc)
    peaks = np.max(np.abs(quartics), axis=1)
    # a vanishing quartic is a shared component (a curve of common zeros, or
    # Q_a ~ Q_b); a vanishing leading coefficient a root at infinity, i.e. a
    # common zero off the chart
    solved = np.flatnonzero(
        (peaks > RESULTANT_ZERO_TOL * np.prod(np.sum(np.abs(qs) ** 2, axis=(2, 3)), axis=1))
        & (np.abs(quartics[:, 0]) > 1e-12 * peaks))
    points = [None] * len(qs)
    a0, a1, b, c, quartics = a0[solved], a1[solved], b[solved], c[solved], quartics[solved]
    ys = _companion_roots(quartics)[:, None, :]  # (solved, 1, root)
    by = b[:, :, :1] * ys + b[:, :, 1:]  # (solved, quadric, root)
    cy = c[:, :, :1] * (ys * ys) + c[:, :, 1:2] * ys + c[:, :, 2:]
    den = a0 * by[:, 1] - a1 * by[:, 0]
    single = np.abs(den) > 1e-8 * (np.abs(a0 * by[:, 1]) + np.abs(a1 * by[:, 0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = -(a0 * cy[:, 1] - a1 * cy[:, 0]) / den
    ys = ys[:, 0]
    charts = np.stack([xs, ys, np.ones_like(ys)], axis=-1) @ h.T
    for j, i in enumerate(solved):
        if single[j].all():
            points[i] = charts[j]
    return points


def _search(ortho, tol, starts, seed):
    """Multi-start search in the coordinates of an orthonormal basis
    (k, m, n), so its residuals do not depend on the scale of the subspace;
    the end points go to ``_accept`` as the coordinates they are."""
    k, m, n = ortho.shape
    form = _minor_form(ortho)
    ends = []
    root_seq = np.random.SeedSequence([seed, m, n, k])
    for child in root_seq.spawn(starts):
        rng = np.random.default_rng(child)
        c0 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        c0 /= np.linalg.norm(c0)
        x0 = np.concatenate([c0.real, c0.imag])
        sol = least_squares(lambda x: _minor_residual(x, form)[0], x0,
                            jac=lambda x: _minor_residual(x, form)[1], max_nfev=2000)
        ends.append(sol.x[:k] + 1j * sol.x[k:])
    ends = np.array(ends).reshape(-1, k)
    return _report(_accept(ortho[None], np.zeros(len(ends), dtype=int), ends, tol), "LowerBound",
                   detail=f"multi-start search with {starts} starts")


# --- range criterion ----------------------------------------------------------


def _party_index(party) -> int:
    if isinstance(party, str):
        try:
            return PARTY_NAMES[party.upper()]
        except KeyError:
            raise ValueError(f"unknown party {party!r}") from None
    p = int(party)
    if p not in (0, 1, 2):
        raise ValueError("party must be A, B, C or 0, 1, 2")
    return p


def _ranks_and_ranges(states, p):
    """Local ranks of each state in a stack (count, n1, n2, n3) of one shape,
    and an orthonormal basis of the range of its reduced density with party
    ``p`` traced out, as rows reshaped to the kept parties' matrices.

    Both come from ``tensor.unfolding_svds``, with vectors for mode p only:
    the (kept x traced) unfolding X is the transpose of the mode-p unfolding
    U S V^dagger, so the range of X X^dagger is spanned by the leading rows
    of V^dagger, taken as they are, as many as the traced party's local
    rank.  Returns a (ranks, range (k, m, n)) pair per state.
    """
    count, *dims = states.shape
    _, ranks, svds = unfolding_svds(states, DEFAULT_RANK_TOL, vectors=(p,))
    rows = svds[p].Vh.reshape(count, -1, *(d for q, d in enumerate(dims) if q != p))
    return [(tuple(r.tolist()), ri[:r[p]]) for r, ri in zip(ranks, rows)]


def range_product_count(psi, traced_party, tol: float = MINOR_TOL,
                        starts: int = 16, seed: int = 0) -> ProductVectorReport:
    """Count product vectors in the range of the reduced density matrix
    obtained by tracing out one party of a tripartite pure state.

    The range comes from the SVDs of ``tensor.unfolding_svds``
    (``_ranks_and_ranges``), so its dimension is the traced party's local
    rank at any nonzero scale; its orthonormal rows are the basis every
    decision is made in, with no second factorisation.  A 2-dimensional
    range is decided from the companion eigenvalues of the largest minor
    form of its pencil, a 3-dimensional one from those of the resultant of
    two minor quadrics (see ``find_product_vectors``); the arguments are
    checked as there.
    """
    _check_args(tol, starts)
    psi = as_tensor(psi)
    [(_, rows)] = _ranks_and_ranges(psi[None], _party_index(traced_party))
    [report] = _reports(rows[None], tol, starts, seed)
    return report


def range_criterion_compare(s1, s2, traced_party, tol: float = MINOR_TOL,
                            starts: int = 16, seed: int = 0) -> str:
    """Necessary-condition comparison of two tripartite states.

    Returns "Inequivalent" when the local ranks differ, or when both product
    counts are exact and disagree; otherwise "Inconclusive".  A lower-bound
    report never certifies inequivalence.  The two states are decided as
    one stack: one ``tensor.unfolding_svds`` call gives the local ranks and
    the two ranges (``_ranks_and_ranges``), and once the ranks agree, one screen and
    one ``_accept`` decide both ranges (``_exact``); a range left undecided
    goes to its own search.  The counts are those of
    ``range_product_count``, and the arguments are checked as there.
    """
    _check_args(tol, starts)
    s1 = as_tensor(s1)
    s2 = as_tensor(s2)
    if s1.shape != s2.shape:
        raise ValueError("states must share party dims")
    p = _party_index(traced_party)
    (ranks1, range1), (ranks2, range2) = _ranks_and_ranges(np.array([s1, s2]), p)
    if ranks1 != ranks2:
        return "Inequivalent"
    r1, r2 = _reports(np.array([range1, range2]), tol, starts, seed)
    if (
        r1.exactness == "Exact"
        and r2.exactness == "Exact"
        and r1.independent_count != r2.independent_count
    ):
        return "Inequivalent"
    return "Inconclusive"
