"""Product vectors in a subspace of a bipartite space.

Vectors of C^M tensor C^N reshaped as M x N matrices turn "product vector"
into "rank-1 matrix", so counting linearly independent product states in the
range of a reduced density matrix becomes finding the rank-1 locus of a
matrix subspace.  The range is the column space of the state's unfolding,
cut like the local ranks (``tensor.column_space``).  k = 1, 2 and 3 are
decided exactly: k = 2 from the pencil's eigen-points, k = 3 from two random
combinations of the 2x2-minor quadrics through a resultant quartic, and both
through one rank-1 screen (``_screen``).  k >= 4, and a k = 2 or 3 subspace
the screen leaves undecided or whose quartic vanishes, go to a seeded
multi-start Levenberg-Marquardt search with a closed-form Jacobian, whose
result is a lower bound, never an exact count.  All paths evaluate the
minors with one vectorised kernel (``_minor_entries``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.optimize import least_squares

from .pencil import EIGEN_CLUSTER_RADIUS, _candidate_points, _minor_forms
from .tensor import as_tensor, column_space, complex_to_pairs, local_ranks, matrix_rank_tol

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
    # (k, m*n): least-squares coefficients of a flattened matrix are pinv @ vec
    pinv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.basis = [np.asarray(b, dtype=complex) for b in self.basis]
        k = len(self.basis)
        if not 1 <= k <= self.m * self.n:
            raise ValueError(f"subspace dimension {k} out of range")
        for b in self.basis:
            if b.shape != (self.m, self.n):
                raise ValueError(f"basis matrix shape {b.shape} != ({self.m},{self.n})")
        self.stack = np.stack([b.ravel() for b in self.basis])
        if matrix_rank_tol(self.stack, 1e-9) != k:
            raise ValueError("basis matrices are linearly dependent")
        self.pinv = np.linalg.pinv(self.stack.T)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def member(self, coeffs) -> np.ndarray:
        return (np.asarray(coeffs, dtype=complex) @ self.stack).reshape(self.m, self.n)


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


def _all_minors(mat) -> np.ndarray:
    a, d, b, c = _minor_entries(mat)
    return _cmul(a, d) - _cmul(b, c)


def _rank_one_factors(mat):
    """Split a (near) rank-1 matrix into (u, v) with outer(u, v) ~ mat."""
    uu, ss, vh = np.linalg.svd(mat)
    return uu[:, 0] * ss[0], vh[0].copy()


def _polish(space: MatrixSubspace, coeffs, iters: int = 4):
    """Alternate rank-1 truncation and projection back onto the subspace."""
    c = np.asarray(coeffs, dtype=complex)
    for _ in range(iters):
        m = space.member(c)
        norm = np.linalg.norm(m)
        if norm == 0:
            return None
        uu, ss, vh = np.linalg.svd(m / norm)
        rank1 = ss[0] * np.outer(uu[:, 0], vh[0])
        c = space.pinv @ rank1.ravel()
    norm = np.linalg.norm(c)
    return c / norm if norm > 0 else None


def _accept_candidate(space: MatrixSubspace, coeffs, tol: float):
    """Polish a candidate and keep it only if it is a genuine rank-1 member.

    Two checks decide: every 2x2 minor of the normalised member is at most
    ``tol``, and the member is within ``RECONSTRUCT_TOL`` of its rank-1 part.
    The minor check is what enforces a caller's ``tol`` below
    ``RECONSTRUCT_TOL``: a member whose second singular value lies between
    ``tol`` and ``RECONSTRUCT_TOL`` passes the reconstruction check.
    """
    c = _polish(space, coeffs)
    if c is None:
        return None
    m = space.member(c)
    norm = np.linalg.norm(m)
    if norm < 1e-12:
        return None
    m_hat = m / norm
    minors = _all_minors(m_hat)
    if minors.size and np.max(np.abs(minors)) > tol:
        return None
    u, v = _rank_one_factors(m_hat)
    if np.linalg.norm(np.outer(u, v) - m_hat) > RECONSTRUCT_TOL:
        return None
    return u, v, m_hat


def _dedup(found, new_mhat) -> bool:
    for _, _, m_hat in found:
        if abs(np.vdot(m_hat, new_mhat)) > 1.0 - 1e-6:
            return True
    return False


def find_product_vectors(space: MatrixSubspace, tol: float = MINOR_TOL,
                         starts: int = 16, seed: int = 0) -> ProductVectorReport:
    """Find rank-1 members of a matrix subspace.

    k = 1: the basis matrix either is rank 1 or is not.  k = 2: candidates
    are the eigen-points of the pencil x*B1 + y*B2 (``pencil._candidate_points``);
    a pencil whose minors vanish identically is flagged as a continuum.
    k = 3: candidates are the at most 4 common zeros of two random
    combinations of the minor quadrics (``_exact_k3``; ``seed`` fixes them).
    Both go through one screen (``_screen``), exact only if it decides every
    candidate.  k >= 4, and an undecided k = 2 or 3 subspace: seeded
    multi-start Levenberg-Marquardt (trust-region reflective when there are
    fewer equations than unknowns) on the normalised minor equations, a
    lower bound.  Every candidate is polished by alternating rank-1
    truncation with projection through the cached pseudo-inverse, and is
    kept only if all its minors are below ``tol`` and it reconstructs as an
    outer product.
    """
    k = space.dim
    if k == 1:
        return _exact_k1(space, tol)
    report = None
    if k == 2:
        report = _exact_k2(space, tol)
    elif k == 3:
        report = _exact_k3(space, tol, seed)
    if report is not None:
        return report
    return _search(space, tol, starts, seed)


def _span_count(found) -> int:
    if not found:
        return 0
    stack = np.stack([m.ravel() for _, _, m in found])
    return matrix_rank_tol(stack, 1e-9)


def _report(found, exactness, continuum=False, detail="") -> ProductVectorReport:
    return ProductVectorReport(
        vectors=[(u, v) for u, v, _ in found],
        independent_count=_span_count(found),
        exactness=exactness,
        continuum=continuum,
        detail=detail,
    )


def _exact_k1(space, tol):
    b = space.basis[0]
    b_hat = b / np.linalg.norm(b)
    minors = _all_minors(b_hat)
    if minors.size == 0 or np.max(np.abs(minors)) <= tol:
        u, v = _rank_one_factors(b_hat)
        return _report([(u, v, b_hat)], "Exact")
    return _report([], "Exact", detail="single basis matrix has rank >= 2")


def _exact_k2(space, tol):
    """Every rank-1 member of a pencil x*B1 + y*B2, or None if undecided:
    they are among the roots of any 2x2 minor form that does not vanish."""
    b1 = space.basis[0] / np.linalg.norm(space.basis[0])
    b2 = space.basis[1] / np.linalg.norm(space.basis[1])
    norm_space = MatrixSubspace(space.m, space.n, [b1, b2])
    if min(space.m, space.n) < 2:
        # a one-row or one-column space: every member is rank <= 1
        return _continuum_report(norm_space, tol)
    forms = _minor_forms(b1, b2, 2)
    if np.max(np.abs(forms)) <= 1e-12:
        return _continuum_report(norm_space, tol)
    points = _candidate_points(forms, EIGEN_CLUSTER_RADIUS)
    return _screen(norm_space, [np.array(p) for p in points], tol, PENCIL_REJECT_MARGIN)


def _continuum_report(space, tol):
    """Every pencil member is rank <= 1; sample a few and report a lower bound."""
    found = []
    for c in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0, 1.0j]):
        cand = _accept_candidate(space, np.array(c, dtype=complex), tol)
        if cand is not None and not _dedup(found, cand[2]):
            found.append(cand)
    return _report(found, "LowerBound", continuum=True,
                   detail="every member of the pencil is a product vector")


def _minor_quadrics(basis) -> np.ndarray:
    """Complex symmetric matrices A_i of the minors of a member.

    The minors of M(c) = sum_j c_j B_j are q_i(c) = c^T A_i c with
    A_i = sym(B_a[:, i] B_d[:, i]^T - B_b[:, i] B_c[:, i]^T), where B_a .. B_c
    are the kernel's gathered entries of the basis (k, m, n).  Shape
    (count, k, k).
    """
    ga, gd, gb, gc = _minor_entries(basis).transpose(1, 2, 0)
    a = ga[:, :, None] * gd[:, None, :] - gb[:, :, None] * gc[:, None, :]
    return 0.5 * (a + a.transpose(0, 2, 1))


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


def _exact_k3(space, tol, seed):
    """Every rank-1 member of a 3-dimensional subspace, or None if undecided.

    The rank-1 members are the common zeros on P^2 of the minor quadrics
    q_i(c) = c^T A_i c.  Two random combinations Q_a, Q_b of them meet in at
    most 4 points unless they share a component (Bezout).  In coordinates
    c = H w with a random unitary H, almost surely no common zero lies on
    w_3 = 0 and no two share a y, so on the chart w = (x, y, 1) each Q reads
    a x^2 + b(y) x + c(y), the resultant in x is the quartic
    (a1 c2 - a2 c1)^2 - (a1 b2 - a2 b1)(b1 c2 - b2 c1) in y (Cox, Little &
    O'Shea, Using Algebraic Geometry, ch. 3), and x is the common root of the
    two quadratics.  A root whose member has a minor above the rejection
    margin is discarded; every other root must pass ``_accept_candidate``.
    The count is exact only when the quartic is not identically zero, keeps
    its degree, and every root is accepted or discarded; otherwise None is
    returned.  ``seed`` fixes the combinations and H.
    """
    m, n = space.m, space.n
    ortho = np.linalg.qr(space.stack.T)[0].T.reshape(3, m, n)
    space = MatrixSubspace(m, n, list(ortho))
    quads = _minor_quadrics(ortho)
    rng = np.random.default_rng(np.random.SeedSequence([seed, m, n, 3]))
    mix = rng.standard_normal((2, len(quads))) + 1j * rng.standard_normal((2, len(quads)))
    h = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    # Q_a, Q_b in the w coordinates, shape (2, 3, 3)
    q = h.T @ np.tensordot(mix, quads, 1) @ h
    a = q[:, 0, 0]
    b = 2.0 * q[:, 0, 1:]
    c = np.stack([q[:, 1, 1], 2.0 * q[:, 1, 2], q[:, 2, 2]], axis=1)
    ac = a[0] * c[1] - a[1] * c[0]
    ab = a[0] * b[1] - a[1] * b[0]
    bc = np.convolve(b[0], c[1]) - np.convolve(b[1], c[0])
    quartic = np.convolve(ac, ac) - np.convolve(ab, bc)
    peak = np.max(np.abs(quartic))
    if peak <= RESULTANT_ZERO_TOL * np.prod(np.sum(np.abs(q) ** 2, axis=(1, 2))):
        return None  # a shared component: a curve of common zeros, or Q_a ~ Q_b
    if abs(quartic[0]) <= 1e-12 * peak:
        return None  # a root at infinity, i.e. a common zero off the chart

    candidates = []
    for y in np.roots(quartic):
        by, cy = b @ [y, 1.0], c @ [y * y, y, 1.0]
        den = a[0] * by[1] - a[1] * by[0]
        if abs(den) > 1e-8 * (abs(a[0] * by[1]) + abs(a[1] * by[0])):
            xs = [-(a[0] * cy[1] - a[1] * cy[0]) / den]
        else:
            # the two quadratics in x are proportional at this y
            xs = np.roots([a[0], by[0], cy[0]])
            if len(xs) == 0:
                return None
        candidates += [h @ np.array([x, y, 1.0]) for x in xs]
    return _screen(space, candidates, tol, REJECT_MARGIN,
                   detail="common zeros of two minor quadrics")


def _screen(space, candidates, tol, margin, detail=""):
    """Exact report from candidates that include every rank-1 member, or
    None: a candidate whose unit-norm member has a minor above
    max(tol, margin) is discarded, every other one must pass
    ``_accept_candidate``."""
    margin = max(tol, margin)
    found = []
    for coeffs in candidates:
        member = space.member(coeffs)
        if np.max(np.abs(_all_minors(member / np.linalg.norm(member)))) > margin:
            continue  # clearly not a rank-1 member
        cand = _accept_candidate(space, coeffs, tol)
        if cand is None:
            return None
        if not _dedup(found, cand[2]):
            found.append(cand)
    return _report(found, "Exact", detail=detail)


def _search(space, tol, starts, seed):
    k = space.dim
    form = _minor_form(space.stack.reshape(k, space.m, space.n))
    method = "lm" if form.shape[0] + 1 >= 2 * k else "trf"
    # least_squares asks for the Jacobian at the point it evaluated last,
    # so each evaluation keeps its Jacobian for that call
    last = {}

    def residual(x):
        last["x"] = x.copy()
        res, last["jac"] = _minor_residual(x, form)
        return res

    def jacobian(x):
        if not np.array_equal(last.get("x"), x):
            residual(x)
        return last["jac"]

    found = []
    root_seq = np.random.SeedSequence([seed, space.m, space.n, k])
    for child in root_seq.spawn(starts):
        rng = np.random.default_rng(child)
        c0 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        c0 /= np.linalg.norm(c0)
        x0 = np.concatenate([c0.real, c0.imag])
        sol = least_squares(residual, x0, jac=jacobian, method=method, xtol=1e-15,
                            ftol=1e-15, gtol=1e-15, max_nfev=2000)
        c = sol.x[:k] + 1j * sol.x[k:]
        cand = _accept_candidate(space, c, tol)
        if cand is not None and not _dedup(found, cand[2]):
            found.append(cand)
    return _report(found, "LowerBound",
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


def range_product_count(psi, traced_party, tol: float = MINOR_TOL,
                        starts: int = 16, seed: int = 0) -> ProductVectorReport:
    """Count product vectors in the range of the reduced density matrix
    obtained by tracing out one party of a tripartite pure state.

    The range of X X^dagger is the column space of the unfolding X (rows the
    kept parties, columns the traced one), taken from the SVD of X with the
    rule of ``local_ranks``, so its dimension is the traced party's local
    rank at any nonzero scale.
    """
    psi = as_tensor(psi)
    p = _party_index(traced_party)
    kept = [d for i, d in enumerate(psi.shape) if i != p]
    x = np.moveaxis(psi, p, -1).reshape(kept[0] * kept[1], psi.shape[p])
    basis = [vec.reshape(kept) for vec in column_space(x).T]
    if not basis:
        raise ValueError("reduced density matrix has empty range")
    space = MatrixSubspace(kept[0], kept[1], basis)
    return find_product_vectors(space, tol=tol, starts=starts, seed=seed)


def range_criterion_compare(s1, s2, traced_party, tol: float = MINOR_TOL,
                            starts: int = 16, seed: int = 0) -> str:
    """Necessary-condition comparison of two tripartite states.

    Returns "Inequivalent" when the local ranks differ, or when both product
    counts are exact and disagree; otherwise "Inconclusive".  A lower-bound
    report never certifies inequivalence.
    """
    s1 = as_tensor(s1)
    s2 = as_tensor(s2)
    if s1.shape != s2.shape:
        raise ValueError("states must share party dims")
    if local_ranks(s1) != local_ranks(s2):
        return "Inequivalent"
    r1 = range_product_count(s1, traced_party, tol=tol, starts=starts, seed=seed)
    r2 = range_product_count(s2, traced_party, tol=tol, starts=starts, seed=seed)
    if (
        r1.exactness == "Exact"
        and r2.exactness == "Exact"
        and r1.independent_count != r2.independent_count
    ):
        return "Inequivalent"
    return "Inconclusive"
