"""Determinant polynomials of n x n x 3 tensors and the substitution test.

For a tensor with mode-3 slices A, B, C the determinant polynomial is
``f(x, y, z) = det(x*A + y*B + z*C)``, homogeneous of degree n.  Two tensors
related by slice transformations have determinant polynomials related by a
linear substitution of variables, which yields a necessary condition for
equivalence: ``f2`` must be a multiple of ``f1`` composed with some
nonsingular 3x3 matrix G acting on the variable row vector as
``x -> x @ G.T``.  :func:`detpoly_equiv_test` searches for such a G
numerically and never converts a failed search into a verdict of
inequivalence.

A polynomial is one coefficient grid, ``grid[p, q]`` the coefficient of
x^p y^q z^(n-p-q).  :func:`det_grid` evaluates determinants of slice
combinations on roots of unity, :func:`det_coefficients` is its exact DFT
inverse; they serve ``det_poly`` for n >= 7, the pencil minors and the
equivalence test.  For n <= 6 ``det_poly`` expands minors exactly with
:func:`_times_linear`, so the structural zeros of sparse tensors stay exact
zeros; :func:`substitute` runs on the same kernel.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .ket import _format_coeff
from .tensor import (as_tensor, complex_from_pairs, complex_to_pairs, int_from_json, ldexp,
                     least_squares, unit_exponent)
from .transforms import is_nonsingular, random_nonsingular

ZERO_POLY_TOL = 1e-10
DEFAULT_EQUIV_TOL = 1e-8
DEFAULT_RESTARTS = 64


def monomials(degree: int):
    """Exponent triples (p, q, r) with p+q+r = degree, lex order x > y > z."""
    out = []
    for p in range(degree, -1, -1):
        for q in range(degree - p, -1, -1):
            out.append((p, q, degree - p - q))
    return out


class HomPoly3:
    """Homogeneous complex polynomial in (x, y, z) of a given degree d.

    One ``(d+1, d+1)`` complex grid holds it, in the layout of
    :func:`det_coefficients`: ``grid[p, q]`` is the coefficient of
    x^p y^q z^(d-p-q), and entries with p + q > d are zero.  ``coeffs`` reads
    it as a map from exponent triples to the nonzero coefficients, in lex
    order.  Polynomials add and scale; :func:`_times_linear` multiplies.
    """

    __slots__ = ("degree", "grid")

    def __init__(self, degree: int, coeffs=None):
        self.degree = int(degree)
        if self.degree < 0:
            raise ValueError(f"degree must be non-negative, got {self.degree}")
        self.grid = np.zeros((self.degree + 1, self.degree + 1), dtype=complex)
        for exp, c in (coeffs or {}).items():
            naturals = all(isinstance(e, (int, np.integer)) and e >= 0 for e in exp)
            if not (len(exp) == 3 and naturals and sum(exp) == self.degree):
                raise ValueError(f"exponent {exp} is not three non-negative integers "
                                 f"summing to {self.degree}")
            self.grid[exp[0], exp[1]] = c

    @classmethod
    def _from_grid(cls, grid) -> "HomPoly3":
        f = cls.__new__(cls)
        f.degree, f.grid = grid.shape[-1] - 1, grid
        return f

    @property
    def coeffs(self) -> dict:
        return {exp: complex(c) for exp, c in zip(monomials(self.degree), self.coeff_vector())
                if c != 0}

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot add polynomials of different degree")
        return HomPoly3._from_grid(self.grid + other.grid)

    def __mul__(self, scalar):
        return HomPoly3._from_grid(self.grid * complex(scalar))

    __rmul__ = __mul__

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.grid)))

    def coeff_vector(self) -> np.ndarray:
        """Dense coefficient vector over the degree's monomials in lex order."""
        return np.array([self.grid[p, q] for p, q, _ in monomials(self.degree)], dtype=complex)

    def __call__(self, x, y, z):
        return sum((c * x**p * y**q * z**r for (p, q, r), c in self.coeffs.items()), 0j)

    def leading(self, rel_tol: float = 1e-12):
        """Lexicographically greatest monomial with a non-negligible coefficient."""
        scale = self.max_abs_coeff()
        return next((exp for exp, c in self.coeffs.items() if abs(c) > rel_tol * scale), None)

    def __repr__(self):
        return f"HomPoly3({self.degree}, {self.coeffs!r})"

    def to_text(self) -> str:
        """Render as e.g. ``x^2*y + 2*x*y*z - (0.5+1i)*z^3`` in lex order."""
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for exp, c in coeffs.items():
            vars_ = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", exp) if e > 0)
            cs = _format_coeff(c, None)
            if vars_:
                body = vars_ if cs == "" else ("-" + vars_ if cs == "-" else f"{cs}*{vars_}")
            else:
                body = cs if cs not in ("", "-") else ("1" if cs == "" else "-1")
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def to_json(self) -> str:
        coeffs = self.coeffs
        pairs = complex_to_pairs(list(coeffs.values()))
        terms = [{"exp": list(exp), "coef": c} for exp, c in zip(coeffs, pairs)]
        return json.dumps({"degree": self.degree, "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "HomPoly3":
        doc = json.loads(text)
        try:
            terms, degree = doc["terms"], int_from_json(doc["degree"])
            coefs = complex_from_pairs([t["coef"] for t in terms])
            return cls(degree, {tuple(t["exp"]): c for t, c in zip(terms, coefs)})
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc}") from exc


def _times_linear(grids, forms) -> np.ndarray:
    """Every grid of a stack times the linear form a*x + b*y + c*z in the
    same place of ``forms``: shapes (..., d+1, d+1) and (..., 3) give
    (..., d+2, d+2).  Each product adds the x, y and z terms in that order."""
    a, b, c = (forms[..., i, None, None] for i in range(3))
    out = np.zeros(grids.shape[:-2] + (grids.shape[-1] + 1,) * 2, dtype=complex)
    out[..., 1:, :-1] = a * grids
    out[..., :-1, 1:] += b * grids
    out[..., :-1, :-1] += c * grids
    return out


# --- determinant polynomial --------------------------------------------------


def det_poly(t) -> HomPoly3:
    """Determinant polynomial det(x*A + y*B + z*C) of an n x n x 3 tensor.

    For n <= 6 an exact Laplace expansion on coefficient grids
    (:func:`_det_poly_laplace`); for larger n the coefficients come from
    :func:`det_coefficients`.  ArithmeticError if a coefficient overflows.
    """
    t = _square_slices(t)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        f = _det_poly_laplace(t) if t.shape[0] <= 6 else _det_poly_interpolate(t)
    if not np.all(np.isfinite(f.grid)):
        raise ArithmeticError("determinant polynomial overflows at this scale of the tensor")
    return f


def _square_slices(t) -> np.ndarray:
    """``t`` as an n x n x 3 tensor; ValueError for any other shape."""
    t = as_tensor(t)
    n1, n2, n3 = t.shape
    if n1 != n2:
        raise ValueError(f"slices must be square, got {n1} x {n2}")
    if n3 != 3:
        raise ValueError(f"expected 3 slices in mode 3, got {n3}")
    return t


def _det_poly_laplace(t) -> HomPoly3:
    """Laplace expansion along the first row, bottom up: level k holds the
    minors on the last k rows, one per k-column subset, and costs one
    batched :func:`_times_linear` call over its k expansion terms."""
    n = t.shape[0]
    minors = np.ones((1, 1, 1), dtype=complex)
    for k, (sub, cols, signs) in enumerate(_laplace_plan(n), start=1):
        minors = _times_linear(minors[sub], signs * t[n - k][cols]).sum(axis=0)
    return HomPoly3._from_grid(minors[0])


@functools.cache
def _laplace_plan(n: int):
    """Index plan of :func:`_det_poly_laplace`, made once per n; read-only.
    Level k lists the k-column subsets in lex order; row ``pos`` of its index
    arrays holds, per subset, the place in level k-1 of the subset without
    its pos-th column, and that column, whose sign is (-1)^pos."""
    plan, places = [], {(): 0}
    for k in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), k))
        level = (np.array([[places[s[:pos] + s[pos + 1:]] for s in subsets] for pos in range(k)]),
                 np.array([[s[pos] for s in subsets] for pos in range(k)]),
                 (-1.0) ** np.arange(k)[:, None, None])
        for a in level:
            a.setflags(write=False)
        plan.append(level)
        places = {s: i for i, s in enumerate(subsets)}
    return tuple(plan)


def _det_poly_interpolate(t) -> HomPoly3:
    n = t.shape[0]
    grid = det_coefficients(*t.transpose(2, 0, 1))
    p, q = np.indices(grid.shape)
    if np.any(np.abs(grid[p + q > n]) > 1e-8 * max(np.max(np.abs(grid)), 1.0)):
        raise ArithmeticError("determinant interpolation produced spurious high-order terms")
    grid[p + q > n] = 0
    return HomPoly3._from_grid(grid)


def det_grid(*slices) -> np.ndarray:
    """det(x_1*S_1 + ... + x_(k-1)*S_(k-1) + S_k) on a roots-of-unity grid.

    Every slice has shape ``(..., n, n)``; leading axes are batch axes.
    Entry ``[..., a_1, ..., a_(k-1)]`` of the result is the determinant at
    x_i = w^(a_i), w = exp(2*pi*i/(n+1)), a_i = 0..n.  All points and batch
    entries go through one ``np.linalg.det`` call.
    """
    *weighted, last = (np.asarray(s, dtype=complex) for s in slices)
    k = len(weighted)
    m = last.shape[-1] + 1
    mats = np.einsum("gi,...iab->...gab", _grid_points(m, k), np.stack(weighted, axis=-3))
    values = np.linalg.det(mats + last[..., None, :, :])
    return values.reshape(last.shape[:-2] + (m,) * k)


@functools.cache
def _grid_points(m: int, k: int) -> np.ndarray:
    """The m^k points of :func:`det_grid`, made once per (m, k); read-only,
    since every call shares it."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    points = np.stack(np.meshgrid(*[roots] * k, indexing="ij"), axis=-1).reshape(-1, k)
    points.setflags(write=False)
    return points


def det_coefficients(*slices) -> np.ndarray:
    """Coefficients of det(x_1*S_1 + ... + x_(k-1)*S_(k-1) + S_k).

    Entry ``[..., p_1, ..., p_(k-1)]`` is the coefficient of
    x_1^p_1 ... x_(k-1)^p_(k-1), p_i = 0..n.  :func:`det_grid` is a scaled
    inverse DFT of them, so the forward FFT over the grid size inverts it.
    """
    values = det_grid(*slices)
    axes = tuple(range(-(len(slices) - 1), 0))
    return np.fft.fftn(values, axes=axes) / values.shape[-1] ** len(axes)


# --- substitution and normalization ------------------------------------------


def substitute(f: HomPoly3, g) -> HomPoly3:
    """Polynomial f evaluated at the substituted variables x -> x @ G.T.

    Row i of G gives the linear form replacing variable i, so the worked
    substitution x -> (x-y+z)/2, ... is the matrix with rows
    (1,-1,1)/2, (1,1,-1)/2, (-1,1,1)/2.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (3, 3):
        raise ValueError("substitution matrix must be 3x3")
    p, q = np.nonzero(f.grid)
    terms = f.grid[p, q, None, None]
    for step in range(f.degree):
        # x^p y^q z^r takes the row of G for x in its first p steps, then y, then z
        terms = _times_linear(terms, g[(p <= step) + (p + q <= step).astype(int)])
    return HomPoly3._from_grid(terms.sum(axis=0))


def monic_normalize(f: HomPoly3):
    """Divide by the coefficient of the lex-greatest nonzero monomial.

    Returns the normalized polynomial and the leading coefficient removed.
    """
    lead = f.leading()
    if lead is None:
        raise ValueError("cannot normalize the zero polynomial")
    c = complex(f.grid[lead[:2]])
    return f * (1.0 / c), c


# --- equivalence test ---------------------------------------------------------


@dataclass
class EquivVerdict:
    """Outcome of the determinant-polynomial necessary-condition test.

    ``kind`` is one of ``CertifiedObstruction`` (exactly one determinant
    polynomial vanishes identically, so no substitution can exist),
    ``CandidateFound`` (a nonsingular G was found with residual below
    tolerance) or ``NoCandidateFound`` (search failed; explicitly
    inconclusive, never a proof of inequivalence).  ``residual`` is the
    relative squared distance |c*(f1 o G) - f2|^2 / |f2|^2 of f2 from the
    best multiple of f1 o G, in [0, 1]; for ``NoCandidateFound`` it is the
    best one found.
    """

    kind: str
    residual: float | None = None
    g: np.ndarray | None = None
    detail: str = ""

    def to_json(self) -> str:
        doc = {"kind": self.kind, "detail": self.detail}
        if self.residual is not None:
            doc["residual"] = self.residual
        if self.g is not None:
            doc["g"] = complex_to_pairs(self.g)
        return json.dumps(doc, sort_keys=True)


def detpoly_equiv_test(t1, t2, restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                       tol: float = DEFAULT_EQUIV_TOL) -> EquivVerdict:
    """Necessary-condition equivalence test on determinant polynomials.

    One measure serves search and verdict: the relative squared distance
    |c*(f1 o G) - f2|^2 / |f2|^2 of f2 from the best multiple of f1 o G, in
    [0, 1], on the nodes of :func:`_node_values`.  A seeded multi-start
    Levenberg-Marquardt search minimises it over complex 3x3 matrices G;
    restart 0 starts from the identity, so self-comparison returns G = I
    with residual 0.  ``CandidateFound`` needs a residual below ``tol``; the
    default 1e-8 is a relative coefficient distance of 1e-4.  Each input is
    first scaled by an exact power of two (``tensor.unit_exponent``); a
    determinant polynomial is zero when its largest coefficient
    (:func:`det_coefficients`) at that scale is at most ``ZERO_POLY_TOL``.
    """
    t1, t2 = (ldexp(t, -unit_exponent(t)) for t in (_square_slices(t1), _square_slices(t2)))
    if t1.shape != t2.shape:
        raise ValueError("tensors must share dims")
    zero1, zero2 = (np.max(np.abs(det_coefficients(*t.transpose(2, 0, 1)))) <= ZERO_POLY_TOL
                    for t in (t1, t2))
    if zero1 and zero2:
        # the substitution equation is vacuously solvable, e.g. by the identity
        return EquivVerdict("CandidateFound", 0.0, np.eye(3, dtype=complex),
                            "both determinant polynomials are identically zero")
    if zero1 != zero2:
        which = "first" if zero1 else "second"
        return EquivVerdict("CertifiedObstruction", detail=f"only the {which} "
                            "determinant polynomial is identically zero")

    w1, w2 = (_node_values(t, np.eye(3)) for t in (t1, t2))
    best_res, best_g = np.inf, None
    for r in range(max(1, restarts)):
        # even restarts search G with f1 o G ~ f2, odd restarts the reverse
        # equation, whose solution inverts to a forward one, in other basins
        forward = r % 2 == 0
        g0 = (np.eye(3, dtype=complex) if r <= 1 else
              random_nonsingular(3, np.random.SeedSequence([seed, r]), cond_bound=100.0))
        t, target = (t1, w2) if forward else (t2, w1)
        x0 = np.concatenate([g0.real.ravel(), g0.imag.ravel()])
        sol = least_squares(lambda x: _value_residual(t, x, target, x0), x0, max_nfev=4000)
        g = (sol.x[:9] + 1j * sol.x[9:]).reshape(3, 3)
        if not is_nonsingular(g):
            continue
        if not forward:
            g = np.linalg.inv(g)
        diff = _best_multiple(_node_values(t1, g), w2)
        res = float(np.vdot(diff, diff).real / np.vdot(w2, w2).real)
        if res < best_res:
            best_res, best_g = res, g
        if best_res < tol:
            return EquivVerdict("CandidateFound", best_res, best_g, "substitution matrix found")
    return EquivVerdict("NoCandidateFound", best_res, None,
                        "no substitution found; test inconclusive")


def _node_values(t, g) -> np.ndarray:
    """det_poly(t) o G = det_poly(apply_type2(t, G)) on the nodes (1, y, z).

    y and z run over the (n+1)-th roots of unity, y the slower index.  On
    these nodes values and coefficients are related by a unitary (scaled
    DFT) map, so value-space least squares is coefficient-space least squares.
    """
    mixed = np.einsum("abi,ij->jab", t, g)
    return det_grid(mixed[1], mixed[2], mixed[0]).ravel()


def _best_multiple(v, target) -> np.ndarray:
    """c*v - target for the c of least norm, -target for a vanishing v; all
    multiples of v score alike, so G -> cG leaves the residual as it is."""
    vv = np.vdot(v, v).real
    return np.vdot(v, target) / vv * v - target if vv >= 1e-300 else -target


def _value_residual(t, x, target, x0) -> np.ndarray:
    """:func:`_best_multiple` of det_poly(t) o G against ``target`` on the
    nodes (real, then imaginary parts), then two gauge rows that fix |G| and
    the phase of <G0, G> at the start G0: they take the null space of
    G -> cG out of the Jacobian, which finds more related n = 4 pairs."""
    g, g0 = x[:9] + 1j * x[9:], x0[:9] + 1j * x0[9:]
    r = _best_multiple(_node_values(t, g.reshape(3, 3)), target)
    gauge = np.array([np.dot(x, x) - np.dot(x0, x0), np.vdot(g0, g).imag])
    return np.concatenate([r.real, r.imag, np.linalg.norm(target) / np.dot(x0, x0) * gauge])
