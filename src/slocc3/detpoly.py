"""Determinant polynomials of n x n x 3 tensors and the substitution test.

For a tensor with mode-3 slices A, B, C the determinant polynomial is
``f(x, y, z) = det(x*A + y*B + z*C)``, homogeneous of degree n.  Two tensors
related by slice transformations have determinant polynomials related by a
linear substitution of variables, which yields a necessary condition for
equivalence: after monic normalization, ``f2`` must equal ``f1`` composed
with some nonsingular 3x3 matrix G acting on the variable row vector as
``x -> x @ G.T``.  :func:`detpoly_equiv_test` searches for such a G
numerically and never converts a failed search into a verdict of
inequivalence.

One kernel evaluates determinants of slice combinations: :func:`det_grid`
on a roots-of-unity grid, :func:`det_coefficients` its exact DFT inverse.
It serves ``det_poly`` for n >= 7, the pencil minors and the equivalence
residual.  For n <= 6 ``det_poly`` expands cofactors exactly, so the
structural zeros of sparse tensors stay exact zeros.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ket import _format_real
from .tensor import as_tensor, complex_from_pairs, complex_to_pairs, least_squares
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
    """Homogeneous complex polynomial in (x, y, z), monomial-coefficient map.

    Coefficients are stored sparsely; exact zeros are dropped.  The degree is
    carried explicitly so the zero polynomial of any degree is representable.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs=None):
        self.degree = int(degree)
        self.coeffs = {}
        if coeffs:
            for exp, c in coeffs.items():
                if sum(exp) != self.degree:
                    raise ValueError(f"exponent {exp} does not sum to {self.degree}")
                c = complex(c)
                if c != 0:
                    self.coeffs[tuple(exp)] = c

    @classmethod
    def constant(cls, value):
        return cls(0, {(0, 0, 0): value})

    @classmethod
    def linear(cls, cx, cy, cz):
        return cls(1, {(1, 0, 0): cx, (0, 1, 0): cy, (0, 0, 1): cz})

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot add polynomials of different degree")
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0.0) + c
        return HomPoly3(self.degree, out)

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, other):
        if isinstance(other, HomPoly3):
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    out[exp] = out.get(exp, 0.0) + c1 * c2
            return HomPoly3(self.degree + other.degree, out)
        out = {exp: c * other for exp, c in self.coeffs.items()}
        return HomPoly3(self.degree, out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def coeff_vector(self) -> np.ndarray:
        """Dense coefficient vector over the degree's monomials in lex order."""
        return np.array(
            [self.coeffs.get(exp, 0.0) for exp in monomials(self.degree)],
            dtype=complex,
        )

    @classmethod
    def from_vector(cls, degree: int, vec) -> "HomPoly3":
        return cls(degree, dict(zip(monomials(degree), vec)))

    def __call__(self, x, y, z):
        total = 0.0 + 0.0j
        for (p, q, r), c in self.coeffs.items():
            total += c * (x**p) * (y**q) * (z**r)
        return total

    def leading(self, rel_tol: float = 1e-12):
        """Lexicographically greatest monomial with a non-negligible coefficient."""
        scale = self.max_abs_coeff()
        if scale == 0.0:
            return None
        for exp in sorted(self.coeffs, reverse=True):
            if abs(self.coeffs[exp]) > rel_tol * scale:
                return exp
        return None

    def __repr__(self):
        return f"HomPoly3({self.degree}, {self.coeffs!r})"

    def to_text(self) -> str:
        """Render as e.g. ``x^2*y + 2*x*y*z - (0.5+1i)*z^3`` in lex order."""
        if not self.coeffs:
            return "0"
        parts = []
        for exp in sorted(self.coeffs, reverse=True):
            c = self.coeffs[exp]
            vars_ = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip("xyz", exp)
                if e > 0
            )
            cs = _coeff_str(c)
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
        exps = sorted(self.coeffs, reverse=True)
        pairs = complex_to_pairs([self.coeffs[exp] for exp in exps])
        terms = [{"exp": list(exp), "coef": c} for exp, c in zip(exps, pairs)]
        return json.dumps({"degree": self.degree, "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "HomPoly3":
        doc = json.loads(text)
        terms = doc["terms"]
        coefs = complex_from_pairs([t["coef"] for t in terms])
        return cls(int(doc["degree"]), {tuple(t["exp"]): c for t, c in zip(terms, coefs)})


def _coeff_str(c: complex) -> str:
    re, im = c.real, c.imag
    if im == 0.0:
        if re == 1.0:
            return ""
        if re == -1.0:
            return "-"
        return _format_real(re, None)
    if re == 0.0:
        return f"{_format_real(im, None)}i"
    sign = "+" if im >= 0 else "-"
    return f"({_format_real(re, None)}{sign}{_format_real(abs(im), None)}i)"


# --- determinant polynomial --------------------------------------------------


def det_poly(t) -> HomPoly3:
    """Determinant polynomial det(x*A + y*B + z*C) of an n x n x 3 tensor.

    Exact cofactor expansion over polynomial entries for n <= 6; for larger n
    the coefficients come from :func:`det_coefficients`.
    """
    t = as_tensor(t)
    n1, n2, n3 = t.shape
    if n1 != n2:
        raise ValueError(f"slices must be square, got {n1} x {n2}")
    if n3 != 3:
        raise ValueError(f"expected 3 slices in mode 3, got {n3}")
    if n1 <= 6:
        return _det_poly_symbolic(t)
    return _det_poly_interpolate(t)


def _det_poly_symbolic(t) -> HomPoly3:
    n = t.shape[0]
    entries = [
        [HomPoly3.linear(t[i, j, 0], t[i, j, 1], t[i, j, 2]) for j in range(n)]
        for i in range(n)
    ]
    cache = {}

    def minor(rows_start: int, cols: tuple) -> HomPoly3:
        # determinant of the submatrix on rows rows_start.. and the given columns
        if len(cols) == 1:
            return entries[rows_start][cols[0]]
        key = (rows_start, cols)
        if key in cache:
            return cache[key]
        acc = HomPoly3(len(cols), {})
        sign = 1.0
        for pos, c in enumerate(cols):
            rest = cols[:pos] + cols[pos + 1 :]
            term = entries[rows_start][c] * minor(rows_start + 1, rest)
            acc = acc + term * sign
            sign = -sign
        cache[key] = acc
        return acc

    return minor(0, tuple(range(n)))


def _det_poly_interpolate(t) -> HomPoly3:
    n = t.shape[0]
    grid = det_coefficients(*t.transpose(2, 0, 1))
    p, q = np.indices(grid.shape)
    if np.any(np.abs(grid[p + q > n]) > 1e-8 * max(np.max(np.abs(grid)), 1.0)):
        raise ArithmeticError(
            "determinant interpolation produced spurious high-order terms"
        )
    return HomPoly3(n, {(a, b, c): grid[a, b] for a, b, c in monomials(n)})


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
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    points = np.stack(np.meshgrid(*[roots] * k, indexing="ij"), axis=-1).reshape(-1, k)
    mats = np.einsum("gi,...iab->...gab", points, np.stack(weighted, axis=-3))
    values = np.linalg.det(mats + last[..., None, :, :])
    return values.reshape(last.shape[:-2] + (m,) * k)


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
    forms = [HomPoly3.linear(*g[i]) for i in range(3)]
    # cache powers of each linear form up to the needed exponent
    powers = [[HomPoly3.constant(1.0)] for _ in range(3)]
    for var in range(3):
        need = max((exp[var] for exp in f.coeffs), default=0)
        for _ in range(need):
            powers[var].append(powers[var][-1] * forms[var])
    acc = HomPoly3(f.degree, {})
    for (p, q, r), c in f.coeffs.items():
        term = powers[0][p] * powers[1][q] * powers[2][r]
        acc = acc + term * c
    return acc


def monic_normalize(f: HomPoly3):
    """Divide by the coefficient of the lex-greatest nonzero monomial.

    Returns the normalized polynomial and the leading coefficient removed.
    """
    lead = f.leading()
    if lead is None:
        raise ValueError("cannot normalize the zero polynomial")
    c = f.coeffs[lead]
    return f * (1.0 / c), c


# --- equivalence test ---------------------------------------------------------


@dataclass
class EquivVerdict:
    """Outcome of the determinant-polynomial necessary-condition test.

    ``kind`` is one of ``CertifiedObstruction`` (exactly one determinant
    polynomial vanishes identically, so no substitution can exist),
    ``CandidateFound`` (a nonsingular G was found with residual below
    tolerance) or ``NoCandidateFound`` (search failed; explicitly
    inconclusive, never a proof of inequivalence).
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


def detpoly_equiv_test(
    t1,
    t2,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    tol: float = DEFAULT_EQUIV_TOL,
) -> EquivVerdict:
    """Necessary-condition equivalence test on determinant polynomials.

    Runs a seeded multi-start local minimization of the squared coefficient
    distance between monic(f1 composed with G) and monic(f2) over complex
    3x3 matrices G (18 real parameters).  Restart 0 starts from the identity
    so self-comparison returns immediately with G = I and residual 0.  Each
    input is first divided by its largest entry modulus; monic normalization
    makes the verdict independent of that scale.
    """
    t1 = _unit_scale(as_tensor(t1))
    t2 = _unit_scale(as_tensor(t2))
    if t1.shape != t2.shape:
        raise ValueError("tensors must share dims")
    f1 = det_poly(t1)
    f2 = det_poly(t2)

    zero1 = f1.max_abs_coeff() <= ZERO_POLY_TOL
    zero2 = f2.max_abs_coeff() <= ZERO_POLY_TOL
    if zero1 and zero2:
        # both determinant polynomials vanish: the substitution equation is
        # vacuously solvable, e.g. by the identity
        return EquivVerdict(
            "CandidateFound", 0.0, np.eye(3, dtype=complex),
            "both determinant polynomials are identically zero",
        )
    if zero1 != zero2:
        which = "first" if zero1 else "second"
        return EquivVerdict(
            "CertifiedObstruction",
            detail=f"only the {which} determinant polynomial is identically zero",
        )

    monic1, lead1 = monic_normalize(f1)
    monic2, lead2 = monic_normalize(f2)
    target_lead = monic2.leading()
    target_vec = monic2.coeff_vector()
    w1 = _node_values(t1, np.eye(3)) / lead1
    w2 = _node_values(t2, np.eye(3)) / lead2

    def contract_residual(g):
        # Normalize the composed polynomial at the target's leading monomial:
        # near a solution that IS its lex-leading term, while optimizer noise
        # on lex-greater monomials that should vanish would otherwise be
        # mistaken for a leading coefficient.
        sub = substitute(monic1, g)
        scale = sub.max_abs_coeff()
        lead_c = sub.coeffs.get(target_lead, 0.0)
        if scale == 0.0:
            return np.inf
        if abs(lead_c) <= 1e-12 * scale:
            lead = sub.leading()
            lead_c = sub.coeffs[lead]
        diff = (sub * (1.0 / lead_c)).coeff_vector() - target_vec
        return float(np.vdot(diff, diff).real)

    best_res = np.inf
    best_g = None
    for r in range(max(1, restarts)):
        # even restarts search G with f1 o G ~ f2, odd restarts search the
        # reverse equation whose solution inverts to a forward one; the two
        # landscapes have different basins
        forward = r % 2 == 0
        if r <= 1:
            g0 = np.eye(3, dtype=complex)
        else:
            g0 = random_nonsingular(3, np.random.SeedSequence([seed, r]), cond_bound=100.0)
        x0 = np.concatenate([g0.real.ravel(), g0.imag.ravel()])
        if forward:
            residual = _value_residual(t1, lead1, w2, x0)
        else:
            residual = _value_residual(t2, lead2, w1, x0)
        # not lm: from identical residuals, scipy's lm steps differ between
        # processes when the Jacobian is ill-conditioned, as for forms with
        # a continuous stabilizer (x*y*z, every quadric)
        sol = least_squares(residual, x0, method="trf", xtol=1e-15, ftol=1e-15,
                            gtol=1e-15, max_nfev=4000)
        g = (sol.x[:9] + 1j * sol.x[9:]).reshape(3, 3)
        if not is_nonsingular(g):
            continue
        if not forward:
            g = np.linalg.inv(g)
        res = contract_residual(g)
        if res < best_res:
            best_res = res
            best_g = g
        if best_res < tol:
            break

    if best_res < tol:
        return EquivVerdict("CandidateFound", best_res, best_g,
                            "substitution matrix found")
    return EquivVerdict("NoCandidateFound", best_res, None,
                        "no substitution found; test inconclusive")


def _unit_scale(t) -> np.ndarray:
    """The tensor divided by its largest entry modulus (zero stays zero)."""
    peak = np.max(np.abs(t))
    return t / peak if peak > 0 else t


def _node_values(t, g) -> np.ndarray:
    """det_poly(t) o G = det_poly(apply_type2(t, G)) on the nodes (1, y, z).

    y and z run over the (n+1)-th roots of unity, y the slower index.  On
    these nodes values and coefficients are related by a unitary (scaled
    DFT) map, so value-space least squares is coefficient-space least squares.
    """
    mixed = np.einsum("abi,ij->jab", t, g)
    return det_grid(mixed[1], mixed[2], mixed[0]).ravel()


def _value_residual(t, lead, target, x0):
    """Residual of f o G against ``target`` on the nodes, f = det_poly(t) / lead.

    G is packed as 18 reals (real parts, then imaginary parts).  The best
    multiple of f o G is compared, so G -> cG leaves the residual unchanged;
    two gauge rows fix |G| and the phase of <G0, G> at the start G0, which
    takes that null space out of the Jacobian and shortens the search.
    """
    g0 = x0[:9] + 1j * x0[9:]
    norm0 = float(np.dot(x0, x0))
    weight = np.linalg.norm(target) / norm0

    def residual(x):
        g = x[:9] + 1j * x[9:]
        v = _node_values(t, g.reshape(3, 3)) / lead
        vv = np.vdot(v, v).real
        r = np.vdot(v, target) / vv * v - target if vv >= 1e-300 else -target
        gauge = weight * np.array([np.dot(x, x) - norm0, np.vdot(g0, g).imag])
        return np.concatenate([r.real, r.imag, gauge])

    return residual
