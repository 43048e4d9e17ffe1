"""Parse and print bra-ket state expressions such as ``|000>+|111>``.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor factor*            adjacency multiplies; kets combine
                                        as tensor product, |0>|1> == |0,1>
    factor := ('-'|'+') factor | atom ('*' atom | '/' atom)*
    atom   := number | 'i' | 'sqrt' '(' expr ')' | '(' expr ')' | ket
    ket    := '|' idx (',' idx)* '>'

A ket written with contiguous digits and no commas, e.g. ``|012>``, means
one index per digit and is accepted only when every party dimension is at
most 10.  Coefficient arithmetic supports + - * / sqrt() and the imaginary
unit ``i``.  Normalization is not applied unless requested.

The lexer is one regular expression, one alternative per token kind, in one
``finditer`` pass.  Every parsed value is a list of (coefficient, index tuple)
terms whose index tuples concatenate under multiplication; a number is the
single term with the empty index tuple ``()``.
"""

from __future__ import annotations

import cmath
import re

import numpy as np


class KetSyntaxError(ValueError):
    """Raised for malformed ket expressions; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# --- lexer -----------------------------------------------------------------

_TOKEN = re.compile(r"""\s*(?:
      ([-+*/(),])                   # 1: a symbol
    | (\|[^>]*>)                    # 2: a closed ket
    | (\|)                          # 3: a '|' with no '>' after it
    | ([\d.]+(?:[eE][+-]?\d+)?)     # 4: a number
    | ([^\W\d_]+)                   # 5: a word
    | (\S)                          # 6: any other character
    )""", re.VERBOSE)


def _tokenize(text: str):
    """(kind, value, pos) tokens; a ket's value is ("indices", tuple) or ("digits", str)."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        tok, pos = m[kind], m.start(kind)
        if kind == 1 or tok in ("i", "sqrt"):
            tokens.append((tok, tok, pos))
        elif kind == 2:
            body = tok[1:-1].replace(" ", "")
            parts = body.split(",")
            if not all(map(str.isdecimal, parts)):
                raise KetSyntaxError(f"bad ket indices '|{body}>'" if body else "empty ket", pos)
            value = ("indices", tuple(map(int, parts))) if len(parts) > 1 else ("digits", body)
            tokens.append(("ket", value, pos))
        elif kind == 4:
            try:
                tokens.append(("num", float(tok), pos))
            except ValueError:
                raise KetSyntaxError(f"bad number '{tok}'", pos) from None
        else:
            what = "unknown name" if kind == 5 else "unexpected character"
            raise KetSyntaxError("unterminated ket" if kind == 3 else f"{what} '{tok}'", pos)
    return tokens


# --- parser ----------------------------------------------------------------


def _scalar(v) -> bool:
    """Whether a value is a number; every ket term carries indices."""
    return not v[0][1]


def _mul(a, b):
    return [(ca * cb, ia + ib) for ca, ia in a for cb, ib in b]


def _product(value, op, rhs, pos):
    """value * rhs or value / rhs, the operator at ``pos``."""
    if op == "*":
        return _mul(value, rhs)
    if not _scalar(rhs):
        raise KetSyntaxError("cannot divide by a ket expression", pos)
    if rhs[0][0] == 0:
        raise KetSyntaxError("division by zero", pos)
    return [(c / rhs[0][0], idx) for c, idx in value]


# Parentheses, those of sqrt(...) included, nest at most this deep.  A level
# costs two interpreter frames (parse_expr and parse_atom), so the deepest
# ket parses well inside the default recursion limit of 1000 from any
# ordinary call depth, and the limit and the position an over-deep ket
# reports do not depend on the caller.
MAX_NESTING = 250


class _Parser:
    def __init__(self, tokens, dims):
        self.tokens = tokens  # ends with the sentinel (None, None, -1)
        self.wide = any(d > 10 for d in dims)
        self.k = 0
        self.depth = 0  # parentheses open at the current token

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def peek(self):
        return self.tokens[self.k][0]

    def parse_expr(self):
        """expr, its terms and their factors, in loops: only a parenthesis
        recurses, through :meth:`parse_atom`."""
        value = None
        while True:
            term = None
            while term is None or self.peek() in ("num", "i", "sqrt", "(", "ket"):
                # a factor: signs, then atoms joined by '*' and '/', signs outermost
                negate = 0
                while self.peek() in ("+", "-"):
                    negate += self.next()[0] == "-"
                factor = self.parse_atom()
                while self.peek() in ("*", "/"):
                    op, _, at = self.next()
                    factor = _product(factor, op, self.parse_atom(), at)
                for _ in range(negate):
                    factor = _mul([(-1.0 + 0.0j, ())], factor)
                term = factor if term is None else _mul(term, factor)
            if value is None:
                value = term
            else:
                rhs = [(sign * c, idx) for c, idx in term]
                if _scalar(value) != _scalar(rhs):
                    raise KetSyntaxError("cannot add a number and a ket expression", pos)
                # number + number stays one term
                value = [(value[0][0] + rhs[0][0], ())] if _scalar(value) else value + rhs
            if self.peek() not in ("+", "-"):
                return value
            op, _, pos = self.next()
            sign = 1 if op == "+" else -1

    def parse_atom(self):
        kind, val, pos = self.next()
        if kind == "ket":
            form, body = val
            if form == "indices" or len(body) == 1 or not self.wide:
                return [(1.0 + 0.0j, body if form == "indices" else tuple(map(int, body)))]
            raise KetSyntaxError(f"ket '|{body}>' is ambiguous when a dimension exceeds 10; "
                                 "separate indices with commas", pos)
        if kind == "num":
            return [(complex(val), ())]
        if kind == "i":
            return [(1j, ())]
        root = kind == "sqrt"
        if root:  # its argument is the parenthesized expression that must follow
            kind, _, at = self.next()
            if kind != "(":
                raise KetSyntaxError("expected '('", at)
        else:
            at = pos
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise KetSyntaxError("expression nested too deeply", at)
            inner = self.parse_expr()
            kind, _, end = self.next()
            if kind != ")":
                raise KetSyntaxError("expected ')'", end)
            self.depth -= 1
            if not root:
                return inner
            if not _scalar(inner):
                raise KetSyntaxError("sqrt of a ket expression", pos)
            return [(cmath.sqrt(inner[0][0]), ())]
        raise KetSyntaxError("expected a number, coefficient or ket", pos)


def parse_ket(text: str, dims, normalize: bool = False) -> np.ndarray:
    """Parse a ket expression into its coefficient tensor for the given dims.

    Like terms are combined.  The all-zero expression ``0`` parses to the
    zero tensor; any other purely numeric expression is an error.  With
    ``normalize=True`` the result is divided by its Euclidean norm.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"bad dims {dims}")
    tokens = _tokenize(text)
    if not tokens:
        raise KetSyntaxError("empty expression", 0)
    tokens.append((None, None, -1))
    parser = _Parser(tokens, dims)
    value = parser.parse_expr()
    if parser.k < len(tokens) - 1:
        raise KetSyntaxError("unexpected trailing input", tokens[parser.k][2])

    if _scalar(value):
        if value[0][0] == 0:
            return np.zeros(dims, dtype=complex)
        raise KetSyntaxError("expression contains no kets", 0)

    out = np.zeros(dims, dtype=complex)
    for coeff, indices in value:
        if len(indices) != len(dims):
            raise KetSyntaxError(f"term has {len(indices)} party indices, expected {len(dims)}", 0)
        for idx, d in zip(indices, dims):
            if idx >= d:
                raise KetSyntaxError(f"index {idx} exceeds dimension {d}", 0)
        out[tuple(indices)] += coeff
    if not np.all(np.isfinite(out)):
        raise KetSyntaxError("coefficients overflowed to non-finite values", 0)
    if normalize:
        norm = np.linalg.norm(out)
        if norm == 0:
            raise ValueError("cannot normalize the zero state")
        out = out / norm
    return out


# --- printer ---------------------------------------------------------------


def _format_real(x: float, precision) -> str:
    if precision is None:
        if x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return repr(x)
    return f"{x:.{precision}g}"


def _format_coeff(c: complex, precision) -> str:
    """Render a coefficient, empty for 1 and '-' for -1; complex values are
    parenthesized so the output re-parses unambiguously."""
    re, im = c.real, c.imag
    if im == 0.0:
        if re == 1.0:
            return ""
        if re == -1.0:
            return "-"
        return _format_real(re, precision)
    if re == 0.0:
        if im == 1.0:
            return "i"
        if im == -1.0:
            return "-i"
        return f"{_format_real(im, precision)}i"
    sign = "+" if im >= 0 else "-"
    return f"({_format_real(re, precision)}{sign}{_format_real(abs(im), precision)}i)"


def print_ket(t, precision: int | None = None) -> str:
    """Canonical ket string: terms in lexicographic index order, zero
    coefficients omitted, unit coefficients elided.

    With the default full precision, ``parse_ket(print_ket(t), t.shape)``
    reproduces ``t`` exactly.
    """
    t = np.asarray(t, dtype=complex)
    dims = t.shape
    comma = any(d > 10 for d in dims)
    parts = []
    for indices in np.ndindex(*dims):
        c = t[indices]
        if c == 0:
            continue
        body = ",".join(str(i) for i in indices) if comma else "".join(
            str(i) for i in indices
        )
        parts.append(f"{_format_coeff(complex(c), precision)}|{body}>")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out
