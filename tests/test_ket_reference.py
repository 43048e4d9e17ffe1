"""The ket parser against the lexer and parser it replaced.

``_tokenize``, ``_Parser`` and ``reference_parse_ket`` below are the
character-scanning lexer and the two-value-type parser, kept verbatim as the
reference.  Every input must give a byte-identical tensor, or an exception of
the same type with the same message, under both.
"""

import cmath
import random

import numpy as np
import pytest

import slocc3 as s
from slocc3 import ket
from slocc3.ket import KetSyntaxError


# --- reference: the replaced lexer and parser, verbatim ---------------------

_SYMBOLS = set("+-*/(),")


def _tokenize(text: str):
    """Yield (kind, value, pos) tokens; kets come out as index tuples or raw
    digit strings to be resolved against the party dims."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c == "|":
            j = text.find(">", i + 1)
            if j < 0:
                raise KetSyntaxError("unterminated ket", i)
            body = text[i + 1 : j].replace(" ", "")
            if not body:
                raise KetSyntaxError("empty ket", i)
            if "," in body:
                parts = body.split(",")
                if not all(p.isdigit() for p in parts):
                    raise KetSyntaxError(f"bad ket indices '|{body}>'", i)
                tokens.append(("ket", ("indices", tuple(int(p) for p in parts)), i))
            else:
                if not body.isdigit():
                    raise KetSyntaxError(f"bad ket indices '|{body}>'", i)
                tokens.append(("ket", ("digits", body), i))
            i = j + 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            # optional exponent
            if j < n and text[j] in "eE" and j + 1 < n and (
                text[j + 1].isdigit() or text[j + 1] in "+-"
            ):
                k = j + 2 if text[j + 1] in "+-" else j + 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                val = float(text[i:j])
            except ValueError:
                raise KetSyntaxError(f"bad number '{text[i:j]}'", i) from None
            tokens.append(("num", val, i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in ("i", "sqrt"):
                raise KetSyntaxError(f"unknown name '{word}'", i)
            tokens.append((word, word, i))
            i = j
            continue
        raise KetSyntaxError(f"unexpected character '{c}'", i)
    return tokens


# --- parser ----------------------------------------------------------------

# Parsed values are either complex scalars or "term lists": lists of
# (coefficient, index-tuple) pairs, index tuples growing under adjacency.


class _Parser:
    def __init__(self, tokens, dims):
        self.tokens = tokens
        self.dims = tuple(int(d) for d in dims)
        self.k = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else (None, None, -1)

    def next(self):
        tok = self.peek()
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise KetSyntaxError(f"expected '{kind}'", tok[2])
        return tok

    # value helpers

    @staticmethod
    def _is_terms(v):
        return isinstance(v, list)

    def _mul(self, a, b, pos):
        if self._is_terms(a) and self._is_terms(b):
            return [(ca * cb, ia + ib) for ca, ia in a for cb, ib in b]
        if self._is_terms(a):
            return [(c * b, idx) for c, idx in a]
        if self._is_terms(b):
            return [(a * c, idx) for c, idx in b]
        return a * b

    def _div(self, a, b, pos):
        if self._is_terms(b):
            raise KetSyntaxError("cannot divide by a ket expression", pos)
        if b == 0:
            raise KetSyntaxError("division by zero", pos)
        if self._is_terms(a):
            return [(c / b, idx) for c, idx in a]
        return a / b

    def _add(self, a, b, sign, pos):
        if self._is_terms(a) != self._is_terms(b):
            raise KetSyntaxError("cannot add a number and a ket expression", pos)
        if self._is_terms(a):
            return a + [(sign * c, idx) for c, idx in b]
        return a + sign * b

    def _ket_value(self, payload, pos):
        kind, body = payload
        if kind == "indices":
            indices = body
        else:
            if len(body) == 1:
                indices = (int(body),)
            else:
                if any(d > 10 for d in self.dims):
                    raise KetSyntaxError(
                        f"ket '|{body}>' is ambiguous when a dimension exceeds 10; "
                        "separate indices with commas",
                        pos,
                    )
                indices = tuple(int(ch) for ch in body)
        return [(1.0 + 0.0j, indices)]

    # grammar

    def parse_expr(self):
        value = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.next()
            rhs = self.parse_term()
            value = self._add(value, rhs, 1 if op == "+" else -1, pos)
        return value

    def parse_term(self):
        value = self.parse_factor()
        while True:
            kind = self.peek()[0]
            if kind in ("num", "i", "sqrt", "(", "ket"):
                pos = self.peek()[2]
                value = self._mul(value, self.parse_factor(), pos)
            else:
                return value

    def parse_factor(self):
        kind, _, pos = self.peek()
        if kind in ("+", "-"):
            self.next()
            v = self.parse_factor()
            if kind == "-":
                v = self._mul(-1.0 + 0.0j, v, pos)
            return v
        value = self.parse_atom()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            rhs = self.parse_atom()
            value = self._mul(value, rhs, pos) if op == "*" else self._div(value, rhs, pos)
        return value

    def parse_atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return complex(val)
        if kind == "i":
            return 1j
        if kind == "sqrt":
            self.expect("(")
            inner = self.parse_expr()
            self.expect(")")
            if self._is_terms(inner):
                raise KetSyntaxError("sqrt of a ket expression", pos)
            return cmath.sqrt(inner)
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "ket":
            return self._ket_value(val, pos)
        raise KetSyntaxError("expected a number, coefficient or ket", pos)


def reference_parse_ket(text: str, dims, normalize: bool = False) -> np.ndarray:
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
    parser = _Parser(tokens, dims)
    value = parser.parse_expr()
    if parser.k < len(tokens):
        raise KetSyntaxError("unexpected trailing input", tokens[parser.k][2])

    if not isinstance(value, list):
        if value == 0:
            return np.zeros(dims, dtype=complex)
        raise KetSyntaxError("expression contains no kets", 0)

    out = np.zeros(dims, dtype=complex)
    for coeff, indices in value:
        if len(indices) != len(dims):
            raise KetSyntaxError(
                f"term has {len(indices)} party indices, expected {len(dims)}", 0
            )
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


# --- inputs ------------------------------------------------------------------

DIMS = [(2, 2, 2), (3, 3, 3), (2, 12, 2), (1, 2, 5)]

# Unicode digit-likes such as '²' and '½' are left out: str.isdigit and
# str.isalnum accept them but the pattern's \d does not, so both parsers
# reject them, but with different messages.  Decimal digits of other scripts,
# such as '٣', are in: both read them as digits.
SOUP = [
    "|0>", "|1>", "|2>", "|01>", "|10>", "|000>", "|111>", "|012>", "|0,1,1>", "|1,11,0>",
    "|0 1 0>", "|0\t1>", "| >", "|>", "|a>", "|1,>", "|,>", "|", ">", "|0", "|0>>",
    "+", "-", "*", "/", "(", ")", ",", "i", "sqrt", "sqrt(", "isqrt", "e", "E", "x", "ie",
    "0", "1", "2", "3", "10", "0.5", ".5", "1.", ".", "1.2.3", "1e3", "2E-2", "1e+5", "1e",
    "1e+", "3e-", "1e400", "1e-400", "1e308", " ", "  ", "\t", "\n", "\xa0", "é", "_", "@",
    "#", "٣",
]
NUMBERS = ["0", "1", "2", "3", "0.5", ".5", "0.1", "0.2", "0.3", "7", "1e-3", "2E+2",
           "1e300", "1e-300", "1e308", "0.0", "1.5e-7"]


def _soup(rnd):
    words = rnd.choices(SOUP, k=rnd.randint(1, 10))
    return "".join(w + rnd.choice(["", "", "", " ", "\t"]) for w in words)


def _ket(rnd, dims):
    """One ket over dims, now and then a party short or an index too large."""
    idx = [rnd.randrange(d + (rnd.random() < 0.03)) for d in dims]
    if len(idx) > 1 and rnd.random() < 0.03:
        idx.pop()
    return "|" + ("" if max(idx) < 10 and rnd.random() < 0.6 else ",").join(map(str, idx)) + ">"


def _number(rnd, depth):
    """Numbers, i, sqrt() and parenthesized sums joined by *, / or adjacency."""
    atoms = []
    for _ in range(1 + (rnd.random() < 0.4) + (rnd.random() < 0.2)):
        pick = rnd.randrange(6 if depth < 2 else 3)
        if pick == 0:
            atoms.append("i")
        elif pick <= 2:
            atoms.append(rnd.choice(NUMBERS) if rnd.random() < 0.7 else repr(rnd.gauss(0, 1)))
        else:
            inner = _sum(rnd, (), depth + 1)
            atoms.append(f"sqrt({inner})" if pick == 3 else f"({inner})")
    return "".join(a + rnd.choice(["*", "/", " ", " * "]) for a in atoms[:-1]) + atoms[-1]


def _kets(rnd, dims, depth):
    """Kets over consecutive ranges of parties, side by side."""
    cuts = sorted(rnd.sample(range(1, len(dims)), rnd.randint(0, len(dims) - 1)))
    out = ""
    for lo, hi in zip([0] + cuts, cuts + [len(dims)]):
        if depth < 2 and rnd.random() < 0.2:
            out += f"({_sum(rnd, dims[lo:hi], depth + 1)})"
        else:
            out += _ket(rnd, dims[lo:hi])
    return out


def _sum(rnd, dims, depth=0):
    """A random sum over the ket grammar: of ket terms over dims, or of
    numbers when dims is empty; one term in twenty has the other type."""
    out = ""
    for k in range(1 + (rnd.random() < 0.6) + (rnd.random() < 0.3)):
        out += rnd.choice(["+", "-", " + ", " - "]) if k else rnd.choice(["", "", "-", "+"])
        if bool(dims) == (rnd.random() < 0.05):
            out += _number(rnd, depth)
            continue
        if rnd.random() < 0.6:
            out += _number(rnd, depth) + rnd.choice(["", " ", "*"])
        out += _kets(rnd, dims or (2,), depth)
        if rnd.random() < 0.15:
            out += "/" + _number(rnd, depth)
    return out


def _random_tensor(rng, dims):
    """Complex tensor at 10^k, |k| <= 300, with 30% zeros and some real,
    imaginary and unit entries."""
    scale = 10.0 ** int(rng.integers(-300, 301))
    t = (rng.standard_normal(dims) + 1j * rng.standard_normal(dims)) * scale
    u = rng.random(dims)
    t[u < 0.15] = t.real[u < 0.15]
    t[(u >= 0.15) & (u < 0.3)] = 1j * t.imag[(u >= 0.15) & (u < 0.3)]
    t[(u >= 0.3) & (u < 0.35)] = rng.choice([1, -1, 1j, -1j])
    t[rng.random(dims) < 0.3] = 0
    return t


def _outcome(fn, *args):
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except Exception as err:  # the exception itself is compared
        return type(err), str(err)
    return (out.dtype, out.shape, out.tobytes()) if isinstance(out, np.ndarray) else out


def _assert_same(text, dims):
    assert _outcome(s.parse_ket, text, dims) == _outcome(reference_parse_ket, text, dims), \
        (text, dims)


# --- tests -------------------------------------------------------------------


@pytest.mark.parametrize("dims", DIMS)
def test_token_soups_parse_as_before(dims):
    rnd = random.Random(sum(dims))
    for _ in range(3000):
        text = _soup(rnd)
        assert _outcome(ket._tokenize, text) == _outcome(_tokenize, text), text
        _assert_same(text, dims)


@pytest.mark.parametrize("dims", DIMS)
def test_random_expressions_parse_as_before(dims):
    rnd = random.Random(100 + sum(dims))
    for _ in range(1500):
        _assert_same(_sum(rnd, dims), dims)


@pytest.mark.parametrize("precision", [None, 6])
def test_printed_kets_parse_as_before(precision):
    rng = np.random.default_rng(7 if precision is None else 8)
    for _ in range(150):
        dims = [(2, 2, 2), (2, 3, 6), (3, 3, 3), (2, 12, 2), (1, 2, 5)][rng.integers(5)]
        _assert_same(s.print_ket(_random_tensor(rng, dims), precision), dims)


def test_catalog_rows_parse_as_before():
    for entry in s.catalog_list():
        for dims in (entry.system, (4, 4, 6), (2, 12, 2)):
            _assert_same(entry.ket_text, dims)
