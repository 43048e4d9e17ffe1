"""Canonical 2 x M x N states, named reference states, and state builders.

The table lists one representative per SLOCC class of true 2 x M x N
tripartite states for M <= 3, N <= 6, organized by the local ranks of the
system.  Builders cover the low-to-high constructions that generate the
higher classes from lower ones (omega0..omega3) and the normal form every
3 x 3 x 5 state can be brought to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ket import parse_ket
from .tensor import as_tensor


@dataclass(frozen=True)
class CatalogEntry:
    """One canonical state: id, system dims, ket expression, rank metadata.

    ``local_ranks`` equals the system label: every table row has full local
    rank for its system.  ``rank_note`` carries known tensor-rank values and
    is populated only where an exact value or bound is established.
    """

    id: str
    system: tuple
    ket_text: str
    rank_note: dict | None = None
    table_row: bool = True

    @property
    def local_ranks(self) -> tuple:
        return self.system

    def build(self) -> np.ndarray:
        return parse_ket(self.ket_text, self.system)

    def to_json(self) -> str:
        return json.dumps(
            {
                "id": self.id,
                "system": list(self.system),
                "ket": self.ket_text,
                "rank_note": self.rank_note,
                "table_row": self.table_row,
            },
            sort_keys=True,
        )


def _jaja(rank: int) -> dict:
    """Rank note of a 2 x M x N row: the exact rank from Ja'Ja's formula on
    the Kronecker form of its slice pencil."""
    return {"rank": rank, "source": "Ja'Ja' formula on the Kronecker form"}


_ENTRIES = [
    CatalogEntry("2x3x6-1", (2, 3, 6), "|000>+|011>+|022>+|103>+|114>+|125>", _jaja(6)),
    CatalogEntry("2x3x5-1", (2, 3, 5), "|024>+|000>+|011>+|102>+|113>", _jaja(5)),
    CatalogEntry("2x3x5-2", (2, 3, 5), "|024>+|121>+|000>+|011>+|102>+|113>", _jaja(5)),
    CatalogEntry("2x3x4-1", (2, 3, 4), "|123>+|012>+|000>+|101>", _jaja(4)),
    CatalogEntry("2x3x4-2", (2, 3, 4), "|023>+|012>+|000>+|101>", _jaja(4)),
    CatalogEntry("2x3x4-3", (2, 3, 4), "|123>+|012>+|110>+|000>+|101>", _jaja(4)),
    CatalogEntry("2x3x4-4", (2, 3, 4), "|023>+|122>+|012>+|000>+|101>", _jaja(5)),
    CatalogEntry("2x3x4-5", (2, 3, 4), "|023>+|122>+|012>+|110>+|000>+|101>", _jaja(4)),
    CatalogEntry("2x3x3-1", (2, 3, 3), "|000>+|111>+|022>", _jaja(3)),
    CatalogEntry("2x3x3-2", (2, 3, 3), "|000>+|111>+|022>+|122>", _jaja(3)),
    CatalogEntry("2x3x3-3", (2, 3, 3), "|010>+|001>+|112>+|121>", _jaja(4)),
    CatalogEntry("2x3x3-4", (2, 3, 3), "|100>+|010>+|001>+|112>+|121>", _jaja(4)),
    CatalogEntry("2x3x3-5", (2, 3, 3), "|100>+|010>+|001>+|022>", _jaja(4)),
    CatalogEntry("2x3x3-6", (2, 3, 3), "|100>+|010>+|001>+|122>", _jaja(4)),
    CatalogEntry("2x3x2-1", (2, 3, 2), "|000>+|011>+|121>", _jaja(3)),
    CatalogEntry("2x3x2-2", (2, 3, 2), "|000>+|011>+|110>+|121>", _jaja(3)),
    CatalogEntry("2x2x4-1", (2, 2, 4), "|000>+|011>+|102>+|113>", _jaja(4)),
    CatalogEntry("2x2x3-1", (2, 2, 3), "|000>+|011>+|112>", _jaja(3)),
    CatalogEntry("2x2x3-2", (2, 2, 3), "|000>+|011>+|101>+|112>", _jaja(3)),
    CatalogEntry("2x2x2-1", (2, 2, 2), "|000>+|111>", _jaja(2)),
    CatalogEntry("2x2x2-2", (2, 2, 2), "|001>+|010>+|100>", _jaja(3)),
    CatalogEntry("1x3x3-1", (1, 3, 3), "|000>+|011>+|022>"),
    CatalogEntry("1x2x2-1", (1, 2, 2), "|000>+|011>"),
    CatalogEntry("2x1x2-1", (2, 1, 2), "|000>+|101>", _jaja(2)),
    CatalogEntry("2x2x1-1", (2, 2, 1), "|000>+|110>", _jaja(2)),
    CatalogEntry("1x1x1-1", (1, 1, 1), "|000>"),
    # named states beyond the 2 x M x N table
    CatalogEntry(
        "3x3x3-diag", (3, 3, 3), "|000>+|111>+|222>",
        rank_note={"rank": 3, "source": "known exact value"},
        table_row=False,
    ),
    CatalogEntry(
        "3x3x3-perm", (3, 3, 3), "|012>+|021>+|102>+|120>+|201>+|210>",
        rank_note={"rank": 4, "source": "known exact value"},
        table_row=False,
    ),
    CatalogEntry(
        "w-squared", (4, 4, 4),
        "|003>+|012>+|021>+|030>+|102>+|120>+|201>+|210>+|300>",
        rank_note={"rank": 7, "upper_bound": 8, "source": "known exact value"},
        table_row=False,
    ),
]

_ALIASES = {"ghz": "2x2x2-1", "w": "2x2x2-2"}

_BY_ID = {e.id: e for e in _ENTRIES}


def catalog_list(table_only: bool = False):
    """All catalog entries, table rows first."""
    if table_only:
        return [e for e in _ENTRIES if e.table_row]
    return list(_ENTRIES)


def catalog_get(entry_id: str) -> CatalogEntry:
    key = _ALIASES.get(entry_id.lower(), entry_id)
    try:
        return _BY_ID[key]
    except KeyError:
        raise KeyError(f"unknown catalog id {entry_id!r}") from None


def catalog_build(entry_id: str) -> np.ndarray:
    return catalog_get(entry_id).build()


def ghz_state() -> np.ndarray:
    return catalog_build("ghz")


def w_state() -> np.ndarray:
    return catalog_build("w")


# --- low-to-high constructors ---------------------------------------------


LHRGM_KINDS = ("omega0", "omega1", "omega2", "omega3")


def lhrgm_build(kind: str, m: int, n: int, base, a=1.0, b=1.0, chi=None) -> np.ndarray:
    """Build a canonical 2 x m x n state from a smaller base state.

    * omega0: (a|0> + b|1>)|m-1, n-1>  +  base embedded, base is 2x(m-1)x(n-1)
    * omega1: |0, m-1, n-1> + |1, m-1, n-2>  +  base, base is 2x(m-1)x(n-2)
    * omega2: omega0 + |0, m-1>|chi>, requires b != 0
    * omega3: omega0 + |1, m-1>|chi>, requires a != 0

    ``chi`` is a coefficient vector of length n-1 over the last party.  The
    side conditions keep omega2/omega3 from collapsing to omega0.
    """
    kind = kind.lower()
    if kind not in LHRGM_KINDS:
        raise ValueError(f"kind must be one of {LHRGM_KINDS}")
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    base = as_tensor(base)
    a = complex(a)
    b = complex(b)

    out = np.zeros((2, m, n), dtype=complex)
    if kind == "omega1":
        want = (2, m - 1, n - 2)
        if base.shape != want:
            raise ValueError(f"omega1 base must have dims {want}, got {base.shape}")
        out[: base.shape[0], : base.shape[1], : base.shape[2]] += base
        out[0, m - 1, n - 1] += 1.0
        out[1, m - 1, n - 2] += 1.0
        return out

    want = (2, m - 1, n - 1)
    if base.shape != want:
        raise ValueError(f"{kind} base must have dims {want}, got {base.shape}")
    out[: base.shape[0], : base.shape[1], : base.shape[2]] += base
    out[0, m - 1, n - 1] += a
    out[1, m - 1, n - 1] += b
    if kind == "omega0":
        return out

    if chi is None:
        raise ValueError(f"{kind} requires a chi coefficient vector")
    chi = np.asarray(chi, dtype=complex).ravel()
    if chi.size != n - 1:
        raise ValueError(f"chi must have length {n - 1}, got {chi.size}")
    if kind == "omega2":
        if b == 0:
            raise ValueError("omega2 requires b != 0")
        out[0, m - 1, : n - 1] += chi
    else:
        if a == 0:
            raise ValueError("omega3 requires a != 0")
        out[1, m - 1, : n - 1] += chi
    return out


def build_335(psi, alpha, beta, gamma) -> np.ndarray:
    """Normal form of a 3 x 3 x 5 state: psi + |2>(|0>|alpha> + |1>|beta> + |2>|gamma>).

    ``psi`` is a 2 x n x p state with n <= 3 and p <= 5, embedded at the
    leading indices; alpha, beta, gamma are coefficient vectors in C^5.
    Only the forward constructor is provided; reducing an arbitrary state to
    this form is not.  The tensor rank of a generic 3 x 3 x 5 state is known
    to be 6 or 7; this library only exhibits upper bounds for it.
    """
    psi = as_tensor(psi)
    if psi.shape[0] != 2 or psi.shape[1] > 3 or psi.shape[2] > 5:
        raise ValueError(f"psi must be 2 x n x p with n <= 3, p <= 5, got {psi.shape}")
    vecs = []
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        v = np.asarray(v, dtype=complex).ravel()
        if v.size != 5:
            raise ValueError(f"{name} must have length 5, got {v.size}")
        vecs.append(v)
    out = np.zeros((3, 3, 5), dtype=complex)
    out[:2, : psi.shape[1], : psi.shape[2]] += psi
    for j, v in enumerate(vecs):
        out[2, j, :] += v
    return out
