"""Benchmark workloads: seeded inputs, one operation, output checks.

Every workload turns the workload seed into a list of cases and runs one
public call (or one in-process CLI invocation) per case.  The library sees
only the generated inputs and a ``seed=`` derived from the workload seed.
Cases come in fixed cycles whose kinds are interleaved, so any prefix of the
list a timed run gets through has nearly the same mix of cheap and costly
operations; that keeps the per-run figures steady across seeds.

``check`` returns ``(ok, resolved, note)``: ``ok`` is False when the answer
is wrong, ``resolved`` is True when the answer is the strongest the input
admits, and only cases with ``eligible`` set count towards ``resolved_frac``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import zlib
from dataclasses import dataclass

import numpy as np

import slocc3
from slocc3 import cli

# maps from random_slocc are resampled until their condition number is at
# most this, so every image is far from a rank decision boundary
COND_BOUND = 100.0


@dataclass
class Case:
    kind: str
    inputs: tuple
    seed: int = 0
    expect: object = None
    eligible: bool = False


class Seeds:
    """Independent child seeds drawn from one workload seed."""

    def __init__(self, seed: int, name: str):
        self._root = np.random.SeedSequence([seed, zlib.crc32(name.encode())])

    def child(self) -> np.random.SeedSequence:
        return self._root.spawn(1)[0]

    def lib_seed(self) -> int:
        return int(self.child().generate_state(1)[0])

    def tensor(self, dims) -> np.ndarray:
        rng = np.random.default_rng(self.child())
        return (rng.standard_normal(dims) + 1j * rng.standard_normal(dims)) / np.sqrt(2.0)

    def maps(self, dims):
        return slocc3.random_slocc(dims, self.child(), cond_bound=COND_BOUND)

    def image(self, t) -> np.ndarray:
        return slocc3.apply_slocc(t, *self.maps(t.shape))


def _interleave(major, minor):
    """Spread the items of ``minor`` evenly through ``major``."""
    total = len(major) + len(minor)
    slots = {round((k + 0.5) * total / len(minor) - 0.5) for k in range(len(minor))}
    it_major, it_minor = iter(major), iter(minor)
    return [next(it_minor) if i in slots else next(it_major) for i in range(total)]


def _table_rows():
    return slocc3.catalog_list(table_only=True)


def _rank_of(entry_id: str):
    note = slocc3.catalog_get(entry_id).rank_note
    return note.get("rank") if note else None


class Workload:
    name = ""
    cycles = 1
    tail_pct = 90.0
    # ops of the fixed list a traced run times twice, untraced and traced
    trace_ops = 1

    def cases(self, seed: int) -> list:
        seeds = Seeds(seed, self.name)
        return [c for i in range(self.cycles) for c in self.cycle(seeds, i)]

    def probe_cases(self) -> list:
        """Fixed-seed cases, the same for every workload seed; the first is
        the warm-up operation."""
        return self.probe(Seeds(0, self.name + "/probe"))

    def cycle(self, seeds: Seeds, index: int) -> list:
        raise NotImplementedError

    def probe(self, seeds: Seeds) -> list:
        raise NotImplementedError

    def run(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, out):
        raise NotImplementedError


# --- range-criterion ---------------------------------------------------------


class RangeCriterion(Workload):
    """range_criterion_compare(t, image, "A", starts=4).

    Traced party A leaves a k = 2 subspace for the 2 x M x N dims and a
    k = 3 subspace for the 3 x 3 x N dims and for diag/perm, so the exact
    k <= 2 path and the k >= 3 multi-start search share every cycle.
    """

    name = "range-criterion"
    cycles = 40
    tail_pct = 95.0
    trace_ops = 200
    STARTS = 4
    IMAGE_DIMS = ((2, 2, 2), (3, 3, 3), (2, 3, 3), (3, 3, 4), (2, 3, 4))
    DISTINCT_PER_CYCLE = 3

    def __init__(self):
        by_system = {}
        for e in _table_rows():
            if e.system[0] == 2 and min(e.system) >= 2:
                by_system.setdefault(e.system, []).append(e)
        # two distinct rows of one system are inequivalent by construction
        self.distinct = [
            pair for rows in by_system.values()
            for pair in itertools.combinations(rows, 2)
        ]

    def _image_case(self, seeds, dims):
        t = seeds.tensor(dims)
        return Case("image" + "x".join(map(str, dims)), (t, seeds.image(t)),
                    seeds.lib_seed())

    def cycle(self, seeds, index):
        images = [self._image_case(seeds, d) for d in self.IMAGE_DIMS]
        decided = []
        for j in range(self.DISTINCT_PER_CYCLE):
            e1, e2 = self.distinct[(index * self.DISTINCT_PER_CYCLE + j) % len(self.distinct)]
            decided.append(Case("distinct", (seeds.image(e1.build()), seeds.image(e2.build())),
                                seeds.lib_seed(), eligible=True))
        decided.insert(1, Case("ghz-w", (slocc3.ghz_state(), slocc3.w_state()),
                               seeds.lib_seed(), expect="Inequivalent", eligible=True))
        decided.append(Case("diag-perm", (slocc3.catalog_build("3x3x3-diag"),
                                          slocc3.catalog_build("3x3x3-perm")),
                            seeds.lib_seed(), eligible=True))
        return _interleave(images, decided)

    def probe(self, seeds):
        return [self._image_case(seeds, (3, 3, 3)),
                Case("ghz-w", (slocc3.ghz_state(), slocc3.w_state()), 0,
                     expect="Inequivalent", eligible=True)]

    def run(self, case):
        t1, t2 = case.inputs
        return slocc3.range_criterion_compare(t1, t2, "A", starts=self.STARTS, seed=case.seed)

    def check(self, case, verdict):
        if verdict not in ("Inequivalent", "Inconclusive"):
            return False, False, f"unknown verdict {verdict!r}"
        if case.kind.startswith("image") and verdict != "Inconclusive":
            return False, False, "Inequivalent verdict on an SLOCC-image pair"
        if case.expect is not None and verdict != case.expect:
            return False, False, f"{case.kind}: expected {case.expect}, got {verdict}"
        return True, verdict == "Inequivalent", ""


# --- detpoly-equiv -----------------------------------------------------------


class DetpolyEquiv(Workload):
    """detpoly_equiv_test with a fixed restart count on n x n x 3 tensors.

    Related pairs stop at the first restart that succeeds; unrelated pairs
    run every restart.  n = 3 cases outnumber n = 4 three to one so that a
    run completes enough operations for its tail percentile.
    """

    name = "detpoly-equiv"
    cycles = 12
    tail_pct = 80.0
    trace_ops = 24
    RESTARTS = 4
    # CandidateFound promises sum |monic(f1 o G) - monic(f2)|^2 below the
    # library's tol (1e-8), i.e. a coefficient distance below its square root
    VERIFY_TOL = 1e-4
    PATTERN = ((3, True), (3, False), (4, True), (3, True), (3, False), (4, False),
               (3, True), (3, False))

    def _case(self, seeds, n, related):
        t1 = seeds.tensor((n, n, 3))
        t2 = seeds.image(t1) if related else seeds.tensor((n, n, 3))
        kind = f"n{n}-" + ("related" if related else "unrelated")
        return Case(kind, (t1, t2), seeds.lib_seed(), expect=related, eligible=related)

    def cycle(self, seeds, index):
        return [self._case(seeds, n, rel) for n, rel in self.PATTERN]

    def probe(self, seeds):
        return [self._case(seeds, 3, True)]

    def run(self, case):
        t1, t2 = case.inputs
        return slocc3.detpoly_equiv_test(t1, t2, restarts=self.RESTARTS, seed=case.seed)

    def check(self, case, verdict):
        if verdict.kind == "NoCandidateFound":
            return True, False, ""
        if verdict.kind == "CertifiedObstruction":
            return False, False, "CertifiedObstruction on nonzero determinant polynomials"
        if verdict.kind != "CandidateFound":
            return False, False, f"unknown verdict {verdict.kind!r}"
        t1, t2 = case.inputs
        dist = self.substitution_distance(t1, t2, verdict.g)
        if not dist <= self.VERIFY_TOL:
            return False, False, f"CandidateFound G fails re-verification ({dist:.3e})"
        return True, bool(case.expect), ""

    @staticmethod
    def substitution_distance(t1, t2, g) -> float:
        """Relative distance of monic(f2) from the best multiple of
        monic(f1) o G; infinite for a missing or singular G."""
        if g is None or not slocc3.is_nonsingular(g):
            return float("inf")
        m1, _ = slocc3.monic_normalize(slocc3.det_poly(t1))
        m2, _ = slocc3.monic_normalize(slocc3.det_poly(t2))
        s = slocc3.substitute(m1, g).coeff_vector()
        target = m2.coeff_vector()
        ss = np.vdot(s, s).real
        if ss == 0.0:
            return float("inf")
        lam = np.vdot(s, target) / ss
        return float(np.linalg.norm(lam * s - target) / np.linalg.norm(target))


# --- rank-interval -----------------------------------------------------------


class RankIntervalWorkload(Workload):
    """rank_interval with restarts=2 and max_iter=300 on named states, SLOCC
    images of the 2 x M x N table rows and random tensors.

    The defaults (32 restarts x 2000 iterations) spend 5-8 s on single
    2 x 3 x 4 rows, too few operations for a steady run.  The smaller budget
    keeps a case near 0.2 s at most, while a random 3 x 3 x 3 tensor still
    runs its hopeless searches at R = 3 and R = 4.
    """

    name = "rank-interval"
    cycles = 12
    tail_pct = 90.0
    trace_ops = 62
    RESTARTS = 2
    MAX_ITER = 300
    TOL = 1e-8
    NAMED = ("ghz", "w", "3x3x3-diag", "3x3x3-perm")
    # rank of a generic tensor of these dims
    GENERIC_RANK = {(2, 2, 2): 2, (2, 3, 3): 3, (2, 3, 4): 4, (3, 3, 3): 5}

    def cycle(self, seeds, index):
        rows = [
            Case(e.id, (seeds.image(e.build()),), seeds.lib_seed(), expect=_rank_of(e.id),
                 eligible=True)
            for e in _table_rows() if e.system[0] == 2
        ]
        extras = [
            Case(name, (slocc3.catalog_build(name),), seeds.lib_seed(), expect=_rank_of(name),
                 eligible=True)
            for name in self.NAMED
        ] + [
            Case("random" + "x".join(map(str, d)), (seeds.tensor(d),), seeds.lib_seed(),
                 expect=r, eligible=True)
            for d, r in self.GENERIC_RANK.items()
        ]
        return _interleave(rows, extras)

    def probe(self, seeds):
        return [Case("2x3x3-1", (seeds.image(slocc3.catalog_build("2x3x3-1")),), 0,
                     eligible=True)]

    def run(self, case):
        return slocc3.rank_interval(case.inputs[0], restarts=self.RESTARTS,
                                    max_iter=self.MAX_ITER, seed=case.seed, tol=self.TOL)

    def check(self, case, interval):
        t = np.asarray(case.inputs[0], dtype=complex)
        cert = interval.certificate_upper
        if not (cert.success and cert.rank == interval.upper):
            return False, False, "upper bound without a successful certificate"
        residual = float(np.linalg.norm(t - cert.reconstruct()) / np.linalg.norm(t))
        if not residual < self.TOL:
            return False, False, f"certificate residual {residual:.3e} >= {self.TOL}"
        if not 1 <= interval.lower <= interval.upper:
            return False, False, f"bad interval [{interval.lower}, {interval.upper}]"
        known = case.expect
        if known is not None and not interval.lower <= known <= interval.upper:
            return False, False, (f"{case.kind}: known rank {known} outside "
                                  f"[{interval.lower}, {interval.upper}]")
        return True, interval.lower == interval.upper, ""


# --- classify-cli ------------------------------------------------------------


class ClassifyCli(Workload):
    """``slocc3.cli.main`` in process on printed kets of SLOCC images.

    One op maps a table row by fresh random local maps (apply_slocc), prints
    the image (print_ket) and runs one CLI subcommand on that ket.  No
    least-squares solver and no ALS run here.
    """

    name = "classify-cli"
    cycles = 12
    tail_pct = 95.0
    trace_ops = 420
    SUBCOMMANDS = (("classify2mn",), ("ptrace", "--traced", "A"),
                   ("product-count", "--traced", "A"))
    # determinant polynomials of n x n x 3 images, n = 2..5 (symbolic path)
    DETPOLY_SOURCES = ("2x2x3-1", "2x2x3-2", "3x3x3-diag", "3x3x3-perm", 4, 5)
    # fixed evaluation point for checking a printed determinant polynomial
    POINT = (0.3 + 0.1j, -0.7 + 0.2j, 0.5 - 0.4j)

    def _case(self, seeds, source, sub):
        if isinstance(source, int):
            t, entry_id = seeds.tensor((source, source, 3)), None
        else:
            t, entry_id = slocc3.catalog_build(source), source
        return Case(sub[0], (t, seeds.maps(t.shape), sub), expect=entry_id,
                    eligible=sub[0] == "classify2mn")

    def cycle(self, seeds, index):
        rows = [e.id for e in _table_rows()]
        n = len(self.SUBCOMMANDS)
        table_ops = [
            self._case(seeds, rows[i], self.SUBCOMMANDS[(i + j) % n])
            for j in range(n) for i in range(len(rows))
        ]
        detpoly = [self._case(seeds, src, ("detpoly",)) for src in self.DETPOLY_SOURCES]
        return _interleave(table_ops, detpoly)

    def probe(self, seeds):
        return [self._case(seeds, "2x3x4-3", self.SUBCOMMANDS[0]),
                self._case(seeds, "2x3x3-4", self.SUBCOMMANDS[2])]

    def run(self, case):
        t, maps, sub = case.inputs
        image = slocc3.apply_slocc(t, *maps)
        argv = [*sub, "--ket", slocc3.print_ket(image),
                "--dims", ",".join(map(str, image.shape)), "--output", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), image

    def check(self, case, out):
        code, text, image = out
        if code != 0:
            return False, False, f"{case.kind}: exit code {code}"
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return False, False, f"{case.kind}: output is not JSON"
        return getattr(self, "_check_" + case.kind.replace("-", "_"))(case, doc, image)

    def _check_classify2mn(self, case, doc, image):
        if doc.get("entry") != case.expect:
            return False, False, f"classify2mn gave {doc.get('entry')}, source {case.expect}"
        return True, True, ""

    def _check_ptrace(self, case, doc, image):
        kept = list(image.shape[1:])
        rho = np.array([complex(re, im) for re, im in doc["entries"]])
        dim = kept[0] * kept[1]
        if doc["party_dims"] != kept or rho.size != dim * dim:
            return False, False, "ptrace: wrong reduced dims"
        rho = rho.reshape(dim, dim)
        norm2 = float(np.linalg.norm(image) ** 2)
        if abs(np.trace(rho) - norm2) > 1e-9 * norm2 or not np.allclose(
                rho, rho.conj().T, rtol=0, atol=1e-12 * norm2):
            return False, False, "ptrace: trace or hermiticity wrong"
        return True, False, ""

    def _check_product_count(self, case, doc, image):
        # tracing a party of dim <= 2 leaves k <= 2, which is decided exactly
        exact = doc["exactness"] == "Exact" or (doc["continuum"] and doc["exactness"] == "LowerBound")
        if not exact or doc["independent_count"] < 0:
            return False, False, "product-count: k <= 2 count not exact"
        return True, False, ""

    def _check_detpoly(self, case, doc, image):
        n = image.shape[0]
        if doc["degree"] != n:
            return False, False, "detpoly: wrong degree"
        x, y, z = self.POINT
        terms = [complex(re, im) * x**p * y**q * z**r
                 for (p, q, r), (re, im) in ((t["exp"], t["coef"]) for t in doc["terms"])]
        want = np.linalg.det(x * image[:, :, 0] + y * image[:, :, 1] + z * image[:, :, 2])
        scale = sum(abs(v) for v in terms) + abs(want)
        if abs(sum(terms) - want) > 1e-9 * scale:
            return False, False, "detpoly: polynomial disagrees with the determinant"
        return True, False, ""


WORKLOADS = {w.name: w for w in (RangeCriterion, DetpolyEquiv, RankIntervalWorkload, ClassifyCli)}
