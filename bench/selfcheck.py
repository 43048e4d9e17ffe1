"""Planted wrong answers that the output checks must reject.

``run.py`` calls ``planted_failures()`` before every run and refuses to
measure when a check accepts one of these answers.
"""

from __future__ import annotations

import json

import numpy as np

import slocc3
from workloads import (Case, ClassifyCli, DetpolyEquiv, RangeCriterion,
                       RankIntervalWorkload, Seeds)


def _planted():
    """(description, workload, case, wrong answer) for every planted answer."""
    rc = RangeCriterion()
    image_pair, ghz_w = rc.probe_cases()
    yield "Inequivalent on an SLOCC-image pair", rc, image_pair, "Inequivalent"
    yield "Inconclusive on GHZ vs W", rc, ghz_w, "Inconclusive"

    dp = DetpolyEquiv()
    related = dp.probe_cases()[0]
    unrelated = next(c for c in dp.cycle(Seeds(0, "planted"), 0) if c.kind == "n3-unrelated")
    yield ("CandidateFound whose G does not substitute", dp, unrelated,
           slocc3.EquivVerdict("CandidateFound", 0.0, np.eye(3, dtype=complex)))
    yield ("CandidateFound with a singular G", dp, related,
           slocc3.EquivVerdict("CandidateFound", 0.0, np.zeros((3, 3), dtype=complex)))
    yield ("CertifiedObstruction on nonzero polynomials", dp, related,
           slocc3.EquivVerdict("CertifiedObstruction"))

    ri = RankIntervalWorkload()
    case = ri.probe_cases()[0]
    exact = slocc3.cp_als(case.inputs[0], 6)  # slice construction of a 2 x 3 x 3 tensor
    factors = tuple(f.copy() for f in exact.factors)
    factors[0][0, 0] += 1.0
    yield ("CpResult whose factors do not reconstruct", ri, case,
           slocc3.RankInterval(3, 6, "LocalRank", slocc3.CpResult(True, 6, 0.0, factors)))
    ghz = Case("ghz", (slocc3.ghz_state(),), expect=2)
    yield ("rank interval above the known rank", ri, ghz,
           slocc3.RankInterval(3, 4, "LocalRank", slocc3.cp_als(slocc3.ghz_state(), 4)))

    cc = ClassifyCli()
    classify = cc.probe_cases()[0]
    image = slocc3.apply_slocc(classify.inputs[0], *classify.inputs[1])
    yield ("classify2mn naming another row", cc, classify,
           (0, json.dumps({"entry": "2x3x4-1"}), image))
    yield "nonzero exit code", cc, classify, (3, "", image)
    yield "output that is not JSON", cc, classify, (0, "class: 2x3x4-3", image)


def planted_failures() -> list:
    """Descriptions of the planted wrong answers that a check accepted."""
    return [desc for desc, workload, case, answer in _planted()
            if workload.check(case, answer)[0]]
