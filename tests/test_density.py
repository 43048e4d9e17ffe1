"""Tests for density matrices, partial traces, and range bases."""

import itertools
import subprocess
import sys

import numpy as np
import pytest

import slocc3 as s


def random_state(rng, dims):
    return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)


def test_density_of_basis_state():
    rho = s.density_of(np.array([1.0, 0.0]))
    np.testing.assert_array_equal(rho, np.diag([1.0, 0.0]))


def test_density_of_bell_state():
    bell = s.parse_ket("|0,0>|0>+|1,1>|0>", (2, 2, 1)) / np.sqrt(2)
    rho = s.density_of(bell)
    expected = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        expected[i, j] = 0.5
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_density_trace_equals_squared_norm():
    rng = np.random.default_rng(0)
    for _ in range(10):
        psi = random_state(rng, (2, 3, 2))
        rho = s.density_of(psi)
        assert abs(np.trace(rho) - np.linalg.norm(psi) ** 2) < 1e-10


def test_density_rejects_zero():
    with pytest.raises(ValueError):
        s.density_of(np.zeros(4))


def test_mixture_single_state():
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(s.mixture([psi], [1.0]), s.density_of(psi))


def test_mixture_equal_qubit_mixture_is_maximally_mixed():
    rho = s.mixture([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.5, 0.5])
    np.testing.assert_allclose(rho, np.eye(2) / 2)


def test_mixture_random_is_density():
    rng = np.random.default_rng(1)
    states = [random_state(rng, (4,)) for _ in range(3)]
    rho = s.mixture(states, [0.2, 0.3, 0.5])
    assert abs(np.trace(rho) - 1.0) < 1e-12
    vals = np.linalg.eigvalsh(rho)
    assert vals.min() > -1e-12


def test_mixture_validates_probs():
    psi = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        s.mixture([psi, psi], [0.7, 0.7])
    with pytest.raises(ValueError):
        s.mixture([psi], [-1.0])
    with pytest.raises(ValueError):
        s.mixture([psi, np.ones(3)], [0.5, 0.5])


def test_partial_trace_ghz():
    ghz = s.ghz_state() / np.sqrt(2)
    rho_bc = s.reduced_density(ghz, (2, 2, 2), [0])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(rho_bc, expected, atol=1e-14)


def test_partial_trace_product_state_stays_rank_one():
    psi = s.parse_ket("|0>(|0>+|1>)|1>", (2, 2, 2))
    for traced in ([0], [1], [2], [0, 1], [1, 2], [0, 2]):
        rho = s.reduced_density(psi, (2, 2, 2), traced)
        assert np.linalg.matrix_rank(rho, tol=1e-10) == 1


def test_partial_trace_w_example():
    """Tracing the first party of W leaves |00><00| plus the symmetric pair."""
    w = s.w_state() / np.sqrt(3)
    rho = s.reduced_density(w, (2, 2, 2), [0])
    pair = np.zeros(4, dtype=complex)
    pair[1] = pair[2] = 1.0
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    expected = (np.outer(pair, pair.conj()) + np.outer(e00, e00.conj())) / 3.0
    np.testing.assert_allclose(rho, expected, atol=1e-14)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(2)
    psi = random_state(rng, (2, 3, 4))
    rho = s.density_of(psi)
    for traced in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        reduced = s.partial_trace(rho, (2, 3, 4), traced)
        assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12 * abs(np.trace(rho))


def _reference_partial_trace(rho, party_dims, traced):
    """The partial trace as one einsum over a subscript string of letters."""
    m = len(party_dims)
    keep = [i for i in range(m) if i not in traced]
    row = [chr(ord("a") + i) for i in range(m)]
    col = [row[i] if i in traced else chr(ord("a") + m + i) for i in range(m)]
    sub = "".join(row + col) + "->" + "".join([row[i] for i in keep] + [col[i] for i in keep])
    out_dim = int(np.prod([party_dims[i] for i in keep]))
    return np.einsum(sub, rho.reshape(party_dims + party_dims)).reshape(out_dim, out_dim)


def test_partial_trace_matches_letter_subscripts_bit_for_bit():
    rng = np.random.default_rng(5)
    for party_dims in ((2, 3, 4), (3, 1, 2), (2, 2, 2, 3)):
        rho = s.density_of(random_state(rng, party_dims))
        m = len(party_dims)
        for k in range(1, m):
            for traced in itertools.combinations(range(m), k):
                got = s.partial_trace(rho, party_dims, traced)
                want = _reference_partial_trace(rho, party_dims, traced)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_partial_trace_sequential_equals_joint():
    rng = np.random.default_rng(3)
    psi = random_state(rng, (2, 2, 3))
    rho = s.density_of(psi)
    joint = s.partial_trace(rho, (2, 2, 3), [0, 2])
    step1 = s.partial_trace(rho, (2, 2, 3), [2])
    step2 = s.partial_trace(step1, (2, 2), [0])
    np.testing.assert_allclose(joint, step2, atol=1e-12)
    other_order = s.partial_trace(s.partial_trace(rho, (2, 2, 3), [0]), (2, 3), [1])
    np.testing.assert_allclose(joint, other_order, atol=1e-12)


def test_partial_trace_errors():
    rho = s.density_of(np.ones(4) / 2)
    with pytest.raises(ValueError):
        s.partial_trace(rho, (2, 2), [])
    with pytest.raises(ValueError):
        s.partial_trace(rho, (2, 2), [0, 1])
    with pytest.raises(ValueError):
        s.partial_trace(rho, (2, 2), [5])
    assert abs(s.total_trace(rho) - 1.0) < 1e-14


def test_partial_trace_rejects_non_density_input():
    rho = s.density_of(np.ones(4) / 2)
    skew = rho.copy()
    skew[0, 1] += 0.5
    with pytest.raises(ValueError, match="not Hermitian"):
        s.partial_trace(skew, (2, 2), [0])
    with pytest.raises(ValueError, match="not positive semidefinite"):
        s.partial_trace(np.diag([1.0, -1.0, 0.0, 0.0]), (2, 2), [0])
    # the checks are relative, so a valid input passes at any scale
    for scale in (1e-200, 1e200):
        s.partial_trace(rho * scale, (2, 2), [0])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_partial_trace_check_survives_optimize_flag(flags):
    code = (
        "import numpy as np, slocc3\n"
        "rho = np.eye(4, dtype=complex)\n"
        "rho[0, 1] = 1.0\n"
        "try:\n"
        "    slocc3.partial_trace(rho, (2, 2), [0])\n"
        "except ValueError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "rejected: density matrix is not Hermitian"


def test_reduced_density_matches_partial_trace_of_density():
    rng = np.random.default_rng(5)
    for dims in ((2, 3, 4), (3, 3, 3), (2, 2, 2, 3)):
        psi = random_state(rng, dims)
        psi /= np.linalg.norm(psi)
        rho = s.density_of(psi)
        for traced in itertools.chain.from_iterable(
                itertools.combinations(range(len(dims)), r) for r in range(1, len(dims))):
            np.testing.assert_allclose(s.reduced_density(psi, dims, traced),
                                       s.partial_trace(rho, dims, traced), rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        s.reduced_density(np.zeros((2, 2)), (2, 2), [0])
    with pytest.raises(ValueError):
        s.reduced_density(np.ones((2, 2)), (2, 2), [0, 1])


@pytest.mark.parametrize("scale", [1e170, 1e-170])
def test_reduced_density_out_of_range_scale_raises(scale):
    """X X^dagger overflows at 1e170 and underflows to zero at 1e-170; both
    raise instead of returning inf/NaN or the zero matrix."""
    with pytest.raises(ArithmeticError):
        s.reduced_density(s.ghz_state() * scale, (2, 2, 2), [0])
    np.testing.assert_allclose(s.reduced_density(s.ghz_state() * scale**0.5, (2, 2, 2), [0]),
                               scale * s.reduced_density(s.ghz_state(), (2, 2, 2), [0]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_range_basis_rejects_non_finite(bad):
    rho = np.eye(4, dtype=complex)
    rho[1, 1] = bad
    with pytest.raises(ValueError):
        s.range_basis(rho)


def test_range_basis_rank_one():
    psi = np.array([1.0, 2.0, 0.0]) / np.sqrt(5)
    basis = s.range_basis(s.density_of(psi))
    assert len(basis) == 1
    overlap = abs(np.vdot(basis[0], psi))
    assert abs(overlap - 1.0) < 1e-12


def test_range_basis_ghz_spans_00_11():
    rho = s.reduced_density(s.ghz_state(), (2, 2, 2), [0])
    basis = s.range_basis(rho)
    assert len(basis) == 2
    span = np.stack(basis)
    # |00> and |11> lie in the span; |01>, |10> do not
    for idx, inside in ((0, True), (3, True), (1, False), (2, False)):
        e = np.zeros(4)
        e[idx] = 1.0
        proj = span.conj() @ e
        assert (np.linalg.norm(proj) > 0.99) == inside


def test_range_basis_w_spans_00_and_pair():
    rho = s.reduced_density(s.w_state(), (2, 2, 2), [0])
    basis = s.range_basis(rho)
    assert len(basis) == 2
    span = np.stack(basis)
    pair = np.array([0, 1, 1, 0]) / np.sqrt(2)
    e00 = np.array([1.0, 0, 0, 0])
    for v in (pair, e00):
        assert np.linalg.norm(span.conj() @ v) > 0.99


def test_reduced_rank_matches_local_rank():
    rng = np.random.default_rng(4)
    for trial in range(20):
        psi = random_state(rng, (2, 3, 4))
        ranks = s.local_ranks(psi)
        for party in range(3):
            others = [p for p in range(3) if p != party]
            rho = s.reduced_density(psi, (2, 3, 4), others)
            got = len(s.range_basis(rho))
            assert got == ranks[party]
