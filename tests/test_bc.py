"""Commitment composition: parity mixtures, quantum cheats, classical bounds."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from qtwoparty import bc, linalg, ot

import dense_oracle as oracle

PI6 = math.pi / 6

# frozen from the first 16-dimensional eigendecomposition; independently
# reproduced by the enumeration oracle in test_compute_d_regression_2_2
D_2_2_PI6 = 0.9095214486296651


def _mixture_enumeration(m: int, theta: float, parity: int) -> np.ndarray:
    """Brute-force oracle: literal sum over all bit strings of the given parity."""
    states = ot.make_states(theta)
    acc = np.zeros((2**m, 2**m))
    count = 0
    for s in itertools.product((0, 1), repeat=m):
        if sum(s) % 2 != parity:
            continue
        op = np.array([[1.0]])
        for bit in s:
            op = np.kron(op, linalg.projector(states[bit]))
        acc += op
        count += 1
    assert count == 2 ** (m - 1)
    return acc / count


# ---------------------------------------------------------------------------
# parity mixtures: W at N = 1
# ---------------------------------------------------------------------------


def _mixture(m: int, theta: float, parity: int) -> np.ndarray:
    return bc.build_w(bc.BcParams(m, 1, theta), parity)


def test_mixture_m1_even_is_signal_projector():
    mix = _mixture(1, PI6, 0)
    psi0, _ = ot.make_states(PI6)
    assert np.abs(mix - linalg.projector(psi0)).max() < 1e-14


def test_mixture_m2_even_two_terms():
    mix = _mixture(2, PI6, 0)
    psi0, psi1 = ot.make_states(PI6)
    expected = 0.5 * (
        np.kron(linalg.projector(psi0), linalg.projector(psi0))
        + np.kron(linalg.projector(psi1), linalg.projector(psi1))
    )
    assert np.abs(mix - expected).max() < 1e-14
    assert abs(np.trace(mix) - 1.0) < 1e-12


def test_mixture_m3_odd_trace_and_rank():
    mix = _mixture(3, PI6, 1)
    assert abs(np.trace(mix) - 1.0) < 1e-12
    w = np.linalg.eigvalsh(mix)
    assert int((w > 1e-12).sum()) <= 4


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_mixture_against_enumeration_oracle(m):
    for parity in (0, 1):
        fast = _mixture(m, PI6, parity)
        slow = _mixture_enumeration(m, PI6, parity)
        assert np.abs(fast - slow).max() < 1e-12


def test_mixture_bitflip_symmetry():
    # rho_E and rho_O share trace and purity for every (m, theta)
    for m in (1, 2, 3, 4):
        for theta in (PI6, math.pi / 8, math.pi / 5):
            e = _mixture(m, theta, 0)
            o = _mixture(m, theta, 1)
            assert abs(np.trace(e) - np.trace(o)) < 1e-12
            assert abs(np.trace(e @ e) - np.trace(o @ o)) < 1e-12


def test_mixture_validates_as_density():
    oracle.check_density(_mixture(4, PI6, 0))


def test_mixture_cap_and_argument_errors():
    with pytest.raises(linalg.DimensionCapError):
        _mixture(13, PI6, 0)
    with pytest.raises(ValueError):
        _mixture(2, PI6, 2)


# ---------------------------------------------------------------------------
# closed-form single-string distances vs the dense toolkit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", list(range(1, 9)))
def test_mixture_fidelity_matches_dense(m):
    for theta in (PI6, math.pi / 8, 0.7, math.pi / 4):
        e = _mixture(m, theta, 0)
        o = _mixture(m, theta, 1)
        assert abs(bc.mixture_fidelity(m, theta) - oracle.fidelity(e, o)) < 1e-10


@pytest.mark.parametrize("m", list(range(1, 9)))
def test_mixture_trace_distance_matches_dense(m):
    for theta in (PI6, math.pi / 8, 0.7):
        e = _mixture(m, theta, 0)
        o = _mixture(m, theta, 1)
        assert abs(bc.mixture_trace_distance(m, theta) - linalg.trace_distance(e, o)) < 1e-10
        assert abs(bc.mixture_trace_distance(m, theta) - math.sin(2 * theta) ** m) < 1e-14


def test_mixture_fidelity_single_bit_is_overlap():
    for theta in (PI6, math.pi / 8, 0.5):
        assert abs(bc.mixture_fidelity(1, theta) - math.cos(2 * theta)) < 1e-14


def test_mixtures_converge_as_theta_vanishes():
    # D(rho_E, rho_O) decreases monotonically to 0 as theta -> 0 at fixed m
    for m in (1, 2, 3):
        grid = np.linspace(math.pi / 4, 1e-3, 40)
        values = [bc.mixture_trace_distance(m, t) for t in grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-2


# ---------------------------------------------------------------------------
# W operators
# ---------------------------------------------------------------------------


def test_build_w_single_copy():
    params = bc.BcParams(2, 1, PI6)
    w = bc.build_w(params, 1)
    assert np.abs(w - _mixture_enumeration(2, PI6, 1)).max() < 1e-14


def test_build_w_unit_trace():
    params = bc.BcParams(2, 2, PI6)
    for bit in (0, 1):
        assert abs(np.trace(bc.build_w(params, bit)) - 1.0) < 1e-12


def test_build_w_pure_for_m1():
    # purity oracle: Tr(W^2) = 1 for the (1, 2) even product of pure signals
    w = bc.build_w(bc.BcParams(1, 2, PI6), 0)
    assert abs(np.trace(w @ w) - 1.0) < 1e-12
    psi0, _ = ot.make_states(PI6)
    expected = linalg.projector(np.kron(psi0, psi0))
    assert np.abs(w - expected).max() < 1e-14


def test_build_w_cap_error():
    with pytest.raises(linalg.DimensionCapError):
        bc.build_w(bc.BcParams(4, 4, PI6), 0)


@pytest.mark.parametrize("bit", [1.0, np.int64(1)])
def test_build_w_integral_bit_is_bit_one(bit):
    params = bc.BcParams(2, 1, PI6)
    assert np.array_equal(bc.build_w(params, bit), bc.build_w(params, 1))


@pytest.mark.parametrize("bit", [True, 2, "1"])
def test_build_w_refuses_bit(bit):
    with pytest.raises(ValueError, match=r"^bit must be"):
        bc.build_w(bc.BcParams(2, 1, PI6), bit)


@pytest.mark.parametrize(
    "m, n", [(m, n) for m in range(1, 11) for n in range(1, 10 // m + 1)]
)
def test_parity_factor_fidelity_matches_dense_oracle(m, n):
    # the factored fidelity test_03 uses, against the dense one where it is cheap
    params = bc.BcParams(m, n, PI6)
    w0, w1 = bc.build_w(params, 0), bc.build_w(params, 1)
    f0, f1 = (oracle.parity_factor(m, n, PI6, bit) for bit in (0, 1))
    assert np.abs(f0 @ f0.T - w0).max() < 1e-12
    assert np.abs(f1 @ f1.T - w1).max() < 1e-12
    assert abs(np.linalg.norm(f0.T @ f1, "nuc") - oracle.fidelity(w0, w1)) <= 1e-8


@pytest.mark.parametrize(
    "m, n", [(m, n) for m in range(1, 11) for n in range(2, 10 // m + 1)]
)
def test_parity_trace_distance_matches_dense_oracle(m, n):
    # the factored trace distance test_03 uses at N >= 2, against the dense one
    params = bc.BcParams(m, n, PI6)
    f0, f1 = (oracle.parity_factor(m, n, PI6, bit) for bit in (0, 1))
    dense = linalg.trace_distance(bc.build_w(params, 0), bc.build_w(params, 1))
    assert abs(oracle.parity_trace_distance(f0, f1) - dense) <= 1e-12


@pytest.mark.parametrize(
    "m, n", [(m, n) for m in range(1, 11) for n in range(1, 10 // m + 1)]
)
def test_steering_certificate_reaches_alice_steer(m, n):
    # the Uhlmann-midpoint strategy unveils either bit with (1 + f)/2
    for theta in (0.1, PI6, 0.7, math.pi / 4):
        rep = bc.cheat_report(bc.BcParams(m, n, theta))
        f0, f1 = (oracle.parity_factor(m, n, theta, bit) for bit in (0, 1))
        for p in oracle.steering_certificate(f0, f1):
            assert abs(p - rep.alice_steer) <= 1e-12, (theta, p, rep.alice_steer)


# ---------------------------------------------------------------------------
# f and d
# ---------------------------------------------------------------------------


def test_compute_f_pure_oracle_1_1():
    # oracle: single pure pair, F = |<psi_0|psi_1>| = cos(2 theta) = 1/2
    assert abs(bc.compute_f(bc.BcParams(1, 1, PI6)) - 0.5) < 1e-12


def test_compute_f_multiplicativity_vs_direct_1_2():
    params = bc.BcParams(1, 2, PI6)
    f = bc.compute_f(params)
    assert abs(f - 0.25) < 1e-12
    direct = oracle.fidelity(bc.build_w(params, 0), bc.build_w(params, 1))
    assert abs(f - direct) < 1e-8


def test_compute_f_orthogonal_limit():
    # orthogonal supports; only float round-off of sin^2 vs cos^2 survives
    for m, n in ((1, 1), (2, 3), (3, 2)):
        assert bc.compute_f(bc.BcParams(m, n, math.pi / 4)) < 1e-12


def test_compute_d_pure_oracle_1_1():
    d = bc.compute_d(bc.BcParams(1, 1, PI6))
    assert d.exact
    assert abs(d.value - math.sqrt(3) / 2) < 1e-12


def test_compute_d_orthogonal_limit():
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        d = bc.compute_d(bc.BcParams(m, n, math.pi / 4))
        assert d.exact and abs(d.value - 1.0) < 1e-10


def test_compute_d_regression_2_2():
    d = bc.compute_d(bc.BcParams(2, 2, PI6))
    assert d.exact
    assert abs(d.value - D_2_2_PI6) < 1e-12
    # enumeration oracle reproduces the frozen baseline
    w0 = np.kron(_mixture_enumeration(2, PI6, 0), _mixture_enumeration(2, PI6, 0))
    w1 = np.kron(_mixture_enumeration(2, PI6, 1), _mixture_enumeration(2, PI6, 1))
    brute = 0.5 * float(np.abs(np.linalg.eigvalsh(w0 - w1)).sum())
    assert abs(brute - D_2_2_PI6) < 1e-12


def test_compute_d_interval_above_cap():
    params = bc.BcParams(4, 4, PI6)
    d = bc.compute_d(params)
    assert not d.exact
    f = bc.compute_f(params)
    assert abs(d.lo - (1 - f)) < 1e-15
    assert abs(d.hi - math.sqrt(1 - f * f)) < 1e-15
    assert d.value == d.lo
    assert bc.compute_d(params, f=f) == d


DENSE_THETAS = (1e-3, 0.1, PI6, 0.7, math.pi / 4)


@pytest.mark.parametrize(
    "m, n", [(m, n) for m in range(1, 9) for n in range(1, 8 // m + 1)]
)
def test_compute_d_matches_dense_oracle(m, n):
    # the block-class sum against the eigendecomposition of the built W_0 - W_1
    for theta in DENSE_THETAS:
        params = bc.BcParams(m, n, theta)
        dense = linalg.trace_distance(bc.build_w(params, 0), bc.build_w(params, 1))
        d = bc.compute_d(params)
        assert d.exact
        assert math.isclose(d.value, dense, rel_tol=1e-10), (theta, d.value, dense)


def test_compute_d_single_string_small_theta():
    # N = 1 gives D(rho_E, rho_O) = sin(2 theta)^M; as theta -> 0 a naive
    # P^2 - Q^2 would cancel to nothing long before d underflows
    for m in range(1, 13):
        for theta in (1e-3, 1e-2, 0.1, PI6, 0.7, math.pi / 4):
            d = bc.compute_d(bc.BcParams(m, 1, theta)).value
            assert math.isclose(d, bc.mixture_trace_distance(m, theta), rel_tol=1e-12), (m, theta)


def test_compute_d_term_budget():
    assert bc.block_terms(12, 1) == 7
    assert bc.block_terms(2, 6) == 7
    big = bc.BcParams(200, 50, PI6)
    assert bc.block_terms(200, 50) > bc.MAX_D_TERMS
    with pytest.raises(linalg.DimensionCapError):
        bc.compute_d(big, exact_cap=100_000)
    # the same row under the default cap is an interval row and needs no terms
    assert not bc.compute_d(big).exact


# ---------------------------------------------------------------------------
# classical bounds and the assembled report
# ---------------------------------------------------------------------------


def test_classical_bounds_paper_scale_point():
    # closed-form oracle evaluated in place for (M, N) = (50, 10) at theta = pi/6
    sec = ot.partial_security(PI6)
    bounds = bc.classical_bounds(sec.p, sec.q, 50, 10)
    assert abs(bounds.alice - sec.p**10) < 1e-15
    assert abs(bounds.alice - 0.017341529915832606) < 1e-12
    assert abs(bounds.bob - 10 * sec.q**50) < 1e-15
    assert abs(bounds.bob - 0.31216040123439115) < 1e-12
    assert not bounds.clipped


def test_classical_bounds_perfect_ot_limit():
    # p = q = 1/2 reproduces the idealized bounds 1/2^N and N/2^M
    bounds = bc.classical_bounds(0.5, 0.5, 4, 3)
    assert abs(bounds.alice - 1 / 2**3) < 1e-15
    assert abs(bounds.bob - 3 / 2**4) < 1e-15


def test_classical_bounds_clipping():
    bounds = bc.classical_bounds(0.5, 0.9, 2, 10)
    assert bounds.clipped
    assert bounds.bob == 1.0
    assert abs(bounds.bob_raw - 10 * 0.9**2) < 1e-15


def test_cheat_report_1_1():
    rep = bc.cheat_report(bc.BcParams(1, 1, PI6))
    assert abs(rep.alice_quantum - 0.625) < 1e-12
    assert abs(rep.bob_quantum - (1 + math.sqrt(3) / 2) / 2) < 1e-12
    assert abs(rep.f_plus_d - (0.5 + math.sqrt(3) / 2)) < 1e-12
    assert rep.f_plus_d >= 1 - 1e-9


def test_cheat_report_interval_row():
    rep = bc.cheat_report(bc.BcParams(60, 6, PI6))
    assert not rep.d.exact
    assert rep.classical.alice < 0.1
    assert rep.classical.bob < 0.1
    assert rep.alice_quantum > 0.51
    assert rep.f_plus_d >= 1 - 1e-9


def test_params_validation():
    with pytest.raises(ValueError):
        bc.BcParams(0, 1, PI6)
    with pytest.raises(ValueError):
        bc.BcParams(1, -2, PI6)
    with pytest.raises(ValueError):
        bc.BcParams(1, 1, 1.0)  # theta beyond pi/4
    # a fractional count is refused, not truncated
    with pytest.raises(ValueError, match=r"m must be an integer, got 2\.7"):
        bc.BcParams(2.7, 3.9, PI6)
    with pytest.raises(ValueError, match=r"n must be an integer, got 3\.9"):
        bc.BcParams(2, 3.9, PI6)
    with pytest.raises(ValueError, match=r"m must be an integer, got 1\.5"):
        bc.sweep(PI6, [1.5], [2.2])
    # the closed forms take m through the same check
    for mixture in (bc.mixture_fidelity, bc.mixture_trace_distance):
        with pytest.raises(ValueError, match=r"m must be an integer, got 2\.5"):
            mixture(2.5, PI6)
        with pytest.raises(ValueError, match="m must be an integer, got True"):
            mixture(True, PI6)
        with pytest.raises(ValueError, match="m must be >= 1, got 0"):
            mixture(0, PI6)
    params = bc.BcParams(2.0, np.int64(3), PI6)
    assert (params.m, params.n) == (2, 3) and type(params.m) is int and type(params.n) is int


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_f_plus_d_floor():
    rows = bc.sweep(PI6, range(1, 5), range(1, 4))
    assert len(rows) == 12
    for rep in rows:
        assert rep.f_plus_d >= 1 - 1e-9


def test_sweep_m1_limit_behavior():
    # with M = 1, f = (1/2)^N -> 0 while d -> 1
    rows = bc.sweep(PI6, [1], range(1, 11))
    fs = [r.f for r in rows]
    ds = [r.d.value for r in rows]
    for k, rep in enumerate(rows):
        assert abs(rep.f - 0.5 ** (k + 1)) < 1e-12
    assert all(b < a for a, b in zip(fs, fs[1:]))
    assert all(b > a for a, b in zip(ds, ds[1:]))
    assert ds[-1] > 0.999


def test_sweep_orthogonal_limit_saturates():
    for rep in bc.sweep(math.pi / 4, [1, 2], [1, 2]):
        assert rep.f < 1e-12
        assert abs(rep.d.value - 1.0) < 1e-10
        assert abs(rep.f_plus_d - 1.0) < 1e-10


def test_sweep_classical_monotonicity():
    rows = {(r.params.m, r.params.n): r for r in bc.sweep(PI6, range(1, 5), range(1, 4))}
    for m in range(1, 5):
        alices = [rows[(m, n)].classical.alice for n in range(1, 4)]
        assert all(b < a for a, b in zip(alices, alices[1:]))
    for n in range(1, 4):
        bobs = [rows[(m, n)].classical.bob_raw for m in range(1, 5)]
        assert all(b < a for a, b in zip(bobs, bobs[1:]))


def test_sweep_quantum_cheats_exceed_half_strictly():
    for theta in (0.2, PI6, 0.7):
        for rep in bc.sweep(theta, [1, 2, 3], [1, 2]):
            assert rep.alice_quantum > 0.5
            assert rep.bob_quantum > 0.5


def test_sweep_computes_each_quantity_once(monkeypatch):
    # (p, q) depend on theta alone: one call per sweep; f once per row, the
    # interval rows included
    calls = {"partial_security": 0, "compute_f": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(ot, "partial_security")
    counted(bc, "compute_f")
    rows = bc.sweep(PI6, range(1, 5), range(3, 6))
    assert len(rows) == 12 and sum(not r.d.exact for r in rows) == 3
    assert calls == {"partial_security": 1, "compute_f": 12}
    sec = ot.partial_security(PI6)
    for rep in rows:
        assert rep.classical == bc.classical_bounds(sec.p, sec.q, rep.params.m, rep.params.n)
