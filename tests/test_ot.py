"""Transfer protocol: state preparation, discrimination POVM, and both cheats."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qtwoparty import linalg, ot

import dense_oracle as oracle

THETA_GRID = [(i / 100) * math.pi / 4 for i in range(1, 101)]


def test_params_validation():
    with pytest.raises(ValueError):
        ot.OtParams(0.0)
    with pytest.raises(ValueError):
        ot.OtParams(math.pi / 4 + 1e-6)
    with pytest.raises(ValueError):
        ot.OtParams(float("nan"))
    assert not ot.OtParams(math.pi / 6).is_degenerate
    assert ot.OtParams(math.pi / 4).is_degenerate


def test_make_states_orthogonal_limit():
    psi0, psi1 = ot.make_states(math.pi / 4)
    assert abs(np.dot(psi0, psi1)) < 1e-15
    assert abs(np.linalg.norm(psi0) - 1) < 1e-12


def test_make_states_paper_point():
    psi0, psi1 = ot.make_states(math.pi / 6)
    assert abs(np.dot(psi0, psi1) - 0.5) < 1e-12


def test_make_states_identical_limit():
    psi0, psi1 = ot.make_states(1e-8)
    assert np.dot(psi0, psi1) > 1 - 1e-12


def test_usd_effects_match_printed_form():
    theta = math.pi / 5
    c, s = math.cos(theta), math.sin(theta)
    norm = 1 + math.cos(2 * theta)
    povm = ot.make_usd_povm(theta)
    assert np.abs(povm.effect(ot.BIT0) - np.array([[s * s, s * c], [s * c, c * c]]) / norm).max() < 1e-14
    assert np.abs(povm.effect(ot.BIT1) - np.array([[s * s, -s * c], [-s * c, c * c]]) / norm).max() < 1e-14
    expected_hash = np.diag([1 - math.tan(theta) ** 2, 0.0])
    assert np.abs(povm.effect(ot.HASH) - expected_hash).max() < 1e-12


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 8, math.pi / 5])
def test_usd_never_misidentifies(theta):
    psi0, psi1 = ot.make_states(theta)
    povm = ot.make_usd_povm(theta)
    assert abs(psi1 @ povm.effect(ot.BIT0) @ psi1) < 1e-14
    assert abs(psi0 @ povm.effect(ot.BIT1) @ psi0) < 1e-14


def test_usd_success_and_hash_probabilities():
    theta = math.pi / 6
    psi0, psi1 = ot.make_states(theta)
    povm = ot.make_usd_povm(theta)
    for b, psi in ((0, psi0), (1, psi1)):
        assert abs(psi @ povm.effect(f"bit{b}") @ psi - 0.5) < 1e-12      # 1 - cos(2 theta)
        assert abs(psi @ povm.effect(ot.HASH) @ psi - 0.5) < 1e-12        # completeness remainder


def test_usd_construction_error_beyond_pi_over_4():
    # the hash effect loses positivity past the orthogonal limit
    with pytest.raises(ValueError, match=r"positivity\[hash\]"):
        linalg.Povm(tuple(zip(ot.OUTCOME_LABELS, ot._usd_effects(0.9))))


def test_usd_povm_valid_on_grid():
    for theta in THETA_GRID:
        oracle.assert_povm(ot.make_usd_povm(theta))


def test_honest_distribution_paper_point():
    dist = ot.honest_distribution(math.pi / 6, 0)
    assert abs(dist[ot.BIT0] - 0.5) < 1e-12
    assert abs(dist[ot.BIT1]) < 1e-12
    assert abs(dist[ot.HASH] - 0.5) < 1e-12


def test_honest_distribution_degenerate():
    dist = ot.honest_distribution(math.pi / 4, 1)
    assert abs(dist[ot.BIT1] - 1.0) < 1e-12
    assert abs(dist[ot.BIT0]) < 1e-12
    assert abs(dist[ot.HASH]) < 1e-12


def test_honest_distribution_born_rule_oracle():
    # independent Born-rule evaluation <psi|E|psi> on a 50-point grid
    for theta in THETA_GRID[::2]:
        povm = ot.make_usd_povm(theta)
        for bit in (0, 1):
            psi = ot.make_states(theta)[bit]
            dist = ot.honest_distribution(theta, bit)
            assert abs(sum(dist.values()) - 1.0) < 1e-12
            for label, effect in povm.effects:
                born = float(np.real(np.vdot(psi, effect @ psi)))
                assert abs(dist[label] - born) < 1e-12
            # closed forms from the construction
            assert abs(dist[f"bit{bit}"] - (1 - math.cos(2 * theta))) < 1e-10
            assert abs(dist[ot.HASH] - math.cos(2 * theta)) < 1e-10


def test_alice_cheat_closed_form():
    cheat = ot.alice_cheat_hash_prob(math.pi / 6)
    assert abs(cheat.hash_prob - 2.0 / 3.0) < 1e-12
    assert abs(ot.alice_cheat_hash_prob(math.pi / 4).hash_prob) < 1e-12
    for theta in THETA_GRID:
        p = ot.alice_cheat_hash_prob(theta).hash_prob
        c2 = math.cos(2 * theta)
        assert abs(p - 2 * c2 / (1 + c2)) < 1e-12


def test_alice_cheat_optimality_random_sampling():
    # oracle: random pure states never beat the reported maximum, |0> attains it
    theta = math.pi / 6
    cheat = ot.alice_cheat_hash_prob(theta)
    ehash = ot.make_usd_povm(theta).effect(ot.HASH)
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        assert float(np.real(np.vdot(v, ehash @ v))) <= cheat.hash_prob + 1e-9
    zero = np.array([1.0, 0.0])
    assert abs(float(zero @ ehash @ zero) - cheat.hash_prob) < 1e-15
    assert abs(np.vdot(cheat.optimal_state, zero)) > 1 - 1e-9


def test_bob_helstrom_closed_form():
    assert abs(ot.bob_helstrom_prob(math.pi / 6) - (1 + math.sqrt(3) / 2) / 2) < 1e-10
    assert abs(ot.bob_helstrom_prob(math.pi / 4) - 1.0) < 1e-12
    assert abs(ot.bob_helstrom_prob(1e-9) - 0.5) < 1e-8
    for theta in THETA_GRID:
        q = ot.bob_helstrom_prob(theta)
        assert abs(q - (1 + math.sin(2 * theta)) / 2) < 1e-10


def test_partial_security_pair_closed_forms():
    for theta in THETA_GRID[::5]:
        sec = ot.partial_security(theta)
        c2 = math.cos(2 * theta)
        assert abs(sec.p - 2 * c2 / (1 + c2)) < 1e-12
        assert abs(sec.q - (1 + math.sin(2 * theta)) / 2) < 1e-12


def test_partial_security_monotonicity():
    ps = [ot.partial_security(theta) for theta in THETA_GRID]
    for a, b in zip(ps, ps[1:]):
        assert b.p < a.p
        assert b.q > a.q


def test_unambiguity_on_grid():
    for theta in THETA_GRID:
        povm = ot.make_usd_povm(theta)
        for b in (0, 1):
            rho = linalg.projector(ot.make_states(theta)[b])
            wrong = float(np.trace(rho @ povm.effect(f"bit{1 - b}")).real)
            assert wrong <= 1e-12


def test_helstrom_optimality_over_random_povms():
    theta = math.pi / 6
    q = ot.bob_helstrom_prob(theta)
    rho0, rho1 = (linalg.projector(s) for s in ot.make_states(theta))
    rng = np.random.default_rng(99)
    for _ in range(1000):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        _, u = np.linalg.eigh((g + g.conj().T) / 2)
        f = (u * rng.random(2)) @ u.conj().T          # random effect 0 <= F <= I
        success = 0.5 * float(np.trace(rho0 @ f).real) + 0.5 * float(
            np.trace(rho1 @ (np.eye(2) - f)).real
        )
        assert success <= q + 1e-9


def test_helstrom_povm_achieves_q():
    for theta in (math.pi / 6, math.pi / 8):
        povm = ot.helstrom_povm(theta)
        oracle.assert_povm(povm)
        rho0, rho1 = (linalg.projector(s) for s in ot.make_states(theta))
        success = 0.5 * povm.probabilities(rho0)[ot.BIT0] + 0.5 * povm.probabilities(rho1)[ot.BIT1]
        assert abs(success - ot.bob_helstrom_prob(theta)) < 1e-12


# ---------------------------------------------------------------------------
# Monte-Carlo rounds
# ---------------------------------------------------------------------------


def test_simulate_honest_hash_frequency():
    sim = ot.simulate_rounds(math.pi / 6, 100_000, strategy="honest", seed=1)
    assert abs(sim.frequencies[ot.HASH] - 0.5) <= sim.four_sigma(ot.HASH)


def test_simulate_alice_cheats_hash_frequency():
    sim = ot.simulate_rounds(math.pi / 6, 100_000, strategy="alice_cheats", seed=2)
    assert abs(sim.frequencies[ot.HASH] - 2.0 / 3.0) <= sim.four_sigma(ot.HASH)


def test_simulate_bob_cheats_guess_rate():
    sim = ot.simulate_rounds(math.pi / 6, 100_000, strategy="bob_cheats", seed=3)
    correct = sim.counts[0][ot.BIT0] + sim.counts[1][ot.BIT1]
    q = ot.bob_helstrom_prob(math.pi / 6)
    assert abs(correct / sim.n_rounds - q) <= 4 * math.sqrt(q * (1 - q) / sim.n_rounds)


def test_simulate_single_round_reproducible():
    a = ot.simulate_rounds(math.pi / 6, 1, seed=5)
    b = ot.simulate_rounds(math.pi / 6, 1, seed=5)
    assert a.counts == b.counts
    assert a.bit_counts == b.bit_counts
    assert sum(sum(c.values()) for c in a.counts.values()) == 1


def test_simulate_determinism_and_honest_never_wrong():
    a = ot.simulate_rounds(math.pi / 7, 20_000, seed=11)
    b = ot.simulate_rounds(math.pi / 7, 20_000, seed=11)
    assert a.counts == b.counts
    assert a.counts[0][ot.BIT1] == 0
    assert a.counts[1][ot.BIT0] == 0


def test_simulate_argument_errors():
    with pytest.raises(ValueError):
        ot.simulate_rounds(math.pi / 6, 0)
    with pytest.raises(ValueError, match="n_rounds must be an integer, got 2.5"):
        ot.simulate_rounds(math.pi / 6, 2.5)
    assert ot.simulate_rounds(math.pi / 6, 3.0, seed=4).counts == \
        ot.simulate_rounds(math.pi / 6, 3, seed=4).counts
    with pytest.raises(ValueError):
        ot.simulate_rounds(math.pi / 6, 10, strategy="nope")
