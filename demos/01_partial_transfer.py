"""Walk through the partially secure transfer protocol at theta = pi/6.

The sender encodes her bit in one of two non-orthogonal qubit states; the
receiver runs the unambiguous-discrimination measurement. Honest play gives
the right bit half the time and an explicit "don't know" otherwise — but
each party has a quantifiable cheat: the sender can force the inconclusive
outcome by sending |0>, the receiver can guess the bit with a minimum-error
measurement instead.
"""

import numpy as np

from qtwoparty import ot

theta = np.pi / 6
params = ot.OtParams(theta)

psi0, psi1 = ot.make_states(params)
print("signal states for bit 0 and bit 1:")
print("  |psi_0> =", psi0)
print("  |psi_1> =", psi1)
print("  overlap <psi_0|psi_1> =", float(psi0 @ psi1), "(= cos 2theta)")

povm = ot.make_usd_povm(params)
print("\nreceiver's three-outcome measurement (never misidentifies the bit):")
for label, effect in povm.effects:
    print(f"  E_{label} =")
    print(np.array_str(effect, precision=6, suppress_small=True))
print("  validation: passed at construction (linalg.Povm refuses anything that is not a POVM)")

print("\nhonest outcome distributions:")
for bit in (0, 1):
    dist = ot.honest_distribution(params, bit)
    print(f"  bit {bit}:", {k: round(v, 6) for k, v in dist.items()})

cheat = ot.alice_cheat_hash_prob(params)
print("\nsender's cheat: send |0> to force the inconclusive outcome")
print("  forced hash probability p =", cheat.hash_prob, "(honest rate is 0.5)")
print("  maximizing state:", np.round(cheat.optimal_state.real, 6))

q = ot.bob_helstrom_prob(params)
print("\nreceiver's cheat: minimum-error guessing instead of playing honestly")
print("  guessing success q =", q, "(honest conclusive rate is 0.5)")

print("\nMonte-Carlo confirmation (100000 rounds each):")
for strategy in ("honest", "alice_cheats", "bob_cheats"):
    sim = ot.simulate_rounds(params, 100_000, strategy=strategy, seed=1)
    freqs = {k: round(v, 4) for k, v in sim.frequencies.items()}
    print(f"  {strategy:13s} -> {freqs}")

print("\ncheat ceilings across the angle range:")
print("  theta/pi     p (hash forcing)   q (bit guessing)")
for frac in (0.05, 0.10, 0.15, 0.20, 0.25):
    sec = ot.partial_security(frac * np.pi)
    print(f"  {frac:8.2f}   {sec.p:16.6f}   {sec.q:16.6f}")
print("\nsmaller theta: harder for the receiver, easier for the sender —")
print("partial security on both sides, full security on neither.")
