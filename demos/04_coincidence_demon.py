"""Coincidence post-selection as an attack surface on entanglement-based QKD.

Real photon links are lossy, so the parties keep only time slots where both
detectors fired. An interceptor who measures the flying photon herself can
exploit exactly that filter: she re-sends a signal engineered to register
at the receiver only when his polarizer matches the setting she used, and
to deliver the outcome she already recorded. Every accepted event is then
known to her — while the post-selected data still violates the Bell bound,
because slots where the settings disagreed simply look like losses.
"""

import math

from qtwoparty import qkd

common = dict(
    n_pairs=1_000_000,
    alice_settings=(0.0, math.pi / 4),
    bob_settings=(math.pi / 8, 3 * math.pi / 8),
    visibility=1.0,
    channel_transmission_honest=0.4,
    channel_transmission_eve=0.8,
    bob_detector_eff=0.8,
)

print("honest run, one million pairs:")
honest_cfg = qkd.QkdConfig(attack="none", seed=7, **common)
honest, _ = qkd.simulate(honest_cfg)
print(f"  CHSH S = {honest.chsh_value:.4f} +- {honest.chsh_stderr:.4f}"
      f"   (classical bound 2, quantum maximum {2 * math.sqrt(2):.4f})")
print(f"  coincidence rate = {honest.coincidence_rate:.4f}")

print("\nsame source and settings under the interception attack:")
attack_cfg = qkd.QkdConfig(attack="demon", seed=7, **common)
attacked, _ = qkd.simulate(attack_cfg)
print(f"  CHSH S = {attacked.chsh_value:.4f} +- {attacked.chsh_stderr:.4f}   (still 'secure'!)")
print(f"  coincidence rate = {attacked.coincidence_rate:.4f}")
print(f"  fraction of accepted outcomes known to the interceptor: "
      f"{attacked.eve_knowledge_fraction}")

print("\nrate forensics (the only honest-side observable that can notice):")
report = qkd.rate_analysis(attack_cfg, attacked)
print(f"  analytic honest rate  = {report.honest_rate:.4f}")
print(f"  analytic attack rate  = {report.attack_rate:.4f}")
print(f"  stealth needs replaced-channel transmission >= {report.required_t_eve:.2f}"
      f"  -> {'feasible' if report.stealth_feasible else 'IMPOSSIBLE: rate-detectable'}")
print(f"  simulated rate within 4 sigma of analytic: {report.observed_within_4sigma}")

print("\nwith a lossier honest channel the attack cannot hide:")
lossy = qkd.QkdConfig(attack="demon", seed=7, **{**common, "channel_transmission_honest": 0.6})
print(f"  t_honest = 0.6, two receiver settings -> needs t_eve >= "
      f"{qkd.rate_analysis(lossy).required_t_eve:.2f}: "
      f"{'rate-detectable' if qkd.rate_analysis(lossy).rate_detectable else 'feasible'}")

print("\nthe security of the post-selected Bell test is only as good as the")
print("assumption that lost photons were lost innocently.")
