"""Reference computations written apart from qtwoparty.

Each oracle recomputes a program output by a different route, so the
benchmark can check results without trusting the code it times:

* ``block_trace_distance`` -- d = D(W_0, W_1) from the 2x2 block structure
  of the parity mixtures, in exact rationals; only the final square roots
  are rounded (to 50 digits).
* ``binomial_tail_f`` -- f = |P[X < M/2] - P[X > M/2]|^N, X ~ Bin(M, sin^2 theta).
* ``classical_bounds`` -- p = 2cos2t/(1+cos2t), q = (1+sin2t)/2, then p^N and N q^M.
* ``decode`` / ``residual`` -- the feasibility objective recomputed from full
  density matrices, explicit partial traces and ``scipy.linalg``.
* ``retally_trials`` -- an independent tally of a per-trial CSV file.

``selfcheck`` compares every oracle with the program at small sizes.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import scipy.linalg

from workloads import FAMILIES, n_params

# cos^2 and sin^2 of pi/6, the angle of acceptance criterion 3's grid
C2_PI6 = Fraction(3, 4)
S2_PI6 = Fraction(1, 4)


# ---------------------------------------------------------------------------
# bit commitment
# ---------------------------------------------------------------------------


def block_trace_distance(m: int, n: int, c2: Fraction = C2_PI6, s2: Fraction = S2_PI6) -> float:
    """D(W_0, W_1) = sum over block classes of multinomial * prod counts * sqrt(P^2 - Q^2).

    rho_even and rho_odd are nonzero only on the 2-dim spans of a basis
    string y and its complement; there they are |v><v| and |w><w| with
    v = (sqrt a_k, sqrt a_{m-k}), w = (sqrt a_k, -sqrt a_{m-k}) and
    a_k = c2^(m-k) s2^k. A block of the N-fold power is labelled by one pair
    class per factor; its two rank-one operators have equal norm P = prod
    (a_k + a_{m-k}) and overlap Q = prod (a_k - a_{m-k}), so its trace norm
    is 2 sqrt(P^2 - Q^2).
    """
    a = [c2 ** (m - k) * s2**k for k in range(m + 1)]
    classes = []  # (number of pairs {y, ybar}, a_j + a_{m-j}, a_j - a_{m-j})
    for j in range(m // 2 + 1):
        count = math.comb(m, j) // 2 if 2 * j == m else math.comb(m, j)
        classes.append((count, a[j] + a[m - j], a[j] - a[m - j]))
    with localcontext() as ctx:
        ctx.prec = 50
        total = Decimal(0)
        for combo in itertools.combinations_with_replacement(range(len(classes)), n):
            mult = math.factorial(n)
            for j in set(combo):
                mult //= math.factorial(combo.count(j))
            weight, p, q = 1, Fraction(1), Fraction(1)
            for j in combo:
                weight *= classes[j][0]
                p *= classes[j][1]
                q *= classes[j][2]
            x = p * p - q * q
            total += mult * weight * (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()
        return float(total)


def binomial_tail_f(m: int, n: int, theta: float) -> float:
    """f = |P[X < m/2] - P[X > m/2]|^n for X ~ Binomial(m, sin^2 theta)."""
    s2, c2 = math.sin(theta) ** 2, math.cos(theta) ** 2
    terms = [math.comb(m, k) * s2**k * c2 ** (m - k) for k in range(m + 1)]
    below = [t for k, t in enumerate(terms) if 2 * k < m]
    above = [-t for k, t in enumerate(terms) if 2 * k > m]
    return abs(math.fsum(below + above)) ** n


def classical_bounds(m: int, n: int, theta: float) -> tuple[float, float, float]:
    """(p^N, N q^M, min(1, N q^M)) with p = 2cos2t/(1+cos2t), q = (1+sin2t)/2."""
    p = 2 * math.cos(2 * theta) / (1 + math.cos(2 * theta))
    q = (1 + math.sin(2 * theta)) / 2
    raw = n * q**m
    return p**n, raw, min(1.0, raw)


# ---------------------------------------------------------------------------
# feasibility objective
# ---------------------------------------------------------------------------


def start_points(dims, restarts: int, seed: int) -> list[np.ndarray]:
    """The search's restart start points: one generator per spawned child seed."""
    children = np.random.SeedSequence(seed).spawn(restarts)
    return [np.random.default_rng(c).standard_normal(n_params(dims)) for c in children]


def decode(x: np.ndarray, dims):
    """Parameter vector -> (psi0, psi1, [E_bit0, E_bit1, E_hash]).

    States are the normalized complex vectors; the POVM is the square-root
    measurement E_i = S^(-1/2) G_i^dag G_i S^(-1/2), S = sum_i G_i^dag G_i.
    """
    da, db, du = dims
    t = da * db * du
    psis = []
    for off in (0, 2 * t):
        v = x[off : off + t] + 1j * x[off + t : off + 2 * t]
        psis.append(v / scipy.linalg.norm(v))
    grams = []
    off, blk = 4 * t, db * db
    for _ in range(3):
        g = x[off : off + blk].reshape(db, db) + 1j * x[off + blk : off + 2 * blk].reshape(db, db)
        grams.append(g.conj().T @ g)
        off += 2 * blk
    root = scipy.linalg.sqrtm(grams[0] + grams[1] + grams[2])
    inv_root = scipy.linalg.inv(root)
    effects = [inv_root @ gram @ inv_root for gram in grams]
    return psis[0], psis[1], effects


def _flat(idx, dims) -> int:
    flat = 0
    for i, d in zip(idx, dims):
        flat = flat * d + i
    return flat


def _trace_out(rho: np.ndarray, dims, traced: int) -> np.ndarray:
    """Partial trace over one subsystem: out[r, c] = sum_k rho[(r, k), (c, k)]."""
    keep = [d for i, d in enumerate(dims) if i != traced]
    kept = int(np.prod(keep))
    out = np.zeros((kept, kept), dtype=complex)
    for r, row in enumerate(itertools.product(*map(range, keep))):
        for c, col in enumerate(itertools.product(*map(range, keep))):
            out[r, c] = sum(
                rho[
                    _flat(row[:traced] + (k,) + row[traced:], dims),
                    _flat(col[:traced] + (k,) + col[traced:], dims),
                ]
                for k in range(dims[traced])
            )
    return out


def _trace_norm(m: np.ndarray) -> float:
    return float(scipy.linalg.svdvals(m).sum())


def residual(x: np.ndarray, dims, families=FAMILIES) -> dict[str, float]:
    """Per-family residuals of the decoded candidate, from full density matrices."""
    da, db, du = dims
    psi0, psi1, (e0, e1, eh) = decode(x, dims)
    rhos = [np.outer(p, p.conj()) for p in (psi0, psi1)]
    bit = (e0, e1)
    rho_b = [_trace_out(_trace_out(r, (da, db, du), 2), (da, db), 0) for r in rhos]
    tr = lambda a, b: float(np.trace(a @ b).real)  # noqa: E731
    out = {
        "half_bit": sum(abs(tr(rho_b[b], bit[b]) - 0.5) for b in (0, 1)),
        "half_hash": sum(abs(tr(rho_b[b], eh) - 0.5) for b in (0, 1)),
        "wrong_bit": sum(max(0.0, tr(rho_b[b], bit[1 - b])) for b in (0, 1)),
    }
    rho_bu = [_trace_out(r, (da, db, du), 0) for r in rhos]
    out["bob_info"] = abs(0.5 * _trace_norm(rho_bu[0] - rho_bu[1]) - 0.5)
    lift = lambda e: np.kron(np.eye(da), np.kron(e, np.eye(du)))  # noqa: E731
    out["alice_blind"] = sum(
        _trace_norm(
            _trace_out(lift(bit[b]) @ rhos[b], (da, db, du), 1)
            - _trace_out(lift(eh) @ rhos[b], (da, db, du), 1)
        )
        for b in (0, 1)
    )
    return {f: out[f] for f in families}


# ---------------------------------------------------------------------------
# trial CSV
# ---------------------------------------------------------------------------

TRIAL_HEADER = b"trial,a_set,b_set,a_out,b_out,e_set,e_out,coincident"


def retally_trials(path, n_alice: int, n_bob: int) -> dict:
    """Independent tally of a per-trial CSV written by an attacked run.

    Checks the CRLF row ends and the row layout, then returns n_coincident,
    cell_counts, correlators, and whether every coincident row has
    b_set == e_set and b_out == e_out.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.split(b"\r\n")
    if lines[-1] != b"" or b"\n" in raw.replace(b"\r\n", b""):
        raise ValueError("trial CSV rows do not all end in CRLF")
    if lines[0] != TRIAL_HEADER:
        raise ValueError(f"trial CSV header is {lines[0]!r}")
    body = b"\n".join(lines[1:-1])
    table = np.array(body.replace(b",", b" ").split(), dtype=np.int64).reshape(-1, 8)
    trial, a_set, b_set, a_out, b_out, e_set, e_out, coin = table.T
    if not np.array_equal(trial, np.arange(trial.size)):
        raise ValueError("trial column is not 0, 1, 2, ...")
    if not np.array_equal(coin == 1, b_out != 0) or not np.all((coin == 0) | (coin == 1)):
        raise ValueError("coincident column disagrees with b_out != 0")
    c = coin == 1
    counts = np.zeros((n_alice, n_bob), dtype=np.int64)
    sums = np.zeros((n_alice, n_bob), dtype=np.int64)
    for i in range(n_alice):
        for j in range(n_bob):
            cell = c & (a_set == i) & (b_set == j)
            counts[i, j] = int(cell.sum())
            sums[i, j] = int((a_out[cell] * b_out[cell]).sum())
    return {
        "rows": int(trial.size),
        "n_coincident": int(c.sum()),
        "cell_counts": counts.tolist(),
        "correlators": [[s / k if k else math.nan for s, k in zip(rs, rk)] for rs, rk in zip(sums, counts)],
        "eve_matches": bool(np.array_equal(b_set[c], e_set[c]) and np.array_equal(b_out[c], e_out[c])),
    }


# ---------------------------------------------------------------------------
# self-checks against the program at small sizes
# ---------------------------------------------------------------------------


def selfcheck(workdir) -> list[str]:
    """Compare each oracle with qtwoparty at small sizes; returns failure messages."""
    import os

    from qtwoparty import bc, consistency, ot, qkd

    fails = []
    pi6 = math.pi / 6
    for m in range(1, 7):
        for n in range(1, 7 // m + 1):
            prog = bc.compute_d(bc.BcParams(m, n, pi6)).value
            ref = block_trace_distance(m, n)
            if abs(prog - ref) > 1e-12:
                fails.append(f"block d oracle at ({m}, {n}): {ref!r} vs program {prog!r}")
    for theta in (0.1, 0.4, pi6, math.pi / 4):
        for m, n in ((1, 1), (3, 2), (8, 3), (13, 1)):
            prog = bc.compute_f(bc.BcParams(m, n, theta))
            ref = binomial_tail_f(m, n, theta)
            if not math.isclose(prog, ref, rel_tol=1e-10, abs_tol=1e-13):
                fails.append(f"f oracle at ({m}, {n}, {theta}): {ref!r} vs program {prog!r}")
        sec = ot.partial_security(theta)
        p, q, _ = classical_bounds(1, 1, theta)  # p^1 and 1 * q^1
        if abs(sec.p - p) > 1e-12 or abs(sec.q - q) > 1e-12:
            fails.append(f"(p, q) oracle at {theta}: {(p, q)} vs program {(sec.p, sec.q)}")
    dims = (2, 2, 2)
    for x in start_points(dims, 5, 12345):
        cand = consistency.candidate_from_vector(x, dims)
        for families in (FAMILIES, FAMILIES[:4]):
            prog = consistency.residual(cand, consistency.relax(families)).components
            ref = residual(x, dims, families)
            worst = max(abs(prog[f] - ref[f]) for f in families)
            if worst > 1e-12:
                fails.append(f"residual oracle differs from the program by {worst:.3e}")
    config = qkd.QkdConfig(n_pairs=5000, attack=qkd.ATTACK_DEMON, seed=3)
    stats, trials = qkd.simulate(config, keep_trials=True)
    path = os.path.join(workdir, "selfcheck_trials.csv")
    trials.write_csv(path)
    try:
        tally = retally_trials(path, 2, 2)
    except ValueError as exc:
        return fails + [f"trial CSV re-tally: {exc}"]
    finally:
        os.remove(path)
    if (
        tally["n_coincident"] != stats.n_coincident
        or tally["cell_counts"] != stats.cell_counts.tolist()
        or not np.allclose(tally["correlators"], stats.correlators, rtol=0, atol=1e-12)
        or not tally["eve_matches"]
    ):
        fails.append("trial CSV re-tally disagrees with the program's statistics")
    return fails
