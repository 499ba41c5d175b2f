"""Bit commitment built on the partially secure transfer protocol.

The committer picks N strings of M bits each, all with parity equal to her
bit, and transfers every bit through the partial OT. Classically the cheat
probabilities Nq^M (receiver) and p^N (committer) vanish for large M, N.
Quantumly they do not: keeping the string choices in superposition leaves
the receiver holding one of

    W_0 = rho_even^(x)N        W_1 = rho_odd^(x)N

where rho_even / rho_odd are equal mixtures of the even / odd parity tensor
products of the two signal states. For f = F(W_0, W_1) the committer
unveils the bit of her choice with probability (1 + f)/2 by steering to the
midpoint of Uhlmann-aligned purifications (``alice_steer``), or (1 + f^2)/2
by committing honestly and switching later (``alice_quantum``). A receiver
measuring parity jointly guesses the commitment with probability (1 + d)/2
for d = D(W_0, W_1). Since f + d >= 1 for every (M, N, theta), the two
failure modes cannot both be driven to zero.

Fidelity is multiplicative under tensor products, so f = F(rho_E, rho_O)^N;
the single-string fidelity is evaluated exactly for any M by reducing the
pair (rho_E, rho_O) to invariant 2x2 blocks (see ``mixture_fidelity``).
Trace distance has no such product rule, but the same blocks make W_0 and
W_1 rank one on each 2^N-dimensional block of the N-fold power, so d is an
exact sum over multisets of block classes (see ``_block_trace_distance``)
up to the exact-computation cap, and the Fuchs-van de Graaf interval
[1 - f, sqrt(1 - f^2)] beyond it. The dense ``build_w`` operators remain as
the test suite's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, ot

# Largest M*N for which d is computed exactly; rows above it get the
# Fuchs-van de Graaf interval.
EXACT_CAP = 12

# Largest number of block-class terms C(floor(M/2) + N, N) summed for one
# exact d; a term costs a few microseconds.
MAX_D_TERMS = 10**5

@dataclass(frozen=True)
class BcParams:
    """Commitment knobs: m bits per string, n strings, transfer angle theta."""

    m: int
    n: int
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "m", linalg.check_integer("m", self.m, 1))
        object.__setattr__(self, "n", linalg.check_integer("n", self.n, 1))
        # delegates the (0, pi/4] range check
        object.__setattr__(self, "theta", ot.OtParams(self.theta).theta)


def mixture_fidelity(m: int, theta: float) -> float:
    """Exact F(rho_even, rho_odd) for m-bit strings, for any m.

    The pair commutes with every two-site parity operator Z_i Z_j, which
    splits both mixtures into 2x2 blocks spanned by a basis string and its
    bitwise complement. Within the block labelled by a weight-k string the
    matrices are [[a_k, g], [g, a_{m-k}]] with a_k = cos^2(th)^(m-k)
    sin^2(th)^k and g = (sin th cos th)^m; both blocks are rank one with
    det = a_k a_{m-k} - g^2 = 0, so each block contributes |a_k - a_{m-k}|
    and the total reduces to a binomial tail difference:

        F = (1/2) sum_k C(m,k) |a_k - a_{m-k}|
          = |P[X < m/2] - P[X > m/2]|,   X ~ Binomial(m, sin^2 th).

    Cross-checked against the dense fidelity of the built mixtures in the
    test suite.
    """
    m = linalg.check_integer("m", m, 1)
    s2 = math.sin(theta) ** 2
    c2 = math.cos(theta) ** 2
    if s2 == 0.0:
        return 1.0
    log_s2, log_c2 = math.log(s2), math.log(c2)
    log_pmf = [
        math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
        + (m - k) * log_c2 + k * log_s2
        for k in range(m + 1)
    ]
    pmf = np.exp(np.array(log_pmf))
    f = 0.5 * float(np.abs(pmf - pmf[::-1]).sum())
    return min(max(f, 0.0), 1.0)


def mixture_trace_distance(m: int, theta: float) -> float:
    """Exact D(rho_even, rho_odd) = sin(2 theta)^m.

    The difference of the two mixtures is 2^(1-m) sin(2 theta)^m X^(x)m,
    whose 2^m eigenvalues are all +-sin(2 theta)^m 2^(1-m); cross-checked
    densely in the test suite.
    """
    m = linalg.check_integer("m", m, 1)
    return math.sin(2 * theta) ** m


def build_w(params: BcParams, bit: int) -> np.ndarray:
    """N-fold tensor power W_bit of the matching parity mixture (dim 2^(MN)).

    The mixture (1/2^(M-1)) sum over matching strings is built by the
    two-track recursion over string length: appending a bit to an
    even-parity prefix keeps parity for signal 0 and flips it for signal 1.
    Dense, so refused above ``linalg.DEFAULT_DIM_CAP``; the test suite's
    oracle for ``compute_f`` and ``compute_d``.
    """
    bit = linalg.check_integer("bit", bit, 0)
    if bit > 1:
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    if 2 ** (params.m * params.n) > linalg.DEFAULT_DIM_CAP:
        raise linalg.DimensionCapError(
            f"W dimension 2^{params.m * params.n} exceeds cap {linalg.DEFAULT_DIM_CAP}"
        )
    psi0, psi1 = ot.make_states(params.theta)
    p0, p1 = linalg.projector(psi0), linalg.projector(psi1)
    even, odd = p0, p1
    for _ in range(params.m - 1):
        even, odd = (
            0.5 * (np.kron(even, p0) + np.kron(odd, p1)),
            0.5 * (np.kron(even, p1) + np.kron(odd, p0)),
        )
    w = rho = even if bit == 0 else odd
    for _ in range(params.n - 1):
        w = np.kron(w, rho)
    return w


def compute_f(params: BcParams) -> float:
    """Committer's steering fidelity f = F(W_0, W_1) = F(rho_E, rho_O)^N."""
    return mixture_fidelity(params.m, params.theta) ** params.n


@dataclass(frozen=True)
class TraceDistanceBound:
    """Exact value (lo == hi) or a rigorous Fuchs-van de Graaf interval."""

    lo: float
    hi: float
    exact: bool

    @property
    def value(self) -> float:
        """The exact value; for interval results, the conservative lower bound."""
        return self.lo


def block_terms(m: int, n: int) -> int:
    """Number of terms C(floor(m/2) + n, n) in the exact d sum at (m, n)."""
    return math.comb(m // 2 + n, n)


def _block_trace_distance(m: int, n: int, theta: float) -> float:
    """D(W_0, W_1) summed over the rank-one blocks of the N-fold power.

    Block class j (0 <= j <= m/2) holds the pairs {y, ybar} with y of weight
    j: c_j of them, c_j = C(m, j), halved at j = m/2. On each pair rho_even
    and rho_odd are |v><v| and |w><w| with v = (sqrt a_j, sqrt a_{m-j}),
    w = (sqrt a_j, -sqrt a_{m-j}) and a_j = cos^2(th)^(m-j) sin^2(th)^j.
    A block of the N-fold power picks one pair per factor; its two rank-one
    operators share the norm P = prod (a_j + a_{m-j}) and have overlap
    r P with r = prod t_j, t_j = (a_j - a_{m-j}) / (a_j + a_{m-j}), so it
    adds P sqrt((1 - r)(1 + r)) to d. Grouping blocks by the multiset of
    their classes gives

        d = sum over k_0 + ... + k_J = N of multinomial(N; k)
            * prod (c_j (a_j + a_{m-j}))^(k_j) * sqrt((1 - r)(1 + r)).

    Everything is carried in logs: with u_j = tan^2(th)^(m-2j) = a_{m-j}/a_j,
    log t_j = log1p(-2u/(1 + u)) and 1 - r = -expm1(sum k_j log t_j), so
    nothing cancels as theta -> 0 and nothing underflows at large m. u is
    clamped to 1: at theta = pi/4 the exact tan^2 lies within an ulp of 1,
    and a rounding above 1 would put log1p outside its domain.
    The term weights multinomial * prod (...)^(k_j) sum to Tr W_0 = 1, so the
    sum is divided by their computed total: that cancels the rounding they
    share, lgamma(N + 1)'s, which reaches 2e-10 at N ~ 10^5.
    """
    # log sin^2 as 2 log sin, because sin^2 underflows below theta ~ 1e-154;
    # log cos^2 as log1p(-sin^2), because log cos loses its relative precision
    # as theta -> 0 and large N multiplies that error
    log_s2, log_c2 = 2.0 * math.log(math.sin(theta)), math.log1p(-math.sin(theta) ** 2)
    tan2 = math.tan(theta) ** 2
    log_w, log_t = [], []
    for j in range(m // 2 + 1):
        u = min(1.0, tan2 ** (m - 2 * j))
        log_pairs = (
            math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
            - (math.log(2.0) if 2 * j == m else 0.0)
        )
        log_w.append(log_pairs + (m - j) * log_c2 + j * log_s2 + math.log1p(u))
        log_t.append(math.log1p(-2.0 * u / (1.0 + u)) if u < 1.0 else -math.inf)

    # Walk the compositions k class by class. A partial state is (factors
    # still to place, log of multinomial * prod weights so far, log r so far);
    # it becomes a term once no factors remain, and the last class takes all
    # that are left, so the walk visits fewer than two states per term.
    weights, terms = [], []
    states = [(n, math.lgamma(n + 1), 0.0)]
    last = len(log_w) - 1
    for j, (lw_j, lt_j) in enumerate(zip(log_w, log_t)):
        grown = []
        for left, lw, lr in states:
            for k in range(left if j == last else 0, left + 1):
                lw_k = lw - math.lgamma(k + 1) + k * lw_j
                lr_k = lr + k * lt_j if k else lr
                if k == left:
                    weights.append(math.exp(lw_k))
                    terms.append(
                        weights[-1] * math.sqrt(-math.expm1(lr_k) * (1.0 + math.exp(lr_k)))
                    )
                else:
                    grown.append((left - k, lw_k, lr_k))
        states = grown
    return min(max(math.fsum(terms) / math.fsum(weights), 0.0), 1.0)


def compute_d(
    params: BcParams,
    *,
    exact_cap: int = EXACT_CAP,
    f: float | None = None,
) -> TraceDistanceBound:
    """Receiver's parity distinguishability d = D(W_0, W_1).

    Exact while M*N <= exact_cap, as the block-class sum of
    ``_block_trace_distance``; an exact row whose sum has more than
    ``MAX_D_TERMS`` terms raises ``linalg.DimensionCapError``. Beyond the
    cap, returns the interval [1 - f, sqrt(1 - f^2)], using ``f`` when the
    caller already has it and ``compute_f`` otherwise.
    """
    if params.m * params.n <= exact_cap:
        terms = block_terms(params.m, params.n)
        if terms > MAX_D_TERMS:
            raise linalg.DimensionCapError(
                f"exact d at (M, N) = ({params.m}, {params.n}) needs {terms} block terms, "
                f"more than the limit {MAX_D_TERMS}; lower the exact cap to get an interval row"
            )
        d = _block_trace_distance(params.m, params.n, params.theta)
        return TraceDistanceBound(d, d, True)
    if f is None:
        f = compute_f(params)
    lo = max(0.0, 1.0 - f)
    hi = math.sqrt(max(0.0, 1.0 - f * f))
    return TraceDistanceBound(lo, hi, False)


@dataclass(frozen=True)
class ClassicalBounds:
    """The composition argument's cheat bounds for transfer ceilings (p, q)."""

    alice: float          # p^N
    bob_raw: float        # N q^M, can exceed 1
    bob: float            # min(1, N q^M)
    clipped: bool


def classical_bounds(p: float, q: float, m: int, n: int) -> ClassicalBounds:
    """alice = p^N and bob = min(1, N q^M); the raw union bound is kept alongside."""
    raw = n * q**m
    return ClassicalBounds(alice=p**n, bob_raw=raw, bob=min(1.0, raw), clipped=raw > 1.0)


@dataclass(frozen=True)
class BcCheatReport:
    """Cheat probabilities for one (M, N, theta) choice.

    ``d`` may be an interval; the flat ``bob_quantum`` and ``f_plus_d``
    accessors use its conservative lower end.
    """

    params: BcParams
    f: float
    d: TraceDistanceBound
    alice_quantum: float      # (1 + f^2)/2, commit then switch
    classical: ClassicalBounds

    @property
    def alice_steer(self) -> float:
        """(1 + f)/2, the committer's best: steering to the Uhlmann midpoint."""
        return 0.5 * (1.0 + self.f)

    @property
    def bob_quantum(self) -> float:
        return 0.5 * (1.0 + self.d.lo)

    @property
    def f_plus_d(self) -> float:
        return self.f + self.d.lo


def cheat_report(
    params: BcParams,
    *,
    exact_cap: int = EXACT_CAP,
    security: ot.PartialSecurityPair | None = None,
) -> BcCheatReport:
    """Full report: quantum f, d and the classical composition bounds.

    ``security`` is the transfer's (p, q) at ``params.theta``; it depends on
    theta alone, so a sweep computes it once and passes it to every row.
    """
    sec = security if security is not None else ot.partial_security(params.theta)
    f = compute_f(params)
    d = compute_d(params, exact_cap=exact_cap, f=f)
    return BcCheatReport(
        params=params,
        f=f,
        d=d,
        alice_quantum=0.5 * (1.0 + f * f),
        classical=classical_bounds(sec.p, sec.q, params.m, params.n),
    )


def sweep(theta: float, m_values, n_values, *, exact_cap: int = EXACT_CAP) -> list[BcCheatReport]:
    """Cheat reports over an (M, N) grid, ordered by (M, N).

    Rows above the exact cap are interval rows.
    """
    exact_cap = linalg.check_integer("exact_cap", exact_cap, 0)
    security = ot.partial_security(theta)
    return [
        cheat_report(BcParams(m, n, theta), exact_cap=exact_cap, security=security)
        for m in sorted(set(m_values))
        for n in sorted(set(n_values))
    ]
