"""Monte-Carlo liveness estimation over (n, p, r, k, t) grids.

A trial samples the round-1 dealer set D and the round-2 present set T at
fixed sizes round(p*n) and round(r*n), draws a guardian topology (uniform
or preferential-attachment) and succeeds iff T can reconstruct every
dealer's partial secret.  Per-trial seeds are derived from the master
seed, so runs are reproducible regardless of execution order.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import random
from dataclasses import dataclass
from math import comb, isfinite

from .protocol import reconstruction_capable

log = logging.getLogger(__name__)

TOPOLOGY_ER = "er"
TOPOLOGY_BA = "ba"


class SweepConfigError(Exception):
    pass


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple
    p_values: tuple
    r_values: tuple
    k_values: tuple
    t_values: tuple = ()  # absolute thresholds; mutually exclusive with ratios
    t_ratios: tuple = ()  # in [0, 1]; thresholds as max(1, round(ratio * k))
    trials: int = 100
    topology: str = TOPOLOGY_ER
    seed: int = 0  # in [-2**127, 2**127): `_trial_rng` packs it into 16 signed bytes

    def __post_init__(self):
        if self.trials < 1:
            raise SweepConfigError("trials must be >= 1")
        if self.topology not in (TOPOLOGY_ER, TOPOLOGY_BA):
            raise SweepConfigError(f"unknown topology {self.topology!r}")
        if bool(self.t_values) == bool(self.t_ratios):
            raise SweepConfigError("set exactly one of t_values / t_ratios")
        for name, values in (("p", self.p_values), ("r", self.r_values)):
            for value in values:
                if not 0.0 <= value <= 1.0:  # also false for nan
                    raise SweepConfigError(f"{name}={value} must lie in [0, 1]")
        for ratio in self.t_ratios:
            if not (isfinite(ratio) and ratio >= 0):
                raise SweepConfigError(f"t-ratio={ratio} must be finite and >= 0")
            if ratio > 1:  # t = ratio * k, and t <= k
                raise SweepConfigError(f"t-ratio={ratio} must be <= 1")
        if not -2 ** 127 <= self.seed < 2 ** 127:
            raise SweepConfigError(f"seed {self.seed} outside [-2**127, 2**127)")

    def thresholds(self, k: int) -> tuple:
        if self.t_values:
            return tuple(self.t_values)
        return tuple(max(1, round_half_up(ratio * k)) for ratio in self.t_ratios)


@dataclass(frozen=True)
class SuccessRate:
    n: int
    p: float
    r: float
    k: int
    t: int
    topology: str
    trials: int
    successes: int

    @property
    def rate(self) -> float:
        return self.successes / self.trials


def round_half_up(x: float) -> int:
    return int(x + 0.5)


def select_guardians_er(n: int, k: int, owner: int, rng: random.Random) -> frozenset:
    """Uniform k-subset of the other parties: the set `rng.sample` draws from
    their positions, where position j is party j+1 below the owner and j+2
    from it on.  Past its pool limit, 21 + 4**ceil(log(3k, 4)) (21 for
    k <= 5), `sample` takes one `getrandbits(m.bit_length())` word per draw
    for m = n-1 positions, drawing again on one >= m or already chosen; a
    set forgets the order, so the loop below takes the same words.  Other
    generators (a subclass may draw through `random()`) and a smaller m go
    through `sample`."""
    if k > n - 1:
        raise SweepConfigError(f"k={k} exceeds n-1={n - 1}")
    m = n - 1
    if type(rng) is not random.Random or k < 0 or m <= 21 + (
            4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0):
        return frozenset([v + (v >= owner) for v in rng.sample(range(1, n), k)])
    bits, getrandbits, chosen = m.bit_length(), rng.getrandbits, set()
    while len(chosen) < k:
        j = getrandbits(bits)
        if j < m:
            chosen.add(j + 1 if j < owner - 1 else j + 2)
    return frozenset(chosen)


def select_guardians_ba(n: int, k: int, rng: random.Random) -> dict:
    """Preferential attachment: owners pick in index order; a candidate's
    weight is 1 plus the number of times earlier owners already chose it.

    Each pick is the one `rng.choices(candidates, weights)` would make: one
    `random()` scaled by the live total, then the first candidate whose
    integer prefix sum exceeds it, clamped to the last candidate.  The
    weights live in a Fenwick tree over parties 1..n, where the owner and
    the parties it has already chosen weigh 0 while it picks; a zero weight
    is never the first prefix sum above the draw, so the walk lands on the
    party `bisect` finds in the candidate list, in O(log n).  Integer sums
    are compared with the float draw, never subtracted from it, so no
    rounding can move a pick."""
    if k > n - 1:
        raise SweepConfigError(f"k={k} exceeds n-1={n - 1}")
    weight = [1] * (n + 1)  # weight[j] = 1 + in-degree of party j
    tree = [0] + [j & -j for j in range(1, n + 1)]  # Fenwick tree of all-ones

    def add(j, delta):
        while j <= n:
            tree[j] += delta
            j += j & -j

    top = 1 << (n.bit_length() - 1)
    draw = rng.random
    total = n
    sets = {}
    for owner in range(1, n + 1):
        add(owner, -weight[owner])
        live = total - weight[owner]
        chosen = []
        for _ in range(k):
            x = draw() * float(live)
            if x >= live:  # only when random() returns 1.0; `choices` clamps
                x = live - 1
            pos, acc, step = 0, 0, top
            while step:  # largest pos whose prefix sum is <= x
                nxt = pos + step
                if nxt <= n and acc + tree[nxt] <= x:
                    pos, acc = nxt, acc + tree[nxt]
                step >>= 1
            pick = pos + 1
            add(pick, -weight[pick])
            live -= weight[pick]
            chosen.append(pick)
        add(owner, weight[owner])
        for j in chosen:
            weight[j] += 1
            add(j, weight[j])
        total += k
        sets[owner] = frozenset(chosen)
    return sets


def exact_rate_er(n: int, p: float, r: float, k: int, t: int) -> float:
    """Exact success rate of an ER trial with a fresh topology.  A dealer
    outside T is recovered with probability h = P[Hypergeom(n-1, |T|, k) >= t],
    independently of the other dealers, and |D \\ T| is hypergeometric, so
    rate = sum over m of P[|D \\ T| = m] * h^m."""
    if k > n - 1:
        raise SweepConfigError(f"k={k} exceeds n-1={n - 1}")
    dealers, present = round_half_up(p * n), round_half_up(r * n)
    absent = n - present
    h = sum(comb(present, j) * comb(n - 1 - present, k - j)
            for j in range(t, k + 1)) / comb(n - 1, k)
    return sum(comb(absent, m) * comb(present, dealers - m) * h ** m
               for m in range(min(dealers, absent) + 1)) / comb(n, dealers)


def sample_round_sets(n: int, p: float, r: float, rng: random.Random):
    """Fixed-size draws: |D| = round(p*n), |T| = round(r*n), T independent."""
    parties = list(range(1, n + 1))
    dealers = frozenset(rng.sample(parties, round_half_up(p * n)))
    present = frozenset(rng.sample(parties, round_half_up(r * n)))
    return dealers, present


def trial_success(dealers, present, guardian_sets, t: int) -> bool:
    return reconstruction_capable(present, dealers, guardian_sets, t)


def _trial_rng(seed: int, cell_id: str, trial: int) -> random.Random:
    digest = hashlib.sha256(
        b"fdkg-sweep" + seed.to_bytes(16, "big", signed=True)
        + cell_id.encode() + trial.to_bytes(4, "big")
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _topology(n, k, topology, rng):
    if topology == TOPOLOGY_BA:
        return select_guardians_ba(n, k, rng)
    return {i: select_guardians_er(n, k, i, rng) for i in range(1, n + 1)}


def run_sweep(config: SweepConfig) -> list:
    """Evaluate the full grid; invalid (k, t) cells are skipped with a log
    line.  Deterministic given the master seed."""
    rates = []
    for n in config.n_values:
        for k in config.k_values:
            if not 1 <= k <= n - 1:
                log.warning("skipping cell n=%d k=%d: need 1 <= k <= n-1", n, k)
                continue
            for t in config.thresholds(k):
                if not 1 <= t <= k:
                    log.warning("skipping cell n=%d k=%d t=%d: need 1 <= t <= k", n, k, t)
                    continue
                for p in config.p_values:
                    for r in config.r_values:
                        rates.append(_run_cell(config, n, p, r, k, t))
    return rates


def _run_cell(config: SweepConfig, n, p, r, k, t) -> SuccessRate:
    cell_id = f"{n}:{p}:{r}:{k}:{t}:{config.topology}"
    successes = 0
    for trial in range(config.trials):
        rng = _trial_rng(config.seed, cell_id, trial)
        topology = _topology(n, k, config.topology, rng)
        dealers, present = sample_round_sets(n, p, r, rng)
        if trial_success(dealers, present, topology, t):
            successes += 1
    return SuccessRate(n, p, r, k, t, config.topology, config.trials, successes)


CSV_HEADER = ["n", "p", "r", "k", "t", "topology", "trials", "successes", "rate"]


def write_csv(rates, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for s in rates:
        writer.writerow([s.n, s.p, s.r, s.k, s.t, s.topology,
                         s.trials, s.successes, f"{s.rate:.4f}"])
