"""Output checks. Each returns a list of reasons; an empty list is a pass.

The checks compare the program's outputs with references computed another
way: the trusted-party oracle, the ground-truth votes, the static liveness
predicate and a closed-form liveness rate computed here with math.comb.
"""

from __future__ import annotations

from collections import Counter
from math import comb

# Two-sided binomial tail probability below which a Monte-Carlo rate is
# called wrong. A run tests three ER cells, so a correct simulator fails a
# run at most about three times in a million.
RATE_ALPHA = 1e-6


def ceremony(group, result, participants, recovery, ideal) -> list:
    """`participants` and `recovery` (dealer -> "direct" | "shares") follow
    from the ceremony's shape; `ideal` is the oracle run on the same
    participants and seed."""
    out = []
    state, outcome = result.public_state, result.outcome
    if not outcome.success:
        out.append(f"ceremony failed for dealers {outcome.failed}")
    if state.participants != participants or ideal.participants != participants:
        out.append(f"participants {state.participants}, oracle {ideal.participants}, "
                   f"expected {participants}")
    if state.global_pk is None or group.encode(state.global_pk) != group.encode(ideal.global_pk):
        out.append("global key differs from the oracle's")
    elif outcome.global_secret is None or \
            group.encode(group.base_exp(outcome.global_secret)) != group.encode(state.global_pk):
        out.append("base_exp(global secret) != global key")
    kinds = {d: path[0] for d, path in outcome.recovered.items()}
    if kinds != recovery:
        out.append(f"recovery paths {kinds}, expected {recovery}")
    return out


def audit(group, state, outcome, result) -> list:
    """An observer's replay must re-derive the ceremony's own outcome."""
    out = []
    ref_state, ref = result.public_state, result.outcome
    if state.participants != ref_state.participants:
        out.append(f"audit participants {state.participants} != {ref_state.participants}")
    elif group.encode(state.global_pk) != group.encode(ref_state.global_pk):
        out.append("audit global key differs")
    if outcome.recovered != ref.recovered:
        out.append(f"audit recovery map {outcome.recovered} != {ref.recovered}")
    if (outcome.success, outcome.global_secret, outcome.failed, outcome.excluded) != \
            (ref.success, ref.global_secret, ref.failed, ref.excluded):
        out.append("audit secret or failure set differs")
    return out


def tally(counts, votes: dict, candidates: int) -> list:
    cast = Counter(votes.values())
    expected = tuple(cast[c] for c in range(1, candidates + 1))
    if counts is None or tuple(counts) != expected:
        return [f"tally {counts}, votes say {expected}"]
    return []


def election(result, votes: dict, candidates: int) -> list:
    if not result.success or result.tally is None:
        return [f"election failed for dealers {result.failed_dealers}"]
    out = tally(result.tally.counts, votes, candidates)
    if result.accepted_voters != tuple(sorted(votes)):
        out.append(f"accepted voters {result.accepted_voters}")
    return out


def election_audit(state, accepted, counts, result) -> list:
    if result.tally is None:
        return ["the election produced no tally to audit"]
    out = []
    if state.participants != result.public_state.participants:
        out.append(f"audit participants {state.participants}")
    if accepted != result.accepted_voters:
        out.append(f"audit accepted voters {accepted}")
    if counts is None or tuple(counts) != result.tally.counts:
        out.append(f"audit tally {counts} != {result.tally.counts}")
    return out


def reconstruction(success: bool, secret, predicate: bool, true_secret: int) -> list:
    """One corruption set: execution must match liveness_holds, and a
    success must yield the sum of the dealers' partial secrets."""
    if success != predicate:
        return [f"reconstruction success={success}, liveness_holds={predicate}"]
    if success and secret != true_secret:
        return ["reconstructed secret differs from the dealt one"]
    return []


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


def exact_er_rate(n: int, p: float, r: float, k: int, t: int) -> float:
    """Success rate of one ER trial with fresh topology: |D| = round(pn)
    dealers and |T| = round(rn) present parties, drawn independently.
    A dealer outside T survives with probability h = P[Hypergeom(n-1, |T|,
    k) >= t], independently of the others, and |D \\ T| is hypergeometric,
    so rate = sum_m P[|D \\ T| = m] * h^m."""
    dealers, present = _round_half_up(p * n), _round_half_up(r * n)
    h = sum(comb(present, j) * comb(n - 1 - present, k - j)
            for j in range(t, k + 1)) / comb(n - 1, k)
    absent = n - present
    return sum(comb(absent, m) * comb(present, dealers - m) * h ** m
               for m in range(0, min(dealers, absent) + 1)) / comb(n, dealers)


def binomial_two_sided(successes: int, trials: int, rate: float) -> float:
    def pmf(i):
        return comb(trials, i) * rate ** i * (1 - rate) ** (trials - i)

    low = sum(pmf(i) for i in range(0, successes + 1))
    high = sum(pmf(i) for i in range(successes, trials + 1))
    return min(1.0, 2 * min(low, high))


def er_rate(successes: int, trials: int, exact: float) -> list:
    p_value = binomial_two_sided(successes, trials, exact)
    if p_value < RATE_ALPHA:
        return [f"ER rate {successes}/{trials} against exact {exact:.4f}: "
                f"two-sided binomial p={p_value:.2e} < {RATE_ALPHA}"]
    return []


def sweep_cells(rates, n: int, p: float, r: float, k: int, t_values, topology: str,
                trials: int) -> list:
    """run_sweep must return one cell per threshold, as asked, in order."""
    got = [(s.n, s.p, s.r, s.k, s.t, s.topology, s.trials) for s in rates]
    want = [(n, p, r, k, t, topology, trials) for t in t_values]
    if got != want:
        return [f"sweep cells {got}, expected {want}"]
    bad = [s for s in rates if not 0 <= s.successes <= s.trials]
    return [f"successes outside [0, trials] in {bad}"] if bad else []
