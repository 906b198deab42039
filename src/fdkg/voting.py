"""Election pipeline on top of the key-generation protocol.

Ballots encrypt power-of-2 encoded candidate choices under the global key,
aggregate homomorphically, and are decrypted by combining partial
decryptions from present dealers with guardian share reveals for absent
ones.  The aggregated exponent packs per-candidate counts into disjoint
m-bit slots and is recovered by a bounded baby-step giant-step search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import nizk, shamir
from .groups import multi_exp
from .protocol import (PublicState, ShareReveal, Verdict, first_accepted, judge_claims,
                       judge_reveals)


class VotingError(Exception):
    pass


class UnsupportedConfigurationError(VotingError):
    """Candidate slots do not fit in the exponent space."""


class DlogNotFoundError(VotingError):
    """Bounded discrete-log search exhausted its range."""


class TallyIntegrityError(VotingError):
    """Extracted counts do not sum to the number of valid ballots."""


class TallyFailure(VotingError):
    """Some dealer's decryption contribution could not be recovered."""

    def __init__(self, dealers):
        self.dealers = tuple(dealers)
        super().__init__(f"unrecoverable dealers: {self.dealers}")


@dataclass(frozen=True)
class VoteEncoding:
    candidates: int
    slot_bits: int  # m, smallest with 2^m > n_bound
    n_bound: int

    def exponent_for(self, candidate: int) -> int:
        if not 1 <= candidate <= self.candidates:
            raise VotingError(f"candidate {candidate} out of range 1..{self.candidates}")
        return 1 << ((candidate - 1) * self.slot_bits)

    def allowed_exponents(self) -> list:
        return [self.exponent_for(c) for c in range(1, self.candidates + 1)]


MAX_BABY_STEPS = 1 << 16  # of a tally's bsgs_dlog: about 9 MB, a 5-s search on secp256k1


def derive_encoding(n_bound: int, candidates: int, q: int) -> VoteEncoding:
    if candidates < 2:
        raise VotingError("need at least 2 candidates")
    if n_bound < 1:
        raise VotingError("voter bound must be >= 1")
    m = n_bound.bit_length()  # smallest m with 2^m > n_bound
    if candidates * m >= q.bit_length():
        raise UnsupportedConfigurationError(
            f"{candidates} slots of {m} bits exceed the exponent space")
    if math.isqrt(n_bound << ((candidates - 1) * m)) + 1 > MAX_BABY_STEPS:
        raise UnsupportedConfigurationError(
            f"{n_bound} votes in {candidates} slots need over {MAX_BABY_STEPS} baby steps")
    return VoteEncoding(candidates, m, n_bound)


@dataclass(frozen=True)
class Ballot:
    voter: int
    a: object  # G^r
    b: object  # E^r * G^{vote exponent}
    proof: tuple  # nizk.BallotBranch per allowed vote exponent


@dataclass(frozen=True)
class AggregatedCiphertext:
    c1: object
    c2: object


@dataclass(frozen=True)
class PartialDecryption:
    dealer: int
    value: object  # C1^{d_i}
    proof: nizk.DleqProof


@dataclass(frozen=True)
class TallyResult:
    counts: tuple
    total: int


BALLOT_CONTEXT = b"fdkg/ballot"


def _ballot_context(voter: int) -> bytes:
    """BALLOT_CONTEXT bound to the voter by its shortest two's-complement
    bytes: injective, and defined for every int."""
    return BALLOT_CONTEXT + voter.to_bytes(voter.bit_length() // 8 + 1, "big", signed=True)


def cast_ballot(group, encoding: VoteEncoding, global_pk, voter: int,
                candidate: int, rng) -> Ballot:
    exponent = encoding.exponent_for(candidate)
    (a, b), proof = nizk.prove_ballot(group, global_pk, rng.randrange(group.order), exponent,
                                      encoding.allowed_exponents(), _ballot_context(voter), rng)
    return Ballot(voter, a, b, proof)


def _ballot_claim(group, encoding: VoteEncoding, global_pk, ballot: Ballot) -> list:
    if not 1 <= ballot.voter <= encoding.n_bound:
        return [(Verdict.OFF_ROLL, None)]
    return [(Verdict.BAD_PROOF, nizk.ballot_equations(
        group, global_pk, (ballot.a, ballot.b), encoding.allowed_exponents(), ballot.proof,
        _ballot_context(ballot.voter)))]


def aggregate_ballots(group, encoding: VoteEncoding, global_pk, ballots):
    """Componentwise product of the first accepted ballot per voter
    (`protocol.first_accepted`); the rest are dropped, as is any message
    that is not a Ballot.  A ballot is OFF_ROLL off the roll 1..n_bound,
    else BAD_PROOF unless its voter-bound proof holds.  Every ballot is
    judged, all of them in one `judge_claims` call.

    Returns (AggregatedCiphertext or None, accepted voter tuple); None marks
    an empty election.
    """
    ballots = [b for b in ballots if isinstance(b, Ballot)]
    verdicts = judge_claims(group, BALLOT_CONTEXT,
                            [_ballot_claim(group, encoding, global_pk, b) for b in ballots])
    accepted = first_accepted(ballots, verdicts, lambda b: b.voter)
    if not accepted:
        return None, ()
    ballots = accepted.values()
    return (AggregatedCiphertext(multi_exp(group, [(b.a, 1) for b in ballots]),
                                 multi_exp(group, [(b.b, 1) for b in ballots])),
            tuple(accepted))


TALLY_CONTEXT = b"fdkg/tally"


def tally_partial_decrypt(group, dealer: int, partial_secret: int, partial_pk,
                          c1, rng) -> PartialDecryption:
    ((value, proof),) = nizk.prove_dleqs(group, partial_secret, group.generator(), partial_pk,
                                         [c1], TALLY_CONTEXT, rng)
    return PartialDecryption(dealer, value, proof)


def _partial_decryption_claim(group, public_state: PublicState, c1, pd) -> list:
    deal = public_state.deals.get(pd.dealer)
    if deal is None:
        return [(Verdict.NOT_A_PARTICIPANT, None)]
    return [(Verdict.BAD_DLEQ, nizk.dleq_equations(
        group, group.generator(), deal.partial_pk, c1, pd.value, pd.proof, TALLY_CONTEXT))]


def collect_decryption_values(group, public_state: PublicState, c1,
                              partial_decryptions, share_reveals,
                              context: bytes, t: int) -> dict:
    """Per-dealer C1^{d_i}: its first accepted partial decryption
    (`protocol.first_accepted`; NOT_A_PARTICIPANT for a non-dealer, else
    BAD_DLEQ unless its DLEQ proof holds), else
    Lagrange interpolation in the exponent over t share reveals that
    `judge_reveals` accepts (lowest guardian indices first).  Every
    partial decryption is judged, all of them in one `judge_claims` call.
    A share reveal for a dealer with an accepted partial decryption is not
    judged, since the tally would not use it; the other messages in
    `share_reveals` are, in one `judge_reveals` call, and the first
    accepted share per (dealer, guardian) counts.  A share judged
    INCONSISTENT removes no dealer here, since the election key already
    holds its partial pk; the share just does not count.  Raises
    TallyFailure listing dealers with no recovery path."""
    partial_decryptions = list(partial_decryptions)
    verdicts = judge_claims(group, TALLY_CONTEXT, [
        _partial_decryption_claim(group, public_state, c1, pd) for pd in partial_decryptions])
    direct = first_accepted(partial_decryptions, verdicts, lambda pd: pd.dealer)
    needed = [m for m in share_reveals if not (isinstance(m, ShareReveal) and m.dealer in direct)]
    shares = {}
    for msg, verdict in zip(needed, judge_reveals(public_state, needed, group, context)):
        if verdict is Verdict.ACCEPTED and isinstance(msg, ShareReveal):
            shares.setdefault(msg.dealer, {}).setdefault(msg.sender, msg.value)
    values, missing = {}, []
    for dealer in public_state.participants:
        bucket = shares.get(dealer, {})
        if dealer in direct:
            values[dealer] = direct[dealer].value
        elif len(bucket) >= t:
            values[dealer] = shamir.reconstruct_in_exponent(
                {j: group.exp(c1, bucket[j]) for j in sorted(bucket)[:t]}, group)
        else:
            missing.append(dealer)
    if missing:
        raise TallyFailure(missing)
    return values


def bsgs_dlog(group, target, base, bound: int) -> int:
    """Smallest e in [0, bound] with base^e = target; raises when absent."""
    if bound < 0:
        raise VotingError("bound must be >= 0")
    if target == group.identity():
        return 0
    m = max(1, math.isqrt(bound) + 1)
    table = {}
    cur = group.identity()
    for j in range(m):
        table.setdefault(cur, j)
        cur = group.mul(cur, base)
    stride = group.inv(group.exp(base, m))
    gamma = target
    for i in range(m + 1):
        j = table.get(gamma)
        if j is not None:
            e = i * m + j
            if e <= bound:
                return e
        gamma = group.mul(gamma, stride)
    raise DlogNotFoundError(f"no exponent in [0, {bound}]")


def tally_finalize(group, aggregate: Optional[AggregatedCiphertext],
                   decryption_values: dict, n_valid: int,
                   encoding: VoteEncoding) -> TallyResult:
    """Combine decryption factors, solve the bounded discrete log and unpack
    the per-candidate counts."""
    if aggregate is None or n_valid == 0:
        return TallyResult((0,) * encoding.candidates, 0)
    z = multi_exp(group, [(value, 1) for value in decryption_values.values()])
    m_elem = group.div(aggregate.c2, z)
    bound = n_valid * (1 << ((encoding.candidates - 1) * encoding.slot_bits))
    exponent = bsgs_dlog(group, m_elem, group.generator(), bound)
    mask = (1 << encoding.slot_bits) - 1
    counts = tuple(
        (exponent >> ((c - 1) * encoding.slot_bits)) & mask
        for c in range(1, encoding.candidates + 1)
    )
    if sum(counts) != n_valid:
        raise TallyIntegrityError(
            f"counts {counts} sum to {sum(counts)}, expected {n_valid}")
    return TallyResult(counts, n_valid)
