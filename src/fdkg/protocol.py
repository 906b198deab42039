"""Two-round key-generation protocol state machine and its predicates.

Round 1: each dealer shares its partial secret to a self-chosen guardian
set and broadcasts encrypted shares with proofs.  Round 2: parties reveal
partial secrets directly and/or decrypted guardian shares; any observer
then reconstructs the global secret offline.

Also hosts the static reconstruction/liveness/privacy predicates used by
the simulator and by the security test harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional

from . import nizk, pke, shamir
from .groups import multi_exp


class ProtocolError(Exception):
    pass


class InvalidGuardianSetError(ProtocolError):
    pass


class NotAParticipantError(ProtocolError):
    pass


@dataclass(frozen=True)
class Params:
    n: int
    t: int
    k: int

    def __post_init__(self):
        if not 1 <= self.t <= self.k <= self.n - 1:
            raise ProtocolError(f"need 1 <= t <= k <= n-1, got {self}")


@dataclass(frozen=True)
class GuardianSet:
    owner: int
    members: frozenset

    @classmethod
    def create(cls, owner: int, members, params: Params) -> "GuardianSet":
        members = frozenset(members)
        if owner in members:
            raise InvalidGuardianSetError(f"party {owner} cannot guard itself")
        if len(members) != params.k:
            raise InvalidGuardianSetError(
                f"guardian set of {owner} has size {len(members)}, expected {params.k}")
        if not members <= set(range(1, params.n + 1)):
            raise InvalidGuardianSetError("guardian outside the party set")
        return cls(owner, members)


@dataclass(frozen=True)
class DealMessage:
    """A PVSS deal: one `pke` encryption of the shares, its C1 and a part
    (C2_j, delta_j) per guardian keyed by party index; the Feldman
    commitments A_l; and one DealProof.  The guardian set is the key set of
    `parts`, and the partial pk is A_0, which `judge_deal` requires."""

    dealer: int
    c1: object
    parts: dict  # guardian index -> pke.CiphertextPart
    commitments: tuple
    proof: nizk.DealProof

    @property
    def partial_pk(self):
        return self.commitments[0]

    @property
    def guardians(self) -> GuardianSet:
        return GuardianSet(self.dealer, frozenset(self.parts))

    @cached_property
    def ciphertexts(self) -> dict:  # guardian index -> the PkeCiphertext it decrypts
        return {j: pke.PkeCiphertext(self.c1, p.c2, p.delta) for j, p in self.parts.items()}


@dataclass(frozen=True)
class DealerState:
    """Private per-dealer output of round 1."""

    dealer: int
    partial_secret: int
    polynomial: shamir.Polynomial


@dataclass
class PublicState:
    """Verified post-round-1 world: participant set and global key.

    Reconstruction from subsets of the same reveals checks nothing twice:
    `verdicts` memoizes the verdict of each judged reveal, so reveals
    judged before cost `accepted_reveals` one pass, and `candidates`
    caches the value interpolated from each chosen tuple of (guardian,
    share) pairs, with its `recovered` entry.
    """

    params: Params
    pki: dict  # party index -> pke public key
    participants: tuple = ()
    global_pk: object = None  # undefined when participants is empty
    deals: dict = field(default_factory=dict)  # dealer -> accepted DealMessage
    verdicts: dict = field(default_factory=dict, compare=False, repr=False)
    candidates: dict = field(default_factory=dict, compare=False, repr=False)

    def guardian_sets(self) -> dict:
        return {i: frozenset(self.deals[i].parts) for i in self.participants}


@dataclass(frozen=True)
class SecretReveal:
    sender: int
    value: int


@dataclass(frozen=True)
class ShareReveal:
    sender: int
    dealer: int
    value: int
    proof: nizk.ShareDecryptionProof


class Verdict(Enum):
    """What one message shows on its own; each `judge_*` function gives one."""

    ACCEPTED = "accepted"
    OFF_ROLL = "sender off the roll"  # a dealer outside 1..n, a voter outside 1..n_bound
    BAD_GUARDIAN_SET = "invalid guardian set"  # a deal's ciphertext keys
    BAD_PROOF = "bad proof"  # of a deal or a ballot
    NOT_A_REVEAL = "not a round-2 reveal"
    NOT_A_PARTICIPANT = "not a participant"  # a secret or partial decryption without a deal
    NOT_A_GUARDIAN = "not a guardian"  # of the named dealer's accepted deal
    OUT_OF_RANGE = "value outside [0, q)"
    PK_MISMATCH = "value does not match partial pk"
    BAD_DLEQ = "bad DLEQ"
    INCONSISTENT = "share inconsistent with commitments"  # the dealer's fault


@dataclass(slots=True)  # not frozen: a frozen __init__ costs about 4x, per reconstruction
class ReconstructionOutcome:
    success: bool
    global_secret: Optional[int]
    recovered: dict  # dealer -> ("direct",) | ("shares", (j1..jt))
    failed: tuple  # dealers that could not be recovered
    excluded: tuple = ()  # dealers without an accepted secret named by an INCONSISTENT share


def round1_deal(me: int, params: Params, guardians: GuardianSet, pki: dict,
                group, rng):
    """Produce this dealer's broadcast plus its private state.

    Shares are evaluations of a fresh polynomial at the guardians' global
    party indices, encrypted, committed to and proved by one
    `nizk.prove_deal`, one kernel call.  `rng` draws the polynomial first,
    as the ideal oracle does.
    """
    if guardians.owner != me:
        raise InvalidGuardianSetError("guardian set owned by another party")
    q = group.order
    d = rng.randrange(q)
    indices = sorted(guardians.members)
    shares, poly = shamir.share_secret(d, params.t, indices, rng, q)
    c1, parts, commitments, proof = nizk.prove_deal(
        group, me, indices, [pki[j] for j in indices], [s.value for s in shares],
        poly.coefficients, rng)
    return (DealMessage(me, c1, dict(zip(indices, parts)), commitments, proof),
            DealerState(me, d, poly))


def judge_deal(msg: DealMessage, params: Params, pki: dict, group) -> Verdict:
    """OFF_ROLL, BAD_GUARDIAN_SET or BAD_PROOF, checked in that order, else
    ACCEPTED: BAD_PROOF for a deal without t commitments, or whose proof's
    equations (`nizk.deal_equations`) are None or fail their `nizk.holds`."""
    if not 1 <= msg.dealer <= params.n:
        return Verdict.OFF_ROLL
    try:
        GuardianSet.create(msg.dealer, msg.parts, params)
    except InvalidGuardianSetError:
        return Verdict.BAD_GUARDIAN_SET
    if len(msg.commitments) != params.t:
        return Verdict.BAD_PROOF
    indices = sorted(msg.parts)
    context = nizk.deal_context(group, msg.dealer, msg.commitments, indices)
    equations = nizk.deal_equations(group, [pki[j] for j in indices], msg.c1,
                                    [msg.parts[j] for j in indices], msg.proof, context)
    return Verdict.ACCEPTED if nizk.holds(group, context, [equations]) else Verdict.BAD_PROOF


def process_round1(messages, params: Params, pki: dict, group) -> PublicState:
    """Judge every deal on its own, keep each dealer's first accepted one
    (`first_accepted`) and aggregate the global key."""
    state = PublicState(params=params, pki=dict(pki))
    messages = list(messages)
    state.deals = deals = first_accepted(
        messages, [judge_deal(msg, params, pki, group) for msg in messages],
        lambda msg: msg.dealer)
    state.participants = tuple(sorted(deals))
    if state.participants:
        state.global_pk = multi_exp(group, [(deals[i].partial_pk, 1) for i in state.participants])
    return state


def round2_reveal_secret(me: int, dealer_state: DealerState,
                         public_state: PublicState, context: bytes,
                         group, rng) -> SecretReveal:
    """The dealer's partial secret in the clear, its share at index 0,
    which the judge checks against A_0, the partial pk.  `context`,
    `group` and `rng` are unused and kept because `perfbench/workloads.py`
    calls this positionally."""
    if me not in public_state.participants:
        raise NotAParticipantError(f"party {me} is not in the participant set")
    return SecretReveal(me, dealer_state.partial_secret)


def round2_reveal_shares(me: int, sk_me: int, public_state: PublicState,
                         context: bytes, group, rng) -> list:
    """One ShareReveal per dealer that picked `me` as guardian: the share
    its ciphertext decrypts to, with the decryption proof, all proved by
    one `nizk.prove_share_decryption`.  Whether the share counts is for
    `judge_reveals` to say."""
    dealers = [i for i in public_state.participants if me in public_state.deals[i].parts]
    proved = nizk.prove_share_decryption(
        group, sk_me, public_state.pki[me],
        [public_state.deals[i].ciphertexts[me] for i in dealers], context, rng)
    return [ShareReveal(me, dealer, share, proof)
            for dealer, (share, proof) in zip(dealers, proved)]


def judge_claims(group, context: bytes, claims) -> list:
    """The Verdict of each claim, an ordered list of (verdict, equations)
    parts as `nizk`'s `*_equations` builders give them; a pre-check is
    written (verdict, None).  A claim's verdict is that of its first part
    whose equations are None or do not hold under `context`, else ACCEPTED.
    When two or more claims have all their equations, those are checked in
    one batch (`nizk.holds`), and part by part only if it fails."""
    batch = [equations for claim in claims for _, equations in claim]
    whole = [True] * len(claims)
    if None in batch:  # leave out every claim with a part that has no equations
        whole = [all(equations is not None for _, equations in claim) for claim in claims]
        batch = [equations for claim, complete in zip(claims, whole) if complete
                 for _, equations in claim]
    batch_ok = whole.count(True) > 1 and nizk.holds(group, context, batch)
    accepted = Verdict.ACCEPTED  # enum lookups are slow
    return [accepted if complete and batch_ok else _first_failing(group, context, claim)
            for claim, complete in zip(claims, whole)]


def first_accepted(messages, verdicts, key) -> dict:
    """{key(m): m} of the first message m per key whose verdict is ACCEPTED,
    in message order: the one rule by which a round keeps a deal per
    dealer, a ballot per voter and a partial decryption per dealer.
    (`accepted_reveals` and the tally keep the first accepted reveal per
    dealer and per (dealer, guardian) by the same rule, in their own pass
    over the verdicts.)"""
    accepted = {}
    for msg, verdict in zip(messages, verdicts):
        if verdict is Verdict.ACCEPTED:
            accepted.setdefault(key(msg), msg)
    return accepted


def _first_failing(group, context: bytes, claim) -> Verdict:
    for verdict, equations in claim:
        if equations is None or not nizk.holds(group, context, [equations]):
            return verdict
    return Verdict.ACCEPTED


def _reveal_claim(public_state: PublicState, msg, group, context: bytes) -> list:
    """The claim of a round-2 message.  A revealed secret is its dealer's
    share at index 0, so its one equation is the Feldman check there,
    G^value = A_0.  A share fails as BAD_DLEQ without a valid decryption
    proof, and as INCONSISTENT when only the proof holds, since then the
    dealer encrypted a wrong share."""
    if isinstance(msg, SecretReveal):
        deal = public_state.deals.get(msg.sender)
        if deal is None:
            return [(Verdict.NOT_A_PARTICIPANT, None)]
        if not 0 <= msg.value < group.order:
            return [(Verdict.OUT_OF_RANGE, None)]
        return [(Verdict.PK_MISMATCH, nizk.feldman_equations(
                    group, msg.value, 0, deal.commitments))]
    if not isinstance(msg, ShareReveal):
        return [(Verdict.NOT_A_REVEAL, None)]
    deal = public_state.deals.get(msg.dealer)
    if deal is None or msg.sender not in deal.parts:
        return [(Verdict.NOT_A_GUARDIAN, None)]
    if not 0 <= msg.value < group.order:
        return [(Verdict.OUT_OF_RANGE, None)]
    return [(Verdict.BAD_DLEQ, nizk.share_decryption_equations(
                group, public_state.pki[msg.sender], deal.ciphertexts[msg.sender], msg.value,
                msg.proof, context)),
            (Verdict.INCONSISTENT, nizk.feldman_equations(
                group, msg.value, msg.sender, deal.commitments))]


def _judge(public_state: PublicState, messages, group, context: bytes) -> None:
    """Judge `messages` in one `judge_claims` call and memoize each verdict."""
    memo = public_state.verdicts
    claims = [_reveal_claim(public_state, msg, group, context) for msg in messages]
    for msg, verdict in zip(messages, judge_claims(group, context, claims)):
        memo[id(msg)] = (msg, context, verdict)


def judge_reveals(public_state: PublicState, reveals, group, context: bytes) -> list:
    """The Verdict of each message in `reveals`: a fact about that message
    alone.  A share is ACCEPTED when its decryption proof holds and it
    passes the Feldman check against its dealer's commitments, and
    INCONSISTENT when only the proof holds.  The messages with no verdict
    under `context` in `public_state.verdicts` are judged, all in one
    `judge_claims` call, and memoized."""
    memo = public_state.verdicts
    *_, unjudged = _read_verdicts(memo, reveals, context)
    _judge(public_state, list(unjudged.values()), group, context)
    return [memo[id(msg)][2] for msg in reveals]


def _read_verdicts(memo: dict, reveals, context: bytes) -> tuple:
    """One pass over `reveals`: (secrets, shares, excluded, unjudged), the
    first three as `accepted_reveals` gives them but with `excluded`
    naming every dealer of an INCONSISTENT share, and `unjudged`
    {id(message): message} of those with no verdict under `context`."""
    accepted, inconsistent = Verdict.ACCEPTED, Verdict.INCONSISTENT  # enum lookups are slow
    secrets, shares, unjudged, excluded = {}, {}, {}, set()
    for msg in reveals:
        entry = memo.get(id(msg))
        if entry is None or entry[1] != context:
            unjudged[id(msg)] = msg
        elif entry[2] is accepted and isinstance(msg, ShareReveal):
            shares.setdefault(msg.dealer, {}).setdefault(msg.sender, msg.value)
        elif entry[2] is accepted:
            secrets.setdefault(msg.sender, msg.value)
        elif entry[2] is inconsistent:
            excluded.add(msg.dealer)
    return secrets, shares, excluded, unjudged


def accepted_reveals(public_state: PublicState, reveals, group, context: bytes) -> tuple:
    """(secrets, shares, excluded) over the verdicts of `reveals`: {dealer:
    value} with the first accepted secret per dealer, {dealer: {guardian:
    value}} with the first accepted share per (dealer, guardian), and the
    set of dealers with no accepted secret named by a share judged
    INCONSISTENT.  A dealer with an accepted secret is recovered from it,
    so `shares` may lack its shares.

    One pass over `reveals` reads all three from `public_state.verdicts`,
    id(message) -> (message, context, verdict): holding the message keeps
    its id from being reused, and an equal but distinct copy is judged
    again.  Of the messages it finds unjudged, the shares of a dealer
    whose secret is among them wait; the rest are judged by one
    `judge_claims` call, and the pass is made again.  A waiting share is
    judged only if its dealer's secret is rejected, so every verdict the
    outcome depends on is judged."""
    memo = public_state.verdicts
    secrets, shares, excluded, unjudged = _read_verdicts(memo, reveals, context)
    if unjudged:
        held = {msg.sender for msg in unjudged.values() if isinstance(msg, SecretReveal)}
        _judge(public_state, [msg for msg in unjudged.values()
                              if not isinstance(msg, ShareReveal) or msg.dealer not in held],
               group, context)
        secrets, shares, excluded, waiting = _read_verdicts(memo, reveals, context)
        if rejected := [msg for msg in waiting.values() if msg.dealer not in secrets]:
            _judge(public_state, rejected, group, context)
            secrets, shares, excluded, _ = _read_verdicts(memo, reveals, context)
    return secrets, shares, excluded.difference(secrets)


def offline_reconstruct(public_state: PublicState, reveals, params: Params,
                        group, context: bytes) -> ReconstructionOutcome:
    """Recover every dealer's partial secret from the round-2 broadcasts by
    combining the reveals that `judge_reveals` accepts.  A dealer with an
    accepted secret is recovered from it, and its shares are not judged
    while that secret is judged with them; the outcome is the one
    `judge_reveals`' verdicts give.

    A dealer with no accepted secret that is named by a share judged
    INCONSISTENT is excluded: its partial secret is left out, so on
    success `global_secret` is the secret key of the product of the
    partial pks of the participants not excluded, which is
    `public_state.global_pk` only when none is.  The first accepted
    secret per dealer and share per (dealer, guardian) count; of more than
    t shares for a dealer, the t lowest guardian indices are interpolated,
    so identical reveal multisets give identical outcomes.  Accepted shares
    passed the Feldman check against t commitments whose A_0 is the partial
    pk, so any t of them interpolate to the partial secret.
    """
    secrets, shares, excluded = accepted_reveals(public_state, reveals, group, context)
    t, candidates = params.t, public_state.candidates
    recovered, failed, d = {}, [], 0
    for dealer in public_state.participants:
        if dealer in excluded:
            continue
        if dealer in secrets:
            d += secrets[dealer]
            recovered[dealer] = ("direct",)
        elif len(bucket := shares.get(dealer, ())) >= t:
            chosen = tuple(sorted(bucket.items())[:t])
            if chosen not in candidates:
                candidates[chosen] = (shamir.reconstruct(
                    [shamir.Share(j, value) for j, value in chosen], t, group.order),
                    ("shares", tuple(j for j, _ in chosen)))
            value, recovered[dealer] = candidates[chosen]
            d += value
        else:
            failed.append(dealer)
    excluded = tuple(sorted(excluded)) if excluded else ()  # sorted(set()) is not free
    if failed or not recovered:  # no recovered dealer and none failed: none active
        return ReconstructionOutcome(False, None, recovered, tuple(failed), excluded)
    return ReconstructionOutcome(True, d % group.order, recovered, (), excluded)


def reconstruction_capable(s, participants, guardian_sets, t: int) -> bool:
    """True iff every dealer is in s or has >= t guardians in s."""
    s = set(s)
    return all(
        i in s or len(s.intersection(guardian_sets[i])) >= t
        for i in participants
    )


def liveness_holds(corrupted, participants, guardian_sets, params: Params) -> bool:
    """The adversary cannot block reconstruction iff for every dealer it
    misses either the dealer itself or more than k - t of its guardians."""
    corrupted = set(corrupted)
    return all(
        i not in corrupted or len(corrupted.intersection(guardian_sets[i])) <= params.k - params.t
        for i in participants
    )


def privacy_breached(corrupted, participants, guardian_sets, t: int) -> bool:
    """The corrupted coalition learns the global secret iff it is itself
    reconstruction-capable."""
    return reconstruction_capable(corrupted, participants, guardian_sets, t)
