"""In-memory authenticated broadcast board, round scheduler, fault
injection, and the trusted-party oracle used to cross-check real runs.

The board is append-only and totally ordered; the sender field is set by
the scheduler, so authentication holds by construction.  Its canonical
form is `transcripts.export_lines`.  All per-party randomness is derived
from the master seed, making every ceremony reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

from . import pke, protocol
from .groups import fixed_base
from .protocol import (DealMessage, GuardianSet, InvalidGuardianSetError, Params,
                       PublicState, ReconstructionOutcome)
from .shamir import Polynomial
from .simulate import select_guardians_er


class ActivationError(Exception):
    """Malformed activation handed to the trusted-party oracle."""


@dataclass(frozen=True)
class BoardEntry:
    sender: int
    round: int
    message: object


class BroadcastBoard:
    """Append-only totally ordered message log."""

    def __init__(self):
        self._entries = []

    def append(self, sender: int, round_no: int, message) -> None:
        self._entries.append(BoardEntry(sender, round_no, message))

    def entries(self, round_no=None):
        if round_no is None:
            return list(self._entries)
        return [e for e in self._entries if e.round == round_no]

    def __len__(self):
        return len(self._entries)


HONEST = "honest"
ABSENT_ROUND1 = "absent-round1"
ABSENT_ROUND2 = "absent-round2"
WITHHOLD_SHARES = "withhold-shares"
MALFORM_DEAL = "malform-deal"
BYZANTINE_SILENT = "byzantine-silent"

_KINDS = {HONEST, ABSENT_ROUND1, ABSENT_ROUND2, WITHHOLD_SHARES,
          MALFORM_DEAL, BYZANTINE_SILENT}


@dataclass(frozen=True)
class Behavior:
    kind: str = HONEST
    targets: frozenset = frozenset()  # withheld dealers, withhold-shares only

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown behavior {self.kind!r}")
        if self.targets and self.kind != WITHHOLD_SHARES:
            raise ValueError(f"behavior {self.kind!r} takes no targets")

    @property
    def deals(self) -> bool:
        return self.kind not in (ABSENT_ROUND1, BYZANTINE_SILENT)

    @property
    def present_round2(self) -> bool:
        return self.kind not in (ABSENT_ROUND2, BYZANTINE_SILENT)


@dataclass
class CeremonyResult:
    public_state: PublicState
    outcome: ReconstructionOutcome
    board: BroadcastBoard


def child_rng(seed: int, party: int, stream: int) -> random.Random:
    """Per-party child randomness: independent streams keyed off the master
    seed so concurrent party execution cannot change any draw."""
    digest = hashlib.sha256(
        b"fdkg-seed" + seed.to_bytes(16, "big", signed=True)
        + party.to_bytes(4, "big") + stream.to_bytes(2, "big")
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


# child-rng stream labels
_STREAM_PKI = 0
_STREAM_ROUND1 = 1
_STREAM_ROUND2 = 2
_STREAM_GUARDIANS = 3

REVEAL_CONTEXT = b"fdkg/round2"


def generate_pki(params: Params, group, seed: int) -> dict:
    return {i: pke.pke_keygen(group, child_rng(seed, i, _STREAM_PKI))
            for i in range(1, params.n + 1)}


def _default_guardians(params: Params, seed: int) -> dict:
    return {i: select_guardians_er(params.n, params.k, i, child_rng(seed, i, _STREAM_GUARDIANS))
            for i in range(1, params.n + 1)}


def dealer_guardian_sets(params: Params, behaviors: dict, guardian_sets: dict) -> dict:
    """The `GuardianSet` of every dealing party.  ValueError when `behaviors`
    misses a party or a dealer has no set; InvalidGuardianSetError on a bad one."""
    missing = set(range(1, params.n + 1)) - set(behaviors)
    if missing:
        raise ValueError(f"behaviors missing for parties {sorted(missing)}")
    dealers = [i for i in range(1, params.n + 1) if behaviors[i].deals]
    unguarded = [i for i in dealers if i not in guardian_sets]
    if unguarded:
        raise ValueError(f"no guardian set for dealing parties {unguarded}")
    return {i: GuardianSet.create(i, guardian_sets[i], params) for i in dealers}


def _malform(msg: DealMessage, group) -> DealMessage:
    # perturb one guardian's C2 so the deal fails verification
    victim = min(msg.parts)
    part = msg.parts[victim]
    return replace(msg, parts={**msg.parts, victim: pke.CiphertextPart(
        group.mul(part.c2, group.generator()), part.delta)})


def deal_round(params: Params, behaviors: dict, group, seed: int,
               guardian_sets=None) -> tuple:
    """Round 1 of a ceremony or an election: every dealing party shares to
    its guardian set, and the round's deals are judged.  A guardian key is
    the base of pk^kappa and pk^a in each deal to it and of a term of each
    check of those, so it is a comb base (`fixed_base`) for the round, its
    table dropped when the round ends.  Returns (board, pki, dealer_states,
    public_state)."""
    if guardian_sets is None:
        guardian_sets = _default_guardians(params, seed)
    gsets = dealer_guardian_sets(params, behaviors, guardian_sets)
    pki = generate_pki(params, group, seed)
    pub_keys = {i: kp.pk for i, kp in pki.items()}

    board = BroadcastBoard()
    dealer_states = {}
    with fixed_base(group, *{pub_keys[j] for gset in gsets.values() for j in gset.members}):
        for i, gset in gsets.items():
            msg, dealer_states[i] = protocol.round1_deal(
                i, params, gset, pub_keys, group, child_rng(seed, i, _STREAM_ROUND1))
            if behaviors[i].kind == MALFORM_DEAL:
                msg = _malform(msg, group)
            board.append(i, 1, msg)
        public_state = protocol.process_round1(
            [e.message for e in board.entries(1)], params, pub_keys, group)
    return board, pki, dealer_states, public_state


def reveal_round(board: BroadcastBoard, round_no: int, behaviors: dict, pki: dict,
                 public_state: PublicState, seed: int, stream: int, context: bytes,
                 group, own) -> list:
    """The reveal round of a ceremony (round 2) or an election (round 3):
    each present party posts `own(party, rng)` if it dealt, then its
    guardian messages (`protocol.round2_reveal_shares`) bar those it
    withholds.  An accepted deal's C1 is the base of C1^sk and of the
    DLEQ's C1^w in each share reveal of it, so it is a comb base
    (`fixed_base`) for the round, its table dropped when the round ends.
    Returns every message posted, in board order."""
    posted = []
    with fixed_base(group, *(deal.c1 for deal in public_state.deals.values())):
        for i in range(1, public_state.params.n + 1):
            b = behaviors[i]
            if not b.present_round2:
                continue
            rng = child_rng(seed, i, stream)
            messages = [own(i, rng)] if i in public_state.participants else []
            messages += [m for m in protocol.round2_reveal_shares(
                             i, pki[i].sk, public_state, context, group, rng)
                         if m.dealer not in b.targets]
            for msg in messages:
                board.append(i, round_no, msg)
            posted += messages
    return posted


def run_ceremony(params: Params, behaviors: dict, group, seed: int,
                 guardian_sets=None) -> CeremonyResult:
    """Execute both rounds under the given per-party behaviors.

    `behaviors` must cover parties 1..n.  Failures are data: the outcome
    reports unrecoverable dealers instead of raising.
    """
    board, pki, dealer_states, public_state = deal_round(
        params, behaviors, group, seed, guardian_sets)
    reveals = reveal_round(
        board, 2, behaviors, pki, public_state, seed, _STREAM_ROUND2, REVEAL_CONTEXT,
        group, lambda i, rng: protocol.round2_reveal_secret(
            i, dealer_states[i], public_state, REVEAL_CONTEXT, group, rng))
    outcome = protocol.offline_reconstruct(
        public_state, reveals, params, group, REVEAL_CONTEXT)
    return CeremonyResult(public_state, outcome, board)


@dataclass(frozen=True)
class HonestActivation:
    party: int
    guardians: frozenset


@dataclass(frozen=True)
class CorruptActivation:
    party: int
    polynomial: object  # shamir.Polynomial supplied by the adversary
    guardians: frozenset


@dataclass(frozen=True)
class IdealResult:
    global_pk: object  # None when no party activated
    participants: tuple
    partial_secrets: dict
    shares: dict  # (dealer, guardian) -> value


def ideal_functionality_run(params: Params, activations, group, seed: int) -> IdealResult:
    """Trusted-party execution: samples honest polynomials itself and
    computes every participant's partial secret, every guardian's share and
    the global key directly, with no messages or proofs.

    Honest polynomial sampling uses the same child-rng stream as the real
    round-1 dealer, so seed-matched runs are comparable value for value.
    """
    q = group.order
    polynomials = {}
    guardian_sets = {}
    for act in activations:
        i = act.party
        if not 1 <= i <= params.n:
            raise ActivationError(f"party {i} outside 1..n")
        if i in polynomials:
            continue  # already activated; ignore
        try:
            guardians = GuardianSet.create(i, act.guardians, params).members
        except InvalidGuardianSetError as exc:
            raise ActivationError(str(exc)) from exc
        if isinstance(act, HonestActivation):
            rng = child_rng(seed, i, _STREAM_ROUND1)
            coeffs = tuple(rng.randrange(q) for _ in range(params.t))
            poly = Polynomial(coeffs, q)
        else:
            poly = act.polynomial
            if poly.threshold != params.t or poly.modulus != q:
                raise ActivationError("corrupt polynomial has wrong degree")
        polynomials[i] = poly
        guardian_sets[i] = guardians

    participants = tuple(sorted(polynomials))
    if not participants:
        return IdealResult(None, (), {}, {})

    partial_secrets = {i: polynomials[i].evaluate(0) for i in participants}
    d = sum(partial_secrets.values()) % q
    global_pk = group.base_exp(d)
    shares = {
        (i, j): polynomials[i].evaluate(j)
        for i in participants for j in sorted(guardian_sets[i])
    }
    return IdealResult(global_pk, participants, partial_secrets, shares)
