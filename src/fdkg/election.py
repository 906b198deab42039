"""End-to-end election driver: keygen round, ballot round, tally round.

Ties the key-generation protocol, the ballot layer and the tally together
under the same behavior/fault model and seed derivation as the ceremony
harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import groups, voting
from .board import BroadcastBoard, child_rng, deal_round, reveal_round
from .protocol import Params, PublicState

_STREAM_BALLOT = 4
_STREAM_TALLY = 5


@dataclass
class ElectionResult:
    success: bool
    tally: Optional[voting.TallyResult]
    failed_dealers: tuple
    public_state: PublicState
    accepted_voters: tuple
    board: BroadcastBoard
    encoding: voting.VoteEncoding


def vote_encoding(params: Params, votes: dict, candidates: int, group,
                  n_bound=None) -> voting.VoteEncoding:
    """The encoding of an election's votes, after checking them.  Slots
    hold counts up to `n_bound`, by default n or the number of votes,
    whichever is larger; ValueError for fewer slots or a voter off the
    roll 1..n_bound, VotingError for a candidate outside 1..candidates."""
    if n_bound is None:
        n_bound = max(params.n, len(votes))
    if n_bound < len(votes):
        raise ValueError(f"n_bound {n_bound} is below the {len(votes)} votes")
    if not all(1 <= voter <= n_bound for voter in votes):
        raise ValueError(f"voter ids must be in 1..{n_bound}")
    encoding = voting.derive_encoding(n_bound, candidates, group.order)
    for candidate in votes.values():
        encoding.exponent_for(candidate)
    return encoding


def run_election(params: Params, behaviors: dict, votes: dict, candidates: int,
                 group, seed: int, n_bound=None, guardian_sets=None) -> ElectionResult:
    """votes: voter on the roll 1..n_bound -> candidate (1-based), checked
    by `vote_encoding` before round 1.  Returns failure data instead of
    raising when the tally cannot be completed."""
    encoding = vote_encoding(params, votes, candidates, group, n_bound)
    board, pki, dealer_states, public_state = deal_round(
        params, behaviors, group, seed, guardian_sets)
    if not public_state.participants:
        return ElectionResult(False, None, (), public_state, (), board, encoding)

    with groups.fixed_base(group, public_state.global_pk):  # one comb table per round
        for voter in sorted(votes):
            ballot = voting.cast_ballot(
                group, encoding, public_state.global_pk, voter, votes[voter],
                child_rng(seed, voter, _STREAM_BALLOT))
            board.append(voter, 2, ballot)
        aggregate, accepted = voting.aggregate_ballots(
            group, encoding, public_state.global_pk,
            [e.message for e in board.entries(2)])
    if aggregate is None:
        tally = voting.TallyResult((0,) * candidates, 0)
        return ElectionResult(True, tally, (), public_state, accepted, board, encoding)

    # C1 is the base of each present dealer's C1^{d_i} and its DLEQ's C1^w,
    # and of C1^{s_j} for each share of an absent one: one comb table
    with groups.fixed_base(group, aggregate.c1):
        posted = reveal_round(
            board, 3, behaviors, pki, public_state, seed, _STREAM_TALLY, voting.TALLY_CONTEXT,
            group, lambda i, rng: voting.tally_partial_decrypt(
                group, i, dealer_states[i].partial_secret, public_state.deals[i].partial_pk,
                aggregate.c1, rng))
        partial_decryptions = [m for m in posted if isinstance(m, voting.PartialDecryption)]
        share_reveals = [m for m in posted if not isinstance(m, voting.PartialDecryption)]
        try:
            values = voting.collect_decryption_values(
                group, public_state, aggregate.c1, partial_decryptions,
                share_reveals, voting.TALLY_CONTEXT, params.t)
            tally = voting.tally_finalize(group, aggregate, values, len(accepted), encoding)
        except voting.TallyFailure as exc:
            return ElectionResult(False, None, exc.dealers, public_state, accepted,
                                  board, encoding)
    return ElectionResult(True, tally, (), public_state, accepted, board, encoding)
