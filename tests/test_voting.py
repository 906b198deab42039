import math
import random
import time

import pytest

from fdkg import groups, nizk, protocol, shamir, transcripts, voting
from fdkg.board import (ABSENT_ROUND1, ABSENT_ROUND2, WITHHOLD_SHARES, Behavior,
                        run_ceremony)
from fdkg.election import run_election
from fdkg.groups import SECP256K1, TEST_GROUP
from fdkg.protocol import Params, Verdict, round2_reveal_shares
from fdkg.voting import (Ballot, DlogNotFoundError, TallyFailure,
                         TallyIntegrityError, UnsupportedConfigurationError,
                         VotingError, aggregate_ballots, bsgs_dlog, cast_ballot,
                         collect_decryption_values, derive_encoding, tally_finalize,
                         tally_partial_decrypt)


def ballot_verdict(group, enc, pk, ballot) -> Verdict:
    """The verdict `aggregate_ballots` gives `ballot`, judged alone."""
    return protocol.judge_claims(group, voting.BALLOT_CONTEXT,
                                 [voting._ballot_claim(group, enc, pk, ballot)])[0]


def partial_decryption_verdict(group, public, c1, pd) -> Verdict:
    """The verdict `collect_decryption_values` gives `pd`, judged alone."""
    return protocol.judge_claims(group, voting.TALLY_CONTEXT,
                                 [voting._partial_decryption_claim(group, public, c1, pd)])[0]


def proof_holds(group, enc, pk, ballot) -> bool:
    """Whether the ballot's proof verifies for its voter id, on the roll or off."""
    return nizk.holds(group, voting.BALLOT_CONTEXT, [nizk.ballot_equations(
        group, pk, (ballot.a, ballot.b), enc.allowed_exponents(), ballot.proof,
        voting._ballot_context(ballot.voter))])


class TestEncoding:
    @pytest.mark.parametrize("n_bound,m", [(100, 7), (1, 1), (1023, 10), (4, 3)])
    def test_slot_width(self, group, n_bound, m):
        # only widths that fit the small test group's exponent space
        if 2 * m < group.order.bit_length():
            enc = derive_encoding(n_bound, 2, group.order)
            assert enc.slot_bits == m

    def test_slot_width_values(self):
        q = 1 << 256
        assert derive_encoding(100, 2, q).slot_bits == 7
        assert derive_encoding(1, 2, q).slot_bits == 1
        assert derive_encoding(1023, 2, q).slot_bits == 10

    def test_exponents(self):
        enc = derive_encoding(100, 3, 1 << 256)
        assert enc.exponent_for(1) == 1
        assert enc.exponent_for(2) == 1 << 7
        assert enc.allowed_exponents() == [1, 1 << 7, 1 << 14]

    def test_candidate_out_of_range(self):
        enc = derive_encoding(100, 2, 1 << 256)
        with pytest.raises(VotingError):
            enc.exponent_for(3)

    def test_overflow_rejected(self, group):
        # q = 1013 has 10 bits; 4 candidates x 3 bits = 12 >= 10
        with pytest.raises(UnsupportedConfigurationError):
            derive_encoding(4, 4, group.order)

    def test_too_few_candidates(self):
        with pytest.raises(VotingError):
            derive_encoding(10, 1, 1 << 256)

    def test_empty_roll_rejected(self):
        with pytest.raises(VotingError, match="voter bound"):
            derive_encoding(0, 2, 1 << 256)

    def test_search_beyond_max_baby_steps_rejected(self):
        """Rejected from the parameters alone, before any table is built:
        20 candidates for a roll of 3 would need about 908k baby steps, 60
        about 2^59.8; both fit the exponent space."""
        q = SECP256K1.order
        for candidates in (20, 60):
            with pytest.raises(UnsupportedConfigurationError, match="baby steps"):
                derive_encoding(3, candidates, q)
        # 4 candidates: a roll of 255 needs 65,408 baby steps, one of 256 needs 185,364
        enc = derive_encoding(255, 4, q)
        bound = enc.n_bound << ((enc.candidates - 1) * enc.slot_bits)
        assert math.isqrt(bound) + 1 <= voting.MAX_BABY_STEPS
        with pytest.raises(UnsupportedConfigurationError):
            derive_encoding(256, 4, q)
        derive_encoding(20, 3, q)  # the benchmark's election
        derive_encoding(50, 2, q)  # c7's largest


@pytest.fixture
def election_keys(group):
    """Small honest ceremony providing a usable global key with known secrets."""
    params = Params(6, 2, 3)
    behaviors = {i: Behavior() for i in range(1, 7)}
    result = run_ceremony(params, behaviors, group, seed=31)
    assert result.outcome.success
    return params, result


class TestBallots:
    def test_honest_ballot_verifies(self, group, rng, election_keys):
        params, ceremony = election_keys
        enc = derive_encoding(4, 2, group.order)
        pk = ceremony.public_state.global_pk
        for candidate in (1, 2):
            ballot = cast_ballot(group, enc, pk, 1, candidate, rng)
            assert ballot_verdict(group, enc, pk, ballot) is Verdict.ACCEPTED

    def test_tampered_ballot_rejected(self, group, rng, election_keys):
        params, ceremony = election_keys
        enc = derive_encoding(4, 2, group.order)
        pk = ceremony.public_state.global_pk
        ballot = cast_ballot(group, enc, pk, 1, 1, rng)
        bad = Ballot(1, ballot.a, group.mul(ballot.b, group.generator()),
                     ballot.proof)
        assert ballot_verdict(group, enc, pk, bad) is Verdict.BAD_PROOF

    def test_ballot_missing_branch_rejected(self, group, rng, election_keys):
        params, ceremony = election_keys
        enc = derive_encoding(4, 2, group.order)
        pk = ceremony.public_state.global_pk
        ballot = cast_ballot(group, enc, pk, 1, 1, rng)
        bad = Ballot(1, ballot.a, ballot.b, ballot.proof[:-1])
        assert ballot_verdict(group, enc, pk, bad) is Verdict.BAD_PROOF

    def test_aggregate_drops_tampered(self, group, rng, election_keys):
        params, ceremony = election_keys
        enc = derive_encoding(5, 2, group.order)  # voters 1..5 on the roll
        pk = ceremony.public_state.global_pk
        ballots = [cast_ballot(group, enc, pk, v, 1, rng) for v in range(1, 6)]
        b = ballots[2]
        ballots[2] = Ballot(b.voter, b.a, group.mul(b.b, group.generator()), b.proof)
        agg, accepted = aggregate_ballots(group, enc, pk, ballots)
        assert accepted == (1, 2, 4, 5)

    def test_single_ballot_aggregate_unchanged(self, group, rng, election_keys):
        params, ceremony = election_keys
        enc = derive_encoding(4, 2, group.order)
        pk = ceremony.public_state.global_pk
        ballot = cast_ballot(group, enc, pk, 1, 2, rng)
        agg, accepted = aggregate_ballots(group, enc, pk, [ballot])
        assert (agg.c1, agg.c2) == (ballot.a, ballot.b)

    def test_empty_election_flag(self, group, election_keys):
        params, ceremony = election_keys
        enc = derive_encoding(4, 2, group.order)
        agg, accepted = aggregate_ballots(
            group, enc, ceremony.public_state.global_pk, [])
        assert agg is None and accepted == ()


@pytest.mark.parametrize("curve", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
def test_repeated_ballot_counts_once(curve):
    """Voter 1's ballot posted twice counts once, the first valid ballot per
    voter: on the election's own ballots and on an imported transcript with
    voter 1's round-2 line repeated, whose audit gives the same tally."""
    params = Params(4, 2, 2)
    result = run_election(params, {i: Behavior() for i in range(1, 5)},
                          {1: 1, 2: 2, 3: 2}, 2, curve, seed=5)
    assert result.success and result.tally.counts == (1, 2)
    pk, enc = result.public_state.global_pk, result.encoding
    ballots = [e.message for e in result.board.entries(2)]
    honest = aggregate_ballots(curve, enc, pk, ballots)
    assert honest[1] == (1, 2, 3)
    assert aggregate_ballots(curve, enc, pk, ballots + [ballots[0]]) == honest

    lines = transcripts.export_lines(result.board, curve)
    first = next(i for i, e in enumerate(result.board.entries()) if e.round == 2)
    board = transcripts.import_lines(lines[:first + 1] + lines[first:], curve)
    public = protocol.process_round1([e.message for e in board.entries(1)], params,
                                     result.public_state.pki, curve)
    aggregate, accepted = aggregate_ballots(
        curve, enc, public.global_pk, [e.message for e in board.entries(2)])
    assert len(board.entries(2)) == 4 and (aggregate, accepted) == honest
    posted = [e.message for e in board.entries(3)]
    values = collect_decryption_values(
        curve, public, aggregate.c1,
        [m for m in posted if isinstance(m, voting.PartialDecryption)],
        [m for m in posted if not isinstance(m, voting.PartialDecryption)],
        voting.TALLY_CONTEXT, params.t)
    assert tally_finalize(curve, aggregate, values, len(accepted), enc).counts == (1, 2)


@pytest.mark.parametrize("curve", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
def test_ballot_reposted_under_another_voter_not_counted(curve):
    """A ballot's proof binds its voter: voter 1's ballot posted again as
    voter 4, -1 or 2^40 fails its proof and is dropped, judged BAD_PROOF on
    the roll 1..4 and OFF_ROLL off it; no voter id raises."""
    result = run_election(Params(4, 2, 2), {i: Behavior() for i in range(1, 5)},
                          {1: 1, 2: 2, 3: 2}, 2, curve, seed=5)
    pk, enc = result.public_state.global_pk, result.encoding
    ballots = [e.message for e in result.board.entries(2)]
    honest = aggregate_ballots(curve, enc, pk, ballots)
    assert honest[1] == (1, 2, 3)
    for voter, verdict in ((4, Verdict.BAD_PROOF), (-1, Verdict.OFF_ROLL),
                           (2 ** 40, Verdict.OFF_ROLL)):
        copy = voting.Ballot(voter, ballots[0].a, ballots[0].b, ballots[0].proof)
        assert not proof_holds(curve, enc, pk, copy)
        assert ballot_verdict(curve, enc, pk, copy) is verdict
        assert aggregate_ballots(curve, enc, pk, ballots + [copy]) == honest


@pytest.fixture(scope="module", params=[TEST_GROUP, SECP256K1], ids=lambda g: g.name)
def roll_keys(request):
    """A curve with an honest ceremony's election key and its secret."""
    curve = request.param
    result = run_ceremony(Params(4, 2, 2), {i: Behavior() for i in range(1, 5)}, curve, seed=5)
    return curve, result.public_state.global_pk, result.outcome.global_secret


def test_ballots_past_the_roll_not_counted(roll_keys):
    """Ten valid ballots for candidate 1 under an encoding for 4 voters:
    only voters 1..4 are on the roll, so the tally is exact instead of
    overflowing candidate 1's slot into TallyIntegrityError."""
    curve, pk, d = roll_keys
    enc = derive_encoding(4, 2, curve.order)
    rng = random.Random(40)
    ballots = [cast_ballot(curve, enc, pk, v, 1, rng) for v in range(1, 11)]
    assert all(proof_holds(curve, enc, pk, b) for b in ballots)
    assert [ballot_verdict(curve, enc, pk, b) for b in ballots] == \
        [Verdict.ACCEPTED] * 4 + [Verdict.OFF_ROLL] * 6
    agg, accepted = aggregate_ballots(curve, enc, pk, ballots)
    assert accepted == (1, 2, 3, 4)
    result = tally_finalize(curve, agg, {0: curve.exp(agg.c1, d)}, len(accepted), enc)
    assert result.counts == (4, 0)


def test_voter_ids_off_the_roll_not_counted(roll_keys):
    """A ballot with a valid proof under voter id -1, 0 or 2^40 is dropped,
    and none of them raises."""
    curve, pk, _ = roll_keys
    enc = derive_encoding(4, 2, curve.order)
    rng = random.Random(41)
    honest = [cast_ballot(curve, enc, pk, v, 2, rng) for v in (1, 2)]
    for voter in (-1, 0, 2 ** 40):
        ballot = cast_ballot(curve, enc, pk, voter, 1, rng)
        assert proof_holds(curve, enc, pk, ballot)
        assert ballot_verdict(curve, enc, pk, ballot) is Verdict.OFF_ROLL
        assert aggregate_ballots(curve, enc, pk, [ballot]) == (None, ())
        assert aggregate_ballots(curve, enc, pk, honest + [ballot]) == \
            aggregate_ballots(curve, enc, pk, honest)


def one_by_one(group, enc, pk, ballots) -> tuple:
    """The accepted voters of the first ballot per voter that `ballot_verdict`
    accepts, judging each ballot on its own."""
    accepted = []
    for ballot in ballots:
        if ballot.voter not in accepted and \
                ballot_verdict(group, enc, pk, ballot) is Verdict.ACCEPTED:
            accepted.append(ballot.voter)
    return tuple(accepted)


def bad_response(group, ballot) -> Ballot:
    """`ballot` with its first branch's response off by one."""
    br = ballot.proof[0]
    branch = nizk.BallotBranch(br.commitment_1, br.commitment_2, br.challenge,
                               (br.response + 1) % group.order)
    return Ballot(ballot.voter, ballot.a, ballot.b, (branch,) + ballot.proof[1:])


def test_bad_then_good_ballot_counted_once(roll_keys, monkeypatch):
    """Every ballot is judged in one `judge_claims` call.  Voter 2's first
    ballot fails its proof, so the batch fails and each ballot is judged on
    its own: voter 2's later valid ballot counts once, at its own position,
    and the tally is exact."""
    curve, pk, d = roll_keys
    enc = derive_encoding(4, 2, curve.order)
    rng = random.Random(42)
    first = [cast_ballot(curve, enc, pk, v, 1, rng) for v in (1, 2, 3)]
    resent = cast_ballot(curve, enc, pk, 2, 2, rng)
    ballots = [first[0], bad_response(curve, first[1]), first[2], resent,
               cast_ballot(curve, enc, pk, 4, 2, rng), first[1]]
    assert ballot_verdict(curve, enc, pk, ballots[1]) is Verdict.BAD_PROOF
    calls, real = [], voting.judge_claims
    with monkeypatch.context() as m:
        m.setattr(voting, "judge_claims", lambda *args: calls.append(args) or real(*args))
        agg, accepted = aggregate_ballots(curve, enc, pk, ballots)
    assert len(calls) == 1
    assert accepted == one_by_one(curve, enc, pk, ballots) == (1, 3, 2, 4)
    assert (agg, accepted) == \
        aggregate_ballots(curve, enc, pk, [ballots[0], ballots[2], resent, ballots[4]])
    result = tally_finalize(curve, agg, {0: curve.exp(agg.c1, d)}, len(accepted), enc)
    assert result.counts == (2, 2)


def test_ballot_batch_cost_in_group_operations(counts):
    """20 valid 3-candidate secp256k1 ballots judged in one batch cost at
    most 0.7x the curve operations of judging them one by one (5,856 against
    9,321); with one tampered ballot the batch fails and the one-by-one
    fallback follows, at most 1.7x (15,146)."""
    curve = SECP256K1
    pk = curve.base_exp(0xC0FFEE)
    enc = derive_encoding(20, 3, curve.order)
    rng = random.Random(43)
    ballots = [cast_ballot(curve, enc, pk, v, v % 3 + 1, rng) for v in range(1, 21)]

    def cost(judge):
        counts.update(dict.fromkeys(counts, 0))
        found = judge()
        return sum(counts.values()), found

    single, accepted = cost(lambda: one_by_one(curve, enc, pk, ballots))
    assert accepted == tuple(range(1, 21))
    batch, (_, accepted) = cost(lambda: aggregate_ballots(curve, enc, pk, ballots))
    assert accepted == tuple(range(1, 21)) and batch <= 0.7 * single
    ballots[7] = bad_response(curve, ballots[7])
    fallback, (_, accepted) = cost(lambda: aggregate_ballots(curve, enc, pk, ballots))
    assert accepted == one_by_one(curve, enc, pk, ballots) == \
        tuple(v for v in range(1, 21) if v != 8)
    assert fallback <= 1.7 * single


@pytest.mark.parametrize("curve", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
@pytest.mark.parametrize("votes", [{0: 1}, {-1: 1}, {1: 1, 5: 2}], ids=["0", "-1", "n_bound+1"])
def test_run_election_rejects_voters_off_the_roll(curve, votes):
    behaviors = {i: Behavior() for i in range(1, 5)}
    with pytest.raises(ValueError, match=r"1\.\.4"):
        run_election(Params(4, 2, 2), behaviors, votes, 2, curve, seed=5)


def test_election_without_dealers_fails(group):
    """Every party absent in round 1 leaves no election key: nothing is
    posted after round 1, and the election fails with no tally."""
    behaviors = {i: Behavior(ABSENT_ROUND1) for i in range(1, 5)}
    result = run_election(Params(4, 2, 2), behaviors, {1: 1, 2: 2}, 2, group, seed=5)
    assert not result.success and result.tally is None
    assert result.public_state.participants == () and result.accepted_voters == ()
    assert len(result.board) == 0


def test_ballot_cost_in_group_operations(counts):
    """One 3-candidate secp256k1 ballot in curve operations, which do not
    depend on the host.  Its commitments come from the witness, on G and the
    election key only; inside a `fixed_base` block on the key, each of its 8
    multi_exps is comb rows alone: 32 doublings and no table of odd
    multiples."""
    pk = SECP256K1.base_exp(0xC0FFEE)
    enc = derive_encoding(20, 3, SECP256K1.order)
    SECP256K1.base_exp(1)  # G's comb is built outside the count

    def cost():
        counts.update(dict.fromkeys(counts, 0))
        cast_ballot(SECP256K1, enc, pk, 1, 2, random.Random(7))
        return counts["double"], counts["add"] + counts["row"], counts["table"]

    # 650 when the count took in the one doubling of each of the 4 fresh
    # bases' Jacobian tables; 830-842 on the multi-base commitments on A and B
    assert cost()[0] <= 646
    with groups.fixed_base(SECP256K1, pk):  # the key's table is built here
        double, add, table = cost()
    # each point is added once: in the row sums or by the Straus loop
    assert double <= 256 and add <= 330 and table == 0


def dealer_1_state(partial_pk):
    """A public state whose one accepted deal, dealer 1's, has `partial_pk`."""
    deal = protocol.DealMessage(1, None, {}, (partial_pk,), None)
    return protocol.PublicState(Params(3, 1, 1), {}, participants=(1,),
                                global_pk=partial_pk, deals={1: deal})


class TestPartialDecryption:
    def test_zero_secret_forced(self, group, rng):
        c1 = group.base_exp(5)
        pd = tally_partial_decrypt(group, 1, 0, group.identity(), c1, rng)
        assert pd.value == group.identity()
        assert partial_decryption_verdict(
            group, dealer_1_state(group.identity()), c1, pd) is Verdict.ACCEPTED

    def test_honest_roundtrip_and_mutation(self, group, rng):
        d = rng.randrange(group.order)
        pk = group.base_exp(d)
        public = dealer_1_state(pk)
        c1 = group.base_exp(rng.randrange(1, group.order))
        pd = tally_partial_decrypt(group, 1, d, pk, c1, rng)
        assert partial_decryption_verdict(group, public, c1, pd) is Verdict.ACCEPTED
        forged = voting.PartialDecryption(
            pd.dealer, group.mul(pd.value, group.generator()), pd.proof)
        assert partial_decryption_verdict(group, public, c1, forged) is Verdict.BAD_DLEQ
        stray = voting.PartialDecryption(2, pd.value, pd.proof)
        assert partial_decryption_verdict(group, public, c1, stray) is Verdict.NOT_A_PARTICIPANT
        assert collect_decryption_values(
            group, public, c1, [stray, forged, pd], [], voting.TALLY_CONTEXT, 1) == \
            {1: pd.value}


@pytest.mark.parametrize("curve", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
def test_forged_then_genuine_partial_decryption(curve, monkeypatch):
    """Every partial decryption is judged in one `judge_claims` call.
    Dealer 1's forged one fails the batch, so each is judged on its own and
    dealer 1's later genuine one gives its value."""
    rng = random.Random(44)
    secrets = {i: rng.randrange(curve.order) for i in (1, 2)}
    pks = {i: curve.base_exp(d) for i, d in secrets.items()}
    deals = {i: protocol.DealMessage(i, None, {}, (pk,), None) for i, pk in pks.items()}
    public = protocol.PublicState(Params(3, 1, 1), {}, participants=(1, 2),
                                  global_pk=curve.mul(pks[1], pks[2]), deals=deals)
    c1 = curve.base_exp(rng.randrange(1, curve.order))
    pds = {i: tally_partial_decrypt(curve, i, secrets[i], pks[i], c1, rng) for i in (1, 2)}
    genuine = {i: pd.value for i, pd in pds.items()}
    forged = voting.PartialDecryption(1, curve.mul(pds[1].value, curve.generator()),
                                      pds[1].proof)
    assert partial_decryption_verdict(curve, public, c1, forged) is Verdict.BAD_DLEQ
    for posted in ([pds[1], pds[2]], [forged, pds[2], pds[1]], [pds[2], forged, pds[1]]):
        assert collect_decryption_values(
            curve, public, c1, posted, [], voting.TALLY_CONTEXT, 1) == genuine
    assert collect_decryption_values(curve, public, c1, iter([forged, pds[2], pds[1]]), iter([]),
                                     voting.TALLY_CONTEXT, 1) == genuine
    calls, real = [], voting.judge_claims
    monkeypatch.setattr(voting, "judge_claims", lambda *args: calls.append(args) or real(*args))
    collect_decryption_values(curve, public, c1, [forged, pds[2], pds[1]], [],
                              voting.TALLY_CONTEXT, 1)
    assert len(calls) == 1


class TestShareRevealTally:
    def test_reconstructed_value_matches_direct(self, group, rng, election_keys):
        params, ceremony = election_keys
        public = ceremony.public_state
        c1 = group.base_exp(rng.randrange(1, group.order))
        # recover every dealer's C1^{d_i} purely from guardian reveals
        pki_secrets = {}
        from fdkg.board import generate_pki
        pki = generate_pki(params, group, 31)
        reveals = []
        for i in range(1, params.n + 1):
            reveals.extend(round2_reveal_shares(
                i, pki[i].sk, public, voting.TALLY_CONTEXT, group, rng))
        values = collect_decryption_values(
            group, public, c1, [], reveals, voting.TALLY_CONTEXT, params.t)
        # ceremony succeeded, so the true partial secrets are reconstructible
        d = ceremony.outcome.global_secret
        acc = group.identity()
        for v in values.values():
            acc = group.mul(acc, v)
        assert acc == group.exp(c1, d)

    def test_insufficient_reveals_name_dealer(self, group, rng, election_keys):
        params, ceremony = election_keys
        public = ceremony.public_state
        c1 = group.base_exp(7)
        with pytest.raises(TallyFailure) as exc:
            collect_decryption_values(
                group, public, c1, [], [], voting.TALLY_CONTEXT, params.t)
        assert set(exc.value.dealers) == set(public.participants)


def benchmark_shaped_election(curve):
    """run_election at n=6, t=2, k=3 with circulant guardian sets, 3
    candidates and 20 voters on a roll of 20 (2 and 4 on modp-2027, whose
    exponents hold no more); party 1 is absent in the tally, so its factor
    is interpolated from guardian shares.  Returns the result, the c1 of the
    audited aggregate, and round 3's partial decryptions and share reveals."""
    n, k = 6, 3
    candidates, voters = (3, 20) if curve is SECP256K1 else (2, 4)
    guardians = {i: frozenset((i + j - 1) % n + 1 for j in range(1, k + 1))
                 for i in range(1, n + 1)}
    behaviors = {i: Behavior() for i in range(1, n + 1)}
    behaviors[1] = Behavior(ABSENT_ROUND2)
    votes = {v: v % candidates + 1 for v in range(1, voters + 1)}
    result = run_election(Params(n, 2, k), behaviors, votes, candidates, curve, seed=5,
                          n_bound=voters, guardian_sets=guardians)
    assert result.success
    aggregate, _ = aggregate_ballots(curve, result.encoding, result.public_state.global_pk,
                                     [e.message for e in result.board.entries(2)])
    posted = [e.message for e in result.board.entries(3)]
    pds = [m for m in posted if isinstance(m, voting.PartialDecryption)]
    shares = [m for m in posted if isinstance(m, protocol.ShareReveal)]
    assert {pd.dealer for pd in pds} == {2, 3, 4, 5, 6}
    return result, aggregate, pds, shares


class TestTallyJudgesOnlyNeededShares:
    """`collect_decryption_values` judges no share reveal of a dealer whose
    partial decryption it accepts: the tally would not use it."""

    @pytest.mark.parametrize("curve", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
    def test_broken_share_of_present_dealer_not_judged(self, curve, monkeypatch):
        result, aggregate, pds, shares = benchmark_shaped_election(curve)
        public, t = result.public_state, 2
        i, m = next((i, m) for i, m in enumerate(shares) if m.dealer == 2)
        dleq = m.proof.dleq
        bad = nizk.DleqProof(dleq.commitment_1, dleq.commitment_2,
                             (dleq.response + 1) % curve.order)
        broken = protocol.ShareReveal(m.sender, m.dealer, m.value,
                                      nizk.ShareDecryptionProof(m.proof.mask, bad))
        judged, real = [], nizk.share_decryption_equations

        def counting(group, pk, ct, share, proof, context):
            judged.append(proof)
            return real(group, pk, ct, share, proof, context)

        public.verdicts.clear()
        honest = collect_decryption_values(curve, public, aggregate.c1, pds, shares,
                                           voting.TALLY_CONTEXT, t)
        public.verdicts.clear()
        monkeypatch.setattr(nizk, "share_decryption_equations", counting)
        values = collect_decryption_values(curve, public, aggregate.c1, pds,
                                           shares[:i] + [broken] + shares[i + 1:],
                                           voting.TALLY_CONTEXT, t)
        assert values == honest
        assert judged and all(proof.dleq is not bad for proof in judged)  # dealer 1's were
        assert tally_finalize(curve, aggregate, values, len(result.accepted_voters),
                              result.encoding) == result.tally
        assert protocol.judge_reveals(public, [broken], curve, voting.TALLY_CONTEXT) == \
            [Verdict.BAD_DLEQ]

    def test_secret_reveal_among_shares_still_judged(self, monkeypatch):
        """Secrets among the tally's messages are judged, and even absent
        dealer 1's correct secret leaves its shares counted: the tally
        ignores secrets, so their decryption proofs are still checked."""
        result, aggregate, pds, shares = benchmark_shaped_election(TEST_GROUP)
        public = result.public_state
        absent = shamir.reconstruct([shamir.Share(m.sender, m.value)
                                     for m in shares if m.dealer == 1][:2], 2, TEST_GROUP.order)
        assert TEST_GROUP.base_exp(absent) == public.deals[1].partial_pk
        secrets = [protocol.SecretReveal(2, 5), protocol.SecretReveal(1, absent)]
        judged, real = [], protocol._reveal_claim

        def counting(public_state, msg, *args, **kwargs):
            if isinstance(msg, protocol.SecretReveal):
                judged.append(msg)
            return real(public_state, msg, *args, **kwargs)

        monkeypatch.setattr(protocol, "_reveal_claim", counting)
        public.verdicts.clear()
        values = collect_decryption_values(TEST_GROUP, public, aggregate.c1, pds,
                                           secrets + shares, voting.TALLY_CONTEXT, 2)
        assert judged == secrets
        assert tally_finalize(TEST_GROUP, aggregate, values, len(result.accepted_voters),
                              result.encoding) == result.tally

    def test_cost_in_group_operations(self, counts):
        """On secp256k1, with one of six dealers absent, the tally judges the
        shares of that dealer only: at most 0.55x the curve operations of
        judging every share first (2,297 against 4,902 when this was
        pinned; 2,300 against 4,917 once `mul` and the row sums are counted
        too); the values are the same."""
        result, aggregate, pds, shares = benchmark_shaped_election(SECP256K1)
        public = result.public_state

        def cost(collect):
            public.verdicts.clear()
            counts.update(dict.fromkeys(counts, 0))
            values = collect()
            return sum(counts.values()), values

        def collect():
            return collect_decryption_values(SECP256K1, public, aggregate.c1, pds, shares,
                                             voting.TALLY_CONTEXT, 2)

        def judge_every_share_first():  # the later collect reads their memoized verdicts
            protocol.accepted_reveals(public, shares, SECP256K1, voting.TALLY_CONTEXT)
            return collect()

        needed, values = cost(collect)
        every, every_values = cost(judge_every_share_first)
        assert values == every_values and len(shares) == 15
        assert needed <= 0.55 * every


class TestBsgs:
    def test_identity(self, group):
        assert bsgs_dlog(group, group.identity(), group.generator(), 100) == 0

    def test_small_exponent(self, group):
        assert bsgs_dlog(group, group.base_exp(7), group.generator(), 100) == 7

    def test_exact_bound(self, group):
        assert bsgs_dlog(group, group.base_exp(50), group.generator(), 50) == 50

    def test_random_exponents(self, group):
        rng = random.Random(8)
        for _ in range(200):
            e = rng.randrange(1000)
            assert bsgs_dlog(group, group.base_exp(e), group.generator(), 1000) == e

    def test_out_of_bound_raises(self, group):
        with pytest.raises(DlogNotFoundError):
            bsgs_dlog(group, group.base_exp(900), group.generator(), 100)

    def test_negative_bound_rejected(self, group):
        with pytest.raises(VotingError):
            bsgs_dlog(group, group.identity(), group.generator(), -1)


class TestTallyFinalize:
    def test_zero_ballots(self, group):
        enc = derive_encoding(4, 2, group.order)
        result = tally_finalize(group, None, {}, 0, enc)
        assert result == voting.TallyResult((0, 0), 0)

    def test_unanimous_exponent(self, group, rng, election_keys):
        # three votes for candidate 1 pack to exponent 3
        params, ceremony = election_keys
        enc = derive_encoding(4, 2, group.order)
        pk = ceremony.public_state.global_pk
        d = ceremony.outcome.global_secret
        ballots = [cast_ballot(group, enc, pk, v, 1, rng) for v in (1, 2, 3)]
        agg, accepted = aggregate_ballots(group, enc, pk, ballots)
        values = {0: group.exp(agg.c1, d)}  # single combined factor
        result = tally_finalize(group, agg, values, len(accepted), enc)
        assert result.counts == (3, 0)

    def test_mixed_votes(self, group, rng, election_keys):
        params, ceremony = election_keys
        enc = derive_encoding(4, 2, group.order)
        pk = ceremony.public_state.global_pk
        d = ceremony.outcome.global_secret
        votes = [1, 1, 2]
        ballots = [cast_ballot(group, enc, pk, v, c, rng)
                   for v, c in enumerate(votes, start=1)]
        agg, accepted = aggregate_ballots(group, enc, pk, ballots)
        values = {0: group.exp(agg.c1, d)}
        result = tally_finalize(group, agg, values, len(accepted), enc)
        assert result.counts == (2, 1)
        # the packed exponent is 2*2^0 + 1*2^m
        m_elem = group.div(agg.c2, values[0])
        assert bsgs_dlog(group, m_elem, group.generator(), 100) == 2 + (1 << enc.slot_bits)

    def test_integrity_failure_on_wrong_factor(self, group, rng, election_keys):
        params, ceremony = election_keys
        enc = derive_encoding(4, 2, group.order)
        pk = ceremony.public_state.global_pk
        d = ceremony.outcome.global_secret
        ballots = [cast_ballot(group, enc, pk, 1, 1, rng)]
        agg, accepted = aggregate_ballots(group, enc, pk, ballots)
        bogus = {0: group.exp(agg.c1, (d + 1) % group.order)}
        with pytest.raises((TallyIntegrityError, DlogNotFoundError)):
            tally_finalize(group, agg, bogus, len(accepted), enc)

    def test_integrity_failure_on_wrong_ballot_count(self, group, rng, election_keys):
        _, ceremony = election_keys
        enc = derive_encoding(4, 2, group.order)
        pk = ceremony.public_state.global_pk
        ballots = [cast_ballot(group, enc, pk, v, 1, rng) for v in (1, 2, 3)]
        agg, accepted = aggregate_ballots(group, enc, pk, ballots)
        values = {0: group.exp(agg.c1, ceremony.outcome.global_secret)}
        with pytest.raises(TallyIntegrityError, match="expected 4"):
            tally_finalize(group, agg, values, len(accepted) + 1, enc)


class TestRunElection:
    def test_bad_candidate_rejected_before_round_1(self, group, monkeypatch):
        def deal_round(*args, **kwargs):
            raise AssertionError("round 1 ran")

        monkeypatch.setattr("fdkg.election.deal_round", deal_round)
        behaviors = {i: Behavior() for i in range(1, 7)}
        with pytest.raises(VotingError, match="candidate 7"):
            run_election(Params(6, 2, 3), behaviors, {1: 1, 2: 7}, 3, group, seed=1)

    def test_all_honest_exact_counts(self, group):
        params = Params(6, 2, 3)
        behaviors = {i: Behavior() for i in range(1, 7)}
        votes = {1: 1, 2: 2, 3: 1, 4: 1, 5: 2}
        result = run_election(params, behaviors, votes, 2, group, seed=12)
        assert result.success
        assert result.tally.counts == (3, 2)
        assert result.tally.total == 5

    def test_absent_dealer_recovered_by_guardians(self, group):
        params = Params(6, 2, 3)
        behaviors = {i: Behavior() for i in range(1, 7)}
        behaviors[2] = Behavior(ABSENT_ROUND2)
        votes = {1: 1, 3: 2, 4: 1}
        result = run_election(params, behaviors, votes, 2, group, seed=13)
        assert result.success
        assert result.tally.counts == (2, 1)

    def test_withholding_coalition_blocks_tally(self, group):
        params = Params(5, 2, 2)
        sets = {1: frozenset({2, 3}), 2: frozenset({3, 4}), 3: frozenset({4, 5}),
                4: frozenset({5, 1}), 5: frozenset({1, 2})}
        behaviors = {i: Behavior() for i in range(1, 6)}
        behaviors[1] = Behavior(ABSENT_ROUND2)
        behaviors[2] = Behavior(WITHHOLD_SHARES, frozenset({1}))
        result = run_election(params, behaviors, {3: 1, 4: 2}, 2, group,
                              seed=14, guardian_sets=sets)
        assert not result.success
        assert result.failed_dealers == (1,)
        assert result.tally is None

    def test_no_votes_is_a_valid_zero_tally(self, group):
        params = Params(5, 2, 2)
        behaviors = {i: Behavior() for i in range(1, 6)}
        result = run_election(params, behaviors, {}, 2, group, seed=15)
        assert result.success
        assert result.tally.counts == (0, 0)

    def test_dealer_without_guardian_set_rejected(self, group):
        behaviors = {i: Behavior() for i in range(1, 6)}
        with pytest.raises(ValueError, match=r"\[2, 3, 4, 5\]"):
            run_election(Params(5, 2, 2), behaviors, {1: 1}, 2, group, seed=17,
                         guardian_sets={1: frozenset({2, 3})})

    def test_missing_behavior_rejected(self, group):
        behaviors = {i: Behavior() for i in (1, 2, 3, 5)}
        with pytest.raises(ValueError, match=r"\[4\]"):
            run_election(Params(5, 2, 2), behaviors, {1: 1}, 2, group, seed=18)

    def test_more_votes_than_parties(self, group):
        # 8 votes for one candidate need 4-bit slots; n = 4 alone gives 3
        behaviors = {i: Behavior() for i in range(1, 5)}
        votes = {v: 1 for v in range(1, 9)}
        result = run_election(Params(4, 1, 2), behaviors, votes, 2, group, seed=19)
        assert result.encoding.n_bound == 8
        assert result.success and result.tally.counts == (8, 0)

    def test_n_bound_below_vote_count_rejected(self, group):
        behaviors = {i: Behavior() for i in range(1, 5)}
        votes = {v: 1 for v in range(1, 5)}
        with pytest.raises(ValueError, match="below the 4 votes"):
            run_election(Params(4, 1, 2), behaviors, votes, 2, group, seed=20, n_bound=3)

    @pytest.mark.parametrize("bad, success, counts, failed", [
        ({2}, True, (3, 2), ()),
        ({2, 3}, False, None, (1,)),
    ], ids=["one-bad-share", "two-bad-shares"])
    @pytest.mark.parametrize("curve", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
    def test_inconsistent_shares_of_absent_dealer(self, monkeypatch, curve, bad,
                                                  success, counts, failed):
        """Dealer 1's deal passes round 1, but the shares it encrypts to the
        guardians in `bad` are off by one; dealer 1 is absent at the tally.
        Their shares are judged inconsistent and do not count, so the tally
        completes while t consistent shares remain and names dealer 1
        otherwise."""
        real_deal, real_share = protocol.round1_deal, shamir.share_secret

        def off_by_one(secret, t, indices, rng, q):
            shares, poly = real_share(secret, t, indices, rng, q)
            return [shamir.Share(s.index, (s.value + 1) % q) if s.index in bad else s
                    for s in shares], poly

        def round1_deal(me, *args):
            with monkeypatch.context() as m:
                if me == 1:
                    m.setattr(shamir, "share_secret", off_by_one)
                return real_deal(me, *args)

        monkeypatch.setattr(protocol, "round1_deal", round1_deal)
        sets = {i: frozenset((i + d - 1) % 5 + 1 for d in (1, 2, 3)) for i in range(1, 6)}
        behaviors = {i: Behavior() for i in range(1, 6)}
        behaviors[1] = Behavior(ABSENT_ROUND2)
        votes = {1: 1, 2: 2, 3: 1, 4: 1, 5: 2}
        result = run_election(Params(5, 2, 3), behaviors, votes, 2, curve, seed=3,
                              guardian_sets=sets)
        assert 1 in result.public_state.participants
        round3 = [e.message for e in result.board.entries(3)]
        verdicts = protocol.judge_reveals(result.public_state, round3, curve,
                                          voting.TALLY_CONTEXT)
        complaints = {(m.sender, m.dealer) for m, v in zip(round3, verdicts)
                      if v is protocol.Verdict.INCONSISTENT}
        assert complaints == {(j, 1) for j in bad}
        assert result.success is success
        assert result.failed_dealers == failed
        if success:
            assert result.tally.counts == counts
        else:
            assert result.tally is None

    def test_deterministic(self, group):
        params = Params(6, 2, 3)
        behaviors = {i: Behavior() for i in range(1, 7)}
        votes = {1: 2, 2: 2, 3: 1}
        a = run_election(params, behaviors, votes, 2, group, seed=16)
        b = run_election(params, behaviors, votes, 2, group, seed=16)
        assert a.tally == b.tally
        assert transcripts.export_lines(a.board, group) == \
            transcripts.export_lines(b.board, group)


def test_bsgs_scaling_sublinear(group):
    """Runtime across growing bounds should track sqrt growth, not linear."""
    import math

    # the 1013-element test group cannot host 2^22 exponents; use raw ints
    class IntGroup:
        order = 1 << 61
        p = (1 << 61) - 1  # Mersenne prime

        def generator(self):
            return 37

        def identity(self):
            return 1

        def mul(self, a, b):
            return a * b % self.p

        def inv(self, a):
            return pow(a, -1, self.p)

        def exp(self, a, e):
            return pow(a, e, self.p)

        def base_exp(self, e):
            return pow(37, e, self.p)

        def div(self, a, b):
            return a * self.inv(b) % self.p

        def encode(self, a):
            return a.to_bytes(8, "big")

    g = IntGroup()
    rng = random.Random(9)
    timings = []
    for bits in (10, 14, 18):
        bound = 1 << bits
        start = time.perf_counter()
        for _ in range(5):
            e = rng.randrange(bound)
            assert bsgs_dlog(g, g.base_exp(e), g.generator(), bound) == e
        timings.append(time.perf_counter() - start)
    # 2^18 vs 2^10: bound grows 256x; sqrt predicts 16x. Allow generous slack
    # but reject linear growth.
    assert timings[-1] < timings[0] * 80
