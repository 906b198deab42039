import dataclasses
import random

import pytest

from fdkg import board as fboard
from fdkg import protocol, shamir, transcripts, voting
from fdkg.board import (ABSENT_ROUND1, ABSENT_ROUND2, BYZANTINE_SILENT,
                        HONEST, MALFORM_DEAL, WITHHOLD_SHARES, ActivationError,
                        Behavior, BroadcastBoard, CorruptActivation,
                        HonestActivation, child_rng, generate_pki,
                        ideal_functionality_run, run_ceremony)
from fdkg.election import run_election
from fdkg.groups import SECP256K1, TEST_GROUP
from fdkg.protocol import Params

EXAMPLE_SETS = {1: frozenset({2, 3, 5}), 3: frozenset({4, 5, 7}),
                5: frozenset({3, 6, 7}), 7: frozenset({3, 5, 8}),
                9: frozenset({2, 5, 7})}


def all_honest(n):
    return {i: Behavior() for i in range(1, n + 1)}


class TestBroadcastBoard:
    def test_total_order_and_round_filter(self):
        b = BroadcastBoard()
        b.append(1, 1, "a")
        b.append(2, 2, "b")
        b.append(3, 1, "c")
        assert [e.message for e in b.entries()] == ["a", "b", "c"]
        assert [e.sender for e in b.entries(1)] == [1, 3]


class TestBehavior:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Behavior("sleepy")

    @pytest.mark.parametrize("kind", [HONEST, ABSENT_ROUND1, ABSENT_ROUND2, MALFORM_DEAL,
                                      BYZANTINE_SILENT])
    def test_targets_only_for_withhold_shares(self, kind):
        with pytest.raises(ValueError, match="takes no targets"):
            Behavior(kind, frozenset({1}))


class TestChildRng:
    def test_streams_are_independent(self):
        a = child_rng(7, 1, 0).randrange(1 << 64)
        b = child_rng(7, 1, 1).randrange(1 << 64)
        c = child_rng(7, 2, 0).randrange(1 << 64)
        d = child_rng(8, 1, 0).randrange(1 << 64)
        assert len({a, b, c, d}) == 4

    def test_reproducible(self):
        assert child_rng(-3, 5, 2).random() == child_rng(-3, 5, 2).random()


class TestRunCeremony:
    def test_all_honest_succeeds(self, group):
        params = Params(10, 2, 3)
        result = run_ceremony(params, all_honest(10), group, seed=11)
        assert result.outcome.success
        assert group.base_exp(result.outcome.global_secret) == \
            result.public_state.global_pk

    def test_example_scenario_recovery_paths(self, group):
        params = Params(10, 2, 3)
        # D = {1,3,5,7,9}, T = {3,5,7}; everyone else stays silent throughout
        behaviors = {i: Behavior(HONEST if i in (3, 5, 7) else
                                 ABSENT_ROUND2 if i in EXAMPLE_SETS else
                                 BYZANTINE_SILENT)
                     for i in range(1, 11)}
        result = run_ceremony(params, behaviors, group, seed=4,
                              guardian_sets=EXAMPLE_SETS)
        assert result.public_state.participants == (1, 3, 5, 7, 9)
        out = result.outcome
        assert out.success
        assert out.recovered[1] == ("shares", (3, 5))
        assert out.recovered[9] == ("shares", (5, 7))
        assert all(out.recovered[i] == ("direct",) for i in (3, 5, 7))

    def test_malformed_dealer_excluded_rest_succeed(self, group):
        params = Params(8, 2, 3)
        behaviors = all_honest(8)
        behaviors[4] = Behavior(MALFORM_DEAL)
        result = run_ceremony(params, behaviors, group, seed=2)
        assert 4 not in result.public_state.participants
        assert result.outcome.success

    def test_withheld_shares_can_block_a_dealer(self, group):
        params = Params(6, 2, 2)
        sets = {1: frozenset({2, 3}), 2: frozenset({3, 4}), 3: frozenset({4, 5}),
                4: frozenset({5, 6}), 5: frozenset({6, 1}), 6: frozenset({1, 2})}
        behaviors = all_honest(6)
        behaviors[1] = Behavior(ABSENT_ROUND2)
        behaviors[2] = Behavior(WITHHOLD_SHARES, frozenset({1}))
        result = run_ceremony(params, behaviors, group, seed=9, guardian_sets=sets)
        assert not result.outcome.success
        assert result.outcome.failed == (1,)

    def test_missing_behavior_rejected(self, group):
        with pytest.raises(ValueError):
            run_ceremony(Params(5, 1, 2), {1: Behavior()}, group, seed=0)

    def test_dealer_without_guardian_set_rejected(self, group):
        # a partial guardian map used to drop the unlisted dealers silently
        with pytest.raises(ValueError, match=r"\[2, 3, 4, 5\]"):
            run_ceremony(Params(5, 2, 2), all_honest(5), group, seed=0,
                         guardian_sets={1: frozenset({2, 3})})

    def test_deterministic_transcripts(self, group):
        params = Params(7, 2, 3)
        behaviors = all_honest(7)
        behaviors[2] = Behavior(ABSENT_ROUND2)
        a = run_ceremony(params, behaviors, group, seed=42)
        b = run_ceremony(params, behaviors, group, seed=42)
        assert transcripts.export_lines(a.board, group) == \
            transcripts.export_lines(b.board, group)
        assert a.outcome == b.outcome

    def test_seed_changes_transcript(self, group):
        params = Params(7, 2, 3)
        a = run_ceremony(params, all_honest(7), group, seed=1)
        b = run_ceremony(params, all_honest(7), group, seed=2)
        assert transcripts.export_lines(a.board, group) != \
            transcripts.export_lines(b.board, group)


class TestIdealFunctionality:
    def test_empty_activations(self, group):
        result = ideal_functionality_run(Params(5, 1, 2), [], group, seed=0)
        assert result.global_pk is None and result.participants == ()

    def test_honest_outputs_consistent(self, group):
        params = Params(6, 2, 3)
        acts = [HonestActivation(i, frozenset({j for j in range(1, 5) if j != i}))
                for i in (1, 2, 3)]
        result = ideal_functionality_run(params, acts, group, seed=5)
        q = group.order
        d = sum(result.partial_secrets.values()) % q
        assert result.global_pk == group.base_exp(d)

    @pytest.mark.parametrize("party", [0, 7], ids=["party 0", "party n+1"])
    def test_party_outside_party_set_rejected(self, group, party):
        with pytest.raises(ActivationError, match=r"outside 1\.\.n"):
            ideal_functionality_run(
                Params(6, 2, 3), [HonestActivation(party, frozenset({2, 3, 4}))],
                group, seed=0)

    def test_wrong_guardian_count_rejected(self, group):
        with pytest.raises(ActivationError):
            ideal_functionality_run(
                Params(6, 2, 3), [HonestActivation(1, frozenset({2, 3}))],
                group, seed=0)

    def test_self_guardian_rejected(self, group):
        with pytest.raises(ActivationError):
            ideal_functionality_run(
                Params(6, 2, 3), [HonestActivation(1, frozenset({1, 2, 3}))],
                group, seed=0)

    @pytest.mark.parametrize("outsider", [0, 7], ids=["guardian 0", "guardian n+1"])
    def test_guardian_outside_party_set_rejected(self, group, outsider):
        with pytest.raises(ActivationError, match="outside the party set"):
            ideal_functionality_run(
                Params(6, 2, 3), [HonestActivation(1, frozenset({2, 3, outsider}))],
                group, seed=0)

    def test_wrong_degree_polynomial_rejected(self, group):
        poly = shamir.Polynomial((1, 2, 3), group.order)  # degree 2, t=2 needs 2 coeffs
        with pytest.raises(ActivationError):
            ideal_functionality_run(
                Params(6, 2, 3),
                [CorruptActivation(1, poly, frozenset({2, 3, 4}))], group, seed=0)

    def test_duplicate_activation_ignored(self, group):
        params = Params(6, 2, 3)
        acts = [HonestActivation(1, frozenset({2, 3, 4})),
                HonestActivation(1, frozenset({4, 5, 6}))]
        result = ideal_functionality_run(params, acts, group, seed=3)
        assert {j for (i, j) in result.shares if i == 1} == {2, 3, 4}

    def test_corrupt_polynomial_used_verbatim(self, group):
        params = Params(6, 2, 3)
        poly = shamir.Polynomial((11, 13), group.order)
        acts = [CorruptActivation(2, poly, frozenset({1, 3, 4}))]
        result = ideal_functionality_run(params, acts, group, seed=3)
        assert result.partial_secrets[2] == 11
        assert result.shares[(2, 3)] == poly.evaluate(3)


class TestOracleEquivalence:
    def test_seed_matched_honest_runs_agree(self, group):
        params = Params(8, 2, 3)
        seed = 77
        real = run_ceremony(params, all_honest(8), group, seed=seed)
        gsets = real.public_state.guardian_sets()
        acts = [HonestActivation(i, frozenset(gsets[i]))
                for i in real.public_state.participants]
        ideal = ideal_functionality_run(params, acts, group, seed=seed)
        assert ideal.participants == real.public_state.participants
        assert ideal.global_pk == real.public_state.global_pk
        assert real.outcome.success
        q = group.order
        assert sum(ideal.partial_secrets.values()) % q == real.outcome.global_secret
        # every dealt share matches what the trusted party would hand out
        for (dealer, guardian), value in ideal.shares.items():
            record = real.public_state.deals[dealer]
            assert guardian in record.guardians.members

    def test_partial_pks_match_deal_messages(self, group):
        params = Params(6, 2, 2)
        seed = 123
        real = run_ceremony(params, all_honest(6), group, seed=seed)
        gsets = real.public_state.guardian_sets()
        acts = [HonestActivation(i, frozenset(gsets[i]))
                for i in real.public_state.participants]
        ideal = ideal_functionality_run(params, acts, group, seed=seed)
        for i in ideal.participants:
            assert group.base_exp(ideal.partial_secrets[i]) == \
                real.public_state.deals[i].partial_pk


def test_generate_pki_deterministic(group):
    params = Params(5, 1, 2)
    a = generate_pki(params, group, seed=6)
    b = generate_pki(params, group, seed=6)
    assert {i: kp.pk for i, kp in a.items()} == {i: kp.pk for i, kp in b.items()}


def benchmark_shaped_ceremony(seed: int) -> tuple:
    """(master seed, behaviors, guardian sets) of the benchmark's secp256k1
    ceremony step: n=8, circulant guardian sets of k=4 over a shuffled
    labelling, two parties absent in round 2, one withholding its share of
    the first and one malforming its deal."""
    rng = random.Random(seed)
    labels = list(range(1, 9))
    rng.shuffle(labels)
    behaviors = {i: Behavior() for i in labels}
    behaviors[labels[0]] = Behavior(ABSENT_ROUND2)
    behaviors[labels[4]] = Behavior(ABSENT_ROUND2)
    behaviors[labels[1]] = Behavior(WITHHOLD_SHARES, frozenset({labels[0]}))
    behaviors[labels[2]] = Behavior(MALFORM_DEAL)
    gsets = {labels[i]: frozenset(labels[(i + j) % 8] for j in range(1, 5)) for i in range(8)}
    return rng.randrange(2 ** 32), behaviors, gsets


class TestGuardianKeyCombs:
    """`deal_round` holds a comb table for every guardian key through the
    round, dealing and judging, and drops them all when the round ends."""

    def test_tables_only_during_the_round(self, monkeypatch):
        group = dataclasses.replace(SECP256K1, name="fresh")
        params = Params(4, 2, 2)
        sets = {1: {2, 3}, 2: {3, 4}, 3: {1, 4}, 4: {1, 2}}
        seen, real = [], protocol.round1_deal

        def recording(i, *args):
            seen.append(set(group._fixed))
            return real(i, *args)

        monkeypatch.setattr(protocol, "round1_deal", recording)
        _, pki, _, public = fboard.deal_round(params, all_honest(4), group, 3, sets)
        keys = {kp.pk[0] for kp in pki.values()}
        assert seen == [keys | {group.gx}] * 4
        assert group._fixed == {group.gx: (group.gy, None)}
        assert public.participants == (1, 2, 3, 4)

    def test_tables_dropped_when_a_dealer_raises(self, monkeypatch):
        group = dataclasses.replace(SECP256K1, name="fresh")
        real = protocol.round1_deal

        def failing(i, *args):
            if i == 3:
                raise RuntimeError("dealer 3")
            return real(i, *args)

        monkeypatch.setattr(protocol, "round1_deal", failing)
        with pytest.raises(RuntimeError):
            fboard.deal_round(Params(4, 2, 2), all_honest(4), group, 3,
                              {1: {2, 3}, 2: {3, 4}, 3: {1, 4}, 4: {1, 2}})
        assert group._fixed == {group.gx: (group.gy, None)}

    def test_benchmark_shaped_ceremony_doublings(self, counts):
        """Seed 7 of the benchmark's ceremony shape: each guardian key is a
        comb base for pk^kappa and pk^a in each of the 4 deals to it, and
        each of the 7 accepted deals' C1 for C1^sk and C1^w in each share
        reveal of it, and a comb term takes 16 doublings over each GLV half.
        So the run takes at most 6,132 doublings: 6,023, against 16,067 with
        a fresh-base exponentiation for each use.  With 32-column combs and
        key tables only it took 13,291 and 17,555 under a bound of 13,400
        (the same margin), and 8 * 255 table additions.  A signed comb
        table takes 7 + 127 additions (255 subset sums before it)."""
        seed, behaviors, gsets = benchmark_shaped_ceremony(7)
        SECP256K1.base_exp(1)  # G's comb is built outside the count
        counts.update(dict.fromkeys(counts, 0))
        result = run_ceremony(Params(8, 2, 4), behaviors, SECP256K1, seed, gsets)
        assert result.outcome.success
        assert counts["double"] <= 6_132
        assert counts["comb"] == (8 + 7) * 134  # one table per key and per accepted C1


class TestRevealRoundCombs:
    """`reveal_round` holds a comb table for the C1 of every accepted deal
    through the round, in a ceremony's round 2 and an election's round 3,
    and drops them all when the round ends, however it ends."""

    SETS = {1: {2, 3}, 2: {3, 4}, 3: {1, 4}, 4: {1, 2}}

    @pytest.mark.parametrize("driver", ["ceremony", "election"])
    def test_tables_only_during_the_round(self, driver, monkeypatch):
        """Dealer 2's deal is malformed, so only 3 C1s are fixed; dealer 4
        is absent in the reveal round, so its guardians' shares, proved on
        its C1's table, recover it.  The election's tally round also holds
        the aggregate's C1, the base of every partial decryption."""
        group = dataclasses.replace(SECP256K1, name="fresh")
        params = Params(4, 2, 2)
        behaviors = {**all_honest(4), 2: Behavior(MALFORM_DEAL), 4: Behavior(ABSENT_ROUND2)}
        seen, states, real = [], [], protocol.round2_reveal_shares

        def recording(i, sk, public_state, *args):
            seen.append(set(group._fixed))
            states.append(public_state)
            return real(i, sk, public_state, *args)

        monkeypatch.setattr(protocol, "round2_reveal_shares", recording)
        extra = set()
        if driver == "ceremony":
            result = run_ceremony(params, behaviors, group, 3, self.SETS)
            assert result.outcome.success and result.outcome.recovered[4][0] == "shares"
            assert group.base_exp(result.outcome.global_secret) == result.public_state.global_pk
        else:
            result = run_election(params, behaviors, {1: 1, 2: 2, 3: 2}, 2, group, 3,
                                  guardian_sets=self.SETS)
            assert result.success and result.tally.counts == (1, 2)
            aggregate, _ = voting.aggregate_ballots(
                group, result.encoding, result.public_state.global_pk,
                [e.message for e in result.board.entries(2)])
            extra = {aggregate.c1[0]}
        public = states[0]
        c1s = {deal.c1[0] for deal in public.deals.values()}
        assert public.participants == (1, 3, 4) and len(c1s) == 3
        assert seen == [c1s | {group.gx} | extra] * 3  # parties 1, 2 and 3
        assert group._fixed == {group.gx: (group.gy, None)}

    def test_tally_holds_the_aggregate_c1(self, monkeypatch):
        """`run_election` holds the aggregate's C1 as a comb base from the
        tally's reveal round through `collect_decryption_values` and
        `tally_finalize`, and drops it after, also when the tally fails."""
        group = dataclasses.replace(SECP256K1, name="fresh")
        params = Params(4, 2, 2)
        seen = {}

        def recording(name):
            real = getattr(voting, name)

            def call(group_, *args):
                seen[name] = set(group._fixed)
                return real(group_, *args)
            monkeypatch.setattr(voting, name, call)

        for name in ("collect_decryption_values", "tally_finalize"):
            recording(name)
        behaviors = {**all_honest(4), 4: Behavior(ABSENT_ROUND2)}
        result = run_election(params, behaviors, {1: 1, 2: 2, 3: 2}, 2, group, 3,
                              guardian_sets=self.SETS)
        assert result.success and result.tally.counts == (1, 2)
        aggregate, _ = voting.aggregate_ballots(
            group, result.encoding, result.public_state.global_pk,
            [e.message for e in result.board.entries(2)])
        assert seen == dict.fromkeys(seen, {group.gx, aggregate.c1[0]}) and len(seen) == 2
        assert group._fixed == {group.gx: (group.gy, None)}
        # dealers 3 and 4 absent: dealer 4's guardians 1 and 2 remain, dealer 3's only 1
        behaviors = {**all_honest(4), 3: Behavior(ABSENT_ROUND2), 4: Behavior(ABSENT_ROUND2)}
        result = run_election(params, behaviors, {1: 1, 2: 2, 3: 2}, 2, group, 3,
                              guardian_sets=self.SETS)
        assert not result.success and result.failed_dealers == (3,)
        assert group._fixed == {group.gx: (group.gy, None)}

    def test_tables_dropped_when_a_party_raises(self, monkeypatch):
        group = dataclasses.replace(SECP256K1, name="fresh")
        real = protocol.round2_reveal_shares

        def failing(i, *args):
            if i == 3:
                raise RuntimeError("guardian 3")
            return real(i, *args)

        monkeypatch.setattr(protocol, "round2_reveal_shares", failing)
        with pytest.raises(RuntimeError):
            run_ceremony(Params(4, 2, 2), all_honest(4), group, 3, self.SETS)
        assert group._fixed == {group.gx: (group.gy, None)}
