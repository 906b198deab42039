import dataclasses
import random

import pytest

from fdkg import board as fboard
from fdkg import protocol, shamir
from fdkg.board import (ABSENT_ROUND1, ABSENT_ROUND2, BYZANTINE_SILENT,
                        HONEST, MALFORM_DEAL, WITHHOLD_SHARES, ActivationError,
                        Behavior, BroadcastBoard, CorruptActivation,
                        HonestActivation, child_rng, generate_pki,
                        ideal_functionality_run, run_ceremony)
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

    def test_digest_changes_on_append_only(self):
        b = BroadcastBoard()
        before = b.digest()
        b.append(1, 1, "a")
        after = b.digest()
        assert before != after
        assert b.digest() == after  # digest is a pure function of contents


class TestBehavior:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Behavior("sleepy")

    def test_corruption_classification(self):
        assert not Behavior(HONEST).corrupted
        assert not Behavior(ABSENT_ROUND1).corrupted  # churn, not corruption
        assert not Behavior(ABSENT_ROUND2).corrupted
        assert Behavior(WITHHOLD_SHARES, frozenset({1})).corrupted
        assert Behavior(MALFORM_DEAL).corrupted
        assert Behavior(BYZANTINE_SILENT).corrupted

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
        assert a.board.digest() == b.board.digest()
        assert a.outcome == b.outcome

    def test_seed_changes_transcript(self, group):
        params = Params(7, 2, 3)
        a = run_ceremony(params, all_honest(7), group, seed=1)
        b = run_ceremony(params, all_honest(7), group, seed=2)
        assert a.board.digest() != b.board.digest()


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
        for i in result.participants:
            out = result.outputs[i]
            assert out.partial_secret == result.partial_secrets[i]
            assert out.global_pk == result.global_pk

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
        assert result.outputs[1].guardians == frozenset({2, 3, 4})

    def test_corrupt_polynomial_used_verbatim(self, group):
        params = Params(6, 2, 3)
        poly = shamir.Polynomial((11, 13), group.order)
        acts = [CorruptActivation(2, poly, frozenset({1, 3, 4}))]
        result = ideal_functionality_run(params, acts, group, seed=3)
        assert result.partial_secrets[2] == 11
        assert result.shares[(2, 3)] == poly.evaluate(3)
        assert 2 not in result.outputs  # only honest parties get outputs


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
        comb base for its 8 uses, so the run takes at most 15,000 doublings
        (19,243 with a fresh-base exponentiation for each use)."""
        seed, behaviors, gsets = benchmark_shaped_ceremony(7)
        SECP256K1.base_exp(1)  # G's comb is built outside the count
        counts.update(dict.fromkeys(counts, 0))
        result = run_ceremony(Params(8, 2, 4), behaviors, SECP256K1, seed, gsets)
        assert result.outcome.success
        assert counts["double"] <= 15_000
        assert counts["comb"] == 8 * 255  # one table per key
