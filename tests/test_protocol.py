import dataclasses
import hashlib
import itertools
import random
import time
from collections import Counter

import pytest

from fdkg import groups, nizk, pke, protocol, shamir, voting
from fdkg.groups import SECP256K1, TEST_GROUP
from fdkg.protocol import GuardianSet, Params, SecretReveal, ShareReveal, Verdict

CTX = b"fdkg/round2"


def make_pki(group, rng, n):
    return {i: pke.pke_keygen(group, rng) for i in range(1, n + 1)}


def run_round1(group, rng, params, guardian_sets):
    pki = make_pki(group, rng, params.n)
    pub = {i: kp.pk for i, kp in pki.items()}
    messages = []
    states = {}
    for dealer, members in guardian_sets.items():
        gset = GuardianSet.create(dealer, members, params)
        msg, st = protocol.round1_deal(dealer, params, gset, pub, group, rng)
        messages.append(msg)
        states[dealer] = st
    public = protocol.process_round1(messages, params, pub, group)
    return pki, pub, messages, states, public


class TestParams:
    def test_valid(self):
        Params(n=10, t=2, k=3)

    @pytest.mark.parametrize("n,t,k", [(10, 0, 3), (10, 4, 3), (10, 2, 10), (3, 1, 3)])
    def test_invalid(self, n, t, k):
        with pytest.raises(protocol.ProtocolError):
            Params(n=n, t=t, k=k)


class TestGuardianSet:
    def test_self_guarding_rejected(self):
        with pytest.raises(protocol.InvalidGuardianSetError):
            GuardianSet.create(1, {1, 2, 3}, Params(10, 2, 3))

    def test_wrong_size_rejected(self):
        with pytest.raises(protocol.InvalidGuardianSetError):
            GuardianSet.create(1, {2, 3}, Params(10, 2, 3))

    def test_out_of_range_member_rejected(self):
        with pytest.raises(protocol.InvalidGuardianSetError):
            GuardianSet.create(1, {2, 3, 11}, Params(10, 2, 3))


class TestRound1:
    def test_deal_shape_and_guardian_decryption(self, group, rng):
        # dealer 1 shares to guardians {2,3,5}; guardian 3 recovers f(3)
        params = Params(10, 2, 3)
        pki = make_pki(group, rng, params.n)
        pub = {i: kp.pk for i, kp in pki.items()}
        gset = GuardianSet.create(1, {2, 3, 5}, params)
        msg, state = protocol.round1_deal(1, params, gset, pub, group, rng)
        assert sorted(msg.ciphertexts) == [2, 3, 5]
        assert msg.partial_pk == group.base_exp(state.partial_secret)
        assert state.polynomial.evaluate(0) == state.partial_secret
        plaintext = pke.pke_decrypt(group, pki[3].sk, msg.ciphertexts[3])
        assert plaintext == state.polynomial.evaluate(3)

    def test_deal_verifies(self, group, rng):
        params = Params(10, 2, 3)
        pki, pub, messages, _, _ = run_round1(
            group, rng, params, {1: {2, 3, 5}})
        assert protocol.judge_deal(messages[0], params, pub, group) is Verdict.ACCEPTED

    def test_owner_mismatch_raises(self, group, rng):
        params = Params(10, 2, 3)
        pub = {i: kp.pk for i, kp in make_pki(group, rng, params.n).items()}
        gset = GuardianSet.create(2, {1, 3, 5}, params)
        with pytest.raises(protocol.InvalidGuardianSetError):
            protocol.round1_deal(1, params, gset, pub, group, rng)

    def test_tampered_ciphertext_rejected(self, group, rng):
        params = Params(10, 2, 3)
        pki, pub, messages, _, _ = run_round1(group, rng, params, {1: {2, 3, 5}})
        msg = messages[0]
        bad = dataclasses.replace(msg, parts={**msg.parts, 2: (msg.parts[2] + 1) % group.order})
        assert protocol.judge_deal(bad, params, pub, group) is Verdict.BAD_PROOF

    def test_deal_with_wrong_response_rejected(self, group, rng):
        params = Params(10, 2, 3)
        pki, pub, messages, _, _ = run_round1(group, rng, params, {1: {2, 3, 5}})
        msg = messages[0]
        off = dataclasses.replace(msg.proof, response=(msg.proof.response + 1) % group.order)
        bad = dataclasses.replace(msg, proof=off)
        assert protocol.judge_deal(bad, params, pub, group) is Verdict.BAD_PROOF

    @pytest.mark.parametrize("members", [{2, 3}, {2, 3, 4, 5}, {1, 3, 5}, {2, 3, 11}],
                             ids=["k-1 keys", "k+1 keys", "dealer's own index", "index n+1"])
    def test_deal_to_invalid_guardian_keys_rejected(self, group, rng, members):
        """Dealer 1's deal to `members`, with every proof honest for its
        ciphertext keys: only the check of the keys as a guardian set of
        size k within 1..n, the dealer left out, rejects it."""
        params = Params(10, 2, 3)
        pub = {i: kp.pk for i, kp in make_pki(group, rng, params.n + 1).items()}
        msg, _ = protocol.round1_deal(1, params, GuardianSet(1, frozenset(members)),
                                      pub, group, rng)
        assert sorted(msg.ciphertexts) == sorted(members)
        assert protocol.judge_deal(msg, params, pub, group) is Verdict.BAD_GUARDIAN_SET


class TestProcessRound1:
    def test_global_key_is_product(self, group, rng):
        params = Params(6, 2, 3)
        sets = {1: {2, 3, 4}, 2: {3, 4, 5}, 5: {1, 2, 6}}
        _, _, _, states, public = run_round1(group, rng, params, sets)
        assert public.participants == (1, 2, 5)
        acc = group.identity()
        for i in public.participants:
            acc = group.mul(acc, group.base_exp(states[i].partial_secret))
        assert public.global_pk == acc

    def test_first_valid_deal_wins(self, group, rng, monkeypatch):
        """Both of dealer 1's deals are judged, in one `judge_deals` call,
        and both are accepted; the first is kept."""
        params = Params(6, 2, 3)
        pki, pub, messages, states, _ = run_round1(group, rng, params, {1: {2, 3, 4}})
        gset = GuardianSet.create(1, {4, 5, 6}, params)
        second, _ = protocol.round1_deal(1, params, gset, pub, group, rng)
        judged, real = [], protocol.judge_deals

        def recording(msgs, *args):
            verdicts = real(msgs, *args)
            judged.append(list(zip(msgs, verdicts)))
            return verdicts

        monkeypatch.setattr(protocol, "judge_deals", recording)
        public = protocol.process_round1([messages[0], second], params, pub, group)
        assert public.deals[1].guardians.members == frozenset({2, 3, 4})
        assert judged == [[(messages[0], Verdict.ACCEPTED), (second, Verdict.ACCEPTED)]]
        assert public.deals[1] is messages[0]

    @pytest.mark.parametrize("group", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
    def test_round_of_deals_is_one_kernel_call(self, group, monkeypatch):
        """Five deals, the middle one with its proof's response off by one:
        `process_round1` judges them in one `multi_exps` call, that deal and
        only that deal is BAD_PROOF, and the verdicts are those of judging
        each deal alone."""
        rng = random.Random(21)
        params = Params(6, 2, 3)
        sets = {i: {(i + d - 1) % 6 + 1 for d in (1, 2, 3)} for i in range(1, 6)}
        _, pub, messages, _, _ = run_round1(group, rng, params, sets)
        bad = messages[2]
        messages[2] = dataclasses.replace(bad, proof=dataclasses.replace(
            bad.proof, response=(bad.proof.response + 1) % group.order))
        alone = [protocol.judge_deal(msg, params, pub, group) for msg in messages]
        calls, real = [], groups.multi_exps
        monkeypatch.setattr(nizk, "multi_exps",
                            lambda *args: calls.append(args) or real(*args))
        public = protocol.process_round1(messages, params, pub, group)
        assert len(calls) == 1
        assert alone == [Verdict.ACCEPTED] * 2 + [Verdict.BAD_PROOF] + [Verdict.ACCEPTED] * 2
        calls.clear()
        assert protocol.judge_deals(messages, params, pub, group) == alone
        assert len(calls) == 1
        assert public.participants == (1, 2, 4, 5)

    def test_one_shot_iterator(self, group, rng):
        """A generator of deals gives the same state as the list of them."""
        params = Params(6, 2, 3)
        _, pub, messages, _, public = run_round1(group, rng, params, {1: {2, 3, 4}, 2: {3, 4, 5}})
        from_gen = protocol.process_round1((m for m in messages), params, pub, group)
        assert (from_gen.participants, from_gen.deals, from_gen.global_pk) == \
            (public.participants, public.deals, public.global_pk) and public.participants == (1, 2)

    def test_invalid_deal_dropped(self, group, rng):
        params = Params(6, 2, 3)
        pki, pub, messages, _, _ = run_round1(
            group, rng, params, {1: {2, 3, 4}, 2: {3, 4, 5}})
        msg = messages[1]
        bad = dataclasses.replace(msg, parts={j: msg.parts[j] for j in (3, 4)})
        public = protocol.process_round1([messages[0], bad], params, pub, group)
        assert public.participants == (1,)

    def test_empty(self, group, rng):
        params = Params(6, 2, 3)
        pub = {i: kp.pk for i, kp in make_pki(group, rng, params.n).items()}
        public = protocol.process_round1([], params, pub, group)
        assert public.participants == () and public.global_pk is None

    @pytest.mark.parametrize("dealer", [-1, 2 ** 40])
    def test_dealer_outside_party_range_rejected(self, group, rng, dealer):
        params = Params(6, 2, 3)
        _, pub, messages, _, _ = run_round1(group, rng, params, {1: {2, 3, 4}})
        msg = messages[0]
        bad = dataclasses.replace(msg, dealer=dealer)
        assert protocol.judge_deal(bad, params, pub, group) is Verdict.OFF_ROLL
        public = protocol.process_round1([bad, msg], params, pub, group)
        assert public.participants == (1,)


def example_scenario(group, rng):
    """n=10, t=2, k=3; dealers {1,3,5,7,9}; round-2 presence T={3,5,7}."""
    params = Params(10, 2, 3)
    sets = {1: {2, 3, 5}, 3: {4, 5, 7}, 5: {3, 6, 7}, 7: {3, 5, 8}, 9: {2, 5, 7}}
    pki, pub, messages, states, public = run_round1(group, rng, params, sets)
    return params, pki, states, public


def scenario_reveals(group, rng, params, pki, states, public, present):
    reveals = []
    for i in sorted(present):
        if i in public.participants:
            reveals.append(protocol.round2_reveal_secret(
                i, states[i], public, CTX, group, rng))
        reveals.extend(protocol.round2_reveal_shares(
            i, pki[i].sk, public, CTX, group, rng))
    return reveals


class TestRound2AndReconstruct:
    def test_example_scenario_success(self, group, rng):
        params, pki, states, public = example_scenario(group, rng)
        assert public.participants == (1, 3, 5, 7, 9)
        reveals = scenario_reveals(group, rng, params, pki, states, public, {3, 5, 7})
        # party 3 broadcasts the share it guards for dealer 1
        assert any(isinstance(m, ShareReveal) and (m.sender, m.dealer) == (3, 1)
                   for m in reveals)
        outcome = protocol.offline_reconstruct(public, reveals, params, group, CTX)
        assert outcome.success
        assert outcome.recovered[3] == ("direct",)
        assert outcome.recovered[5] == ("direct",)
        assert outcome.recovered[7] == ("direct",)
        assert outcome.recovered[1] == ("shares", (3, 5))
        assert outcome.recovered[9] == ("shares", (5, 7))
        expected = sum(states[i].partial_secret for i in public.participants) % group.order
        assert outcome.global_secret == expected
        assert group.base_exp(outcome.global_secret) == public.global_pk

    def test_reveal_secret_requires_participation(self, group, rng):
        params, pki, states, public = example_scenario(group, rng)
        ghost = protocol.DealerState(2, 7, shamir.Polynomial((7, 1), group.order))
        with pytest.raises(protocol.NotAParticipantError):
            protocol.round2_reveal_secret(2, ghost, public, CTX, group, rng)

    def test_failure_names_unrecoverable_dealer(self, group, rng):
        # dealer 1 absent and only guardian 3 of {2,3,5} reveals: t=2 unmet
        params, pki, states, public = example_scenario(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public, {3, 5, 7})
        reveals = [m for m in reveals
                   if not (isinstance(m, ShareReveal) and m.dealer == 1 and m.sender == 5)]
        outcome = protocol.offline_reconstruct(public, reveals, params, group, CTX)
        assert not outcome.success
        assert outcome.failed == (1,)
        assert outcome.global_secret is None

    def test_direct_reveal_preferred_over_shares(self, group, rng):
        params, pki, states, public = example_scenario(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public,
                                   {1, 3, 5, 7, 9})
        outcome = protocol.offline_reconstruct(public, reveals, params, group, CTX)
        assert outcome.success
        assert all(outcome.recovered[i] == ("direct",) for i in public.participants)

    def test_lowest_t_guardians_chosen(self, group, rng):
        # all three of dealer 1's guardians reveal; the two lowest are used
        params, pki, states, public = example_scenario(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public,
                                   {2, 3, 5, 7})
        outcome = protocol.offline_reconstruct(public, reveals, params, group, CTX)
        assert outcome.recovered[1] == ("shares", (2, 3))

    def test_first_share_reveal_wins(self, group, rng):
        params, pki, states, public = example_scenario(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public, {3, 5, 7})
        forged = [ShareReveal(m.sender, m.dealer, m.value + 1, m.proof)
                  for m in reveals if isinstance(m, ShareReveal)]
        outcome = protocol.offline_reconstruct(
            public, reveals + forged, params, group, CTX)
        assert outcome.success

    def test_forged_secret_reveal_ignored(self, group, rng):
        params, pki, states, public = example_scenario(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public, {3, 5, 7})
        wrong = states[1].partial_secret + 1
        outcome = protocol.offline_reconstruct(
            public, [SecretReveal(1, wrong)] + reveals, params, group, CTX)
        assert outcome.success
        assert outcome.recovered[1] == ("shares", (3, 5))

    def test_deterministic_given_same_reveals(self, group):
        rng = random.Random(7)
        params, pki, states, public = example_scenario(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public, {3, 5, 7})
        a = protocol.offline_reconstruct(public, list(reveals), params, group, CTX)
        b = protocol.offline_reconstruct(public, list(reveals), params, group, CTX)
        assert a == b


def forged_reveal(case, group, public, reveals):
    """A round-2 message that `judge_reveals` rejects for the reason `case`
    names, built from the example scenario's reveals with {3, 5, 7} present."""
    q = group.order
    share = next(m for m in reveals if isinstance(m, ShareReveal) and m.dealer == 1)
    secret = next(m for m in reveals if isinstance(m, SecretReveal) and m.sender == 3)
    if case == "secret from a non-dealer":
        return SecretReveal(2, 7)
    if case == "share from a non-guardian":
        return ShareReveal(4, 1, share.value, share.proof)
    if case == "share for a non-dealer":
        return ShareReveal(share.sender, 2, share.value, share.proof)
    if case == "share plus q":
        return ShareReveal(share.sender, share.dealer, share.value + q, share.proof)
    if case == "secret plus q":
        return SecretReveal(3, secret.value + q)
    if case == "negative share":
        return ShareReveal(share.sender, share.dealer, share.value - q, share.proof)
    if case == "wrong secret":
        return SecretReveal(3, (secret.value + 1) % q)
    if case == "wrong share":
        return ShareReveal(share.sender, share.dealer, (share.value + 1) % q, share.proof)
    if case == "forged DLEQ":
        dleq = share.proof.dleq
        proof = nizk.ShareDecryptionProof(share.proof.key, nizk.DleqProof(
            dleq.commitment_1, dleq.commitment_2, (dleq.response + 1) % q))
        return ShareReveal(share.sender, share.dealer, share.value, proof)
    if case == "deal in round 2":
        return public.deals[1]
    raise AssertionError(case)


class TestVerdicts:
    """One forged message per rejection reason: `judge_reveals` names the
    reason, and placed first among honest reveals it changes no outcome."""

    CASES = [
        ("secret from a non-dealer", Verdict.NOT_A_PARTICIPANT),
        ("share from a non-guardian", Verdict.NOT_A_GUARDIAN),
        ("share for a non-dealer", Verdict.NOT_A_GUARDIAN),
        ("share plus q", Verdict.OUT_OF_RANGE),
        ("secret plus q", Verdict.OUT_OF_RANGE),
        ("negative share", Verdict.OUT_OF_RANGE),
        ("wrong secret", Verdict.PK_MISMATCH),
        ("wrong share", Verdict.BAD_DLEQ),
        ("forged DLEQ", Verdict.BAD_DLEQ),
        ("deal in round 2", Verdict.NOT_A_REVEAL),
    ]

    @pytest.mark.parametrize("case,reason", CASES)
    def test_rejection_reason(self, group, rng, case, reason):
        params, pki, states, public = example_scenario(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public, {3, 5, 7})
        bad = forged_reveal(case, group, public, reveals)
        verdicts = protocol.judge_reveals(public, [bad] + reveals, group, CTX)
        assert verdicts == [reason] + [Verdict.ACCEPTED] * len(reveals)
        honest = protocol.offline_reconstruct(public, reveals, params, group, CTX)
        assert honest.success and honest.recovered[1] == ("shares", (3, 5))
        assert protocol.offline_reconstruct(
            public, [bad] + reveals, params, group, CTX) == honest

    def test_reason_texts(self):
        assert [v.value for v in Verdict] == [
            "accepted", "sender off the roll", "invalid guardian set", "bad proof",
            "not a round-2 reveal", "not a participant", "not a guardian",
            "value outside [0, q)", "value does not match partial pk", "bad DLEQ",
            "share inconsistent with commitments"]

    def test_inconsistent_share(self, group, rng):
        public, share = inconsistent_share(group, rng)
        assert protocol.judge_reveals(public, [share], group, CTX) == [Verdict.INCONSISTENT]

    def test_every_rejection_reason_produced(self, group, rng):
        """Each verdict but ACCEPTED comes out of `judge_reveals` or
        `judge_deal` for some message built here: the CASES above;
        INCONSISTENT, which is no case there since only a deal that
        encrypts a wrong share draws it; and dealer 1's deal posted by
        dealer -1 (OFF_ROLL), by its guardian 2 (BAD_GUARDIAN_SET) and with
        its proof's response off by one (BAD_PROOF)."""
        params, pki, states, public = example_scenario(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public, {3, 5, 7})
        forged = [forged_reveal(case, group, public, reveals) for case, _ in self.CASES]
        produced = set(protocol.judge_reveals(public, forged, group, CTX))
        deal = public.deals[1]
        off = dataclasses.replace(deal.proof, response=(deal.proof.response + 1) % group.order)
        deals = [dataclasses.replace(deal, dealer=-1), dataclasses.replace(deal, dealer=2),
                 dataclasses.replace(deal, proof=off)]
        produced.update(protocol.judge_deal(m, params, public.pki, group) for m in deals)
        bad_public, share = inconsistent_share(group, rng)
        produced.update(protocol.judge_reveals(bad_public, [share], group, CTX))
        assert produced == set(Verdict) - {Verdict.ACCEPTED}

    def test_verdict_is_per_context(self, group, rng):
        params, pki, states, public = example_scenario(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public, {3, 5, 7})
        assert set(protocol.judge_reveals(public, reveals, group, CTX)) == {Verdict.ACCEPTED}
        # a secret carries no proof, so only the shares' proofs fail there
        other = protocol.judge_reveals(public, reveals, group, b"another context")
        assert other == [Verdict.ACCEPTED if isinstance(m, SecretReveal) else Verdict.BAD_DLEQ
                         for m in reveals]
        assert set(protocol.judge_reveals(public, reveals, group, CTX)) == {Verdict.ACCEPTED}

    def test_equal_copy_judged_again(self, group, rng, monkeypatch):
        params, pki, states, public = example_scenario(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public, {3, 5, 7})
        protocol.judge_reveals(public, reveals, group, CTX)
        calls = []
        real = protocol._reveal_claim

        def counting(public_state, msg, *args, **kwargs):
            if isinstance(msg, SecretReveal):
                calls.append(msg)
            return real(public_state, msg, *args, **kwargs)

        monkeypatch.setattr(protocol, "_reveal_claim", counting)
        secret = next(m for m in reveals if isinstance(m, SecretReveal))
        copy = SecretReveal(secret.sender, secret.value)
        assert protocol.judge_reveals(public, [secret, copy], group, CTX) == [Verdict.ACCEPTED] * 2
        assert len(calls) == 1


def bad_deal(group, rng, params, pub, dealer=1, members=(2, 3, 5), wrong=(2,)):
    """`dealer`'s `round1_deal` to guardians `members`, but with a wrong
    share encrypted to each guardian in `wrong`: its commitments and deal
    proof are honest for what the deal holds."""
    share_secret = shamir.share_secret

    def offset_share(*args):
        shares, poly = share_secret(*args)
        return [shamir.Share(s.index, (s.value + 1) % group.order) if s.index in wrong else s
                for s in shares], poly

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shamir, "share_secret", offset_share)
        msg, state = protocol.round1_deal(
            dealer, params, GuardianSet.create(dealer, members, params), pub, group, rng)
    return msg, state.partial_secret


def inconsistent_share(group, rng):
    """(public state, share reveal): guardian 2's honest reveal of the wrong
    share that `bad_deal` encrypted to it."""
    params = Params(10, 2, 3)
    pki = make_pki(group, rng, params.n)
    pub = {i: kp.pk for i, kp in pki.items()}
    msg, _ = bad_deal(group, rng, params, pub)
    public = protocol.process_round1([msg], params, pub, group)
    (share,) = protocol.round2_reveal_shares(2, pki[2].sk, public, CTX, group, rng)
    return public, share


def bad_dealer_round1(group, rng):
    """n=5, t=2, k=3 round 1 in which dealer 1 is `bad_deal`'s, guarded by
    {2, 3, 5}, and every other dealer i is guarded by i+1..i+3 mod 5."""
    params = Params(5, 2, 3)
    pki = make_pki(group, rng, params.n)
    pub = {i: kp.pk for i, kp in pki.items()}
    bad_msg, d = bad_deal(group, rng, params, pub)
    messages, states = [bad_msg], {1: protocol.DealerState(1, d, None)}
    for dealer in range(2, 6):
        members = {(dealer + s - 1) % 5 + 1 for s in (1, 2, 3)}
        msg, states[dealer] = protocol.round1_deal(
            dealer, params, GuardianSet.create(dealer, members, params), pub, group, rng)
        messages.append(msg)
    public = protocol.process_round1(messages, params, pub, group)
    assert public.participants == (1, 2, 3, 4, 5)
    return params, pki, states, public


def wrong_shares_succeed(coalition, guardian_sets, wrong, t):
    """The reference predicate with wrong shares: every participant of
    `coalition`, which withholds its secret, keeps at least t guardians
    outside `coalition` that did not get a wrong share (`wrong[i]`)."""
    return all(len(guardian_sets[i] - coalition - wrong[i]) >= t for i in coalition)


def test_wrong_shares_against_predicate():
    """Exhaustive on modp-2027 over n=3 with every k, t and topology, and
    n=4, k=3, t=2: every dealer's choice of the guardians that get a wrong
    share (`bad_deal`), and every coalition of parties withholding all
    they would send, the rest revealing honestly.  Reconstruction succeeds
    exactly when `wrong_shares_succeed` says so, and every success is the
    key of `global_pk`."""
    budget_s = 30.0
    start = time.perf_counter()
    group, rng = TEST_GROUP, random.Random(2031)
    checked = 0
    for n, k, t in ((3, 1, 1), (3, 2, 1), (3, 2, 2), (4, 3, 2)):
        params = Params(n, t, k)
        parties = tuple(range(1, n + 1))
        pki = make_pki(group, rng, n)
        pub = {i: kp.pk for i, kp in pki.items()}
        coalitions = [frozenset(c) for size in range(n + 1)
                      for c in itertools.combinations(parties, size)]
        # per dealer, a deal for each guardian set and wrong-share subset,
        # with the dealer's secret and its guardians' share reveals
        options = {i: [] for i in parties}
        for i in parties:
            for members in itertools.combinations([j for j in parties if j != i], k):
                for size in range(k + 1):
                    for wrong in itertools.combinations(members, size):
                        msg, d = bad_deal(group, rng, params, pub, i, members, wrong)
                        alone = protocol.process_round1([msg], params, pub, group)
                        reveals = [SecretReveal(i, d)] + [
                            m for j in members
                            for m in protocol.round2_reveal_shares(j, pki[j].sk, alone, CTX,
                                                                   group, rng)]
                        options[i].append((frozenset(members), frozenset(wrong), msg, reveals))
        for combo in itertools.product(*(options[i] for i in parties)):
            public = protocol.process_round1([msg for _, _, msg, _ in combo], params, pub, group)
            assert public.participants == parties
            gsets = {i: members for i, (members, *_) in zip(parties, combo)}
            wrong = {i: targets for i, (_, targets, *_) in zip(parties, combo)}
            reveals = [m for *_, messages in combo for m in messages]
            for coalition in coalitions:
                live = [m for m in reveals if m.sender not in coalition]
                outcome = protocol.offline_reconstruct(public, live, params, group, CTX)
                assert outcome.success == wrong_shares_succeed(coalition, gsets, wrong, t), \
                    (n, k, t, gsets, wrong, coalition)
                if outcome.success:
                    assert group.base_exp(outcome.global_secret) == public.global_pk
                checked += 1
    assert checked == 3 * 512 + 65_536
    assert time.perf_counter() - start < budget_s


class TestComplaints:
    def test_guardian_complains_and_dealer_recovered(self, group, rng):
        """Absent dealer 1 encrypted a wrong share to guardian 2, whose honest
        reveal of it is INCONSISTENT and does not count; guardians 3 and 5
        recover dealer 1, so the secret is the key of `global_pk`."""
        params = Params(10, 2, 3)
        pki = make_pki(group, rng, params.n)
        pub = {i: kp.pk for i, kp in pki.items()}
        bad_msg, d1 = bad_deal(group, rng, params, pub)
        sets = {3: {4, 5, 7}, 5: {3, 6, 7}}
        honest = []
        states = {}
        for dealer, members in sets.items():
            gset = GuardianSet.create(dealer, members, params)
            m, st = protocol.round1_deal(dealer, params, gset, pub, group, rng)
            honest.append(m)
            states[dealer] = st
        public = protocol.process_round1([bad_msg] + honest, params, pub, group)
        assert 1 in public.participants  # representation proofs check out

        reveals = []
        for i in (2, 3, 5, 6, 7):
            if i in states:
                reveals.append(protocol.round2_reveal_secret(
                    i, states[i], public, CTX, group, rng))
            reveals.extend(protocol.round2_reveal_shares(
                i, pki[i].sk, public, CTX, group, rng))
        (complaint,) = [m for m in reveals
                        if isinstance(m, ShareReveal) and (m.sender, m.dealer) == (2, 1)]
        assert protocol.judge_reveals(public, [complaint], group, CTX) == [Verdict.INCONSISTENT]
        outcome = protocol.offline_reconstruct(public, reveals, params, group, CTX)
        assert outcome.success
        assert outcome.recovered[1] == ("shares", (3, 5))
        expected = (d1 + sum(states[i].partial_secret for i in (3, 5))) % group.order
        assert outcome.global_secret == expected
        assert group.base_exp(outcome.global_secret) == public.global_pk

    def test_baseless_complaint_ignored(self, group, rng):
        """A guardian cannot make an honest dealer's share look inconsistent:
        a wrong value fails its decryption proof and changes no outcome."""
        params, pki, states, public = example_scenario(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public, {3, 5, 7})
        share = next(m for m in reveals if isinstance(m, ShareReveal))
        smear = ShareReveal(share.sender, share.dealer, (share.value + 1) % group.order,
                            share.proof)
        assert protocol.judge_reveals(public, [smear], group, CTX) == [Verdict.BAD_DLEQ]
        outcome = protocol.offline_reconstruct(
            public, [smear] + reveals, params, group, CTX)
        assert outcome == protocol.offline_reconstruct(public, reveals, params, group, CTX)
        assert outcome.success

    @pytest.mark.parametrize("group", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
    def test_revealed_secret_recovers_dealer_despite_inconsistent_share(self, group):
        """Dealer 1 of `bad_dealer_round1` reveals its correct secret, and
        honest guardian 2's share of it is INCONSISTENT.  The secret
        recovers dealer 1, so the reconstructed secret is the key of
        `global_pk`: from an empty memo, and after `judge_reveals` has
        memoized the share's verdict."""
        rng = random.Random(12)
        params, pki, states, public = bad_dealer_round1(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public, {1, 2, 3, 4, 5})
        (share,) = [m for m in reveals
                    if isinstance(m, ShareReveal) and (m.sender, m.dealer) == (2, 1)]
        for judged_first in ([], [share]):
            fresh = dataclasses.replace(public, verdicts={}, candidates={})
            protocol.judge_reveals(fresh, judged_first, group, CTX)
            outcome = protocol.offline_reconstruct(fresh, reveals, params, group, CTX)
            assert outcome.success
            assert outcome.recovered[1] == ("direct",)
            assert group.base_exp(outcome.global_secret) == public.global_pk
            assert protocol.judge_reveals(fresh, [share], group, CTX) == [Verdict.INCONSISTENT]

    @pytest.mark.parametrize("group", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
    def test_colluding_guardian_cannot_block_dealer(self, group):
        """Dealer 1 encrypts a wrong share to guardian 2 and is absent in
        round 2; guardian 2 colludes and posts its decryption as a plain
        share, which is INCONSISTENT and does not count.  One corrupt
        guardian of three leaves liveness intact: the ceremony recovers d_1,
        and the tally C1^{d_1}, from the other two guardians' shares."""
        rng = random.Random(12)
        params, pki, states, public = bad_dealer_round1(group, rng)
        assert protocol.liveness_holds({1, 2}, public.participants, public.guardian_sets(),
                                       params)

        def dealer_1_shares(context):
            ((share, proof),) = nizk.prove_share_decryption(
                group, pki[2].sk, pki[2].pk, [public.deals[1].ciphertexts[2]], context, rng)
            return [ShareReveal(2, 1, share, proof)] + [
                m for i in (3, 5)
                for m in protocol.round2_reveal_shares(i, pki[i].sk, public, context, group, rng)
                if m.dealer == 1]

        secrets = [protocol.round2_reveal_secret(i, states[i], public, CTX, group, rng)
                   for i in range(2, 6)]
        outcome = protocol.offline_reconstruct(
            public, secrets + dealer_1_shares(CTX), params, group, CTX)
        assert outcome.success and outcome.recovered[1] == ("shares", (3, 5))
        assert outcome.global_secret == sum(
            states[i].partial_secret for i in range(1, 6)) % group.order
        assert group.base_exp(outcome.global_secret) == public.global_pk

        c1 = group.base_exp(rng.randrange(1, group.order))
        partial_decryptions = [voting.tally_partial_decrypt(
            group, i, states[i].partial_secret, public.deals[i].partial_pk, c1, rng)
            for i in range(2, 6)]
        values = voting.collect_decryption_values(
            group, public, c1, partial_decryptions, dealer_1_shares(voting.TALLY_CONTEXT),
            voting.TALLY_CONTEXT, params.t)
        assert values[1] == group.exp(c1, states[1].partial_secret)


class TestCanonicalReveals:
    """Scalars shifted by q are rejected wherever they enter on the wire."""

    def test_deal_ciphertext_plus_q_rejected(self, group, rng):
        params = Params(10, 2, 3)
        pki, pub, messages, _, _ = run_round1(group, rng, params, {1: {2, 3, 5}})
        msg = messages[0]
        bad = dataclasses.replace(msg, parts={**msg.parts, 3: msg.parts[3] + group.order})
        assert protocol.judge_deal(msg, params, pub, group) is Verdict.ACCEPTED
        assert protocol.judge_deal(bad, params, pub, group) is Verdict.BAD_PROOF

    def test_share_value_plus_q_rejected(self, group, rng):
        params, pki, states, public = example_scenario(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public, {3, 5, 7})
        shifted = [ShareReveal(m.sender, m.dealer, m.value + group.order, m.proof)
                   for m in reveals if isinstance(m, ShareReveal)]
        assert protocol.accepted_reveals(public, shifted, group, CTX)[1] == {}

    def test_secret_value_plus_q_rejected(self, group, rng):
        params, pki, states, public = example_scenario(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public, {3, 5, 7})
        shifted = [SecretReveal(m.sender, m.value + group.order)
                   if isinstance(m, SecretReveal) and m.sender == 3 else m
                   for m in reveals]
        outcome = protocol.offline_reconstruct(public, shifted, params, group, CTX)
        assert outcome.success
        assert outcome.recovered[3] == ("shares", (5, 7))


def secp_round2(seed=5):
    """n=5, t=2, k=3 ceremony on secp256k1 with every party revealing."""
    group = SECP256K1
    rng = random.Random(seed)
    params = Params(5, 2, 3)
    sets = {i: {(i + d - 1) % 5 + 1 for d in (1, 2, 3)} for i in range(1, 6)}
    pki, _, _, states, public = run_round1(group, rng, params, sets)
    reveals = scenario_reveals(group, rng, params, pki, states, public, set(sets))
    return params, public, reveals


@pytest.mark.parametrize("group", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
def test_judge_claims_gives_first_failing_part(group):
    """A claim's verdict is that of its first part whose equations are None
    or false, else ACCEPTED, whether or not it shares a batch."""
    g = group.generator()
    true, false = [[(g, 2), (g, -2)]], [[(g, 1)]]
    claims = [[], [(Verdict.OFF_ROLL, None)],
              [(Verdict.BAD_DLEQ, true), (Verdict.INCONSISTENT, true)],
              [(Verdict.BAD_DLEQ, true), (Verdict.INCONSISTENT, false)],
              [(Verdict.BAD_DLEQ, false), (Verdict.INCONSISTENT, false)],
              [(Verdict.BAD_DLEQ, true), (Verdict.INCONSISTENT, None)]]
    want = [Verdict.ACCEPTED, Verdict.OFF_ROLL, Verdict.ACCEPTED, Verdict.INCONSISTENT,
            Verdict.BAD_DLEQ, Verdict.INCONSISTENT]
    assert protocol.judge_claims(group, CTX, claims) == want
    assert [protocol.judge_claims(group, CTX, [claim])[0] for claim in claims] == want
    assert protocol.judge_claims(group, CTX, claims[:3]) == want[:3]
    assert protocol.judge_claims(group, CTX, []) == []


class TestBatchedReveals:
    def test_bad_reveal_in_batch_gives_per_message_verdicts(self):
        group = SECP256K1
        params, public, reveals = secp_round2()
        shares = [m for m in reveals if isinstance(m, ShareReveal)]
        forged = shares[4]
        bad_dleq = nizk.DleqProof(forged.proof.dleq.commitment_1,
                                  forged.proof.dleq.commitment_2,
                                  (forged.proof.dleq.response + 1) % group.order)
        shares[4] = ShareReveal(forged.sender, forged.dealer, forged.value,
                                nizk.ShareDecryptionProof(forged.proof.key, bad_dleq))
        shares[9] = ShareReveal(shares[9].sender, shares[9].dealer,
                                (shares[9].value + 1) % group.order, shares[9].proof)
        expected = {}
        for m in shares:
            ct = public.deals[m.dealer].ciphertexts[m.sender]
            if nizk.holds(group, CTX, [nizk.share_decryption_equations(
                    group, public.pki[m.sender], ct, m.value, m.proof, CTX)]):
                expected.setdefault(m.dealer, {}).setdefault(m.sender, m.value)
        assert sum(map(len, expected.values())) == len(shares) - 2
        assert protocol.accepted_reveals(public, shares, group, CTX)[1] == expected
        verdicts = protocol.judge_reveals(public, shares, group, CTX)
        assert verdicts[4] is Verdict.BAD_DLEQ
        assert verdicts[9] is Verdict.BAD_DLEQ

    @pytest.mark.parametrize("group", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
    def test_failed_batch_rechecked_in_one_kernel_call(self, group, monkeypatch):
        """A batch of reveals with a bad DLEQ response, a share that its
        pad key does not give and a wrong secret fails, and is re-checked
        part by part in one more `multi_exps` call; the verdicts are those
        of judging each reveal alone."""
        params = Params(5, 2, 3)
        sets = {i: {(i + d - 1) % 5 + 1 for d in (1, 2, 3)} for i in range(1, 6)}
        pki, _, _, states, public = run_round1(group, random.Random(23), params, sets)
        reveals = scenario_reveals(group, random.Random(24), params, pki, states, public,
                                   set(sets))
        shares = [i for i, m in enumerate(reveals) if isinstance(m, ShareReveal)]
        secret = next(i for i, m in enumerate(reveals) if isinstance(m, SecretReveal))
        m = reveals[shares[1]]
        dleq = dataclasses.replace(m.proof.dleq, response=(m.proof.dleq.response + 1) % group.order)
        reveals[shares[1]] = dataclasses.replace(
            m, proof=dataclasses.replace(m.proof, dleq=dleq))
        m = reveals[shares[4]]
        reveals[shares[4]] = dataclasses.replace(m, value=(m.value + 1) % group.order)
        m = reveals[secret]
        reveals[secret] = dataclasses.replace(m, value=(m.value + 1) % group.order)
        claims = [protocol._reveal_claim(public, m, group, CTX) for m in reveals]
        alone = [protocol.judge_claims(group, CTX, [claim])[0] for claim in claims]
        assert Counter(alone) == {Verdict.ACCEPTED: len(reveals) - 3, Verdict.BAD_DLEQ: 2,
                                  Verdict.PK_MISMATCH: 1}
        calls, real = [], groups.multi_exps
        monkeypatch.setattr(nizk, "multi_exps", lambda *args: calls.append(args) or real(*args))
        assert protocol.judge_reveals(public, reveals, group, CTX) == alone
        assert len(calls) == 2

    def test_fault_path_cost_in_group_operations(self, counts):
        """Judging `bad_dealer_round1`'s 15 share reveals on secp256k1, one
        of them inconsistent, re-checks the failed batch one share at a
        time.  In curve operations, which do not depend on the host, that
        costs at most 3.5 times one batch of the 14 consistent shares
        (9,502 against 3,201 operations when this was pinned; 9,756 against
        3,328 once `mul` and the row sums are counted too)."""
        group = SECP256K1
        rng = random.Random(12)
        params, pki, states, public = bad_dealer_round1(group, rng)
        shares = [m for i in range(1, 6)
                  for m in protocol.round2_reveal_shares(i, pki[i].sk, public, CTX, group, rng)]

        def cost(reveals):
            public.verdicts.clear()
            counts.update(dict.fromkeys(counts, 0))
            verdicts = protocol.judge_reveals(public, reveals, group, CTX)
            return sum(counts.values()), verdicts

        faulty, verdicts = cost(shares)
        assert len(shares) == 15 and verdicts.count(Verdict.INCONSISTENT) == 1
        consistent, verdicts = cost([m for m, v in zip(shares, verdicts)
                                     if v is Verdict.ACCEPTED])
        assert verdicts == [Verdict.ACCEPTED] * 14
        assert faulty <= 3.5 * consistent

    def test_secrets_join_the_shares_batch(self, counts):
        """Judging all 20 reveals of `secp_round2`'s ceremony costs fewer
        curve operations than judging its 15 shares and its 5 secrets
        apart: each secret's Feldman equation at index 0 joins the shares'
        batch.  When this was pinned the 20 cost 3,479 operations, the 15
        shares 3,455 and the 5 secrets 287; with a clear-text check of each
        secret the 20 cost 3,775, exactly 3,455 + 320."""
        group = SECP256K1
        _, public, reveals = secp_round2()

        def cost(messages):
            public.verdicts.clear()
            counts.update(dict.fromkeys(counts, 0))
            assert protocol.judge_reveals(public, messages, group, CTX) == \
                [Verdict.ACCEPTED] * len(messages)
            return sum(counts.values())

        shares = [m for m in reveals if isinstance(m, ShareReveal)]
        secrets = [m for m in reveals if isinstance(m, SecretReveal)]
        assert len(shares) == 15 and len(secrets) == 5
        assert cost(reveals) < cost(shares) + cost(secrets)

    def test_judge_reveals_is_one_batch(self, counts, monkeypatch):
        """From an empty memo, `judge_reveals` on `secp_round2`'s 20 reveals
        makes one `judge_claims` call and costs what that one batch costs
        (3,479 curve operations when this was pinned; a judge that first
        judged the shares without their decryption proofs made two calls
        and 3,636 operations)."""
        group = SECP256K1
        _, public, reveals = secp_round2()
        calls, real = [], protocol.judge_claims

        def counting(group, context, claims):
            calls.append(len(claims))
            return real(group, context, claims)

        counts.update(dict.fromkeys(counts, 0))
        claims = [protocol._reveal_claim(public, m, group, CTX) for m in reveals]
        assert real(group, CTX, claims) == [Verdict.ACCEPTED] * 20
        one_batch = sum(counts.values())
        monkeypatch.setattr(protocol, "judge_claims", counting)
        counts.update(dict.fromkeys(counts, 0))
        assert protocol.judge_reveals(public, reveals, group, CTX) == [Verdict.ACCEPTED] * 20
        assert calls == [20]
        assert sum(counts.values()) == one_batch

    def test_reconstruction_checks_only_needed_proofs(self, counts, monkeypatch):
        """From `secp_round2`'s 20 reveals, `offline_reconstruct` builds no
        share's decryption-proof equations while every dealer's secret is
        there, and with dealer 3's secret withheld only dealer 3's.  Either
        way it costs under half the curve operations of `judge_reveals` on
        the same list: 287 against 3,479 operations with every secret, and
        1,025 against 3,499 with one withheld, when this was pinned (the
        reconstruction took 3,479 too when it checked every proof)."""
        group = SECP256K1
        params, public, reveals = secp_round2()
        built, real = [], nizk.share_decryption_equations

        def counting(group, pk, ct, share, proof, context):
            built.append(proof)
            return real(group, pk, ct, share, proof, context)

        monkeypatch.setattr(nizk, "share_decryption_equations", counting)

        def cost(judge, messages):
            public.verdicts.clear()
            built.clear()
            counts.update(dict.fromkeys(counts, 0))
            judge(public, messages, group, CTX)
            return sum(counts.values())

        def reconstruct(public, messages, group, context):
            assert protocol.offline_reconstruct(public, messages, params, group, context).success

        withheld = [m for m in reveals if not (isinstance(m, SecretReveal) and m.sender == 3)]
        for messages, needed in ((reveals, []), (withheld, [
                m.proof for m in reveals if isinstance(m, ShareReveal) and m.dealer == 3])):
            reconstructing = cost(reconstruct, messages)
            assert built == needed
            assert reconstructing < cost(protocol.judge_reveals, messages) / 2

    @staticmethod
    def shifted_share_case():
        """`bad_dealer_round1`'s 14 consistent secp256k1 share reveals, and
        the same with one DLEQ response shifted by q: BAD_DLEQ for it alone."""
        group = SECP256K1
        rng = random.Random(12)
        _, pki, _, public = bad_dealer_round1(group, rng)
        shares = [m for i in range(1, 6)
                  for m in protocol.round2_reveal_shares(i, pki[i].sk, public, CTX, group, rng)
                  if (m.sender, m.dealer) != (2, 1)]  # bad_deal's inconsistent share
        m = shares[6]
        dleq = m.proof.dleq
        shifted = nizk.DleqProof(dleq.commitment_1, dleq.commitment_2,
                                 dleq.response + group.order)
        faulty = list(shares)
        faulty[6] = ShareReveal(m.sender, m.dealer, m.value,
                                nizk.ShareDecryptionProof(m.proof.key, shifted))

        def judge(reveals):
            public.verdicts.clear()
            return protocol.judge_reveals(public, reveals, group, CTX)

        expected = [Verdict.ACCEPTED] * 14
        expected[6] = Verdict.BAD_DLEQ
        return judge, shares, faulty, [Verdict.ACCEPTED] * 14, expected

    @staticmethod
    def short_ballot_case():
        """20 valid 3-candidate secp256k1 ballots, and the same with voter
        8's proof one branch short: voter 8 alone is not accepted."""
        curve = SECP256K1
        pk = curve.base_exp(0xC0FFEE)
        enc = voting.derive_encoding(20, 3, curve.order)
        rng = random.Random(43)
        ballots = [voting.cast_ballot(curve, enc, pk, v, v % 3 + 1, rng) for v in range(1, 21)]
        faulty = list(ballots)
        faulty[7] = dataclasses.replace(ballots[7], proof=ballots[7].proof[:-1])

        def judge(found):
            return voting.aggregate_ballots(curve, enc, pk, found)[1]

        voters = tuple(range(1, 21))
        return judge, ballots, faulty, voters, tuple(v for v in voters if v != 8)

    @pytest.mark.parametrize("case", ["shifted_share_case", "short_ballot_case"])
    def test_pre_checked_claim_does_not_sink_the_batch(self, counts, case):
        """A claim rejected before any group operation is left out of the
        batch of the others, which then holds: judging all of them costs no
        more curve operations than the batch with that claim valid."""
        judge, consistent, faulty, consistent_found, faulty_found = getattr(self, case)()

        def cost(messages):
            counts.update(dict.fromkeys(counts, 0))
            found = judge(messages)
            return sum(counts.values()), found

        valid, found = cost(consistent)
        assert found == consistent_found
        with_rejected, found = cost(faulty)
        assert found == faulty_found
        assert with_rejected <= valid

    def test_each_reveal_checked_once_across_corruption_sets(self, group, rng, monkeypatch):
        params = Params(5, 2, 3)
        sets = {1: {2, 3, 4}, 2: {3, 4, 5}, 3: {1, 4, 5}, 4: {1, 2, 5}, 5: {1, 2, 3}}
        pki, _, _, states, public = run_round1(group, rng, params, sets)
        reveals = scenario_reveals(group, rng, params, pki, states, public, set(sets))
        dleq_checks, secret_checks = Counter(), Counter()
        real_dleq, real_claim = nizk.dleq_equations, protocol._reveal_claim

        def counting_dleq(group, base1, out1, base2, out2, proof, context):
            dleq_checks[proof] += 1
            return real_dleq(group, base1, out1, base2, out2, proof, context)

        def counting_claim(public_state, msg, *args, **kwargs):
            if isinstance(msg, SecretReveal):
                secret_checks[msg] += 1
            return real_claim(public_state, msg, *args, **kwargs)

        monkeypatch.setattr(nizk, "dleq_equations", counting_dleq)
        monkeypatch.setattr(protocol, "_reveal_claim", counting_claim)
        parties = sorted(sets)
        for size in range(len(parties) + 1):
            for corrupted in itertools.combinations(parties, size):
                live = [m for m in reveals if m.sender not in corrupted]
                outcome = protocol.offline_reconstruct(public, live, params, group, CTX)
                assert outcome.success == protocol.liveness_holds(
                    corrupted, parties, sets, params)
        # exactly the 20 reveals were judged: judging them again checks nothing
        assert len(public.verdicts) == 20
        assert protocol.judge_reveals(public, reveals, group, CTX) == [Verdict.ACCEPTED] * 20
        share_proofs = [m.proof.dleq for m in reveals if isinstance(m, ShareReveal)]
        secrets = [m for m in reveals if isinstance(m, SecretReveal)]
        assert len(share_proofs) == 15 and len(secrets) == 5
        assert dleq_checks == Counter(share_proofs)
        assert secret_checks == Counter(secrets)

    def test_new_reveals_after_memoized_pass(self, group, monkeypatch):
        """After the reveals of every corruption set have verdicts, a subset
        plus two new reveals judges the two new ones only, and reconstructs
        what a fresh state with no memo does: neither a forged share
        (BAD_DLEQ) nor guardian 2's share of `bad_deal`'s dealer 1
        (INCONSISTENT) counts, and guardians 3 and 5 recover dealer 1."""
        rng = random.Random(20)
        params, pki, states, public = bad_dealer_round1(group, rng)
        parties = (1, 2, 3, 4, 5)
        reveals = scenario_reveals(group, rng, params, pki, states, public, set(parties))
        (inconsistent,) = [m for m in reveals
                           if isinstance(m, ShareReveal) and (m.sender, m.dealer) == (2, 1)]
        reveals.remove(inconsistent)
        for size in range(len(parties) + 1):
            for corrupted in itertools.combinations(parties, size):
                live = [m for m in reveals if m.sender not in corrupted]
                protocol.offline_reconstruct(public, live, params, group, CTX)
        genuine = next(m for m in reveals if isinstance(m, ShareReveal) and m.dealer == 1)
        dleq = genuine.proof.dleq
        bad = nizk.DleqProof(dleq.commitment_1, dleq.commitment_2,
                             (dleq.response + 1) % group.order)
        forged = ShareReveal(genuine.sender, genuine.dealer, genuine.value,
                             nizk.ShareDecryptionProof(genuine.proof.key, bad))
        live = [m for m in reveals if m.sender != 1]
        mixed = [inconsistent] + live[:3] + [forged] + live[3:]
        judged, real = Counter(), nizk.dleq_equations

        def counting(group, base1, out1, base2, out2, proof, context):
            judged[proof] += 1
            return real(group, base1, out1, base2, out2, proof, context)

        monkeypatch.setattr(nizk, "dleq_equations", counting)
        outcome = protocol.offline_reconstruct(public, mixed, params, group, CTX)
        assert set(judged) == {bad, inconsistent.proof.dleq}
        assert protocol.judge_reveals(public, [forged, inconsistent], group, CTX) == [
            Verdict.BAD_DLEQ, Verdict.INCONSISTENT]
        fresh = dataclasses.replace(public, verdicts={}, candidates={})
        assert outcome == protocol.offline_reconstruct(fresh, mixed, params, group, CTX)
        assert outcome.success and outcome.recovered[1] == ("shares", (3, 5))
        assert outcome.global_secret == sum(
            states[i].partial_secret for i in range(1, 6)) % group.order


FAULTS = ("forged_dleq", "inconsistent_share", "wrong_secret", "withheld_secrets")


def faulty_ceremony(group, seed, faults):
    """`bad_dealer_round1`'s ceremony with every party revealing, with the
    named faults: a share of dealer 3 with a forged DLEQ, guardian 2's
    inconsistent share of dealer 1 (left out unless named), dealer 4's
    secret plus one, and dealers 2 and 5 withholding their secrets."""
    rng = random.Random(seed)
    params, pki, states, public = bad_dealer_round1(group, rng)
    reveals = scenario_reveals(group, rng, params, pki, states, public, {1, 2, 3, 4, 5})
    if "inconsistent_share" not in faults:
        reveals = [m for m in reveals
                   if not (isinstance(m, ShareReveal) and (m.sender, m.dealer) == (2, 1))]
    if "withheld_secrets" in faults:
        reveals = [m for m in reveals if not (isinstance(m, SecretReveal) and m.sender in (2, 5))]
    if "forged_dleq" in faults:
        i, m = next((i, m) for i, m in enumerate(reveals)
                    if isinstance(m, ShareReveal) and m.dealer == 3)
        dleq = m.proof.dleq
        bad = nizk.DleqProof(dleq.commitment_1, dleq.commitment_2,
                             (dleq.response + 1) % group.order)
        reveals[i] = ShareReveal(m.sender, m.dealer, m.value,
                                 nizk.ShareDecryptionProof(m.proof.key, bad))
    if "wrong_secret" in faults:
        i, m = next((i, m) for i, m in enumerate(reveals)
                    if isinstance(m, SecretReveal) and m.sender == 4)
        reveals[i] = SecretReveal(4, (m.value + 1) % group.order)
    return params, public, reveals


FAULT_CASES = [(TEST_GROUP, seed, faults) for seed in (1, 2)
               for faults in [()] + [(f,) for f in FAULTS] + [FAULTS]] + [(SECP256K1, 3, FAULTS)]


@pytest.mark.parametrize("group,seed,faults", FAULT_CASES, ids=[
    f"{group.name}-{seed}-{'+'.join(faults) or 'none'}" for group, seed, faults in FAULT_CASES])
def test_unchecked_proofs_change_no_outcome(group, seed, faults):
    """For every subset of senders, reconstruction gives the same outcome
    whether it starts from no verdicts, from the verdicts of the subsets
    before it (in which shares of a revealed dealer may be left unjudged),
    or after `judge_reveals` checked every message in full; every success
    is the key of `global_pk`; and the verdicts come out the same."""
    params, public, reveals = faulty_ceremony(group, seed, faults)
    judged = dataclasses.replace(public, verdicts={}, candidates={})
    verdicts = protocol.judge_reveals(judged, reveals, group, CTX)
    assert (Verdict.BAD_DLEQ in verdicts) == ("forged_dleq" in faults)
    assert (Verdict.INCONSISTENT in verdicts) == ("inconsistent_share" in faults)
    assert (Verdict.PK_MISMATCH in verdicts) == ("wrong_secret" in faults)
    memoized = dataclasses.replace(public, verdicts={}, candidates={})
    parties = (1, 2, 3, 4, 5)
    for size in range(len(parties) + 1):
        for corrupted in itertools.combinations(parties, size):
            live = [m for m in reveals if m.sender not in corrupted]
            want = protocol.offline_reconstruct(judged, live, params, group, CTX)
            fresh = dataclasses.replace(public, verdicts={}, candidates={})
            assert protocol.offline_reconstruct(fresh, live, params, group, CTX) == want
            assert protocol.offline_reconstruct(memoized, live, params, group, CTX) == want
            if want.success:
                assert group.base_exp(want.global_secret) == public.global_pk
    assert protocol.judge_reveals(memoized, reveals, group, CTX) == verdicts


def outcome_digest(public, reveals, params, group, parties):
    """sha256 over the outcome of every corruption set of `parties`, each
    withholding all it would have sent."""
    h = hashlib.sha256()
    for size in range(len(parties) + 1):
        for corrupted in itertools.combinations(parties, size):
            live = [m for m in reveals if m.sender not in corrupted]
            o = protocol.offline_reconstruct(public, live, params, group, CTX)
            h.update(repr((o.success, o.global_secret, sorted(o.recovered.items()),
                           o.failed, ())).encode())  # a fifth item keeps the pins valid
    return h.hexdigest()


class TestOutcomePins:
    """Reconstruction outcomes over all 32 corruption sets, pinned by sha256
    before the verdict and combination steps were reworked.  SECP_PIN was
    re-taken when a dealer's accepted secret came to recover it despite an
    INCONSISTENT share: 8 of its 32 sets changed.  Both were re-taken when
    a deal came to share one encryption exponent among its guardians: each
    run's one `random.Random` makes fewer draws per deal, so later
    dealers' polynomials, and on modp later topologies, are new draws.
    The secp256k1 outcomes differ only in `global_secret`.  SECP_PIN was
    re-taken again when an INCONSISTENT share stopped excluding its
    dealer, 8 of its 32 sets changing: {1} and {1, 4} succeed with the key
    of `global_pk`, {1, 3} and {1, 5} fail naming dealer 1, and {1, 3, 4},
    {1, 3, 5}, {1, 4, 5} and {1, 3, 4, 5} name dealer 1 among the failed.
    Both were re-taken when shares came to be sent by hashed ElGamal: a
    deal draws kappa and one proof nonce, not k + 1 of each, so again later
    dealers' polynomials and later modp topologies are new draws.  Every
    secp256k1 set keeps its success, recovery paths, failed dealers and
    whether its secret is `global_pk`'s key."""

    def test_modp_topologies(self):
        group = TEST_GROUP
        rng = random.Random(2027)
        params = Params(5, 2, 3)
        parties = (1, 2, 3, 4, 5)
        h = hashlib.sha256()
        for _ in range(8):
            sets = {i: set(rng.sample([j for j in parties if j != i], 3)) for i in parties}
            pki, _, _, states, public = run_round1(group, rng, params, sets)
            reveals = scenario_reveals(group, rng, params, pki, states, public, set(parties))
            h.update(outcome_digest(public, reveals, params, group, parties).encode())
        assert h.hexdigest() == MODP_PIN

    def test_secp_forged_share_and_upheld_complaint(self):
        group = SECP256K1
        rng = random.Random(11)
        parties = (1, 2, 3, 4, 5)
        params, pki, states, public = bad_dealer_round1(group, rng)
        reveals = scenario_reveals(group, rng, params, pki, states, public, set(parties))
        genuine = next(m for m in reveals if isinstance(m, ShareReveal) and m.dealer == 4)
        forged = ShareReveal(genuine.sender, genuine.dealer,
                             (genuine.value + 1) % group.order, genuine.proof)
        reveals.insert(reveals.index(genuine), forged)
        verdicts = protocol.judge_reveals(public, reveals, group, CTX)
        assert verdicts[reveals.index(forged)] is Verdict.BAD_DLEQ
        assert [(m.sender, m.dealer) for m, v in zip(reveals, verdicts)
                if v is Verdict.INCONSISTENT] == [(2, 1)]
        assert outcome_digest(public, reveals, params, group, parties) == SECP_PIN


MODP_PIN = "4f54b2857f14d2d449ae42174232737e2e1f771b3bbd4be190d0a4983b3cbb59"
SECP_PIN = "86f17fe073314fc153f961085b49afc6616fa1016556e1f393c256090a32eb3c"


def brute_force_capable(s, participants, guardian_sets, t):
    for i in participants:
        if i in s:
            continue
        if sum(1 for g in guardian_sets[i] if g in s) < t:
            return False
    return True


class TestPredicates:
    EXAMPLE_SETS = {1: {2, 3, 5}, 3: {4, 5, 7}, 5: {3, 6, 7}, 7: {3, 5, 8},
                    9: {2, 5, 7}}

    def test_example_scenario_capable(self):
        assert protocol.reconstruction_capable(
            {3, 5, 7}, (1, 3, 5, 7, 9), self.EXAMPLE_SETS, 2)

    def test_exhaustive_against_bruteforce(self):
        rng = random.Random(3)
        participants = (1, 2, 3, 4)
        for t in (1, 2):
            for _ in range(20):
                gsets = {i: set(rng.sample([j for j in range(1, 6) if j != i], 2))
                         for i in participants}
                for size in range(6):
                    for s in itertools.combinations(range(1, 6), size):
                        assert protocol.reconstruction_capable(
                            s, participants, gsets, t) == brute_force_capable(
                                s, participants, gsets, t)

    def test_privacy_is_capability_of_coalition(self):
        gsets = self.EXAMPLE_SETS
        participants = (1, 3, 5, 7, 9)
        for size in range(4):
            for c in itertools.combinations(range(1, 11), size):
                assert protocol.privacy_breached(c, participants, gsets, 2) == \
                    protocol.reconstruction_capable(c, participants, gsets, 2)

    def test_liveness_definition(self):
        params = Params(10, 2, 3)
        gsets = self.EXAMPLE_SETS
        participants = (1, 3, 5, 7, 9)
        # corrupting dealer 1 plus k-t+1 = 2 of its guardians blocks liveness
        assert not protocol.liveness_holds({1, 2, 3}, participants, gsets, params)
        # corrupting a dealer with at most k-t of its guardians does not
        assert protocol.liveness_holds({1, 2}, participants, gsets, params)
        # corrupting only non-dealers never blocks liveness
        assert protocol.liveness_holds({2, 4, 6}, participants, gsets, params)
        assert protocol.liveness_holds(set(), participants, gsets, params)

    @pytest.mark.parametrize("container", [tuple, list])
    def test_sequence_guardian_sets_against_bruteforce(self, container):
        # the predicates intersect with each guardian set as given, so any
        # iterable of parties must answer as the frozenset of it would
        rng = random.Random(4)
        params = Params(6, 2, 3)
        participants = (1, 2, 3, 4, 5)
        for _ in range(20):
            gsets = {i: container(rng.sample([j for j in range(1, 7) if j != i], 3))
                     for i in participants}
            for size in range(7):
                for s in itertools.combinations(range(1, 7), size):
                    for t in (1, 2, 3):
                        assert protocol.reconstruction_capable(
                            s, participants, gsets, t) == brute_force_capable(
                                s, participants, gsets, t)
                    assert protocol.liveness_holds(s, participants, gsets, params) == all(
                        i not in s or sum(g in s for g in gsets[i]) <= params.k - params.t
                        for i in participants)
