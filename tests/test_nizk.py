import dataclasses
import random

import pytest

from fdkg import groups, nizk, pke, protocol, shamir, voting
from fdkg.groups import SECP256K1, TEST_GROUP, multi_exp, multi_exps
from fdkg.nizk import (ballot_equations, dleq_equations, feldman_equations,
                       share_decryption_equations)
from fdkg.protocol import Verdict

CTX = b"test-context"


def bump(group, elem):
    return group.mul(elem, group.generator())


def prove_dleq(group, w, b1, o1, b2, o2, context, rng) -> nizk.DleqProof:
    """`nizk.prove_dleqs` over the one base b2, whose out2 must be o2."""
    ((out2, proof),) = nizk.prove_dleqs(group, w, b1, o1, [b2], context, rng)
    assert out2 == o2
    return proof


def prove_one_decryption(group, sk, pk, ct, context, rng) -> tuple:
    """`nizk.prove_share_decryption` of the one ciphertext ct."""
    (proved,) = nizk.prove_share_decryption(group, sk, pk, [ct], context, rng)
    return proved


def prove_ballot(group, pk, ballot, blinding, exponent, allowed, context, rng) -> tuple:
    """The branches of `nizk.prove_ballot`, whose ballot must be `ballot`."""
    computed, branches = nizk.prove_ballot(group, pk, blinding, exponent, allowed, context, rng)
    assert computed == ballot
    return branches


def holds(group, equations) -> bool:
    """One claim's equations checked on their own, as `protocol.judge_claims`
    checks each part of a claim outside a batch."""
    return nizk.holds(group, CTX, [equations])


class TestDleqProof:
    def _setup(self, group, rng, w=None):
        q = group.order
        w = rng.randrange(q) if w is None else w
        base1 = group.base_exp(rng.randrange(1, q))
        base2 = group.base_exp(rng.randrange(1, q))
        return w, base1, group.exp(base1, w), base2, group.exp(base2, w)

    def test_witness_one(self, group, rng):
        w, b1, o1, b2, o2 = self._setup(group, rng, w=1)
        assert o1 == b1 and o2 == b2
        proof = prove_dleq(group, w, b1, o1, b2, o2, CTX, rng)
        assert holds(group, dleq_equations(group, b1, o1, b2, o2, proof, CTX))

    def test_honest_roundtrip(self, group, rng):
        for _ in range(50):
            w, b1, o1, b2, o2 = self._setup(group, rng)
            proof = prove_dleq(group, w, b1, o1, b2, o2, CTX, rng)
            assert holds(group, dleq_equations(group, b1, o1, b2, o2, proof, CTX))

    def test_perturbed_output_fails(self, group, rng):
        w, b1, o1, b2, o2 = self._setup(group, rng)
        proof = prove_dleq(group, w, b1, o1, b2, o2, CTX, rng)
        assert not holds(group, dleq_equations(group, b1, o1, b2, bump(group, o2), proof, CTX))

    def test_unequal_logs_fail(self, group, rng):
        """A proof made as the prover makes it, with witness w, for the
        false claim out2 = base2^(w+1)."""
        w, b1, o1, b2, _ = self._setup(group, rng)
        o2, nonce = group.exp(b2, w + 1), rng.randrange(group.order)
        t1, t2 = group.exp(b1, nonce), group.exp(b2, nonce)
        e = nizk._challenge(group, "dleq", CTX, b1, o1, b2, o2, t1, t2)
        bad = nizk.DleqProof(t1, t2, (nonce + e * w) % group.order)
        assert not holds(group, dleq_equations(group, b1, o1, b2, o2, bad, CTX))

    def test_many_bases_are_the_one_base_proofs(self, group):
        """`prove_dleqs` over several bases gives, base by base, the proofs
        of one-base calls made in turn from the same randomness: one nonce
        per base, drawn in order."""
        rng = random.Random(15)
        q, g = group.order, group.generator()
        x = rng.randrange(1, q)
        bases = [group.base_exp(rng.randrange(1, q)) for _ in range(4)] + [g, group.inv(g)]
        seed = rng.randrange(2**32)
        together = nizk.prove_dleqs(group, x, g, group.base_exp(x), bases, CTX,
                                    random.Random(seed))
        one_rng = random.Random(seed)
        assert together == [nizk.prove_dleqs(group, x, g, group.base_exp(x), [b], CTX, one_rng)[0]
                            for b in bases]
        assert [out2 for out2, _ in together] == [group.exp(b, x) for b in bases]
        assert nizk.prove_dleqs(group, x, g, group.base_exp(x), [], CTX, rng) == []


def encrypt_one(group, rng, pk, m) -> pke.PkeCiphertext:
    """A one-key `pke_encrypt` of m to pk, as its recipient decrypts it."""
    kappa, r = rng.randrange(1, group.order), rng.randrange(1, group.order)
    c1, (part,) = pke.pke_encrypt(group, [m], multi_exps(
        group, pke.encryption_products(group, [pk], kappa, [r])))
    return pke.PkeCiphertext(c1, part.c2, part.delta)


class TestShareDecryption:
    def _ciphertext(self, group, rng, m=None):
        kp = pke.pke_keygen(group, rng)
        m = rng.randrange(group.order) if m is None else m
        return kp, m, encrypt_one(group, rng, kp.pk, m)

    def test_honest_roundtrip(self, group, rng):
        for _ in range(25):
            kp, m, ct = self._ciphertext(group, rng)
            share, proof = prove_one_decryption(group, kp.sk, kp.pk, ct, CTX, rng)
            assert share == m
            assert holds(group, share_decryption_equations(group, kp.pk, ct, share, proof, CTX))

    def test_wrong_claimed_share_fails(self, group, rng):
        kp, m, ct = self._ciphertext(group, rng)
        share, proof = prove_one_decryption(group, kp.sk, kp.pk, ct, CTX, rng)
        assert not holds(group, share_decryption_equations(group, kp.pk, ct, share + 1, proof,
                                                           CTX))

    def test_inverted_mask_fails(self, group, rng):
        kp, m, ct = self._ciphertext(group, rng)
        share, proof = prove_one_decryption(group, kp.sk, kp.pk, ct, CTX, rng)
        forged = nizk.ShareDecryptionProof(group.inv(proof.mask), proof.dleq)
        assert not holds(group, share_decryption_equations(group, kp.pk, ct, share, forged, CTX))


def make_deal(group, rng, t=2, k=3):
    """Dealer 1's `protocol.round1_deal` to guardians 2..k+1: (params,
    {guardian: keypair}, deal, dealer state)."""
    params = protocol.Params(k + 1, t, k)
    keypairs = {j: pke.pke_keygen(group, rng) for j in range(2, 2 + k)}
    msg, state = protocol.round1_deal(1, params, protocol.GuardianSet.create(1, keypairs, params),
                                      pki(keypairs), group, rng)
    return params, keypairs, msg, state


def pki(keypairs) -> dict:
    return {j: kp.pk for j, kp in keypairs.items()}


def deal_verdict(group, params, keypairs, msg, **changes):
    """`protocol.judge_deal`'s verdict on `msg` with `changes` made to it."""
    return protocol.judge_deal(dataclasses.replace(msg, **changes), params, pki(keypairs),
                               group)


def with_part(msg, position, **changes):
    """The deal with `changes` made to the part at `position`, in guardian
    order."""
    j = sorted(msg.parts)[position]
    return dataclasses.replace(msg, parts={**msg.parts, j: dataclasses.replace(msg.parts[j],
                                                                               **changes)})


def with_proof(msg, **changes):
    """The deal with `changes` made to its proof."""
    return dataclasses.replace(msg, proof=dataclasses.replace(msg.proof, **changes))


def replaced(items: tuple, position, value) -> tuple:
    return items[:position] + (value,) + items[position + 1:]


class TestDealProofs:
    def test_honest_deal_verifies(self, group, rng):
        for _ in range(20):
            params, keypairs, msg, state = make_deal(group, rng)
            assert deal_verdict(group, params, keypairs, msg) is Verdict.ACCEPTED
            for j in msg.parts:
                share = state.polynomial.evaluate(j)
                assert holds(group, feldman_equations(group, share, j, msg.commitments))

    def test_perturbed_ciphertext_fails(self, group, rng):
        params, keypairs, msg, _ = make_deal(group, rng)
        bad = with_part(msg, 1, c2=bump(group, msg.parts[sorted(msg.parts)[1]].c2))
        assert deal_verdict(group, params, keypairs, bad) is Verdict.BAD_PROOF

    def test_truncated_commitments_fail(self, group, rng):
        params, keypairs, msg, _ = make_deal(group, rng)
        assert deal_verdict(group, params, keypairs, msg,
                            commitments=msg.commitments[:1]) is Verdict.BAD_PROOF

    def test_guardian_check_rejects_offset_share(self, group, rng):
        _, _, msg, state = make_deal(group, rng)
        j = min(msg.parts)
        share = state.polynomial.evaluate(j)
        assert not holds(group, feldman_equations(group, share + 1, j, msg.commitments))

    def test_constant_polynomial_check(self, group, rng):
        secret = rng.randrange(group.order)
        poly = shamir.Polynomial((secret,), group.order)
        commitments = tuple(group.base_exp(c) for c in poly.coefficients)
        assert holds(group, feldman_equations(group, secret, 5, commitments))
        assert not holds(group, feldman_equations(group, secret + 1, 5, commitments))

    def test_check_share_exponents_stay_reduced(self, group, rng):
        q = group.order
        poly = shamir.Polynomial(tuple(rng.randrange(q) for _ in range(6)), q)
        commitments = tuple(group.base_exp(c) for c in poly.coefficients)
        exponents = []

        class Recording:
            def __getattr__(self, name):
                return getattr(group, name)

            def exp(self, a, e):
                exponents.append(e)
                return group.exp(a, e)

        index = q - 3
        recording = Recording()
        assert nizk.holds(recording, b"", [feldman_equations(recording, poly.evaluate(index),
                                                            index, commitments)])
        assert exponents == [pow(index, l, q) for l in range(6)]


class TestBallotProof:
    def _ballot(self, group, rng, allowed, exponent):
        q = group.order
        sk = rng.randrange(1, q)
        global_pk = group.base_exp(sk)
        blinding = rng.randrange(q)
        a = group.base_exp(blinding)
        b = group.mul(group.exp(global_pk, blinding), group.base_exp(exponent))
        return global_pk, (a, b), blinding

    def test_two_candidate_roundtrip(self, group, rng):
        allowed = [1, 32]
        for exponent in allowed:
            pk, ballot, blinding = self._ballot(group, rng, allowed, exponent)
            proof = prove_ballot(group, pk, ballot, blinding, exponent,
                                      allowed, CTX, rng)
            assert holds(group, ballot_equations(group, pk, ballot, allowed, proof, CTX))

    def test_prover_refuses_disallowed_exponent(self, group, rng):
        allowed = [1, 32]
        pk, ballot, blinding = self._ballot(group, rng, allowed, 7)
        with pytest.raises(nizk.BallotProverError):
            prove_ballot(group, pk, ballot, blinding, 7, allowed, CTX, rng)

    def test_forged_exponent_fails_verification(self, group, rng):
        # ballot encrypts an out-of-set exponent; reuse an honest-looking proof
        allowed = [1, 32]
        pk, ballot, blinding = self._ballot(group, rng, allowed, 7)
        pk2, ballot2, blinding2 = self._ballot(group, rng, allowed, 1)
        proof = prove_ballot(group, pk2, ballot2, blinding2, 1, allowed, CTX, rng)
        assert not holds(group, ballot_equations(group, pk2, ballot, allowed, proof, CTX))

    def test_challenge_sum_tampering_fails(self, group, rng):
        allowed = [1, 32, 64]
        pk, ballot, blinding = self._ballot(group, rng, allowed, 32)
        proof = prove_ballot(group, pk, ballot, blinding, 32, allowed, CTX, rng)
        br = proof[0]
        tampered = (nizk.BallotBranch(br.commitment_1, br.commitment_2,
                                      (br.challenge + 1) % group.order, br.response),
                    *proof[1:])
        assert not holds(group, ballot_equations(group, pk, ballot, allowed, tampered, CTX))

    def test_context_binding(self, group, rng):
        allowed = [1, 32]
        pk, ballot, blinding = self._ballot(group, rng, allowed, 1)
        proof = prove_ballot(group, pk, ballot, blinding, 1, allowed, CTX, rng)
        assert not holds(group, ballot_equations(group, pk, ballot, allowed, proof, b"other"))


def reference_prove_ballot(group, global_pk, ballot, blinding, vote_exponent, allowed,
                           context, rng):
    """The prover whose commitments are the multi_exps of the verifier's
    term lists, on the fresh A and B: each branch at its (challenge,
    response), the real one at (0, w)."""
    real = allowed.index(vote_exponent)
    q = group.order
    w = rng.randrange(q)
    scalars = [(0, w) if i == real else (rng.randrange(q), rng.randrange(q))
               for i in range(len(allowed))]
    commitments = [[multi_exp(group, terms)
                    for terms in nizk._ballot_terms(group, global_pk, ballot, exponent, e, z)]
                   for exponent, (e, z) in zip(allowed, scalars)]
    master = nizk._challenge(group, "ballot", context, global_pk, *ballot,
                             *(t for pair in commitments for t in pair))
    e_real = (master - sum(e for e, _ in scalars)) % q
    scalars[real] = (e_real, (w + e_real * blinding) % q)
    return tuple(nizk.BallotBranch(t1, t2, e, z) for (t1, t2), (e, z) in zip(commitments, scalars))


@pytest.mark.parametrize("curve", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
def test_witness_commitments_match_reference(curve):
    """prove_ballot's commitments, computed from the witness on G and pk
    alone, equal the reference's on A and B branch by branch, for every
    allowed exponent as the real vote, and inside a `fixed_base` block on
    pk too."""
    rng = random.Random(21)
    allowed = [1, 8, 64]
    q = curve.order
    pk = curve.base_exp(rng.randrange(1, q))
    for vote in allowed:
        blinding = rng.randrange(q)
        ballot = (curve.base_exp(blinding),
                  multi_exp(curve, [(pk, blinding), (curve.generator(), vote)]))
        seed = rng.randrange(2**32)
        want = reference_prove_ballot(curve, pk, ballot, blinding, vote, allowed, CTX,
                                      random.Random(seed))
        got = prove_ballot(curve, pk, ballot, blinding, vote, allowed, CTX,
                                random.Random(seed))
        assert len(got) == len(want)
        for mine, ref in zip(got, want):
            assert mine == ref, vote
        with groups.fixed_base(curve, pk):
            assert prove_ballot(curve, pk, ballot, blinding, vote, allowed, CTX,
                                     random.Random(seed)) == want


def tampered_deals(group, msg) -> list:
    """(field, copy of `msg` with that one field changed) for C1, T1, z and
    each guardian's C2_j, delta_j, T2_j and z_j."""
    q, proof = group.order, msg.proof
    out = [("C1", dataclasses.replace(msg, c1=bump(group, msg.c1))),
           ("T1", with_proof(msg, commitment_1=bump(group, proof.commitment_1))),
           ("z", with_proof(msg, response=(proof.response + 1) % q))]
    for position, j in enumerate(sorted(msg.parts)):
        part, t2, z_j = msg.parts[j], proof.commitments_2[position], proof.responses[position]
        out += [(f"C2_{j}", with_part(msg, position, c2=bump(group, part.c2))),
                (f"delta_{j}", with_part(msg, position, delta=(part.delta + 1) % q)),
                (f"T2_{j}", with_proof(msg, commitments_2=replaced(
                    proof.commitments_2, position, bump(group, t2)))),
                (f"z_{j}", with_proof(msg, responses=replaced(
                    proof.responses, position, (z_j + 1) % q)))]
    return out


BOTH_GROUPS = pytest.mark.parametrize("group", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)


@BOTH_GROUPS
def test_honest_deals_decrypt_to_dealt_shares(group):
    """Every guardian of an accepted honest deal decrypts, with the deal's
    one C1, the share the dealer's polynomial gives it."""
    rng = random.Random(10)
    for k in (1, 3, 4):
        params, keypairs, msg, state = make_deal(group, rng, t=min(2, k), k=k)
        assert deal_verdict(group, params, keypairs, msg) is Verdict.ACCEPTED
        assert {ct.c1 for ct in msg.ciphertexts.values()} == {msg.c1}
        for j, kp in keypairs.items():
            assert pke.pke_decrypt(group, kp.sk, msg.ciphertexts[j]) == \
                state.polynomial.evaluate(j)


@BOTH_GROUPS
def test_deal_with_one_tampered_proof_rejected(group):
    """A deal is checked by its one proof: changing any one field of the
    encryption or of the proof, for any guardian, rejects the deal."""
    rng = random.Random(11)
    params, keypairs, msg, _ = make_deal(group, rng, t=2, k=3)
    assert deal_verdict(group, params, keypairs, msg) is Verdict.ACCEPTED
    tampered = tampered_deals(group, msg)
    assert len(tampered) == 3 + 4 * 3
    for field, bad in tampered:
        assert deal_verdict(group, params, keypairs, bad) is Verdict.BAD_PROOF, field


@BOTH_GROUPS
def test_deal_with_swapped_guardian_entries_rejected(group):
    """Guardians 2 and 4 trade their parts, alone or with their T2_j and
    z_j: each part is then checked against the other's key."""
    rng = random.Random(15)
    params, keypairs, msg, _ = make_deal(group, rng, t=2, k=3)
    proof, parts = msg.proof, msg.parts
    swapped = dataclasses.replace(msg, parts={**parts, 2: parts[4], 4: parts[2]})
    assert deal_verdict(group, params, keypairs, swapped) is Verdict.BAD_PROOF
    both = with_proof(swapped, commitments_2=proof.commitments_2[::-1],
                      responses=proof.responses[::-1])
    assert deal_verdict(group, params, keypairs, both) is Verdict.BAD_PROOF


@BOTH_GROUPS
def test_deal_proof_replayed_rejected(group):
    """A deal's proof binds its dealer and commitments: it fails on the
    same guardian set's deal by another dealer, on its own deal posted by
    another dealer, and after one commitment changes."""
    rng = random.Random(16)
    params = protocol.Params(5, 2, 3)
    keypairs = {j: pke.pke_keygen(group, rng) for j in range(1, 6)}
    deals = [protocol.round1_deal(dealer, params, protocol.GuardianSet.create(
                 dealer, {2, 3, 4}, params), pki(keypairs), group, rng)[0] for dealer in (1, 5)]
    assert all(deal_verdict(group, params, keypairs, d) is Verdict.ACCEPTED for d in deals)
    for bad in (dataclasses.replace(deals[1], proof=deals[0].proof),
                dataclasses.replace(deals[0], dealer=5),
                dataclasses.replace(deals[0], commitments=replaced(
                    deals[0].commitments, 1, bump(group, deals[0].commitments[1])))):
        assert deal_verdict(group, params, keypairs, bad) is Verdict.BAD_PROOF


@BOTH_GROUPS
def test_deal_challenge_binds_the_whole_statement(group):
    """Strong Fiat-Shamir: the one challenge moves with C1, each key, C2_j
    and delta_j, T1 and each T2_j, not only with what the equations hold."""
    rng = random.Random(20)
    _, keypairs, msg, _ = make_deal(group, rng, t=2, k=3)
    keys = [kp.pk for _, kp in sorted(keypairs.items())]
    parts = [msg.parts[j] for j in sorted(msg.parts)]
    statement = (keys, msg.c1, parts, msg.proof.commitment_1, msg.proof.commitments_2)
    e = nizk._deal_challenge(group, CTX, *statement)
    changed = [(replaced(tuple(keys), 1, bump(group, keys[1])),) + statement[1:],
               (keys, bump(group, msg.c1)) + statement[2:]]
    for position, part in enumerate(parts):
        for change in (dict(c2=bump(group, part.c2)), dict(delta=(part.delta + 1) % group.order)):
            changed.append((keys, msg.c1, replaced(tuple(parts), position,
                                                   dataclasses.replace(part, **change)))
                           + statement[3:])
    changed += [statement[:3] + (bump(group, msg.proof.commitment_1), statement[4]),
                statement[:4] + (replaced(statement[4], 2, bump(group, statement[4][2])),)]
    for other in changed:
        assert nizk._deal_challenge(group, CTX, *other) != e
    assert nizk._deal_challenge(group, b"other", *statement) != e


@BOTH_GROUPS
def test_deal_proof_binds_guardian_indices(group):
    """Parties 3 and 4 share a key: the deal to {2, 3, 5}, re-keyed to
    {2, 4, 5}, has the same keys in the same order, and only the indices in
    its context reject it."""
    rng = random.Random(21)
    params = protocol.Params(6, 2, 3)
    keys = {j: pke.pke_keygen(group, rng).pk for j in range(1, 7)}
    keys[4] = keys[3]
    msg, _ = protocol.round1_deal(1, params, protocol.GuardianSet.create(1, {2, 3, 5}, params),
                                  keys, group, rng)
    assert protocol.judge_deal(msg, params, keys, group) is Verdict.ACCEPTED
    moved = dataclasses.replace(msg, parts={2: msg.parts[2], 4: msg.parts[3], 5: msg.parts[5]})
    assert protocol.judge_deal(moved, params, keys, group) is Verdict.BAD_PROOF


@BOTH_GROUPS
def test_deal_proof_one_guardian_short_or_long_rejected(group):
    """A proof without exactly one T2_j and one z_j per guardian is
    rejected before any group operation."""
    rng = random.Random(17)
    params, keypairs, msg, _ = make_deal(group, rng, t=2, k=3)
    t2, zs = msg.proof.commitments_2, msg.proof.responses
    for changes in (dict(commitments_2=t2[:-1], responses=zs[:-1]),
                    dict(commitments_2=t2 + t2[:1], responses=zs + zs[:1]),
                    dict(commitments_2=t2[:-1]), dict(responses=zs + zs[:1])):
        bad = with_proof(msg, **changes)
        assert nizk.deal_equations(group, [kp.pk for _, kp in sorted(keypairs.items())], bad.c1,
                                   [bad.parts[j] for j in sorted(bad.parts)], bad.proof,
                                   b"") is None
        assert deal_verdict(group, params, keypairs, bad) is Verdict.BAD_PROOF, changes


def share_batch_holds(group, claims) -> bool:
    """The decryption proof and Feldman equations of every (pk, ct, share,
    proof, index, commitments) claim in one batch."""
    return nizk.holds(group, CTX, [
        equations for pk, ct, share, proof, j, commitments in claims
        for equations in (share_decryption_equations(group, pk, ct, share, proof, CTX),
                          feldman_equations(group, share, j, commitments))])


def ballot_claims(group, global_pk, allowed, claims) -> list:
    return [ballot_equations(group, global_pk, ballot, allowed, branches, context)
            for ballot, branches, context in claims]


def dleq_claims(group, claims, context) -> list:
    return [dleq_equations(group, *claim, context) for claim in claims]


@pytest.mark.parametrize("group", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
def test_share_decryption_batch(group):
    """A batch holds iff every claim in it does: its decryption proof and
    the Feldman check of its share."""
    rng = random.Random(12)
    _, keypairs, msg, _ = make_deal(group, rng, k=4)
    claims = []
    for j, kp in sorted(keypairs.items()):
        ct = msg.ciphertexts[j]
        share, proof = prove_one_decryption(group, kp.sk, kp.pk, ct, CTX, rng)
        claims.append((kp.pk, ct, share, proof, j, msg.commitments))
    assert share_batch_holds(group, claims)
    assert share_batch_holds(group, [])
    pk, ct, share, proof, j, commitments = claims[2]
    bad_dleq = nizk.DleqProof(proof.dleq.commitment_1, proof.dleq.commitment_2,
                              (proof.dleq.response + 1) % group.order)
    for bad in [(pk, ct, (share + 1) % group.order, proof),
                (pk, ct, share, nizk.ShareDecryptionProof(proof.mask, bad_dleq))]:
        batch = claims[:2] + [bad + (j, commitments)] + claims[3:]
        assert not holds(group, share_decryption_equations(group, *bad, CTX))
        assert not share_batch_holds(group, batch)
    # a ciphertext of a wrong share: the decryption proof holds, Feldman does not
    wrong = encrypt_one(group, rng, pk, (share + 1) % group.order)
    share, proof = prove_one_decryption(group, keypairs[j].sk, pk, wrong, CTX, rng)
    assert holds(group, share_decryption_equations(group, pk, wrong, share, proof, CTX))
    assert not holds(group, feldman_equations(group, share, j, commitments))
    batch = claims[:2] + [(pk, wrong, share, proof, j, commitments)] + claims[3:]
    assert not share_batch_holds(group, batch)


@pytest.mark.parametrize("group", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
def test_ballot_and_dleq_batches(group):
    """A batch of ballot proofs, each under its own context, or of DLEQ
    proofs holds iff every claim in it does; an empty batch holds."""
    rng = random.Random(14)
    q, allowed = group.order, [1, 32, 1024]
    global_pk = group.base_exp(rng.randrange(1, q))
    claims = []
    for voter, exponent in enumerate(allowed + [32]):
        blinding = rng.randrange(q)
        ballot = (group.base_exp(blinding),
                  group.mul(group.exp(global_pk, blinding), group.base_exp(exponent)))
        context = CTX + bytes([voter])
        proof = prove_ballot(group, global_pk, ballot, blinding, exponent, allowed,
                                  context, rng)
        claims.append((ballot, proof, context))
    assert nizk.holds(group, CTX, ballot_claims(group, global_pk, allowed, claims))
    assert nizk.holds(group, CTX, [])
    ballot, proof, context = claims[2]
    br = proof[1]
    bad_branch = nizk.BallotBranch(br.commitment_1, br.commitment_2, br.challenge,
                                   (br.response + 1) % q)
    bad_response = proof[:1] + (bad_branch,) + proof[2:]
    for bad in [(ballot, bad_response, context), (ballot, proof[:-1], context),
                (ballot, proof, CTX + bytes([3]))]:
        assert not holds(group, ballot_equations(group, global_pk, bad[0], allowed, *bad[1:]))
        batch = claims[:2] + [bad] + claims[3:]
        assert not nizk.holds(group, CTX, ballot_claims(group, global_pk, allowed, batch))

    g, base2 = group.generator(), group.base_exp(rng.randrange(1, q))
    dleqs = []
    for _ in range(3):
        w = rng.randrange(q)
        out1, out2 = group.base_exp(w), group.exp(base2, w)
        dleqs.append((g, out1, base2, out2, prove_dleq(group, w, g, out1, base2, out2,
                                                            CTX, rng)))
    assert nizk.holds(group, CTX, dleq_claims(group, dleqs, CTX))
    assert not nizk.holds(group, CTX, dleq_claims(group, dleqs, b"other"))
    b1, o1, b2, o2, proof = dleqs[1]
    for bad in [(b1, o1, b2, bump(group, o2), proof),
                (b1, o1, b2, o2, nizk.DleqProof(proof.commitment_1, proof.commitment_2,
                                                proof.response + q))]:
        assert not holds(group, dleq_equations(group, *bad, CTX))
        assert not nizk.holds(group, CTX, dleq_claims(group, dleqs[:1] + [bad] + dleqs[2:], CTX))


def test_challenge_binds_each_element():
    """modp-2027's subgroup holds elements x and x + q, such as 3 and 1016;
    a challenge hashes an element's encoding, not its residue mod q, so
    they give different challenges.  A bytes part is hashed as given."""
    group = TEST_GROUP
    assert all(pow(x, group.order, group.p) == 1 for x in (3, 1016))
    assert nizk._challenge(group, "dleq", b"c", 3) != nizk._challenge(group, "dleq", b"c", 1016)
    assert nizk._challenge(group, "dleq", b"c", 3) == \
        nizk._challenge(group, "dleq", b"c", group.encode(3))


def test_combined_checks_reject_single_tampers_on_secp256k1():
    """On secp256k1 a DLEQ's two equations and a ballot's branches are
    checked as one weighted combination; changing any one part of the proof
    still rejects it."""
    group, rng = SECP256K1, random.Random(13)
    q = group.order
    w = rng.randrange(q)
    b1, b2 = group.base_exp(rng.randrange(1, q)), group.base_exp(rng.randrange(1, q))
    o1, o2 = group.exp(b1, w), group.exp(b2, w)
    proof = prove_dleq(group, w, b1, o1, b2, o2, CTX, rng)
    assert holds(group, dleq_equations(group, b1, o1, b2, o2, proof, CTX))
    for bad in (nizk.DleqProof(bump(group, proof.commitment_1), proof.commitment_2,
                               proof.response),
                nizk.DleqProof(proof.commitment_1, bump(group, proof.commitment_2),
                               proof.response),
                nizk.DleqProof(proof.commitment_1, proof.commitment_2,
                               (proof.response + 1) % q)):
        assert not holds(group, dleq_equations(group, b1, o1, b2, o2, bad, CTX))

    allowed = [1, 32, 1024]
    global_pk = group.base_exp(rng.randrange(1, q))
    blinding = rng.randrange(q)
    ballot = (group.base_exp(blinding),
              group.mul(group.exp(global_pk, blinding), group.base_exp(32)))
    proof = prove_ballot(group, global_pk, ballot, blinding, 32, allowed, CTX, rng)
    assert holds(group, ballot_equations(group, global_pk, ballot, allowed, proof, CTX))
    for position, br in enumerate(proof):
        for bad in (nizk.BallotBranch(bump(group, br.commitment_1), br.commitment_2,
                                      br.challenge, br.response),
                    nizk.BallotBranch(br.commitment_1, br.commitment_2,
                                      br.challenge, (br.response + 1) % q)):
            branches = proof[:position] + (bad,) + proof[position + 1:]
            assert not holds(group, ballot_equations(group, global_pk, ballot, allowed, branches,
                                                     CTX))


class TestCanonicalScalars:
    """A scalar shifted by q satisfies every equation mod q; verifiers must
    still reject it, so each wire value has one accepted encoding."""

    def test_dleq_response_plus_q(self, group, rng):
        q = group.order
        w = rng.randrange(q)
        b1, b2 = group.base_exp(rng.randrange(1, q)), group.base_exp(rng.randrange(1, q))
        o1, o2 = group.exp(b1, w), group.exp(b2, w)
        proof = prove_dleq(group, w, b1, o1, b2, o2, CTX, rng)
        shifted = nizk.DleqProof(proof.commitment_1, proof.commitment_2, proof.response + q)
        assert not holds(group, dleq_equations(group, b1, o1, b2, o2, shifted, CTX))

    def test_share_decryption_share_plus_q(self, group, rng):
        kp = pke.pke_keygen(group, rng)
        ct = encrypt_one(group, rng, kp.pk, 5)
        share, proof = prove_one_decryption(group, kp.sk, kp.pk, ct, CTX, rng)
        assert not holds(group, share_decryption_equations(group, kp.pk, ct, share + group.order,
                                                           proof, CTX))

    def test_deal_response_plus_q(self):
        for group in (TEST_GROUP, SECP256K1):
            params, keypairs, msg, _ = make_deal(group, random.Random(18))
            q, proof = group.order, msg.proof
            for bad in [with_proof(msg, response=proof.response + q)] + [
                    with_proof(msg, responses=replaced(proof.responses, position, z_j + q))
                    for position, z_j in enumerate(proof.responses)]:
                assert deal_verdict(group, params, keypairs, bad) is Verdict.BAD_PROOF

    def test_deal_delta_plus_q(self):
        for group in (TEST_GROUP, SECP256K1):
            params, keypairs, msg, _ = make_deal(group, random.Random(19))
            for position, j in enumerate(sorted(msg.parts)):
                bad = with_part(msg, position, delta=msg.parts[j].delta + group.order)
                assert deal_verdict(group, params, keypairs, bad) is Verdict.BAD_PROOF

    def test_ballot_challenge_and_response_plus_q(self, group, rng):
        q = group.order
        allowed = [1, 32]
        global_pk = group.base_exp(rng.randrange(1, q))
        blinding = rng.randrange(q)
        ballot = (group.base_exp(blinding),
                  group.mul(group.exp(global_pk, blinding), group.base_exp(32)))
        proof = prove_ballot(group, global_pk, ballot, blinding, 32, allowed, CTX, rng)
        assert holds(group, ballot_equations(group, global_pk, ballot, allowed, proof, CTX))
        br = proof[0]
        for shifted in (nizk.BallotBranch(br.commitment_1, br.commitment_2,
                                          br.challenge + q, br.response),
                        nizk.BallotBranch(br.commitment_1, br.commitment_2,
                                          br.challenge, br.response + q)):
            bad = (shifted,) + proof[1:]
            assert not holds(group, ballot_equations(group, global_pk, ballot, allowed, bad, CTX))


class TestProverInversions:
    """Field inversions of each prover on secp256k1, as the `counts`
    fixture counts them: a prover computes all its points in one
    `multi_exps` call, which makes one inversion per table round, one per
    level of row sums and one at its end, plus one per `mul` or `div` of
    its own.  At the parent of that kernel, with one `multi_exp` per point
    and its own inversion at the end of each, the same provers made the
    figures each test names, all with G's comb built outside the count."""

    @staticmethod
    def inversions(counts, prove, *bases) -> int:
        """The inversions of `prove()`, run inside a `fixed_base` block on
        `bases` whose tables are built outside the count."""
        SECP256K1.base_exp(1)
        with groups.fixed_base(SECP256K1, *bases):
            counts.update(dict.fromkeys(counts, 0))
            prove()
            return counts["inversion"]

    def test_deal(self, counts):
        """A k=4, t=2 deal: 11 inversions alone (4 table rounds of the four
        keys' odd multiples, 2 levels, 1 final, 4 `mul`s for the C2_j), 8
        with the keys' tables (64 and 40 at the parent)."""
        rng = random.Random(31)
        params = protocol.Params(6, 2, 4)
        keypairs = {j: pke.pke_keygen(SECP256K1, rng) for j in range(2, 6)}
        guardians = protocol.GuardianSet.create(1, keypairs, params)

        def deal():
            protocol.round1_deal(1, params, guardians, pki(keypairs), SECP256K1, random.Random(1))

        assert self.inversions(counts, deal) == 11
        assert self.inversions(counts, deal, *pki(keypairs).values()) == 8

    def test_ballot(self, counts):
        """A 3-candidate ballot: 6 inversions alone, 3 with the election
        key's table (30 and 18 at the parent)."""
        pk = SECP256K1.base_exp(0xC0FFEE)
        enc = voting.derive_encoding(20, 3, SECP256K1.order)

        def cast():
            voting.cast_ballot(SECP256K1, enc, pk, 1, 2, random.Random(7))

        assert self.inversions(counts, cast) == 6
        assert self.inversions(counts, cast, pk) == 3

    def test_share_decryptions(self, counts):
        """A guardian's 4 share reveals: 10 inversions on fresh C1s (4 table
        rounds, 1 level, 1 final, 4 `div`s for the masks), 6 with the C1s'
        tables (52 and 28 at the parent)."""
        rng = random.Random(32)
        params = protocol.Params(6, 2, 4)
        keypairs = {j: pke.pke_keygen(SECP256K1, rng) for j in range(1, 7)}
        sets = {1: {2, 3, 4, 6}, 2: {3, 4, 5, 6}, 3: {1, 4, 5, 6}, 4: {1, 2, 5, 6},
                5: {1, 2, 3, 4}}
        deals = [protocol.round1_deal(i, params, protocol.GuardianSet.create(i, s, params),
                                      pki(keypairs), SECP256K1, rng)[0] for i, s in sets.items()]
        public = protocol.process_round1(deals, params, pki(keypairs), SECP256K1)

        def reveal():
            assert len(protocol.round2_reveal_shares(6, keypairs[6].sk, public, CTX, SECP256K1,
                                                     random.Random(4))) == 4

        assert self.inversions(counts, reveal) == 10
        assert self.inversions(counts, reveal, *(deal.c1 for deal in deals)) == 6

    def test_partial_decryption(self, counts):
        """A dealer's partial decryption: 6 inversions on a fresh C1, 2 with
        its table (12 and 6 at the parent)."""
        c1 = SECP256K1.base_exp(999)
        d = random.Random(33).randrange(1, SECP256K1.order)
        partial_pk = SECP256K1.base_exp(d)

        def decrypt():
            voting.tally_partial_decrypt(SECP256K1, 1, d, partial_pk, c1, random.Random(3))

        assert self.inversions(counts, decrypt) == 6
        assert self.inversions(counts, decrypt, c1) == 2
