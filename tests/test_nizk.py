import random

import pytest

from fdkg import nizk, pke, shamir
from fdkg.groups import TEST_GROUP

CTX = b"test-context"


def bump(group, elem):
    return group.mul(elem, group.generator())


class TestDlProof:
    def test_identity_statement(self, group, rng):
        proof = nizk.prove_dl(group, 0, group.identity(), CTX, rng)
        assert nizk.verify_dl(group, group.identity(), proof, CTX)

    def test_honest_roundtrip(self, group, rng):
        for _ in range(50):
            w = rng.randrange(group.order)
            stmt = group.base_exp(w)
            proof = nizk.prove_dl(group, w, stmt, CTX, rng)
            assert nizk.verify_dl(group, stmt, proof, CTX)

    def test_wrong_statement_fails(self, group, rng):
        w = rng.randrange(group.order)
        proof = nizk.prove_dl(group, w, group.base_exp(w), CTX, rng)
        assert not nizk.verify_dl(group, group.base_exp(w + 1), proof, CTX)

    def test_context_binding(self, group, rng):
        w = rng.randrange(group.order)
        stmt = group.base_exp(w)
        proof = nizk.prove_dl(group, w, stmt, CTX, rng)
        assert not nizk.verify_dl(group, stmt, proof, b"other-context")

    def test_deterministic(self, group):
        w = 321
        stmt = group.base_exp(w)
        a = nizk.prove_dl(group, w, stmt, CTX, random.Random(5))
        b = nizk.prove_dl(group, w, stmt, CTX, random.Random(5))
        assert a == b


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
        proof = nizk.prove_dleq(group, w, b1, o1, b2, o2, CTX, rng)
        assert nizk.verify_dleq(group, b1, o1, b2, o2, proof, CTX)

    def test_honest_roundtrip(self, group, rng):
        for _ in range(50):
            w, b1, o1, b2, o2 = self._setup(group, rng)
            proof = nizk.prove_dleq(group, w, b1, o1, b2, o2, CTX, rng)
            assert nizk.verify_dleq(group, b1, o1, b2, o2, proof, CTX)

    def test_perturbed_output_fails(self, group, rng):
        w, b1, o1, b2, o2 = self._setup(group, rng)
        proof = nizk.prove_dleq(group, w, b1, o1, b2, o2, CTX, rng)
        assert not nizk.verify_dleq(group, b1, o1, b2, bump(group, o2), proof, CTX)

    def test_unequal_logs_fail(self, group, rng):
        w, b1, o1, b2, o2 = self._setup(group, rng)
        bad = nizk.prove_dleq(group, w, b1, o1, b2, group.exp(b2, w + 1), CTX, rng)
        assert not nizk.verify_dleq(group, b1, o1, b2, group.exp(b2, w + 1), bad, CTX)


class TestShareDecryption:
    def _ciphertext(self, group, rng, m=None):
        kp = pke.pke_keygen(group, rng)
        m = rng.randrange(group.order) if m is None else m
        ct = pke.pke_encrypt(group, kp.pk, m, pke.sample_enc_randomness(group, rng))
        return kp, m, ct

    def test_honest_roundtrip(self, group, rng):
        for _ in range(25):
            kp, m, ct = self._ciphertext(group, rng)
            share, proof = nizk.prove_share_decryption(group, kp.sk, kp.pk, ct, CTX, rng)
            assert share == m
            assert nizk.verify_share_decryption(group, kp.pk, ct, share, proof, CTX)

    def test_wrong_claimed_share_fails(self, group, rng):
        kp, m, ct = self._ciphertext(group, rng)
        share, proof = nizk.prove_share_decryption(group, kp.sk, kp.pk, ct, CTX, rng)
        assert not nizk.verify_share_decryption(group, kp.pk, ct, share + 1, proof, CTX)

    def test_inverted_mask_fails(self, group, rng):
        kp, m, ct = self._ciphertext(group, rng)
        share, proof = nizk.prove_share_decryption(group, kp.sk, kp.pk, ct, CTX, rng)
        forged = nizk.ShareDecryptionProof(group.inv(proof.mask), proof.dleq)
        assert not nizk.verify_share_decryption(group, kp.pk, ct, share, forged, CTX)


def make_deal(group, rng, t=2, k=3, secret=None):
    q = group.order
    secret = rng.randrange(q) if secret is None else secret
    guardians = []
    keypairs = []
    for j in range(2, 2 + k):
        kp = pke.pke_keygen(group, rng)
        keypairs.append(kp)
        guardians.append((j, kp.pk))
    shares, poly = shamir.share_secret(secret, t, [j for j, _ in guardians], rng, q)
    randomness = [pke.sample_enc_randomness(group, rng) for _ in shares]
    cts = [pke.pke_encrypt(group, pk, s.value, rand)
           for (j, pk), s, rand in zip(guardians, shares, randomness)]
    bundle = nizk.prove_deal(group, poly, guardians, randomness, cts, CTX, rng)
    return poly, guardians, keypairs, shares, cts, bundle


class TestDealProofs:
    def test_honest_deal_verifies(self, group, rng):
        for _ in range(20):
            poly, guardians, _, shares, cts, bundle = make_deal(group, rng)
            assert nizk.verify_deal(group, 2, guardians, cts, bundle, CTX)
            for s in shares:
                assert nizk.guardian_check_share(group, s.value, s.index,
                                                 bundle.commitments)

    def test_perturbed_ciphertext_fails(self, group, rng):
        poly, guardians, _, shares, cts, bundle = make_deal(group, rng)
        cts = list(cts)
        cts[1] = pke.PkeCiphertext(cts[1].c1, bump(group, cts[1].c2), cts[1].delta)
        assert not nizk.verify_deal(group, 2, guardians, cts, bundle, CTX)

    def test_truncated_commitments_fail(self, group, rng):
        poly, guardians, _, shares, cts, bundle = make_deal(group, rng)
        short = nizk.DealProofBundle(
            nizk.FeldmanCommitments(bundle.commitments.commitments[:1]),
            bundle.encryption_proofs)
        assert not nizk.verify_deal(group, 2, guardians, cts, short, CTX)

    def test_guardian_check_rejects_offset_share(self, group, rng):
        poly, guardians, _, shares, cts, bundle = make_deal(group, rng)
        s = shares[0]
        assert not nizk.guardian_check_share(group, s.value + 1, s.index,
                                             bundle.commitments)

    def test_constant_polynomial_check(self, group, rng):
        secret = rng.randrange(group.order)
        poly = shamir.Polynomial((secret,), group.order)
        commitments = nizk.commit_polynomial(group, poly)
        assert nizk.guardian_check_share(group, secret, 5, commitments)
        assert not nizk.guardian_check_share(group, secret + 1, 5, commitments)

    def test_check_share_exponents_stay_reduced(self, group, rng):
        q = group.order
        poly = shamir.Polynomial(tuple(rng.randrange(q) for _ in range(6)), q)
        commitments = nizk.commit_polynomial(group, poly)
        exponents = []

        class Recording:
            def __getattr__(self, name):
                return getattr(group, name)

            def exp(self, a, e):
                exponents.append(e)
                return group.exp(a, e)

        index = q - 3
        assert nizk.guardian_check_share(Recording(), poly.evaluate(index), index,
                                         commitments)
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
            proof = nizk.prove_ballot(group, pk, ballot, blinding, exponent,
                                      allowed, CTX, rng)
            assert nizk.verify_ballot(group, pk, ballot, allowed, proof, CTX)

    def test_prover_refuses_disallowed_exponent(self, group, rng):
        allowed = [1, 32]
        pk, ballot, blinding = self._ballot(group, rng, allowed, 7)
        with pytest.raises(nizk.BallotProverError):
            nizk.prove_ballot(group, pk, ballot, blinding, 7, allowed, CTX, rng)

    def test_forged_exponent_fails_verification(self, group, rng):
        # ballot encrypts an out-of-set exponent; reuse an honest-looking proof
        allowed = [1, 32]
        pk, ballot, blinding = self._ballot(group, rng, allowed, 7)
        pk2, ballot2, blinding2 = self._ballot(group, rng, allowed, 1)
        proof = nizk.prove_ballot(group, pk2, ballot2, blinding2, 1, allowed, CTX, rng)
        assert not nizk.verify_ballot(group, pk2, ballot, allowed, proof, CTX)

    def test_challenge_sum_tampering_fails(self, group, rng):
        allowed = [1, 32, 64]
        pk, ballot, blinding = self._ballot(group, rng, allowed, 32)
        proof = nizk.prove_ballot(group, pk, ballot, blinding, 32, allowed, CTX, rng)
        br = proof.branches[0]
        tampered = nizk.BallotProof(
            (nizk.BallotBranch(br.commitment_1, br.commitment_2,
                               (br.challenge + 1) % group.order, br.response),)
            + proof.branches[1:])
        assert not nizk.verify_ballot(group, pk, ballot, allowed, tampered, CTX)

    def test_context_binding(self, group, rng):
        allowed = [1, 32]
        pk, ballot, blinding = self._ballot(group, rng, allowed, 1)
        proof = nizk.prove_ballot(group, pk, ballot, blinding, 1, allowed, CTX, rng)
        assert not nizk.verify_ballot(group, pk, ballot, allowed, proof, b"other")
