import random

import pytest

from fdkg import groups, nizk, pke, shamir
from fdkg.groups import SECP256K1, TEST_GROUP, multi_exp
from fdkg.nizk import (ballot_equations, dleq_equations, feldman_equations,
                       share_decryption_equations)

CTX = b"test-context"


def bump(group, elem):
    return group.mul(elem, group.generator())


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
        proof = nizk.prove_dleq(group, w, b1, o1, b2, o2, CTX, rng)
        assert holds(group, dleq_equations(group, b1, o1, b2, o2, proof, CTX))

    def test_honest_roundtrip(self, group, rng):
        for _ in range(50):
            w, b1, o1, b2, o2 = self._setup(group, rng)
            proof = nizk.prove_dleq(group, w, b1, o1, b2, o2, CTX, rng)
            assert holds(group, dleq_equations(group, b1, o1, b2, o2, proof, CTX))

    def test_perturbed_output_fails(self, group, rng):
        w, b1, o1, b2, o2 = self._setup(group, rng)
        proof = nizk.prove_dleq(group, w, b1, o1, b2, o2, CTX, rng)
        assert not holds(group, dleq_equations(group, b1, o1, b2, bump(group, o2), proof, CTX))

    def test_unequal_logs_fail(self, group, rng):
        w, b1, o1, b2, o2 = self._setup(group, rng)
        bad = nizk.prove_dleq(group, w, b1, o1, b2, group.exp(b2, w + 1), CTX, rng)
        assert not holds(group, dleq_equations(group, b1, o1, b2, group.exp(b2, w + 1), bad, CTX))


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
            assert holds(group, share_decryption_equations(group, kp.pk, ct, share, proof, CTX))

    def test_wrong_claimed_share_fails(self, group, rng):
        kp, m, ct = self._ciphertext(group, rng)
        share, proof = nizk.prove_share_decryption(group, kp.sk, kp.pk, ct, CTX, rng)
        assert not holds(group, share_decryption_equations(group, kp.pk, ct, share + 1, proof,
                                                           CTX))

    def test_inverted_mask_fails(self, group, rng):
        kp, m, ct = self._ciphertext(group, rng)
        share, proof = nizk.prove_share_decryption(group, kp.sk, kp.pk, ct, CTX, rng)
        forged = nizk.ShareDecryptionProof(group.inv(proof.mask), proof.dleq)
        assert not holds(group, share_decryption_equations(group, kp.pk, ct, share, forged, CTX))


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
    commitments, proofs = nizk.prove_deal(group, poly, guardians, randomness, cts, CTX, rng)
    return poly, guardians, keypairs, shares, cts, (commitments, proofs)


class TestDealProofs:
    def test_honest_deal_verifies(self, group, rng):
        for _ in range(20):
            poly, guardians, _, shares, cts, (commitments, proofs) = make_deal(group, rng)
            assert nizk.verify_deal(group, 2, guardians, cts, commitments, proofs, CTX)
            for s in shares:
                assert holds(group, feldman_equations(group, s.value, s.index, commitments))

    def test_perturbed_ciphertext_fails(self, group, rng):
        poly, guardians, _, shares, cts, deal = make_deal(group, rng)
        cts = list(cts)
        cts[1] = pke.PkeCiphertext(cts[1].c1, bump(group, cts[1].c2), cts[1].delta)
        assert not nizk.verify_deal(group, 2, guardians, cts, *deal, CTX)

    def test_truncated_commitments_fail(self, group, rng):
        poly, guardians, _, shares, cts, (commitments, proofs) = make_deal(group, rng)
        assert not nizk.verify_deal(group, 2, guardians, cts, commitments[:1], proofs, CTX)

    def test_guardian_check_rejects_offset_share(self, group, rng):
        poly, guardians, _, shares, cts, (commitments, _) = make_deal(group, rng)
        s = shares[0]
        assert not holds(group, feldman_equations(group, s.value + 1, s.index, commitments))

    def test_constant_polynomial_check(self, group, rng):
        secret = rng.randrange(group.order)
        poly = shamir.Polynomial((secret,), group.order)
        commitments = nizk.commit_polynomial(group, poly)
        assert holds(group, feldman_equations(group, secret, 5, commitments))
        assert not holds(group, feldman_equations(group, secret + 1, 5, commitments))

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
            proof = nizk.prove_ballot(group, pk, ballot, blinding, exponent,
                                      allowed, CTX, rng)
            assert holds(group, ballot_equations(group, pk, ballot, allowed, proof, CTX))

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
        assert not holds(group, ballot_equations(group, pk2, ballot, allowed, proof, CTX))

    def test_challenge_sum_tampering_fails(self, group, rng):
        allowed = [1, 32, 64]
        pk, ballot, blinding = self._ballot(group, rng, allowed, 32)
        proof = nizk.prove_ballot(group, pk, ballot, blinding, 32, allowed, CTX, rng)
        br = proof[0]
        tampered = (nizk.BallotBranch(br.commitment_1, br.commitment_2,
                                      (br.challenge + 1) % group.order, br.response),
                    *proof[1:])
        assert not holds(group, ballot_equations(group, pk, ballot, allowed, tampered, CTX))

    def test_context_binding(self, group, rng):
        allowed = [1, 32]
        pk, ballot, blinding = self._ballot(group, rng, allowed, 1)
        proof = nizk.prove_ballot(group, pk, ballot, blinding, 1, allowed, CTX, rng)
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
        got = nizk.prove_ballot(curve, pk, ballot, blinding, vote, allowed, CTX,
                                random.Random(seed))
        assert len(got) == len(want)
        for mine, ref in zip(got, want):
            assert mine == ref, vote
        with groups.fixed_base(curve, pk):
            assert nizk.prove_ballot(curve, pk, ballot, blinding, vote, allowed, CTX,
                                     random.Random(seed)) == want


def tampered_proofs(group, proof):
    """Copies of a representation proof with one part changed."""
    q = group.order
    return [
        nizk.RepresentationProof(bump(group, proof.commitment_1), proof.commitment_2,
                                 proof.response_k, proof.response_r),
        nizk.RepresentationProof(proof.commitment_1, bump(group, proof.commitment_2),
                                 proof.response_k, proof.response_r),
        nizk.RepresentationProof(proof.commitment_1, proof.commitment_2,
                                 (proof.response_k + 1) % q, proof.response_r),
        nizk.RepresentationProof(proof.commitment_1, proof.commitment_2,
                                 proof.response_k, (proof.response_r + 1) % q),
    ]


@pytest.mark.parametrize("group", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
def test_deal_with_one_tampered_proof_rejected(group):
    """All proofs of a deal are checked together; a single bad one, at any
    position and in any part, rejects the deal."""
    rng = random.Random(11)
    _, guardians, _, _, cts, (commitments, proofs) = make_deal(group, rng, t=2, k=3)
    assert nizk.verify_deal(group, 2, guardians, cts, commitments, proofs, CTX)
    for position, proof in enumerate(proofs):
        for bad in tampered_proofs(group, proof):
            tampered = proofs[:position] + (bad,) + proofs[position + 1:]
            assert not nizk.verify_deal(group, 2, guardians, cts, commitments, tampered,
                                        CTX), position


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
    _, guardians, keypairs, _, cts, (commitments, _) = make_deal(group, rng, k=4)
    claims = []
    for (j, pk), kp, ct in zip(guardians, keypairs, cts):
        share, proof = nizk.prove_share_decryption(group, kp.sk, pk, ct, CTX, rng)
        claims.append((pk, ct, share, proof, j, commitments))
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
    wrong = pke.pke_encrypt(group, pk, (share + 1) % group.order,
                            pke.sample_enc_randomness(group, rng))
    share, proof = nizk.prove_share_decryption(group, keypairs[2].sk, pk, wrong, CTX, rng)
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
        proof = nizk.prove_ballot(group, global_pk, ballot, blinding, exponent, allowed,
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
        dleqs.append((g, out1, base2, out2, nizk.prove_dleq(group, w, g, out1, base2, out2,
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
    proof = nizk.prove_dleq(group, w, b1, o1, b2, o2, CTX, rng)
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
    proof = nizk.prove_ballot(group, global_pk, ballot, blinding, 32, allowed, CTX, rng)
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
        proof = nizk.prove_dleq(group, w, b1, o1, b2, o2, CTX, rng)
        shifted = nizk.DleqProof(proof.commitment_1, proof.commitment_2, proof.response + q)
        assert not holds(group, dleq_equations(group, b1, o1, b2, o2, shifted, CTX))

    def test_share_decryption_share_plus_q(self, group, rng):
        kp = pke.pke_keygen(group, rng)
        ct = pke.pke_encrypt(group, kp.pk, 5, pke.sample_enc_randomness(group, rng))
        share, proof = nizk.prove_share_decryption(group, kp.sk, kp.pk, ct, CTX, rng)
        assert not holds(group, share_decryption_equations(group, kp.pk, ct, share + group.order,
                                                           proof, CTX))

    def test_representation_response_plus_q(self, group, rng):
        _, guardians, _, _, cts, (commitments, proofs) = make_deal(group, rng)
        proof = proofs[0]
        shifted = nizk.RepresentationProof(proof.commitment_1, proof.commitment_2,
                                           proof.response_k + group.order, proof.response_r)
        assert not nizk.verify_deal(group, 2, guardians, cts, commitments,
                                    (shifted,) + proofs[1:], CTX)

    def test_deal_delta_plus_q(self, group, rng):
        _, guardians, _, _, cts, deal = make_deal(group, rng)
        cts = list(cts)
        cts[0] = pke.PkeCiphertext(cts[0].c1, cts[0].c2, cts[0].delta + group.order)
        assert not nizk.verify_deal(group, 2, guardians, cts, *deal, CTX)

    def test_ballot_challenge_and_response_plus_q(self, group, rng):
        q = group.order
        allowed = [1, 32]
        global_pk = group.base_exp(rng.randrange(1, q))
        blinding = rng.randrange(q)
        ballot = (group.base_exp(blinding),
                  group.mul(group.exp(global_pk, blinding), group.base_exp(32)))
        proof = nizk.prove_ballot(group, global_pk, ballot, blinding, 32, allowed, CTX, rng)
        assert holds(group, ballot_equations(group, global_pk, ballot, allowed, proof, CTX))
        br = proof[0]
        for shifted in (nizk.BallotBranch(br.commitment_1, br.commitment_2,
                                          br.challenge + q, br.response),
                        nizk.BallotBranch(br.commitment_1, br.commitment_2,
                                          br.challenge, br.response + q)):
            bad = (shifted,) + proof[1:]
            assert not holds(group, ballot_equations(group, global_pk, ballot, allowed, bad, CTX))
