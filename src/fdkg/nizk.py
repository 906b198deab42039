"""Fiat-Shamir sigma-protocol proofs.

Relations covered: discrete log (partial-secret reveals), DLEQ
(partial decryptions, share-decryption link), ciphertext well-formedness
(per-share representation proofs inside a deal), coefficient commitments
with recipient-side share checks, and the disjunctive ballot proof.

Challenges are sha256 over a domain tag, the caller-supplied context bytes
and the length-prefixed canonical encodings of all statement/commitment
parts, reduced mod q.  Identical inputs (including nonces) therefore yield
byte-identical proofs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .pke import PkeCiphertext, pke_decrypt
from .shamir import Polynomial


def _challenge(group, relation: str, context: bytes, *parts) -> int:
    h = hashlib.sha256()
    tag = b"fdkg/v1/" + relation.encode()
    h.update(len(tag).to_bytes(2, "big") + tag)
    h.update(len(context).to_bytes(4, "big") + context)
    for part in parts:
        if isinstance(part, int):
            data = group.scalar_bytes(part)
        elif isinstance(part, bytes):
            data = part
        else:
            data = group.encode(part)
        h.update(len(data).to_bytes(4, "big") + data)
    return int.from_bytes(h.digest(), "big") % group.order


@dataclass(frozen=True)
class DlProof:
    commitment: object
    response: int


def prove_dl(group, witness: int, statement, context: bytes, rng) -> DlProof:
    w = rng.randrange(group.order)
    commitment = group.base_exp(w)
    e = _challenge(group, "dl", context, statement, commitment)
    return DlProof(commitment, (w + e * witness) % group.order)


def verify_dl(group, statement, proof: DlProof, context: bytes) -> bool:
    e = _challenge(group, "dl", context, statement, proof.commitment)
    lhs = group.base_exp(proof.response)
    rhs = group.mul(proof.commitment, group.exp(statement, e))
    return group.encode(lhs) == group.encode(rhs)


@dataclass(frozen=True)
class DleqProof:
    commitment_1: object
    commitment_2: object
    response: int


def prove_dleq(group, witness: int, base1, out1, base2, out2, context: bytes, rng) -> DleqProof:
    w = rng.randrange(group.order)
    t1 = group.exp(base1, w)
    t2 = group.exp(base2, w)
    e = _challenge(group, "dleq", context, base1, out1, base2, out2, t1, t2)
    return DleqProof(t1, t2, (w + e * witness) % group.order)


def verify_dleq(group, base1, out1, base2, out2, proof: DleqProof, context: bytes) -> bool:
    e = _challenge(group, "dleq", context, base1, out1, base2, out2,
                   proof.commitment_1, proof.commitment_2)
    ok1 = group.encode(group.exp(base1, proof.response)) == \
        group.encode(group.mul(proof.commitment_1, group.exp(out1, e)))
    ok2 = group.encode(group.exp(base2, proof.response)) == \
        group.encode(group.mul(proof.commitment_2, group.exp(out2, e)))
    return ok1 and ok2


@dataclass(frozen=True)
class ShareDecryptionProof:
    """Publicly checkable decryption of one share ciphertext.

    `mask` is the recovered point M; the embedded DLEQ ties C2/M to C1 under
    the decryptor's key, and chi(M) - delta must equal the claimed share.
    """

    mask: object
    dleq: DleqProof


def prove_share_decryption(group, sk: int, pk, ct: PkeCiphertext, context: bytes, rng):
    share = pke_decrypt(group, sk, ct)
    mask = group.div(ct.c2, group.exp(ct.c1, sk))
    out2 = group.div(ct.c2, mask)  # = C1^sk
    dleq = prove_dleq(group, sk, group.generator(), pk, ct.c1, out2, context, rng)
    return share, ShareDecryptionProof(mask, dleq)


def verify_share_decryption(group, pk, ct: PkeCiphertext, share: int,
                            proof: ShareDecryptionProof, context: bytes) -> bool:
    if (group.chi(proof.mask) - ct.delta) % group.order != share % group.order:
        return False
    out2 = group.div(ct.c2, proof.mask)
    return verify_dleq(group, group.generator(), pk, ct.c1, out2, proof.dleq, context)


@dataclass(frozen=True)
class RepresentationProof:
    """Knowledge of (k, r) with C1 = G^k and C2 = pk^k * G^r.

    Binds a share ciphertext to the recipient key; it does not tie the
    plaintext to the dealer's polynomial, which is the recipient's job via
    guardian_check_share.
    """

    commitment_1: object  # for the C1 equation
    commitment_2: object  # for the C2 equation
    response_k: int
    response_r: int


def prove_representation(group, k: int, r: int, pk, ct: PkeCiphertext,
                         context: bytes, rng) -> RepresentationProof:
    a = rng.randrange(group.order)
    b = rng.randrange(group.order)
    t1 = group.base_exp(a)
    t2 = group.mul(group.exp(pk, a), group.base_exp(b))
    e = _challenge(group, "enc-rep", context, pk, ct.c1, ct.c2, ct.delta, t1, t2)
    return RepresentationProof(t1, t2, (a + e * k) % group.order, (b + e * r) % group.order)


def verify_representation(group, pk, ct: PkeCiphertext, proof: RepresentationProof,
                          context: bytes) -> bool:
    e = _challenge(group, "enc-rep", context, pk, ct.c1, ct.c2, ct.delta,
                   proof.commitment_1, proof.commitment_2)
    ok1 = group.encode(group.base_exp(proof.response_k)) == \
        group.encode(group.mul(proof.commitment_1, group.exp(ct.c1, e)))
    lhs2 = group.mul(group.exp(pk, proof.response_k), group.base_exp(proof.response_r))
    rhs2 = group.mul(proof.commitment_2, group.exp(ct.c2, e))
    return ok1 and group.encode(lhs2) == group.encode(rhs2)


@dataclass(frozen=True)
class FeldmanCommitments:
    """A_l = G^{a_l} for every polynomial coefficient; A_0 is the partial pk."""

    commitments: tuple

    def __len__(self):
        return len(self.commitments)


def commit_polynomial(group, poly: Polynomial) -> FeldmanCommitments:
    return FeldmanCommitments(tuple(group.base_exp(c) for c in poly.coefficients))


def guardian_check_share(group, share: int, index: int,
                         commitments: FeldmanCommitments) -> bool:
    """True iff G^share = prod_l A_l^{index^l}."""
    expected = group.identity()
    power = 1
    for a_l in commitments.commitments:
        expected = group.mul(expected, group.exp(a_l, power))
        power = power * index % group.order
    return group.encode(group.base_exp(share)) == group.encode(expected)


@dataclass(frozen=True)
class DealProofBundle:
    commitments: FeldmanCommitments
    encryption_proofs: tuple  # one RepresentationProof per ciphertext, guardian order


def _deal_context(group, context, commitments, guardians, ciphertexts) -> bytes:
    # bind every sub-proof to the full deal statement
    h = hashlib.sha256()
    h.update(context)
    for a_l in commitments.commitments:
        h.update(group.encode(a_l))
    for (idx, pk), ct in zip(guardians, ciphertexts):
        h.update(idx.to_bytes(4, "big"))
        h.update(group.encode(pk))
        h.update(ct.to_bytes(group))
    return h.digest()


def prove_deal(group, polynomial: Polynomial, guardians, enc_randomness,
               ciphertexts, context: bytes, rng) -> DealProofBundle:
    """guardians: list of (party index, pke pk), aligned with the other lists."""
    commitments = commit_polynomial(group, polynomial)
    ctx = _deal_context(group, context, commitments, guardians, ciphertexts)
    proofs = tuple(
        prove_representation(group, rand.k, rand.r, pk, ct, ctx, rng)
        for (idx, pk), rand, ct in zip(guardians, enc_randomness, ciphertexts)
    )
    return DealProofBundle(commitments, proofs)


def verify_deal(group, t: int, guardians, ciphertexts, bundle: DealProofBundle,
                context: bytes) -> bool:
    if len(bundle.commitments) != t:
        return False
    if len(bundle.encryption_proofs) != len(ciphertexts) or len(guardians) != len(ciphertexts):
        return False
    ctx = _deal_context(group, context, bundle.commitments, guardians, ciphertexts)
    return all(
        verify_representation(group, pk, ct, proof, ctx)
        for (idx, pk), ct, proof in zip(guardians, ciphertexts, bundle.encryption_proofs)
    )


@dataclass(frozen=True)
class BallotBranch:
    commitment_1: object
    commitment_2: object
    challenge: int
    response: int


@dataclass(frozen=True)
class BallotProof:
    """OR-composition over the allowed vote exponents; the real branch is
    hidden among simulated ones and the branch challenges sum to the master
    challenge."""

    branches: tuple


class BallotProverError(Exception):
    """Vote exponent not in the allowed set."""


def prove_ballot(group, global_pk, ballot, blinding: int, vote_exponent: int,
                 allowed, context: bytes, rng) -> BallotProof:
    a_elem, b_elem = ballot
    allowed = list(allowed)
    try:
        real = allowed.index(vote_exponent)
    except ValueError:
        raise BallotProverError("vote exponent not in allowed set") from None
    q = group.order
    g = group.generator()
    branches = []
    w = rng.randrange(q)
    for i, exponent in enumerate(allowed):
        if i == real:
            branches.append(None)  # filled in after the master challenge
            continue
        # simulated branch: pick challenge/response first, derive commitments
        e_i = rng.randrange(q)
        z_i = rng.randrange(q)
        target = group.div(b_elem, group.base_exp(exponent))
        t1 = group.div(group.base_exp(z_i), group.exp(a_elem, e_i))
        t2 = group.div(group.exp(global_pk, z_i), group.exp(target, e_i))
        branches.append((t1, t2, e_i, z_i))
    t1_real = group.base_exp(w)
    t2_real = group.exp(global_pk, w)
    parts = [global_pk, a_elem, b_elem]
    for i in range(len(allowed)):
        if i == real:
            parts.extend([t1_real, t2_real])
        else:
            parts.extend([branches[i][0], branches[i][1]])
    master = _challenge(group, "ballot", context, *parts)
    e_real = (master - sum(br[2] for br in branches if br is not None)) % q
    z_real = (w + e_real * blinding) % q
    branches[real] = (t1_real, t2_real, e_real, z_real)
    return BallotProof(tuple(BallotBranch(*br) for br in branches))


def verify_ballot(group, global_pk, ballot, allowed, proof: BallotProof,
                  context: bytes) -> bool:
    a_elem, b_elem = ballot
    allowed = list(allowed)
    if len(proof.branches) != len(allowed):
        return False
    q = group.order
    parts = [global_pk, a_elem, b_elem]
    for br in proof.branches:
        parts.extend([br.commitment_1, br.commitment_2])
    master = _challenge(group, "ballot", context, *parts)
    if sum(br.challenge for br in proof.branches) % q != master:
        return False
    for br, exponent in zip(proof.branches, allowed):
        target = group.div(b_elem, group.base_exp(exponent))
        ok1 = group.encode(group.base_exp(br.response)) == \
            group.encode(group.mul(br.commitment_1, group.exp(a_elem, br.challenge)))
        ok2 = group.encode(group.exp(global_pk, br.response)) == \
            group.encode(group.mul(br.commitment_2, group.exp(target, br.challenge)))
        if not (ok1 and ok2):
            return False
    return True
