"""Fiat-Shamir sigma-protocol proofs.

Relations covered: DLEQ (partial decryptions, share-decryption link),
ciphertext well-formedness (per-share representation proofs inside a
deal), Feldman coefficient commitments with the check of a revealed share
against them, and the disjunctive ballot proof.  A revealed partial
secret needs no proof: it is checked against its partial pk in the clear.

Each relation has one verifier-side builder, `*_equations`, that writes
its verification equations as prod base^exponent = identity, each a list
of (base, exponent) pairs, or returns None for a claim rejected before any
group operation: a non-canonical scalar (responses, challenges, ciphertext
deltas and claimed shares must lie in [0, q)), a wrong branch count or a
master-challenge mismatch.  `holds` is the one check of such equations,
and `protocol.judge_claims` the one judge built on it; `verify_deal`
checks a whole deal.

Challenges are sha256, reduced mod q, over a domain tag, the
caller-supplied context bytes and the length-prefixed parts of the
statement and commitments: a group element as its canonical
`group.encode`, a bytes part (such as a scalar's `group.scalar_bytes`) as
given.  An element is never reduced mod q, which on the toy modp group
would let x and x + q share a challenge.  Identical inputs (including
nonces) therefore yield byte-identical proofs.

`holds` checks its equations with `groups.multi_exp`.  When q > 2^128
(secp256k1) it makes one multi_exp of their small-exponent random linear
combination (Bellare, Garay and Rabin, EUROCRYPT 1998): equation i is
raised to a weight w_i, w_1 = 1 and the others drawn from [1, 2^128 - 1]
by shake_256 over a domain tag, the context and every exponent of the
batch.  The exponents hold each proof's challenge and response, and each
challenge binds its statement and commitments, so the weights are fixed
only once the whole batch is, and a replay reaches the same verdict.  A
batch with a false equation then passes with probability at most
1/(2^128 - 1) per weight draw.  A failed batch names no culprit.  On a
smaller group such weights would leave only about 1/q (about 2^-10 on the
toy modp-2027 group), so there every equation is checked on its own,
exactly; its multi_exp is a fold of `exp` and `mul` there anyway, which a
combination would not shorten.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .groups import multi_exp
from .pke import PkeCiphertext
from .shamir import Polynomial


def _challenge(group, relation: str, context: bytes, *parts) -> int:
    h = hashlib.sha256()
    tag = b"fdkg/v1/" + relation.encode()
    h.update(len(tag).to_bytes(2, "big") + tag)
    h.update(len(context).to_bytes(4, "big") + context)
    for part in parts:
        data = part if isinstance(part, bytes) else group.encode(part)
        h.update(len(data).to_bytes(4, "big") + data)
    return int.from_bytes(h.digest(), "big") % group.order


_WEIGHT_BITS = 128


def holds(group, context: bytes, claims) -> bool:
    """True iff every equation of every claim holds, where `claims` is an
    iterable of equation lists as the `*_equations` builders return them;
    False at the first None among them.  One multi_exp over the weighted
    combination when q > 2^128, else one per equation (see the module
    docstring)."""
    equations = []
    for claim in claims:
        if claim is None:
            return False
        equations += claim
    q = group.order
    if len(equations) > 1 and q.bit_length() > _WEIGHT_BITS:
        h = hashlib.shake_256()
        tag = b"fdkg/v1/batch-weights"
        h.update(len(tag).to_bytes(2, "big") + tag)
        h.update(len(context).to_bytes(4, "big") + context)
        for equation in equations:
            for _, e in equation:
                h.update(group.scalar_bytes(e))
        size = _WEIGHT_BITS // 8
        stream = h.digest(size * (len(equations) - 1))
        weights = [1] + [1 + int.from_bytes(stream[i:i + size], "big") % ((1 << _WEIGHT_BITS) - 1)
                         for i in range(0, len(stream), size)]
        equations = [[(base, w * e) for w, equation in zip(weights, equations)
                      for base, e in equation]]
    identity = group.identity()
    return all(multi_exp(group, equation) == identity for equation in equations)


def _canonical(group, *scalars) -> bool:
    q = group.order
    return all(0 <= s < q for s in scalars)


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


def dleq_equations(group, base1, out1, base2, out2, proof: DleqProof, context: bytes):
    """The two equations of a DLEQ proof, or None for a non-canonical one."""
    if not _canonical(group, proof.response):
        return None
    e = _challenge(group, "dleq", context, base1, out1, base2, out2,
                   proof.commitment_1, proof.commitment_2)
    return [[(base1, proof.response), (proof.commitment_1, -1), (out1, -e)],
            [(base2, proof.response), (proof.commitment_2, -1), (out2, -e)]]


@dataclass(frozen=True)
class ShareDecryptionProof:
    """Publicly checkable decryption of one share ciphertext.

    `mask` is the recovered point M; the embedded DLEQ ties C2/M to C1 under
    the decryptor's key, and chi(M) - delta must equal the claimed share.
    """

    mask: object
    dleq: DleqProof


def prove_share_decryption(group, sk: int, pk, ct: PkeCiphertext, context: bytes, rng):
    out2 = group.exp(ct.c1, sk)
    mask = group.div(ct.c2, out2)  # the pke_decrypt mask, so C2/mask = C1^sk
    share = (group.chi(mask) - ct.delta) % group.order
    dleq = prove_dleq(group, sk, group.generator(), pk, ct.c1, out2, context, rng)
    return share, ShareDecryptionProof(mask, dleq)


def share_decryption_equations(group, pk, ct: PkeCiphertext, share: int,
                               proof: ShareDecryptionProof, context: bytes):
    """The DLEQ equations of a share's decryption proof, or None for a
    non-canonical share or delta or a mask that does not give the share."""
    if not _canonical(group, share, ct.delta):
        return None
    if (group.chi(proof.mask) - ct.delta) % group.order != share:
        return None
    out2 = group.div(ct.c2, proof.mask)
    return dleq_equations(group, group.generator(), pk, ct.c1, out2, proof.dleq, context)


@dataclass(frozen=True)
class RepresentationProof:
    """Knowledge of (k, r) with C1 = G^k and C2 = pk^k * G^r.

    Binds a share ciphertext to the recipient key; it does not tie the
    plaintext to the dealer's polynomial: that is the Feldman check of the
    revealed share (`feldman_equations`).
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
    t2 = multi_exp(group, [(pk, a), (group.generator(), b)])
    e = _challenge(group, "enc-rep", context, pk, ct.c1, ct.c2, group.scalar_bytes(ct.delta),
                   t1, t2)
    return RepresentationProof(t1, t2, (a + e * k) % group.order, (b + e * r) % group.order)


def representation_equations(group, pk, ct: PkeCiphertext, proof: RepresentationProof,
                             context: bytes):
    if not _canonical(group, proof.response_k, proof.response_r, ct.delta):
        return None
    e = _challenge(group, "enc-rep", context, pk, ct.c1, ct.c2, group.scalar_bytes(ct.delta),
                   proof.commitment_1, proof.commitment_2)
    g = group.generator()
    return [[(g, proof.response_k), (proof.commitment_1, -1), (ct.c1, -e)],
            [(pk, proof.response_k), (g, proof.response_r), (proof.commitment_2, -1),
             (ct.c2, -e)]]


def commit_polynomial(group, poly: Polynomial) -> tuple:
    """A_l = G^{a_l} for every polynomial coefficient; A_0 is the partial pk."""
    return tuple(group.base_exp(c) for c in poly.coefficients)


def feldman_equations(group, share: int, index: int, commitments):
    """The one equation G^share = prod_l A_l^{index^l} of a revealed share."""
    equation = []
    power = 1
    for a_l in commitments:
        equation.append((a_l, power))
        power = power * index % group.order
    equation.append((group.generator(), -share))
    return [equation]


def _deal_context(group, context, commitments, guardians, ciphertexts) -> bytes:
    # bind every sub-proof to the full deal statement
    h = hashlib.sha256()
    h.update(context)
    for a_l in commitments:
        h.update(group.encode(a_l))
    for (idx, pk), ct in zip(guardians, ciphertexts):
        h.update(idx.to_bytes(4, "big"))
        h.update(group.encode(pk))
        h.update(ct.to_bytes(group))
    return h.digest()


def prove_deal(group, polynomial: Polynomial, guardians, enc_randomness,
               ciphertexts, context: bytes, rng) -> tuple:
    """(Feldman commitments, one RepresentationProof per ciphertext);
    guardians: list of (party index, pke pk), aligned with the other lists."""
    commitments = commit_polynomial(group, polynomial)
    ctx = _deal_context(group, context, commitments, guardians, ciphertexts)
    proofs = tuple(
        prove_representation(group, rand.k, rand.r, pk, ct, ctx, rng)
        for (idx, pk), rand, ct in zip(guardians, enc_randomness, ciphertexts)
    )
    return commitments, proofs


def verify_deal(group, t: int, guardians, ciphertexts, commitments, proofs,
                context: bytes) -> bool:
    if len(commitments) != t:
        return False
    if len(proofs) != len(ciphertexts) or len(guardians) != len(ciphertexts):
        return False
    ctx = _deal_context(group, context, commitments, guardians, ciphertexts)
    return holds(group, ctx, (
        representation_equations(group, pk, ct, proof, ctx)
        for (_, pk), ct, proof in zip(guardians, ciphertexts, proofs)))


@dataclass(frozen=True)
class BallotBranch:
    commitment_1: object
    commitment_2: object
    challenge: int
    response: int


class BallotProverError(Exception):
    """Vote exponent not in the allowed set."""


def _ballot_terms(group, pk, ballot, exponent: int, challenge: int, response: int):
    """The two term lists of the ballot branch for `exponent`: their
    products are the branch's commitments T1 = G^z A^-e and
    T2 = pk^z (B / G^exponent)^-e."""
    a_elem, b_elem = ballot
    g = group.generator()
    return ([(g, response), (a_elem, -challenge)],
            [(pk, response), (b_elem, -challenge), (g, exponent * challenge)])


def prove_ballot(group, global_pk, ballot, blinding: int, vote_exponent: int,
                 allowed, context: bytes, rng) -> tuple:
    """The BallotBranches of an OR-composition over the allowed vote
    exponents: the real branch is hidden among simulated ones and the
    branch challenges sum to the master challenge.  From the witness (r, m),
    a simulated branch's T1 = G^z A^-e and T2 = pk^z (B / G^m_i)^-e are
    G^(z - r e) and pk^(z - r e) G^((m_i - m) e): terms on G and pk only."""
    allowed = list(allowed)
    try:
        real = allowed.index(vote_exponent)
    except ValueError:
        raise BallotProverError("vote exponent not in allowed set") from None
    q = group.order
    w = rng.randrange(q)
    # a simulated branch picks its challenge and response first; the real
    # branch commits at challenge 0 with response w
    scalars = [(0, w) if i == real else (rng.randrange(q), rng.randrange(q))
               for i in range(len(allowed))]
    g = group.generator()
    commitments = [(group.base_exp(d),
                    multi_exp(group, [(global_pk, d), (g, (exponent - vote_exponent) * e)]))
                   for exponent, (e, z) in zip(allowed, scalars)
                   for d in [(z - blinding * e) % q]]
    master = _challenge(group, "ballot", context, global_pk, *ballot,
                        *(t for pair in commitments for t in pair))
    e_real = (master - sum(e for e, _ in scalars)) % q
    scalars[real] = (e_real, (w + e_real * blinding) % q)
    return tuple(BallotBranch(t1, t2, e, z) for (t1, t2), (e, z) in zip(commitments, scalars))


def ballot_equations(group, global_pk, ballot, allowed, branches, context: bytes):
    """The two equations of each ballot branch, or None for a wrong branch
    count, a non-canonical scalar or a master-challenge mismatch."""
    allowed = list(allowed)
    if len(branches) != len(allowed):
        return None
    if not _canonical(group, *(s for br in branches for s in (br.challenge, br.response))):
        return None
    master = _challenge(group, "ballot", context, global_pk, *ballot,
                        *(t for br in branches for t in (br.commitment_1, br.commitment_2)))
    if sum(br.challenge for br in branches) % group.order != master:
        return None
    equations = []
    for br, exponent in zip(branches, allowed):
        terms_1, terms_2 = _ballot_terms(group, global_pk, ballot, exponent,
                                         br.challenge, br.response)
        equations += [terms_1 + [(br.commitment_1, -1)], terms_2 + [(br.commitment_2, -1)]]
    return equations
