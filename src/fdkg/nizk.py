"""Fiat-Shamir sigma-protocol proofs.

Relations covered: DLEQ (partial decryptions, share-decryption link),
knowledge of the one encryption exponent of a deal's shares, Feldman
coefficient commitments with the check of a revealed share against them,
and the disjunctive ballot proof.  A revealed partial secret needs no
proof: it is the dealer's share at index 0, so its check is the Feldman
equation there, G^d = A_0, judged in a batch with the shares.

Each relation has one verifier-side builder, `*_equations`, that writes
its verification equations as prod base^exponent = identity, each a list
of (base, exponent) pairs, or returns None for a claim rejected before any
group operation: a non-canonical scalar (responses, challenges, share
ciphertexts and claimed shares must lie in [0, q)), a wrong branch count or a
master-challenge mismatch.  `holds_each` is the one check of such
equations, one verdict per (context, claims) batch, and `holds` its
one-batch case; `protocol.judge_claims` and `protocol.judge_deals` judge
messages with them.  `nizk` has no verifier of its own.

Each prover computes the points it outputs, its statement's and its
commitments', in one `groups.multi_exps` call, and draws its nonces before
that call, in the order it uses them; a guardian's share decryptions
(`prove_share_decryption`) are one prover, and a deal's encryption,
commitments and proof (`prove_deal`) are another.

Challenges are sha256, reduced mod q, over a domain tag, the
caller-supplied context bytes and the length-prefixed parts of the
statement and commitments: a group element as its canonical
`group.encode`, a bytes part (such as a scalar's `group.scalar_bytes`) as
given.  An element is never reduced mod q, which on the toy modp group
would let x and x + q share a challenge.  Identical inputs (including
nonces) therefore yield byte-identical proofs.

`holds_each` checks every batch in one `groups.multi_exps` call, each
batch in products of its own, so a round's deal checks are one kernel
call and a false equation fails only its batch.  When q > 2^128
(secp256k1) a batch is one product, its equations' small-exponent
random linear combination (Bellare, Garay and Rabin, EUROCRYPT 1998): equation i is
raised to a weight w_i, w_1 = 1 and the others drawn from [1, 2^128 - 1]
by shake_256 over a domain tag, the context and every exponent of the
batch.  The exponents hold each proof's challenge and response, and each
challenge binds its statement and commitments, so the weights are fixed
only once the whole batch is, and a replay reaches the same verdict.  A
batch with a false equation then passes with probability at most
1/(2^128 - 1) per weight draw.  A failed batch names no culprit.  On a
smaller group such weights would leave only about 1/q (about 2^-10 on the
toy modp-2027 group), so there every equation is a product of its own,
checked exactly; on modp a product is a fold of `pow` anyway, which a
combination would not shorten.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .groups import multi_exps
from .pke import PkeCiphertext, encryption_products, pad, pke_encrypt


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


def holds_each(group, batches) -> list:
    """For each (context, claims) batch, True iff every equation of its
    claims holds, where `claims` is a list of equation lists as the
    `*_equations` builders return them, and False if one of them is None.
    One `multi_exps` call for all the batches, each batch in products of
    its own (`_products`), so a false equation fails only its batch."""
    products, spans = [], []  # spans: per batch, its products' range or None
    for context, claims in batches:
        if None in claims:
            spans.append(None)
            continue
        equations = _products(group, context, [equation for claim in claims
                                               for equation in claim])
        spans.append((len(products), len(products) + len(equations)))
        products += equations
    identity = group.identity()
    ok = [point == identity for point in multi_exps(group, products)] if products else []
    return [span is not None and all(ok[span[0]:span[1]]) for span in spans]


def _products(group, context: bytes, equations) -> list:
    """The products whose being the identity checks `equations` under
    `context`: their weighted combination when q > 2^128, else each
    equation (see the module docstring)."""
    if len(equations) < 2 or group.order.bit_length() <= _WEIGHT_BITS:
        return equations
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
    return [[(base, w * e) for w, equation in zip(weights, equations) for base, e in equation]]


def holds(group, context: bytes, claims) -> bool:
    """`holds_each` of the one batch (context, claims)."""
    return holds_each(group, [(context, claims)])[0]


def _canonical(group, *scalars) -> bool:
    q = group.order
    return all(0 <= s < q for s in scalars)


@dataclass(frozen=True)
class DleqProof:
    commitment_1: object
    commitment_2: object
    response: int


def prove_dleqs(group, witness: int, base1, out1, bases2, context: bytes, rng) -> list:
    """(out2, proof) for each base2 of `bases2`: out2 = base2^witness and a
    DleqProof that log_base1 out1 = log_base2 out2, one nonce w drawn per
    base, in order, and T1 = base1^w, T2 = base2^w."""
    q = group.order
    nonces = [rng.randrange(q) for _ in bases2]
    points = iter(multi_exps(group, [product for base2, w in zip(bases2, nonces) for product in
                                     ([(base2, witness)], [(base1, w)], [(base2, w)])]))
    first = group.encode(base1), group.encode(out1)  # hashed as the elements are
    out = []
    for base2, w, out2, t1, t2 in zip(bases2, nonces, points, points, points):
        e = _challenge(group, "dleq", context, *first, base2, out2, t1, t2)
        out.append((out2, DleqProof(t1, t2, (w + e * witness) % q)))
    return out


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

    `key` is C1^sk, the pad's key; the embedded DLEQ ties it to the
    decryptor's pk, and c - pad(key) must equal the claimed share.
    """

    key: object
    dleq: DleqProof


def prove_share_decryption(group, sk: int, pk, cts, context: bytes, rng) -> list:
    """(share, ShareDecryptionProof) of each PkeCiphertext in `cts` under the
    key pair (sk, pk), all proved by one `prove_dleqs`."""
    q = group.order
    return [((ct.c - pad(group, key)) % q, ShareDecryptionProof(key, dleq))
            for ct, (key, dleq) in zip(cts, prove_dleqs(group, sk, group.generator(), pk,
                                                        [ct.c1 for ct in cts], context, rng))]


def share_decryption_equations(group, pk, ct: PkeCiphertext, share: int,
                               proof: ShareDecryptionProof, context: bytes):
    """The DLEQ equations of a share's decryption proof, or None for a
    non-canonical share or ciphertext or a key that does not give the share."""
    if not _canonical(group, share, ct.c):
        return None
    if (ct.c - pad(group, proof.key)) % group.order != share:
        return None
    return dleq_equations(group, group.generator(), pk, ct.c1, proof.key, proof.dleq, context)


@dataclass(frozen=True)
class DealProof:
    """Knowledge of kappa with C1 = G^kappa: T1 = G^a and, for the one
    challenge e over the deal's context, C1, each (pk_j, c_j) and T1,
    z = a + e kappa.  A dealer that copies another deal's C1 knows no kappa
    for it, and that deal's proof fails under another context.  Knowing
    kappa gives every pad key pk_j^kappa, so no per-guardian proof would
    bind more; nothing binds a plaintext to the dealer's polynomial: that
    is the Feldman check of the revealed share."""

    commitment_1: object  # T1
    response: int  # z


def _deal_challenge(group, context: bytes, keys, c1, parts, t1) -> int:
    return _challenge(group, "deal", context, c1, *(x for pk, c in zip(keys, parts) for x in (
        pk, group.scalar_bytes(c))), t1)


def deal_context(group, dealer: int, commitments, indices) -> bytes:
    """sha256 over the dealer, its commitments and its guardians' indices:
    the context under which the deal proof's challenge binds the rest."""
    h = hashlib.sha256(b"deal:" + dealer.to_bytes(4, "big"))
    for a_l in commitments:
        h.update(group.encode(a_l))
    h.update(b"".join(j.to_bytes(4, "big") for j in indices))
    return h.digest()


def prove_deal(group, dealer: int, indices, keys, messages, coefficients, rng) -> tuple:
    """(C1, parts, commitments, DealProof) of a dealer's deal to the
    guardians `indices` with keys `keys`: one `pke` encryption of
    messages[j] to keys[j] under kappa drawn first (never 0), the Feldman
    commitments A_l = G^{a_l} to `coefficients` (A_0 is the partial pk),
    and the proof under `deal_context`, whose nonce is drawn next."""
    q, g = group.order, group.generator()
    kappa = rng.randrange(1, q)
    a = rng.randrange(q)
    encryption = encryption_products(group, keys, kappa)
    points = multi_exps(group, encryption + [[(g, c)] for c in coefficients] + [[(g, a)]])
    c1, parts = pke_encrypt(group, messages, points[:len(encryption)])
    commitments, t1 = tuple(points[len(encryption):-1]), points[-1]
    context = deal_context(group, dealer, commitments, indices)
    e = _deal_challenge(group, context, keys, c1, parts, t1)
    return c1, parts, commitments, DealProof(t1, (a + e * kappa) % q)


def deal_equations(group, keys, c1, parts, proof: DealProof, context: bytes):
    """The one equation G^z = T1 C1^e of a deal's proof, or None for one
    without a ciphertext per key or with a non-canonical response or
    ciphertext."""
    if not (len(keys) == len(parts) and _canonical(group, proof.response, *parts)):
        return None
    e = _deal_challenge(group, context, keys, c1, parts, proof.commitment_1)
    return [[(group.generator(), proof.response), (proof.commitment_1, -1), (c1, -e)]]


def feldman_equations(group, share: int, index: int, commitments):
    """The one equation G^share = prod_l A_l^{index^l} of a revealed share;
    at index 0 it is G^share = A_0, that of a revealed partial secret."""
    equation = []
    power = 1
    for a_l in commitments:
        equation.append((a_l, power))
        power = power * index % group.order
    equation.append((group.generator(), -share))
    return [equation]


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


def prove_ballot(group, global_pk, blinding: int, vote_exponent: int,
                 allowed, context: bytes, rng) -> tuple:
    """((A, B), branches): the ballot A = G^r, B = pk^r G^m of the vote
    exponent m under blinding r, and the BallotBranches of an
    OR-composition over the allowed vote exponents: the real branch is
    hidden among simulated ones and the branch challenges sum to the master
    challenge.  From the witness (r, m), a simulated branch's T1 = G^z A^-e
    and T2 = pk^z (B / G^m_i)^-e are G^(z - r e) and pk^(z - r e)
    G^((m_i - m) e): terms on G and pk only."""
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
    a, b, *commitments = multi_exps(group, [
        [(g, blinding)], [(global_pk, blinding), (g, vote_exponent)],
        *(product for exponent, (e, z) in zip(allowed, scalars) for d in [(z - blinding * e) % q]
          for product in ([(g, d)], [(global_pk, d), (g, (exponent - vote_exponent) * e)]))])
    master = _challenge(group, "ballot", context, global_pk, a, b, *commitments)
    e_real = (master - sum(e for e, _ in scalars)) % q
    scalars[real] = (e_real, (w + e_real * blinding) % q)
    return (a, b), tuple(BallotBranch(t1, t2, e, z) for t1, t2, (e, z) in
                         zip(commitments[::2], commitments[1::2], scalars))


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
