"""ElGamal-variant encryption used to deliver shares to guardians.

One encryption carries a scalar m_j to each recipient key pk_j, with one
random exponent kappa for all and a fresh random point M_j each:
    C1 = G^kappa,  M_j = G^r_j,  C2_j = pk_j^kappa * M_j,  delta_j = chi(M_j) - m_j
Recipient j recomputes M_j = C2_j * (C1^sk_j)^-1 exactly, so the two-to-one
behaviour of chi on curves never causes ambiguity; a single recipient is
the one-key case.  Sharing kappa is sound (Kurosawa, PKC 2002; Bellare,
Boldyreva and Staddon, PKC 2003): ElGamal passes the latter's
reproducibility test, as any key pair (pk', sk') gives pk'^kappa = C1^sk',
so it is as secure as independent encryptions.  M_j stays fresh: a shared
M would publish m_j - m_i = delta_i - delta_j.  Integrity is enforced by
proofs, not by the ciphertext itself.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PkeKeyPair:
    sk: int
    pk: object  # group element, pk = G^sk


@dataclass(frozen=True)
class CiphertextPart:  # one recipient's (C2_j, delta_j)
    c2: object
    delta: int


@dataclass(frozen=True)
class PkeCiphertext:  # what one recipient decrypts
    c1: object  # shared by all recipients of one encryption
    c2: object
    delta: int


def pke_keygen(group, rng) -> PkeKeyPair:
    sk = rng.randrange(1, group.order)
    return PkeKeyPair(sk, group.base_exp(sk))


def encryption_products(group, keys, kappa: int, masks) -> list:
    """The products of one encryption's points, in the order `pke_encrypt`
    reads them: C1 = G^kappa, pk_j^kappa for each key, then M_j = G^r_j for
    each mask r_j.  A prover computes them in one `groups.multi_exps` call
    with its own; zero randomness is mathematically valid but insecure, so
    never draw it."""
    g = group.generator()
    return [[(g, kappa)]] + [[(pk, kappa)] for pk in keys] + [[(g, r)] for r in masks]


def pke_encrypt(group, messages, points) -> tuple:
    """(C1, the CiphertextPart of messages[j] to keys[j] for each j), from
    the points of `encryption_products(group, keys, kappa, masks)`."""
    q, k = group.order, len(messages)
    return points[0], tuple([CiphertextPart(group.mul(shared, mask), (group.chi(mask) - m) % q)
                             for m, shared, mask in zip(messages, points[1:], points[k + 1:])])


def pke_decrypt(group, sk: int, ct: PkeCiphertext) -> int:
    mask = group.div(ct.c2, group.exp(ct.c1, sk))
    return (group.chi(mask) - ct.delta) % group.order
