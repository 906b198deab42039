"""Hashed ElGamal (DHIES-style) encryption used to deliver shares to guardians.

One encryption carries a scalar m_j to each recipient key pk_j under one
random exponent kappa for all:
    C1 = G^kappa,  K_j = pk_j^kappa,  c_j = m_j + pad(K_j) mod q
where `pad` is sha256 over a domain tag and K_j's canonical encoding,
reduced mod q (Abdalla, Bellare and Rogaway, CT-RSA 2001).  Recipient j
recovers m_j = c_j - pad(C1^sk_j); a single recipient is the one-key case.
Sharing kappa is sound (Kurosawa, PKC 2002; Bellare, Boldyreva and
Staddon, PKC 2003): hashed ElGamal passes the latter's reproducibility
test, as any key pair (pk', sk') gives pk'^kappa = C1^sk' and so the
ciphertext of any m' to pk', so it is as secure as independent
encryptions.  Integrity is enforced by proofs, not by the ciphertext.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

_PAD_TAG = b"fdkg/v1/pke-pad"


@dataclass(frozen=True)
class PkeKeyPair:
    sk: int
    pk: object  # group element, pk = G^sk


@dataclass(frozen=True)
class PkeCiphertext:  # what one recipient decrypts
    c1: object  # shared by all recipients of one encryption
    c: int


def pke_keygen(group, rng) -> PkeKeyPair:
    sk = rng.randrange(1, group.order)
    return PkeKeyPair(sk, group.base_exp(sk))


def pad(group, key) -> int:
    """sha256 over the domain tag and the shared key's canonical encoding,
    reduced mod q."""
    digest = hashlib.sha256(_PAD_TAG + group.encode(key)).digest()
    return int.from_bytes(digest, "big") % group.order


def encryption_products(group, keys, kappa: int) -> list:
    """The products of one encryption's points, in the order `pke_encrypt`
    reads them: C1 = G^kappa, then K_j = pk_j^kappa for each key.  A prover
    computes them in one `groups.multi_exps` call with its own; zero
    randomness is mathematically valid but insecure, so never draw it."""
    return [[(group.generator(), kappa)]] + [[(pk, kappa)] for pk in keys]


def pke_encrypt(group, messages, points) -> tuple:
    """(C1, c_j = messages[j] + pad(K_j) for each j), from the points of
    `encryption_products(group, keys, kappa)`."""
    q = group.order
    return points[0], tuple((m + pad(group, key)) % q for m, key in zip(messages, points[1:]))


def pke_decrypt(group, sk: int, ct: PkeCiphertext) -> int:
    return (ct.c - pad(group, group.exp(ct.c1, sk))) % group.order
