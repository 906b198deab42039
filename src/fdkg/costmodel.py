"""Broadcast-size accounting with fixed published constants.

Uses 64-byte group elements and 256-byte proofs throughout so the headline
numbers reproduce exactly, independent of the sigma backend's real sizes.
A second mode reports measured transcript bytes from actual ceremonies.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import transcripts

GROUP_ELEMENT_BYTES = 64
SCALAR_BYTES = 32
PROOF_BYTES = 256
CIPHERTEXT_BYTES = 2 * GROUP_ELEMENT_BYTES + SCALAR_BYTES  # 160

BALLOT_BASE_BYTES = 2 * GROUP_ELEMENT_BYTES  # 128
PDECRYPT_BASE_BYTES = GROUP_ELEMENT_BYTES  # 64
PDECRYPT_SHARE_BASE_BYTES = GROUP_ELEMENT_BYTES  # 64 per share


class UnknownMessageKindError(Exception):
    pass


def deal_message_bytes(k: int) -> int:
    """Partial pk + k encrypted shares + proof: 64 + 160k + 256."""
    return GROUP_ELEMENT_BYTES + k * CIPHERTEXT_BYTES + PROOF_BYTES


def size_table_lookup(kind: str, k: int = 0) -> int:
    if kind == "fdkg":
        return deal_message_bytes(k)
    if kind == "ballot":
        return BALLOT_BASE_BYTES + PROOF_BYTES  # 384
    if kind == "pdecrypt":
        return PDECRYPT_BASE_BYTES + PROOF_BYTES  # 320
    if kind == "pdecrypt-share":
        return PDECRYPT_SHARE_BASE_BYTES + PROOF_BYTES  # 320 per share
    raise UnknownMessageKindError(f"unknown message kind {kind!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    n: int
    dealers: int  # |D|
    k: int
    voters: int  # |V|
    direct_revealers: int  # |T intersect D|
    shares_revealed: int  # total share reveals across all talliers

    def __post_init__(self):
        values = (self.n, self.dealers, self.k, self.voters,
                  self.direct_revealers, self.shares_revealed)
        if any(v < 0 for v in values):
            raise ValueError("scenario values must be non-negative")
        if self.dealers > self.n:
            raise ValueError("|D| cannot exceed n")
        if self.direct_revealers > self.dealers:
            raise ValueError("direct revealers cannot exceed |D|")
        if self.dealers and self.k > self.n - 1:
            raise ValueError("k cannot exceed n - 1 when there are dealers")


@dataclass(frozen=True)
class CostBreakdown:
    fdkg_bytes: int
    voting_bytes: int
    tally_secret_bytes: int
    tally_share_bytes: int

    @property
    def total_bytes(self) -> int:
        return (self.fdkg_bytes + self.voting_bytes
                + self.tally_secret_bytes + self.tally_share_bytes)


def estimate(spec: ScenarioSpec) -> CostBreakdown:
    return CostBreakdown(
        fdkg_bytes=spec.dealers * deal_message_bytes(spec.k),
        voting_bytes=spec.voters * size_table_lookup("ballot"),
        tally_secret_bytes=spec.direct_revealers * size_table_lookup("pdecrypt"),
        tally_share_bytes=spec.shares_revealed * size_table_lookup("pdecrypt-share"),
    )


def measured_transcript_bytes(board, group) -> int:
    """Actual serialized size of a ceremony transcript, for comparison with
    the published constants."""
    return sum(len(line.encode()) for line in transcripts.export_lines(board, group))
