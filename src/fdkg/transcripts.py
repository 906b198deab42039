"""Stable line-delimited transcript serialization.

One JSON object per board entry, group elements hex-encoded in their
canonical form, keys sorted.  Replaying an imported transcript through
round-1 processing and offline reconstruction reproduces the original
result byte for byte.
"""

from __future__ import annotations

import json

from . import nizk, pke, protocol, voting
from .board import BroadcastBoard


class TranscriptError(Exception):
    pass


def _e(group, elem) -> str:
    return group.encode(elem).hex()


def _d(group, text: str):
    return group.decode(bytes.fromhex(text))


def _ciphertext_out(group, ct: pke.PkeCiphertext) -> dict:
    return {"c1": _e(group, ct.c1), "c2": _e(group, ct.c2), "delta": ct.delta}


def _ciphertext_in(group, obj) -> pke.PkeCiphertext:
    return pke.PkeCiphertext(_d(group, obj["c1"]), _d(group, obj["c2"]), obj["delta"])


def _dl_proof_out(group, p: nizk.DlProof) -> dict:
    return {"commitment": _e(group, p.commitment), "response": p.response}


def _dl_proof_in(group, obj) -> nizk.DlProof:
    return nizk.DlProof(_d(group, obj["commitment"]), obj["response"])


def _dleq_out(group, p: nizk.DleqProof) -> dict:
    return {"c1": _e(group, p.commitment_1), "c2": _e(group, p.commitment_2),
            "response": p.response}


def _dleq_in(group, obj) -> nizk.DleqProof:
    return nizk.DleqProof(_d(group, obj["c1"]), _d(group, obj["c2"]), obj["response"])


def _sdp_out(group, p: nizk.ShareDecryptionProof) -> dict:
    return {"mask": _e(group, p.mask), "dleq": _dleq_out(group, p.dleq)}


def _sdp_in(group, obj) -> nizk.ShareDecryptionProof:
    return nizk.ShareDecryptionProof(_d(group, obj["mask"]), _dleq_in(group, obj["dleq"]))


def _rep_out(group, p: nizk.RepresentationProof) -> dict:
    return {"t1": _e(group, p.commitment_1), "t2": _e(group, p.commitment_2),
            "zk": p.response_k, "zr": p.response_r}


def _rep_in(group, obj) -> nizk.RepresentationProof:
    return nizk.RepresentationProof(_d(group, obj["t1"]), _d(group, obj["t2"]),
                                    obj["zk"], obj["zr"])


def message_to_dict(group, message) -> dict:
    if isinstance(message, protocol.DealMessage):
        indices = sorted(message.guardians.members)
        return {
            "kind": "deal",
            "dealer": message.dealer,
            "partial_pk": _e(group, message.partial_pk),
            "guardians": indices,
            "ciphertexts": {str(j): _ciphertext_out(group, message.ciphertexts[j])
                            for j in indices},
            "commitments": [_e(group, a) for a in message.proofs.commitments.commitments],
            "enc_proofs": [_rep_out(group, p) for p in message.proofs.encryption_proofs],
        }
    if isinstance(message, protocol.SecretReveal):
        return {"kind": "secret", "sender": message.sender, "value": message.value,
                "proof": _dl_proof_out(group, message.proof)}
    if isinstance(message, (protocol.ShareReveal, protocol.ComplaintReveal)):
        kind = "complaint" if isinstance(message, protocol.ComplaintReveal) else "share"
        return {"kind": kind, "sender": message.sender, "dealer": message.dealer,
                "value": message.value, "proof": _sdp_out(group, message.proof)}
    if isinstance(message, voting.Ballot):
        return {
            "kind": "ballot", "voter": message.voter,
            "a": _e(group, message.a), "b": _e(group, message.b),
            "branches": [
                {"t1": _e(group, br.commitment_1), "t2": _e(group, br.commitment_2),
                 "challenge": br.challenge, "response": br.response}
                for br in message.proof.branches
            ],
        }
    if isinstance(message, voting.PartialDecryption):
        return {"kind": "pdecrypt", "dealer": message.dealer,
                "value": _e(group, message.value),
                "proof": _dleq_out(group, message.proof)}
    raise TranscriptError(f"unsupported message type {type(message).__name__}")


def message_from_dict(group, obj):
    kind = obj.get("kind")
    if kind == "deal":
        indices = list(obj["guardians"])
        dealer = obj["dealer"]
        guardians = protocol.GuardianSet(dealer, frozenset(indices))
        bundle = nizk.DealProofBundle(
            nizk.FeldmanCommitments(tuple(_d(group, a) for a in obj["commitments"])),
            tuple(_rep_in(group, p) for p in obj["enc_proofs"]),
        )
        return protocol.DealMessage(
            dealer, _d(group, obj["partial_pk"]), guardians,
            {j: _ciphertext_in(group, obj["ciphertexts"][str(j)]) for j in indices},
            bundle)
    if kind == "secret":
        return protocol.SecretReveal(obj["sender"], obj["value"],
                                     _dl_proof_in(group, obj["proof"]))
    if kind in ("share", "complaint"):
        cls = protocol.ComplaintReveal if kind == "complaint" else protocol.ShareReveal
        return cls(obj["sender"], obj["dealer"], obj["value"],
                   _sdp_in(group, obj["proof"]))
    if kind == "ballot":
        proof = nizk.BallotProof(tuple(
            nizk.BallotBranch(_d(group, br["t1"]), _d(group, br["t2"]),
                              br["challenge"], br["response"])
            for br in obj["branches"]))
        return voting.Ballot(obj["voter"], _d(group, obj["a"]), _d(group, obj["b"]), proof)
    if kind == "pdecrypt":
        return voting.PartialDecryption(obj["dealer"], _d(group, obj["value"]),
                                        _dleq_in(group, obj["proof"]))
    raise TranscriptError(f"unsupported message kind {kind!r}")


def export_lines(board: BroadcastBoard, group) -> list:
    lines = []
    for entry in board.entries():
        record = {"sender": entry.sender, "round": entry.round,
                  "message": message_to_dict(group, entry.message)}
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return lines


def import_lines(lines, group) -> BroadcastBoard:
    board = BroadcastBoard()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        board.append(record["sender"], record["round"],
                     message_from_dict(group, record["message"]))
    return board


def save(board: BroadcastBoard, group, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(export_lines(board, group)) + "\n")


def load(path, group) -> BroadcastBoard:
    with open(path) as fh:
        return import_lines(fh, group)
