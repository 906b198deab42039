"""Stable line-delimited transcript serialization.

One JSON object per board entry, group elements hex-encoded in their
canonical form, keys sorted, laid out by the `LAYOUT` and `MESSAGES` tables
alone.  Import is strict: a line is accepted only if re-exporting its entry
gives that exact line back, only if its sender is its message's author, and
only if its round is one its kind may sit in (`MESSAGES`); anything else
raises `TranscriptError`.  Replaying an imported transcript reproduces the
original result byte for byte.
"""

from __future__ import annotations

import json

from . import nizk, protocol, voting
from .board import BroadcastBoard
from .groups import GroupError


class TranscriptError(Exception):
    pass


# codecs: a group element as hex, an int, a laid-out type, (LIST, codec) and
# (DICT, codec) for a dict keyed by ints written as strings
ELEM, INT, LIST, DICT = "elem", "int", "list", "dict"

# type -> its fields, each (attribute, codec) or (attribute, codec, JSON key);
# the key defaults to the attribute's name
LAYOUT = {cls: tuple((attr, codec, *key, attr)[:3] for attr, codec, *key in fields)
          for cls, fields in {
    nizk.DleqProof: (("commitment_1", ELEM, "c1"), ("commitment_2", ELEM, "c2"),
                     ("response", INT)),
    nizk.ShareDecryptionProof: (("key", ELEM), ("dleq", nizk.DleqProof)),
    nizk.DealProof: (("commitment_1", ELEM, "t1"), ("response", INT, "z")),
    nizk.BallotBranch: (("commitment_1", ELEM, "t1"), ("commitment_2", ELEM, "t2"),
                        ("challenge", INT), ("response", INT)),
    protocol.DealMessage: (("dealer", INT), ("c1", ELEM),
                           ("parts", (DICT, INT), "ciphertexts"),
                           ("commitments", (LIST, ELEM)), ("proof", nizk.DealProof)),
    protocol.SecretReveal: (("sender", INT), ("value", INT)),
    protocol.ShareReveal: (("sender", INT), ("dealer", INT), ("value", INT),
                           ("proof", nizk.ShareDecryptionProof)),
    voting.Ballot: (("voter", INT), ("a", ELEM), ("b", ELEM),
                    ("proof", (LIST, nizk.BallotBranch), "branches")),
    voting.PartialDecryption: (("dealer", INT), ("value", ELEM), ("proof", nizk.DleqProof)),
}.items()}

# board message type -> (wire kind, the attribute naming its author, the
# rounds it may sit in); a share sits in the reveal round of a ceremony (2)
# or of an election (3)
MESSAGES = {
    protocol.DealMessage: ("deal", "dealer", (1,)),
    protocol.SecretReveal: ("secret", "sender", (2,)),
    protocol.ShareReveal: ("share", "sender", (2, 3)),
    voting.Ballot: ("ballot", "voter", (2,)),
    voting.PartialDecryption: ("pdecrypt", "dealer", (3,)),
}


def _encode(group, codec, value):
    if codec is ELEM:
        return group.encode(value).hex()
    if codec is INT:
        return value
    if isinstance(codec, tuple):
        shape, item = codec
        if shape is LIST:
            return [_encode(group, item, v) for v in value]
        return {str(j): _encode(group, item, v) for j, v in value.items()}
    return {key: _encode(group, sub, getattr(value, attr)) for attr, sub, key in LAYOUT[codec]}


def _typed(obj, kind):
    if type(obj) is not kind:  # rejects a bool or a float as an int
        raise TranscriptError(f"expected {kind.__name__}, got {type(obj).__name__}")
    return obj


def _decode(group, codec, obj):
    if codec is ELEM:
        return group.decode(bytes.fromhex(_typed(obj, str)))
    if codec is INT:
        return _typed(obj, int)
    if isinstance(codec, tuple):
        shape, item = codec
        if shape is LIST:
            return tuple(_decode(group, item, v) for v in _typed(obj, list))
        return {int(j): _decode(group, item, v) for j, v in _typed(obj, dict).items()}
    _typed(obj, dict)
    return codec(**{attr: _decode(group, sub, obj[key]) for attr, sub, key in LAYOUT[codec]})


def message_to_dict(group, message) -> dict:
    if type(message) not in MESSAGES:
        raise TranscriptError(f"unsupported message type {type(message).__name__}")
    return {"kind": MESSAGES[type(message)][0], **_encode(group, type(message), message)}


def message_from_dict(group, obj):
    kind = _typed(obj, dict).get("kind")
    cls = next((c for c, (name, *_) in MESSAGES.items() if name == kind), None)
    if cls is None:
        raise TranscriptError(f"unsupported message kind {kind!r}")
    return _decode(group, cls, obj)


def _line(group, sender, round_no, message) -> str:
    record = {"sender": sender, "round": round_no,
              "message": message_to_dict(group, message)}
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def export_lines(board: BroadcastBoard, group) -> list:
    return [_line(group, e.sender, e.round, e.message) for e in board.entries()]


def import_lines(lines, group) -> BroadcastBoard:
    """The board of a transcript; blank lines are skipped."""
    board = BroadcastBoard()
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = _typed(json.loads(line), dict)
            sender, round_no = _typed(record["sender"], int), _typed(record["round"], int)
            message = message_from_dict(group, record["message"])
            if _line(group, sender, round_no, message) != line:
                raise TranscriptError("not the canonical encoding of its entry")
            kind, author, rounds = MESSAGES[type(message)]
            if getattr(message, author) != sender:
                raise TranscriptError(f"sender {sender} is not the author of its {kind}")
            if round_no not in rounds:
                raise TranscriptError(f"a {kind} cannot sit in round {round_no}")
        except (TranscriptError, ValueError, KeyError, GroupError, RecursionError) as exc:
            raise TranscriptError(f"line {number}: {exc!r}") from exc
        board.append(sender, round_no, message)
    return board


def save(board: BroadcastBoard, group, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(export_lines(board, group)) + "\n")


def load(path, group) -> BroadcastBoard:
    with open(path) as fh:
        return import_lines(fh, group)
