import hashlib

import pytest

from fdkg import protocol, transcripts, voting
from fdkg.board import (ABSENT_ROUND2, MALFORM_DEAL, REVEAL_CONTEXT, Behavior,
                        run_ceremony)
from fdkg.election import run_election
from fdkg.groups import SECP256K1
from fdkg.protocol import Params


def ceremony_with_faults(group):
    params = Params(8, 2, 3)
    behaviors = {i: Behavior() for i in range(1, 9)}
    behaviors[3] = Behavior(ABSENT_ROUND2)
    behaviors[6] = Behavior(MALFORM_DEAL)
    return params, run_ceremony(params, behaviors, group, seed=55)


class TestRoundtrip:
    def test_ceremony_board_roundtrips(self, group):
        params, result = ceremony_with_faults(group)
        lines = transcripts.export_lines(result.board, group)
        board = transcripts.import_lines(lines, group)
        assert transcripts.export_lines(board, group) == lines
        assert len(board) == len(result.board)

    def test_replay_reproduces_outcome(self, group):
        params, result = ceremony_with_faults(group)
        lines = transcripts.export_lines(result.board, group)
        board = transcripts.import_lines(lines, group)
        pub_keys = result.public_state.pki
        public = protocol.process_round1(
            [e.message for e in board.entries(1)], params, pub_keys, group)
        assert public.participants == result.public_state.participants
        assert public.global_pk == result.public_state.global_pk
        outcome = protocol.offline_reconstruct(
            public, [e.message for e in board.entries(2)], params, group,
            REVEAL_CONTEXT)
        assert outcome == result.outcome

    def test_election_board_roundtrips(self, group):
        params = Params(6, 2, 3)
        behaviors = {i: Behavior() for i in range(1, 7)}
        result = run_election(params, behaviors, {1: 1, 2: 2, 4: 1}, 2,
                              group, seed=56)
        assert result.success
        lines = transcripts.export_lines(result.board, group)
        board = transcripts.import_lines(lines, group)
        assert transcripts.export_lines(board, group) == lines
        kinds = {type(e.message).__name__ for e in board.entries()}
        assert {"DealMessage", "Ballot", "PartialDecryption"} <= kinds

    def test_save_and_load(self, group, tmp_path):
        params, result = ceremony_with_faults(group)
        path = tmp_path / "transcript.jsonl"
        transcripts.save(result.board, group, path)
        board = transcripts.load(path, group)
        assert transcripts.export_lines(board, group) == \
            transcripts.export_lines(result.board, group)

    def test_blank_lines_ignored(self, group):
        params, result = ceremony_with_faults(group)
        lines = transcripts.export_lines(result.board, group)
        padded = [lines[0], "", "   "] + lines[1:]
        board = transcripts.import_lines(padded, group)
        assert len(board) == len(lines)


class TestErrors:
    def test_unknown_message_type(self, group):
        with pytest.raises(transcripts.TranscriptError):
            transcripts.message_to_dict(group, object())

    def test_unknown_kind(self, group):
        with pytest.raises(transcripts.TranscriptError):
            transcripts.message_from_dict(group, {"kind": "smoke-signal"})


def test_lines_are_stable_across_runs(group):
    params = Params(6, 2, 3)
    behaviors = {i: Behavior() for i in range(1, 7)}
    a = run_ceremony(params, behaviors, group, seed=57)
    b = run_ceremony(params, behaviors, group, seed=57)
    assert transcripts.export_lines(a.board, group) == \
        transcripts.export_lines(b.board, group)


def _lines_digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestSecp256k1Pins:
    """Fixed-seed transcript bytes on the production curve: the behaviour
    contract that any change to the curve arithmetic must keep."""

    def test_ceremony_transcript_bytes(self):
        params = Params(5, 2, 3)
        behaviors = {i: Behavior() for i in range(1, 6)}
        behaviors[2] = Behavior(ABSENT_ROUND2)
        result = run_ceremony(params, behaviors, SECP256K1, seed=2025)
        assert result.outcome.success
        lines = transcripts.export_lines(result.board, SECP256K1)
        assert (len(lines), sum(map(len, lines))) == (21, 17253)
        assert _lines_digest(lines) == \
            "4f8945d9d28b24406356bb8cb72e61adace1529952b6fa9d975affc0fe4aa1cb"

    def test_election_transcript_bytes(self):
        params = Params(4, 2, 2)
        behaviors = {i: Behavior() for i in range(1, 5)}
        result = run_election(params, behaviors, {1: 1, 2: 2, 3: 2}, 2,
                              SECP256K1, seed=2026)
        assert result.success and result.tally.counts == (1, 2)
        lines = transcripts.export_lines(result.board, SECP256K1)
        assert _lines_digest(lines) == \
            "dab90499971edab64a6e1d48d4526f7c90311bc721fe45246a6cb57ac4896b84"
