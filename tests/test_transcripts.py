import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdkg import protocol, transcripts, voting
from fdkg.board import (ABSENT_ROUND2, MALFORM_DEAL, REVEAL_CONTEXT,
                        WITHHOLD_SHARES, Behavior, BroadcastBoard, run_ceremony)
from fdkg.election import run_election
from fdkg.groups import SECP256K1, TEST_GROUP
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


def every_kind_entries(group) -> dict:
    """kind -> (line, message) of the first message of that kind, over a
    faulty ceremony and an election."""
    _, ceremony = ceremony_with_faults(group)
    election = run_election(Params(6, 2, 3), {i: Behavior() for i in range(1, 7)},
                            {1: 1, 2: 2}, 2, group, seed=56)
    board = BroadcastBoard()
    for e in ceremony.board.entries() + election.board.entries():
        board.append(e.sender, e.round, e.message)
    out = {}
    for entry, line in zip(board.entries(), transcripts.export_lines(board, group)):
        out.setdefault(json.loads(line)["message"]["kind"], (line, entry.message))
    return out


@pytest.fixture(scope="module")
def every_kind():
    return every_kind_entries(TEST_GROUP)


@pytest.fixture(scope="module")
def lines(every_kind):
    return {kind: line for kind, (line, _) in every_kind.items()}


KINDS = [kind for kind, *_ in transcripts.MESSAGES.values()]


def _canonical(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _edited(line, edit) -> str:
    record = json.loads(line)
    edit(record)
    return _canonical(record)


def test_every_layout_type_reachable_from_a_message():
    """LAYOUT lays out no type that no board message holds."""
    reached, todo = set(), list(transcripts.MESSAGES)
    while todo:
        cls = todo.pop()
        if cls not in reached:
            reached.add(cls)
            for _, codec, _ in transcripts.LAYOUT[cls]:
                item = codec[1] if isinstance(codec, tuple) else codec
                if isinstance(item, type):
                    todo.append(item)
    assert reached == set(transcripts.LAYOUT)


def _message_keys(cls) -> list:
    """The JSON keys a `cls` writes at its own level."""
    return [key for _, _, key in transcripts.LAYOUT[cls]]


@pytest.mark.parametrize("cls", list(transcripts.MESSAGES), ids=lambda cls: cls.__name__)
def test_no_key_written_twice(cls):
    keys = ["kind"] + _message_keys(cls)
    assert len(keys) == len(set(keys)), keys


@pytest.mark.parametrize("cls", list(transcripts.LAYOUT), ids=lambda cls: cls.__name__)
def test_layout_names_every_field(cls):
    """A wire type cannot gain a field that the codec drops."""
    assert [attr for attr, _, _ in transcripts.LAYOUT[cls]] == \
        [f.name for f in dataclasses.fields(cls)]


class TestEveryKind:
    @pytest.mark.parametrize("kind", KINDS)
    def test_roundtrip(self, every_kind, kind):
        line, message = every_kind[kind]
        board = transcripts.import_lines([line], TEST_GROUP)
        (entry,) = board.entries()
        assert entry.message == message
        assert transcripts.export_lines(board, TEST_GROUP) == [line]

    @pytest.mark.parametrize("kind", KINDS)
    def test_sender_must_be_author(self, lines, kind):
        def edit(record):
            record["sender"] += 1
        with pytest.raises(transcripts.TranscriptError, match="author"):
            transcripts.import_lines([_edited(lines[kind], edit)], TEST_GROUP)

    @pytest.mark.parametrize("kind", KINDS)
    def test_round_must_match_kind(self, lines, kind):
        """A deal sits in round 1, a secret or a ballot in round 2, a partial
        decryption in round 3 and a share in round 2 or 3; a line moved to
        any other round, such as a deal relabelled round 7, is rejected."""
        allowed = {"deal": {1}, "secret": {2}, "ballot": {2}, "pdecrypt": {3},
                   "share": {2, 3}}[kind]
        for round_no in range(0, 8):
            line = _edited(lines[kind], lambda record: record.update(round=round_no))
            if round_no in allowed:
                assert len(transcripts.import_lines([line], TEST_GROUP)) == 1
            else:
                with pytest.raises(transcripts.TranscriptError, match="round"):
                    transcripts.import_lines([line], TEST_GROUP)


class TestStrictImport:
    """Malformed lines raise TranscriptError and nothing else, and every
    value has exactly one accepted encoding."""

    def _rejects(self, line):
        with pytest.raises(transcripts.TranscriptError):
            transcripts.import_lines([line], TEST_GROUP)

    @pytest.mark.parametrize("value", ["7", True, 7.0])
    def test_scalar_must_be_an_int(self, lines, value):
        def edit(record):
            record["message"]["value"] = value
        self._rejects(_edited(lines["share"], edit))

    def test_complaint_kind_rejected(self, lines):
        # guardians post every share as a share; the complaint kind is gone
        def edit(record):
            record["message"]["kind"] = "complaint"
        self._rejects(_edited(lines["share"], edit))

    def test_not_json(self):
        self._rejects("{")

    def test_not_an_object(self):
        self._rejects("[1,2]")

    def test_deep_nesting(self):
        self._rejects("[" * 100000 + "]" * 100000)

    def test_missing_key(self, lines):
        def edit(record):
            del record["message"]["value"]
        self._rejects(_edited(lines["secret"], edit))

    @pytest.mark.parametrize("kind,key", [("deal", "partial_pk"), ("deal", "guardians"),
                                          ("secret", "proof")])
    def test_dropped_field_rejected(self, lines, kind, key):
        """A deal's partial pk and guardian set are its A_0 and its
        ciphertext keys, and a secret is checked without a proof: none of
        the three is a key of its line."""
        deal = json.loads(lines["deal"])["message"]
        value = {"partial_pk": deal["commitments"][0],
                 "guardians": sorted(int(j) for j in deal["ciphertexts"]),
                 "proof": {"commitment": deal["commitments"][0], "response": 1}}[key]

        def edit(record):
            record["message"][key] = value
        self._rejects(_edited(lines[kind], edit))

    def test_upper_case_hex(self, lines):
        hex_value = re.compile(r'(?<=:")[0-9a-f]*[a-f][0-9a-f]*(?=")')
        line = lines["deal"]
        value = hex_value.search(line)
        assert value is not None
        self._rejects(line[:value.start()] + value.group().upper() + line[value.end():])

    def test_extra_whitespace(self, lines):
        line = lines["secret"]
        assert '"kind":"secret"' in line
        self._rejects(line.replace('"kind":"secret"', '"kind": "secret"'))

    def test_extra_key(self, lines):
        def edit(record):
            record["message"]["note"] = 1
        self._rejects(_edited(lines["pdecrypt"], edit))

    def test_bad_element(self, lines):
        def edit(record):
            record["message"]["value"] = "zz"
        self._rejects(_edited(lines["pdecrypt"], edit))


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

OTHER_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=4),
    st.lists(st.integers(0, 9), max_size=2), st.just({}),
    st.integers(-2 ** 70, 2 ** 70), st.integers(-2, 9),
    st.binary(max_size=3).map(bytes.hex))


def _leaves(obj, path=()):
    """Paths to every non-container value of a decoded JSON record."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def election_with_absent_dealer(group):
    """n=6, t=2, k=3 election of three voters in which dealer 2 is absent
    from the tally, so its guardians' share reveals stand in for it."""
    params = Params(6, 2, 3)
    behaviors = {i: Behavior() for i in range(1, 7)}
    behaviors[2] = Behavior(ABSENT_ROUND2)
    return params, run_election(params, behaviors, {1: 1, 2: 2, 4: 1}, 2, group, seed=56)


def replay_ceremony(board, params, result, group):
    public = protocol.process_round1(
        [e.message for e in board.entries(1)], params, result.public_state.pki, group)
    protocol.offline_reconstruct(public, [e.message for e in board.entries(2)],
                                 params, group, REVEAL_CONTEXT)


def replay_election(board, params, result, group):
    """The audit of an election transcript: round 1, the ballots, and the
    tally unless no ballot is accepted."""
    public = protocol.process_round1(
        [e.message for e in board.entries(1)], params, result.public_state.pki, group)
    aggregate, accepted = voting.aggregate_ballots(
        group, result.encoding, public.global_pk, [e.message for e in board.entries(2)])
    if aggregate is None:
        return
    round3 = [e.message for e in board.entries(3)]
    values = voting.collect_decryption_values(
        group, public, aggregate.c1,
        [m for m in round3 if isinstance(m, voting.PartialDecryption)],
        [m for m in round3 if not isinstance(m, voting.PartialDecryption)],
        voting.TALLY_CONTEXT, params.t)
    voting.tally_finalize(group, aggregate, values, len(accepted), result.encoding)


MUTATED_TRANSCRIPTS = {
    name: (params, result, transcripts.export_lines(result.board, TEST_GROUP), replay)
    for name, make, replay in (("ceremony", ceremony_with_faults, replay_ceremony),
                               ("election", election_with_absent_dealer, replay_election))
    for params, result in [make(TEST_GROUP)]}


# a well-typed replacement: an int leaf's is an int in [0, q), an element
# leaf's (a hex string) the encoding of another element
WELL_TYPED_VALUES = {
    int: st.integers(0, TEST_GROUP.order - 1),
    str: st.integers(0, TEST_GROUP.order - 1).map(
        lambda x: TEST_GROUP.encode(TEST_GROUP.base_exp(x)).hex())}


class TestMutationProperty:
    """One JSON leaf of one line of a modp transcript, of a ceremony or of an
    election, replaced by a value of another type, another int or a hex
    string: either the import raises TranscriptError, or it re-exports
    exactly the mutated lines and the replay raises nothing but a
    VotingError (a tally that cannot be completed).  Replaced by a
    well-typed value, any leaf but the line's sender and round and the
    message's kind and author imports, so the mutation reaches the judges."""

    @pytest.mark.parametrize("name", sorted(MUTATED_TRANSCRIPTS))
    @PROPERTY
    @given(data=st.data())
    def test_mutated_leaf(self, name, data):
        self.check(name, data, well_typed=False)

    @pytest.mark.parametrize("name", sorted(MUTATED_TRANSCRIPTS))
    @PROPERTY
    @given(data=st.data())
    def test_well_typed_leaf(self, name, data):
        self.check(name, data, well_typed=True)

    @staticmethod
    def check(name, data, well_typed):
        params, result, lines, replay = MUTATED_TRANSCRIPTS[name]
        lines = list(lines)
        index = data.draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[index])
        leaves = list(_leaves(record))
        if well_typed:
            kind = record["message"]["kind"]
            author = next(a for k, a, _ in transcripts.MESSAGES.values() if k == kind)
            fixed = {("sender",), ("round",), ("message", "kind"), ("message", author)}
            leaves = [path for path in leaves if path not in fixed]
        *parents, leaf = data.draw(st.sampled_from(leaves))
        target = record
        for key in parents:
            target = target[key]
        values = WELL_TYPED_VALUES[type(target[leaf])] if well_typed else OTHER_VALUES
        target[leaf] = data.draw(values)
        lines[index] = _canonical(record)
        try:
            board = transcripts.import_lines(lines, TEST_GROUP)
        except transcripts.TranscriptError:
            assert not well_typed
            return
        assert transcripts.export_lines(board, TEST_GROUP) == lines
        try:
            replay(board, params, result, TEST_GROUP)
        except voting.VotingError:
            pass


def test_share_in_election_round_2_is_no_ballot():
    """A share may sit in round 2, the reveal round of a ceremony; in an
    election's round 2 the ballot judge drops it unjudged."""
    params, result, lines, replay = MUTATED_TRANSCRIPTS["election"]
    moved = []
    for line in lines:
        record = json.loads(line)
        if record["message"]["kind"] == "share":
            record["round"] = 2
        moved.append(_canonical(record))
    board = transcripts.import_lines(moved, TEST_GROUP)
    assert any(isinstance(e.message, protocol.ShareReveal) for e in board.entries(2))
    _, accepted = voting.aggregate_ballots(TEST_GROUP, result.encoding,
                                           result.public_state.global_pk,
                                           [e.message for e in board.entries(2)])
    assert accepted == result.accepted_voters
    with pytest.raises(voting.TallyFailure):  # dealer 2's shares left round 3
        replay(board, params, result, TEST_GROUP)


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
    contract that any change to the curve arithmetic must keep.  Re-taken
    when a deal came to carry one C1 and one proof for all its guardians:
    its line shrank, and each share reveal's decryption proof is over the
    new C1."""

    def test_ceremony_transcript_bytes(self):
        params = Params(5, 2, 3)
        behaviors = {i: Behavior() for i in range(1, 6)}
        behaviors[2] = Behavior(ABSENT_ROUND2)
        result = run_ceremony(params, behaviors, SECP256K1, seed=2025)
        assert result.outcome.success
        lines = transcripts.export_lines(result.board, SECP256K1)
        assert (len(lines), sum(map(len, lines))) == (21, 13568)
        assert _lines_digest(lines) == \
            "61df7a1d20b33dddf2cafe7163b96694eb7fd027431092e12dfca61bfea6a80d"

    def test_election_transcript_bytes(self):
        params = Params(4, 2, 2)
        behaviors = {i: Behavior() for i in range(1, 5)}
        result = run_election(params, behaviors, {1: 1, 2: 2, 3: 2}, 2,
                              SECP256K1, seed=2026)
        assert result.success and result.tally.counts == (1, 2)
        lines = transcripts.export_lines(result.board, SECP256K1)
        assert _lines_digest(lines) == \
            "d3e852682cefb864146a8940babde837e16bedf9e6e6be356fd6f05fc1242312"

    # n=6, t=2, k=3: party 1 absent in round 2, party 2 withholding its
    # share of dealer 1, party 4 dealing a malformed ciphertext
    FAULT_PARAMS = Params(6, 2, 3)
    FAULT_SETS = {i: frozenset((i + d - 1) % 6 + 1 for d in (1, 2, 4))
                  for i in range(1, 7)}
    FAULT_BEHAVIORS = {1: Behavior(ABSENT_ROUND2),
                       2: Behavior(WITHHOLD_SHARES, frozenset({1})),
                       3: Behavior(), 4: Behavior(MALFORM_DEAL),
                       5: Behavior(), 6: Behavior()}

    def test_ceremony_fault_paths_bytes(self):
        result = run_ceremony(self.FAULT_PARAMS, self.FAULT_BEHAVIORS, SECP256K1,
                              seed=2027, guardian_sets=self.FAULT_SETS)
        assert result.public_state.participants == (1, 2, 3, 5, 6)
        assert result.outcome.recovered[1] == ("shares", (3, 5))
        lines = transcripts.export_lines(result.board, SECP256K1)
        assert (len(lines), sum(map(len, lines))) == (21, 14504)
        assert _lines_digest(lines) == \
            "6ecdc1b7f04e93e5ce200bf04d3f4993e6e6cbcb8413a4d9a84e70f6db3a69c2"

    def test_election_fault_paths_bytes(self):
        votes = {1: 1, 2: 3, 3: 2, 4: 1, 5: 3, 6: 1, 7: 2}
        result = run_election(self.FAULT_PARAMS, self.FAULT_BEHAVIORS, votes, 3,
                              SECP256K1, seed=2027, n_bound=7,
                              guardian_sets=self.FAULT_SETS)
        assert result.success and result.tally.counts == (3, 2, 2)
        assert result.public_state.participants == (1, 2, 3, 5, 6)
        lines = transcripts.export_lines(result.board, SECP256K1)
        assert (len(lines), sum(map(len, lines))) == (28, 23913)
        assert _lines_digest(lines) == \
            "9e75f5117e21c1fdf3f3a72e5c03afebecd13be97a8a47bc47f93e218ecbfd16"


def wire_size(group, codec, value) -> int:
    """The bytes of `value` as laid out by `transcripts.LAYOUT`: an element
    at its `group.encode` width and an int at the group's scalar width;
    a dict's keys are not counted."""
    if codec is transcripts.ELEM:
        return len(group.encode(value))
    if codec is transcripts.INT:
        return len(group.scalar_bytes(value))
    if isinstance(codec, tuple):
        shape, item = codec
        items = value if shape is transcripts.LIST else value.values()
        return sum(wire_size(group, item, v) for v in items)
    return sum(wire_size(group, sub, getattr(value, attr))
               for attr, sub, _ in transcripts.LAYOUT[codec])


@pytest.mark.parametrize("group", [TEST_GROUP, SECP256K1], ids=lambda g: g.name)
@pytest.mark.parametrize("k,t", [(3, 2), (4, 2)])
def test_deal_wire_size(group, k, t):
    """An honest deal's elements and scalars, its author's index left out:
    C1, T1 and z; t commitments; and per guardian C2_j, delta_j, T2_j and
    z_j.  On secp256k1 that is 98 + 33t + 130k bytes."""
    params = Params(k + 1, t, k)
    result = run_ceremony(params, {i: Behavior() for i in range(1, k + 2)}, group, seed=k)
    deal = result.board.entries(1)[0].message
    author = transcripts.MESSAGES[protocol.DealMessage][1]
    size = sum(wire_size(group, codec, getattr(deal, attr))
               for attr, codec, _ in transcripts.LAYOUT[protocol.DealMessage] if attr != author)
    elem, scalar = len(group.encode(group.generator())), len(group.scalar_bytes(0))
    assert size == (2 * elem + scalar) + elem * t + 2 * (elem + scalar) * k
    if group is SECP256K1:
        assert size == 98 + 33 * t + 130 * k
