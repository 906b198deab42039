"""Per-layer metrics of the traced run, as (name, unit). BENCHMARK.json
lists the same names; the self-test checks that the two agree.

`<layer>.<function>.count` is the number of calls and `.self_s` the span
time not covered by child spans or group operations, both totals over the
workload's fixed traced work. `groups.<op>` are counted by the group proxy.
Spans are named where a function is defined. Only `simulate` calls
protocol.reconstruction_capable, through its own `from .protocol import`
binding, so that span is reported under the simulate name.
"""

from spans import GROUP_OPS, PHASES

_FUNCTIONS = (
    # (function, reported kinds)
    ("pke.pke_encrypt", ("count", "self_s")),
    ("pke.pke_decrypt", ("count", "self_s")),
    ("shamir.share_secret", ("self_s",)),
    ("shamir.reconstruct", ("count",)),
    ("shamir.lagrange_coefficients", ("count",)),
    ("shamir.reconstruct_in_exponent", ("count", "self_s")),
    ("nizk.prove_deal", ("self_s",)),
    ("nizk.prove_share_decryption", ("count", "self_s")),
    ("nizk.verify_deal", ("count", "self_s")),
    ("nizk.verify_representation", ("count",)),
    ("nizk.verify_share_decryption", ("count", "self_s")),
    ("nizk.verify_dl", ("count",)),
    ("nizk.guardian_check_share", ("count", "self_s")),
    ("nizk.prove_ballot", ("self_s",)),
    ("nizk.verify_ballot", ("count", "self_s")),
    ("nizk.verify_dleq", ("count", "self_s")),
    ("protocol.round1_deal", ("self_s",)),
    ("protocol.verify_deal_message", ("count",)),
    ("protocol.process_round1", ("self_s",)),
    ("protocol.round2_reveal_shares", ("self_s",)),
    ("protocol.offline_reconstruct", ("count", "self_s")),
    ("board.generate_pki", ("self_s",)),
    ("board.run_ceremony", ("self_s",)),
    ("transcripts.export_lines", ("self_s",)),
    ("transcripts.import_lines", ("self_s",)),
    ("voting.cast_ballot", ("self_s",)),
    ("voting.aggregate_ballots", ("self_s",)),
    ("voting.collect_decryption_values", ("self_s",)),
    ("voting.bsgs_dlog", ("self_s",)),
    ("voting.tally_finalize", ("self_s",)),
    ("election.run_election", ("self_s",)),
    ("simulate.select_guardians_er", ("self_s",)),
    ("simulate.sample_round_sets", ("self_s",)),
    ("simulate.reconstruction_capable", ("count", "self_s")),
    ("simulate.select_guardians_ba", ("self_s",)),
)

# metric prefix -> span name, where the two differ
SPAN_OF = {"simulate.reconstruction_capable": "protocol.reconstruction_capable"}

_UNIT = {"count": "count", "self_s": "s"}

PER_LAYER = (
    [(f"groups.{op}.{kind}", _UNIT[kind]) for op in GROUP_OPS for kind in ("count", "self_s")]
    + [(f"groups.{phase}.{op}.count", "count") for phase in PHASES for op in ("exp", "base_exp")]
    + [(f"{fn}.{kind}", _UNIT[kind]) for fn, kinds in _FUNCTIONS for kind in kinds]
    + [("voting.bsgs_dlog.mul_count", "count"),
       ("protocol.reverify_ratio", "ratio"),
       ("transcripts.bytes", "bytes"),
       ("trace.overhead_ratio", "ratio")]
)
