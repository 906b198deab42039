"""Operator command line: ceremonies, liveness sweeps, elections and cost
estimates.

Parameters come from flags plus an optional INI-style config file; flags
override file values and every run echoes its fully resolved configuration
for auditability.
"""

from __future__ import annotations

import argparse
import configparser
import sys

from . import costmodel, simulate, transcripts
from .board import Behavior, HONEST, dealer_guardian_sets, run_ceremony
from .election import run_election
from .groups import GROUPS
from .protocol import Params, ProtocolError
from .voting import VotingError, derive_encoding


class ConfigFileError(Exception):
    """The --config file cannot be read or parsed."""


def _load_section(path, section) -> dict:
    if not path:
        return {}
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigFileError(f"cannot read config {path}: {exc}") from None
    if not parser.has_section(section):
        return {}
    return dict(parser.items(section))


def _resolve(args, config: dict, key: str, default=None, cast=str):
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        return cast(config[key])
    return default


def _echo_config(name: str, resolved: dict) -> None:
    print(f"[{name}] resolved config:")
    for key in sorted(resolved):
        print(f"  {key} = {resolved[key]}")


def _int_list(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _float_list(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _party_section(path, section: str, n: int, parse) -> dict:
    """A `party = value` section, e.g. [behaviors] `5 = withhold-shares:1,9`
    or [guardians] `1 = 2,3,5`; every party must lie in 1..n."""
    out = {}
    for key, value in _load_section(path, section).items():
        party = int(key)
        if not 1 <= party <= n:
            raise ValueError(f"[{section}] party {party} outside 1..{n}")
        out[party] = parse(value)
    return out


def _behavior(text: str) -> Behavior:
    kind, _, targets = text.partition(":")
    return Behavior(kind.strip(), frozenset(_int_list(targets)))


def _resolve_run(args, cfg: dict) -> tuple:
    """(params, seed, group, behaviors, guardian sets or None) of a ceremony or
    an election; ValueError or ProtocolError on input the run would reject."""
    n, t, k = (_resolve(args, cfg, key, cast=int) for key in ("n", "t", "k"))
    if None in (n, t, k):
        raise ValueError("n, t and k are required")
    params = Params(n, t, k)
    name = _resolve(args, cfg, "group", "secp256k1")
    if name not in GROUPS:
        raise ValueError(f"unknown group {name!r}, expected one of {sorted(GROUPS)}")
    behaviors = {i: Behavior(HONEST) for i in range(1, n + 1)}  # unlisted: honest
    behaviors.update(_party_section(args.config, "behaviors", n, _behavior))
    guardians = _party_section(args.config, "guardians", n,
                               lambda text: frozenset(_int_list(text))) or None
    if guardians:
        dealer_guardian_sets(params, behaviors, guardians)
    seed = _resolve(args, cfg, "seed", 0, int)
    if not -2 ** 127 <= seed < 2 ** 127:  # child_rng packs it into 16 signed bytes
        raise ValueError(f"seed {seed} outside [-2**127, 2**127)")
    return params, seed, GROUPS[name], behaviors, guardians


def cmd_ceremony(args) -> int:
    cfg = _load_section(args.config, "ceremony")
    try:
        params, seed, group, behaviors, guardians = _resolve_run(args, cfg)
    except (ValueError, ProtocolError) as exc:
        print(f"ceremony: {exc}", file=sys.stderr)
        return 2
    _echo_config("ceremony", {**vars(params), "seed": seed, "group": group.name})
    result = run_ceremony(params, behaviors, group, seed, guardian_sets=guardians)
    if args.out:
        transcripts.save(result.board, group, args.out)
        print(f"transcript written to {args.out}")
    print(f"participants: {list(result.public_state.participants)}")
    outcome = result.outcome
    if outcome.excluded:
        print(f"excluded by complaint: {list(outcome.excluded)}")
    for dealer, how in sorted(outcome.recovered.items()):
        if how[0] == "direct":
            print(f"dealer {dealer}: recovered directly")
        else:
            print(f"dealer {dealer}: recovered via guardians {list(how[1])}")
    if outcome.success:
        print("reconstruction: success")
        return 0
    print(f"reconstruction: FAILED, unrecoverable dealers {list(outcome.failed)}")
    return 1


def cmd_simulate(args) -> int:
    cfg = _load_section(args.config, "simulate")
    try:
        config = simulate.SweepConfig(
            n_values=_int_list(_resolve(args, cfg, "n", "100")),
            p_values=_float_list(_resolve(args, cfg, "p", "1.0")),
            r_values=_float_list(_resolve(args, cfg, "r", "1.0")),
            k_values=_int_list(_resolve(args, cfg, "k", "3")),
            t_values=_int_list(_resolve(args, cfg, "t", "") or ""),
            t_ratios=_float_list(_resolve(args, cfg, "t-ratio", "") or ""),
            trials=_resolve(args, cfg, "trials", 100, int),
            topology=_resolve(args, cfg, "topology", simulate.TOPOLOGY_ER),
            seed=_resolve(args, cfg, "seed", 0, int),
        )
    except (simulate.SweepConfigError, ValueError) as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 2
    _echo_config("simulate", {
        "n": config.n_values, "p": config.p_values, "r": config.r_values,
        "k": config.k_values, "t": config.t_values or config.t_ratios,
        "trials": config.trials, "topology": config.topology, "seed": config.seed})
    rates = simulate.run_sweep(config)
    if args.out:
        with open(args.out, "w") as fh:
            simulate.write_csv(rates, fh)
        print(f"csv written to {args.out}")
    else:
        simulate.write_csv(rates, sys.stdout)
    return 0


def cmd_election(args) -> int:
    cfg = _load_section(args.config, "election")
    try:
        params, seed, group, behaviors, guardians = _resolve_run(args, cfg)
        candidates = _resolve(args, cfg, "candidates", 2, int)
        votes_text = _resolve(args, cfg, "votes")
        if votes_text is None:
            raise ValueError("votes are required")
        votes = {i + 1: c for i, c in enumerate(_int_list(votes_text))}
        encoding = derive_encoding(max(params.n, len(votes)), candidates, group.order)
        for candidate in votes.values():
            encoding.exponent_for(candidate)
    except (ValueError, ProtocolError, VotingError) as exc:
        print(f"election: {exc}", file=sys.stderr)
        return 2
    _echo_config("election", {**vars(params), "candidates": candidates,
                              "votes": len(votes), "seed": seed, "group": group.name})
    result = run_election(params, behaviors, votes, candidates, group, seed,
                          guardian_sets=guardians)
    if args.out:
        transcripts.save(result.board, group, args.out)
        print(f"transcript written to {args.out}")
    print(f"valid ballots: {len(result.accepted_voters)}")
    if not result.success:
        print(f"tally: FAILED, unrecoverable dealers {list(result.failed_dealers)}")
        return 1
    print("candidate  votes")
    for idx, count in enumerate(result.tally.counts, start=1):
        print(f"{idx:>9}  {count}")
    print(f"total      {result.tally.total}")
    for idx, count in enumerate(result.tally.counts, start=1):
        print(f"result,{idx},{count}")
    return 0


COST_FLAGS = ("n", "dealers", "k", "voters", "direct-revealers", "shares-revealed")


def cmd_cost(args) -> int:
    cfg = _load_section(args.config, "cost")
    try:
        resolved = {key: _resolve(args, cfg, key, 0, int) for key in COST_FLAGS}
        spec = costmodel.ScenarioSpec(**{k.replace("-", "_"): v for k, v in resolved.items()})
    except ValueError as exc:
        print(f"cost: {exc}", file=sys.stderr)
        return 2
    _echo_config("cost", {key: resolved[key] for key in COST_FLAGS[1:]})
    breakdown = costmodel.estimate(spec)
    print(f"fdkg-distribution {breakdown.fdkg_bytes}")
    print(f"voting            {breakdown.voting_bytes}")
    print(f"tally-secrets     {breakdown.tally_secret_bytes}")
    print(f"tally-shares      {breakdown.tally_share_bytes}")
    print(f"total             {breakdown.total_bytes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdkg",
        description="federated key-generation ceremonies, liveness sweeps, "
                    "elections and communication-cost estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output path")

    def run(p):  # the flags of a ceremony and of an election
        for key in ("n", "t", "k"):
            p.add_argument(f"--{key}", type=int)
        p.add_argument("--group", choices=sorted(GROUPS))

    p = sub.add_parser("ceremony", help="run a two-round key-generation ceremony")
    common(p)
    run(p)
    p.set_defaults(func=cmd_ceremony)

    p = sub.add_parser("simulate", help="Monte-Carlo liveness sweep to CSV")
    common(p)
    for key in ("n", "p", "r", "k", "t", "t-ratio"):  # comma lists
        p.add_argument(f"--{key}")
    p.add_argument("--trials", type=int)
    p.add_argument("--topology", choices=[simulate.TOPOLOGY_ER, simulate.TOPOLOGY_BA])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("election", help="full election pipeline")
    common(p)
    run(p)
    p.add_argument("--candidates", type=int)
    p.add_argument("--votes", help="comma list, candidate per voter")
    p.set_defaults(func=cmd_election)

    p = sub.add_parser("cost", help="broadcast-size estimate")
    common(p)
    for key in COST_FLAGS:
        p.add_argument(f"--{key}", type=int)
    p.set_defaults(func=cmd_cost)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigFileError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
