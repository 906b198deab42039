"""Operator command line: ceremonies, liveness sweeps, elections and cost estimates.

Each subcommand declares its settings once, as (name, cast, default, help)
rows: a row is the flag `--name` and the key `name` of the subcommand's
section in an optional INI file.  A flag overrides the file, one cast reads
both, and a None default marks a required setting.  `check(settings, config)`
only validates, raising a usage error (exit 2), as does an `--out` path that
cannot be opened for writing; then the resolved settings are echoed to
stderr for auditability, and `run(its result, out)` does the work, so
stdout carries only a command's result.
"""

from __future__ import annotations

import argparse
import configparser
import sys

from . import costmodel, simulate, transcripts
from .board import Behavior, HONEST, dealer_guardian_sets, run_ceremony
from .election import run_election, vote_encoding
from .groups import GROUPS
from .protocol import Params, ProtocolError
from .voting import VotingError


class ConfigFileError(Exception):
    """The --config file cannot be read or parsed."""


def _load_config(path) -> dict:
    """{section: {key: value}} of the config file, values taken literally."""
    if not path:
        return {}
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigFileError(f"cannot read config {path}: {exc}") from None
    return {name: dict(parser[name]) for name in parser.sections()}


def _int_list(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _float_list(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _party_section(config: dict, section: str, n: int, parse) -> dict:
    """A `party = value` section, e.g. [behaviors] `5 = withhold-shares:1,9`
    or [guardians] `1 = 2,3,5`; every party must lie in 1..n."""
    out = {}
    for key, value in config.get(section, {}).items():
        party = int(key)
        if not 1 <= party <= n:
            raise ValueError(f"[{section}] party {party} outside 1..{n}")
        out[party] = parse(value)
    return out


def _behavior(text: str) -> Behavior:
    kind, _, targets = text.partition(":")
    return Behavior(kind.strip(), frozenset(_int_list(targets)))


RUN_SETTINGS = (
    ("n", int, None, "number of parties (required)"),
    ("t", int, None, "reconstruction threshold (required)"),
    ("k", int, None, "guardians per dealer (required)"),
    ("group", str, "secp256k1", f"one of {', '.join(sorted(GROUPS))}"),
    ("seed", int, 0, "seed in [-2**127, 2**127)"))


def check_run(settings: dict, config: dict) -> dict:
    """`run_ceremony`'s keyword arguments; a usage error if it would reject them."""
    params = Params(settings["n"], settings["t"], settings["k"])
    name = settings["group"]
    if name not in GROUPS:
        raise ValueError(f"unknown group {name!r}, expected one of {sorted(GROUPS)}")
    if params.n >= GROUPS[name].order:  # party indices are Shamir points in [1, q)
        raise ValueError(f"n = {params.n} is not below the order {GROUPS[name].order} of {name}")
    behaviors = {i: Behavior(HONEST) for i in range(1, params.n + 1)}  # unlisted: honest
    behaviors.update(_party_section(config, "behaviors", params.n, _behavior))
    for party, behavior in sorted(behaviors.items()):
        outside = sorted(j for j in behavior.targets if not 1 <= j <= params.n)
        if outside:
            raise ValueError(f"[behaviors] party {party} targets {outside} outside 1..{params.n}")
    guardians = _party_section(config, "guardians", params.n,
                               lambda text: frozenset(_int_list(text))) or None
    if guardians:
        dealer_guardian_sets(params, behaviors, guardians)
    seed = settings["seed"]
    if not -2 ** 127 <= seed < 2 ** 127:  # child_rng packs it into 16 signed bytes
        raise ValueError(f"seed {seed} outside [-2**127, 2**127)")
    return dict(params=params, behaviors=behaviors, group=GROUPS[name], seed=seed,
                guardian_sets=guardians)


def cmd_ceremony(run: dict, out) -> int:
    result = run_ceremony(**run)
    if out:
        transcripts.save(result.board, run["group"], out)
        print(f"transcript written to {out}")
    print(f"participants: {list(result.public_state.participants)}")
    outcome = result.outcome
    for dealer, how in sorted(outcome.recovered.items()):
        via = "directly" if how[0] == "direct" else f"via guardians {list(how[1])}"
        print(f"dealer {dealer}: recovered {via}")
    if outcome.success:
        print("reconstruction: success")
        return 0
    print(f"reconstruction: FAILED, unrecoverable dealers {list(outcome.failed)}")
    return 1


SIMULATE_SETTINGS = (
    ("n", _int_list, (100,), "party counts, comma list"),
    ("p", _float_list, (1.0,), "round-1 dealer fractions, comma list"),
    ("r", _float_list, (1.0,), "round-2 present fractions, comma list"),
    ("k", _int_list, (3,), "guardian-set sizes, comma list"),
    ("t", _int_list, (), "thresholds, comma list; exclusive with t-ratio"),
    ("t-ratio", _float_list, (), "thresholds as fractions of k, comma list"),
    ("trials", int, 100, "trials per grid point"),
    ("topology", str, simulate.TOPOLOGY_ER, "er (uniform) or ba (preferential)"),
    ("seed", int, 0, "master seed in [-2**127, 2**127)"))


def check_simulate(settings: dict, config: dict) -> simulate.SweepConfig:
    return simulate.SweepConfig(
        n_values=settings["n"], p_values=settings["p"], r_values=settings["r"],
        k_values=settings["k"], t_values=settings["t"], t_ratios=settings["t-ratio"],
        trials=settings["trials"], topology=settings["topology"], seed=settings["seed"])


def cmd_simulate(sweep: simulate.SweepConfig, out) -> int:
    rates = simulate.run_sweep(sweep)
    if out:
        with open(out, "w") as fh:
            simulate.write_csv(rates, fh)
        print(f"csv written to {out}")
    else:
        simulate.write_csv(rates, sys.stdout)
    return 0


ELECTION_SETTINGS = RUN_SETTINGS + (
    ("candidates", int, 2, "number of candidates"),
    ("votes", _int_list, None, "candidate per voter, comma list (required)"))


def check_election(settings: dict, config: dict) -> dict:
    """The keyword arguments of `run_election`."""
    run = check_run(settings, config)
    votes = {i + 1: c for i, c in enumerate(settings["votes"])}
    candidates = settings["candidates"]
    vote_encoding(run["params"], votes, candidates, run["group"])
    return {**run, "votes": votes, "candidates": candidates}


def cmd_election(run: dict, out) -> int:
    result = run_election(**run)
    if out:
        transcripts.save(result.board, run["group"], out)
        print(f"transcript written to {out}")
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


COST_SETTINGS = tuple((name, int, 0, help_text) for name, help_text in (
    ("n", "number of parties"), ("dealers", "round-1 dealers |D|"),
    ("k", "guardians per dealer"), ("voters", "voters |V|"),
    ("direct-revealers", "dealers revealing their own secret"),
    ("shares-revealed", "share reveals across all talliers")))


def check_cost(settings: dict, config: dict) -> costmodel.ScenarioSpec:
    return costmodel.ScenarioSpec(**{k.replace("-", "_"): v for k, v in settings.items()})


def cmd_cost(spec: costmodel.ScenarioSpec, out) -> int:
    breakdown = costmodel.estimate(spec)
    print(f"fdkg-distribution {breakdown.fdkg_bytes}")
    print(f"voting            {breakdown.voting_bytes}")
    print(f"tally-secrets     {breakdown.tally_secret_bytes}")
    print(f"tally-shares      {breakdown.tally_share_bytes}")
    print(f"total             {breakdown.total_bytes}")
    return 0


COMMANDS = {  # subcommand: (help, settings, check, run, --out help or None)
    "ceremony": ("run a two-round key-generation ceremony",
                 RUN_SETTINGS, check_run, cmd_ceremony, "transcript path"),
    "simulate": ("Monte-Carlo liveness sweep to CSV",
                 SIMULATE_SETTINGS, check_simulate, cmd_simulate, "CSV path"),
    "election": ("full election pipeline", ELECTION_SETTINGS, check_election, cmd_election,
                 "transcript path"),
    "cost": ("broadcast-size estimate", COST_SETTINGS, check_cost, cmd_cost, None)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fdkg", description="federated key-generation "
                                     "ceremonies, liveness sweeps, elections and "
                                     "communication-cost estimates")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, settings, _, _, out_help) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="INI config file")
        if out_help:
            p.add_argument("--out", help=out_help)
        for name, _, _, setting_help in settings:  # read as text, cast in main
            p.add_argument(f"--{name}", dest=name, help=setting_help)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args["command"]
    _, settings, check, run, _ = COMMANDS[command]
    out = args.get("out")
    try:
        config = _load_config(args["config"])
        resolved = {}
        for name, cast, default, _ in settings:  # flag, else config key, else default
            text = args[name] if args[name] is not None else config.get(command, {}).get(name)
            if text is None and default is None:
                raise ValueError(f"missing required setting {name!r}")
            resolved[name] = default if text is None else cast(text)
        checked = check(resolved, config)
        if out:  # an unwritable --out fails before the run
            open(out, "a").close()
    except (ConfigFileError, ValueError, ProtocolError, VotingError,
            simulate.SweepConfigError, OSError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return 2
    print(f"[{command}] resolved config:", file=sys.stderr)
    for name in sorted(resolved):
        print(f"  {name} = {resolved[name]}", file=sys.stderr)
    return run(checked, out)


if __name__ == "__main__":
    sys.exit(main())
