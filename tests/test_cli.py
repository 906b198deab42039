import csv
import re
import shlex
from pathlib import Path

import pytest

from fdkg import simulate
from fdkg.cli import main

TEST_GROUP_FLAGS = ["--group", "modp-2027"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCeremony:
    def test_all_honest_defaults_succeed(self, capsys):
        code, out, err = run_cli(capsys, [
            "ceremony", "--n", "8", "--t", "2", "--k", "3", "--seed", "5",
            *TEST_GROUP_FLAGS])
        assert code == 0
        assert "reconstruction: success" in out
        assert "[ceremony] resolved config:" in err

    def test_missing_params_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["ceremony", "--n", "8"])
        assert code == 2
        assert "required" in err

    def test_scenario_config_file(self, capsys, tmp_path):
        # D = {1,3,5,7,9}, present set {3,5,7}; dealer 1 recovered via {3,5}
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(
            "[ceremony]\n"
            "n = 10\nt = 2\nk = 3\nseed = 4\ngroup = modp-2027\n"
            "[guardians]\n"
            "1 = 2,3,5\n3 = 4,5,7\n5 = 3,6,7\n7 = 3,5,8\n9 = 2,5,7\n"
            "[behaviors]\n"
            "1 = absent-round2\n9 = absent-round2\n"
            "2 = byzantine-silent\n4 = byzantine-silent\n6 = byzantine-silent\n"
            "8 = byzantine-silent\n10 = byzantine-silent\n")
        code, out, _ = run_cli(capsys, ["ceremony", "--config", str(cfg)])
        assert code == 0
        assert "dealer 1: recovered via guardians [3, 5]" in out
        assert "dealer 9: recovered via guardians [5, 7]" in out

    def test_blocked_reconstruction_fails(self, capsys, tmp_path):
        cfg = tmp_path / "blocked.ini"
        cfg.write_text(
            "[ceremony]\nn = 6\nt = 2\nk = 2\nseed = 9\ngroup = modp-2027\n"
            "[guardians]\n1 = 2,3\n2 = 3,4\n3 = 4,5\n4 = 5,6\n5 = 6,1\n6 = 1,2\n"
            "[behaviors]\n1 = absent-round2\n2 = withhold-shares:1\n")
        code, out, _ = run_cli(capsys, ["ceremony", "--config", str(cfg)])
        assert code == 1
        assert "unrecoverable dealers [1]" in out

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "base.ini"
        cfg.write_text("[ceremony]\nn = 6\nt = 2\nk = 3\nseed = 1\ngroup = modp-2027\n")
        code, _, err = run_cli(capsys, ["ceremony", "--config", str(cfg),
                                        "--seed", "99"])
        assert code == 0
        assert "seed = 99" in err

    def test_transcript_written(self, capsys, tmp_path):
        out_path = tmp_path / "transcript.jsonl"
        code, out, _ = run_cli(capsys, [
            "ceremony", "--n", "6", "--t", "2", "--k", "3", "--seed", "2",
            "--out", str(out_path), *TEST_GROUP_FLAGS])
        assert code == 0
        assert out_path.exists() and out_path.read_text().strip()


PARTIAL_GUARDIANS = "[guardians]\n1 = 2,3\n"


def run_config(capsys, tmp_path, command, body):
    """Run `command` on a n=5 t=2 k=2 config with extra sections `body`."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{command}]\nn = 5\nt = 2\nk = 2\nseed = 3\n"
                   f"group = modp-2027\nvotes = 1,2,1\n{body}")
    return run_cli(capsys, [command, "--config", str(cfg)])


@pytest.mark.parametrize("command", ["ceremony", "election"])
class TestRunConfigErrors:
    """Malformed ceremony/election input exits 2 with a message, never a
    traceback, and both commands apply the same checks."""

    def test_partial_guardians_rejected(self, capsys, tmp_path, command):
        code, out, err = run_config(capsys, tmp_path, command, PARTIAL_GUARDIANS)
        assert code == 2
        assert "no guardian set for dealing parties [2, 3, 4, 5]" in err
        assert "participants" not in out

    def test_threshold_above_guardian_count(self, capsys, command):
        votes = ["--votes", "1,2"] if command == "election" else []
        code, _, err = run_cli(capsys, [command, "--n", "5", "--t", "4", "--k", "2",
                                        *votes, *TEST_GROUP_FLAGS])
        assert code == 2
        assert "t <= k" in err

    def test_unknown_behavior_kind(self, capsys, tmp_path, command):
        code, _, err = run_config(capsys, tmp_path, command,
                                  "[behaviors]\n2 = sleepy\n")
        assert code == 2
        assert "sleepy" in err

    def test_unknown_group(self, capsys, tmp_path, command):
        cfg = tmp_path / "group.ini"
        cfg.write_text(f"[{command}]\nn = 5\nt = 2\nk = 2\ngroup = nope\n"
                       "votes = 1,2\n")
        code, _, err = run_cli(capsys, [command, "--config", str(cfg)])
        assert code == 2
        assert "unknown group 'nope'" in err

    def test_self_guardian_rejected(self, capsys, tmp_path, command):
        sets = "[guardians]\n1 = 1,2\n2 = 3,4\n3 = 4,5\n4 = 5,1\n5 = 1,2\n"
        code, _, err = run_config(capsys, tmp_path, command, sets)
        assert code == 2
        assert "cannot guard itself" in err

    def test_parties_not_below_group_order(self, capsys, command):
        """Party indices are Shamir evaluation points, which must lie in
        [1, q): modp-2027 has order 1013, so index 1013 is the point 0."""
        votes = ["--votes", "1,2"] if command == "election" else []
        for n in ("1013", "1100"):
            code, _, err = run_cli(capsys, [command, "--n", n, "--t", "1", "--k", "1",
                                              *votes, *TEST_GROUP_FLAGS])
            assert code == 2
            assert f"n = {n} is not below the order 1013" in err
            assert "resolved config" not in err

    def test_behavior_party_outside_range(self, capsys, tmp_path, command):
        code, _, err = run_config(capsys, tmp_path, command,
                                  "[behaviors]\n9 = absent-round2\n")
        assert code == 2
        assert "party 9 outside 1..5" in err

    def test_targets_on_a_kind_without_targets(self, capsys, tmp_path, command):
        code, _, err = run_config(capsys, tmp_path, command,
                                    "[behaviors]\n2 = honest:1,3\n")
        assert code == 2
        assert "behavior 'honest' takes no targets" in err
        assert "resolved config" not in err

    def test_target_outside_range(self, capsys, tmp_path, command):
        code, _, err = run_config(capsys, tmp_path, command,
                                    "[behaviors]\n3 = withhold-shares:1,99\n")
        assert code == 2
        assert "party 3 targets [99] outside 1..5" in err
        assert "resolved config" not in err


class TestSimulate:
    def test_full_retention_rate_one(self, capsys):
        code, out, _ = run_cli(capsys, [
            "simulate", "--n", "10", "--p", "0.8", "--r", "1.0",
            "--k", "3", "--t", "2", "--trials", "20", "--seed", "3"])
        assert code == 0
        assert "n,p,r,k,t,topology,trials,successes,rate" in out
        assert "10,0.8,1.0,3,2,er,20,20,1.0000" in out

    def test_invalid_grid_usage_error(self, capsys):
        code, _, err = run_cli(capsys, [
            "simulate", "--n", "10", "--k", "3", "--trials", "0", "--t", "2"])
        assert code == 2
        assert "trials" in err

    def test_repeat_runs_identical_csv(self, capsys, tmp_path):
        argv = ["simulate", "--n", "20", "--p", "0.8", "--r", "0.5,0.9",
                "--k", "4", "--t", "2,3", "--trials", "30", "--seed", "7"]
        files = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run_cli(capsys, argv + ["--out", str(path)])
            assert code == 0
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_stdout_is_the_csv(self, capsys):
        """Without --out the CSV goes to stdout and the config echo to
        stderr, so `fdkg simulate ... > rates.csv` parses as a CSV."""
        code, out, err = run_cli(capsys, [
            "simulate", "--n", "10", "--k", "3", "--t", "2", "--trials", "5"])
        assert code == 0 and "[simulate] resolved config:" in err
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == simulate.CSV_HEADER and len(rows) == 2

    def test_t_ratio_rule(self, capsys):
        code, out, _ = run_cli(capsys, [
            "simulate", "--n", "10", "--p", "1.0", "--r", "1.0",
            "--k", "4", "--t-ratio", "0.5", "--trials", "5", "--seed", "1"])
        assert code == 0
        assert "10,1.0,1.0,4,2,er,5,5,1.0000" in out


class TestSimulateInputErrors:
    """Malformed sweep input exits 2 with a message, never a traceback."""

    def test_non_integer_trials_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[simulate]\nn = 10\nk = 3\nt = 2\ntrials = x\n")
        code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
        assert code == 2
        assert err.startswith("simulate: ") and "'x'" in err

    def test_non_numeric_rate_flag(self, capsys):
        code, _, err = run_cli(capsys, [
            "simulate", "--n", "10", "--k", "3", "--t", "2", "--r", "x"])
        assert code == 2
        assert err.startswith("simulate: ") and "'x'" in err

    @pytest.mark.parametrize("flag,value", [("--p", "1.5"), ("--r", "-0.2"),
                                            ("--p", "nan"), ("--r", "inf")])
    def test_rate_outside_unit_interval(self, capsys, flag, value):
        code, _, err = run_cli(capsys, [
            "simulate", "--n", "10", "--k", "3", "--t", "2", flag, value])
        assert code == 2
        assert err.startswith("simulate: ") and "must lie in [0, 1]" in err

    @pytest.mark.parametrize("ratio", ["nan", "inf", "-inf", "-1", "0.5,-0.1"])
    def test_non_finite_or_negative_t_ratio(self, capsys, ratio):
        code, out, err = run_cli(capsys, [
            "simulate", "--n", "10", "--k", "3", f"--t-ratio={ratio}"])
        assert code == 2
        assert err.startswith("simulate: t-ratio=") and "finite and >= 0" in err
        assert out == ""


    @pytest.mark.parametrize("ratio", ["1.0000001", "1e308"])
    def test_t_ratio_above_one(self, capsys, ratio):
        code, out, err = run_cli(capsys, [
            "simulate", "--n", "10", "--k", "3", "--t-ratio", ratio, "--trials", "2"])
        assert code == 2
        assert err.startswith("simulate: t-ratio=") and "must be <= 1" in err
        assert out == ""


class TestSeedRange:
    """A seed outside [-2**127, 2**127) does not fit the 16 signed bytes the
    per-party and per-trial generators pack it into: exit 2, not a traceback."""

    ARGS = {"ceremony": ["--n", "5", "--t", "2", "--k", "2", *TEST_GROUP_FLAGS],
            "election": ["--n", "5", "--t", "2", "--k", "2", "--votes", "1,2",
                         *TEST_GROUP_FLAGS],
            "simulate": ["--n", "10", "--k", "3", "--t", "2", "--trials", "2"]}

    @pytest.mark.parametrize("command", sorted(ARGS))
    @pytest.mark.parametrize("seed", [str(10 ** 41), str(2 ** 127), str(-2 ** 127 - 1)])
    def test_out_of_range_seed(self, capsys, command, seed):
        code, _, err = run_cli(capsys, [command, *self.ARGS[command], "--seed", seed])
        assert code == 2
        assert err.startswith(f"{command}: seed {seed} outside")
        assert "resolved config" not in err

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_range_ends_accepted(self, capsys, command):
        for seed in (2 ** 127 - 1, -2 ** 127):
            code, _, _ = run_cli(capsys, [command, *self.ARGS[command], "--seed", str(seed)])
            assert code == 0

    def test_out_of_range_seed_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "seed.ini"
        cfg.write_text(f"[ceremony]\nn = 5\nt = 2\nk = 2\nseed = {2 ** 127}\n")
        code, _, err = run_cli(capsys, ["ceremony", "--config", str(cfg)])
        assert code == 2
        assert "outside [-2**127, 2**127)" in err


class TestElection:
    def test_honest_exact_counts(self, capsys):
        code, out, _ = run_cli(capsys, [
            "election", "--n", "8", "--t", "2", "--k", "3", "--candidates", "2",
            "--votes", "1,2,1,1,2", "--seed", "6", *TEST_GROUP_FLAGS])
        assert code == 0
        assert "result,1,3" in out
        assert "result,2,2" in out
        assert "valid ballots: 5" in out

    def test_missing_votes_usage_error(self, capsys):
        code, _, err = run_cli(capsys, [
            "election", "--n", "8", "--t", "2", "--k", "3"])
        assert code == 2
        assert "votes" in err

    def test_absent_dealer_within_liveness(self, capsys, tmp_path):
        cfg = tmp_path / "eligible.ini"
        cfg.write_text(
            "[election]\nn = 6\nt = 2\nk = 3\ncandidates = 2\n"
            "votes = 1,1,2\nseed = 13\ngroup = modp-2027\n"
            "[behaviors]\n2 = absent-round2\n")
        code, out, _ = run_cli(capsys, ["election", "--config", str(cfg)])
        assert code == 0
        assert "result,1,2" in out
        assert "result,2,1" in out

    def test_more_votes_than_parties(self, capsys):
        code, out, _ = run_cli(capsys, [
            "election", "--n", "4", "--t", "1", "--k", "2", "--candidates", "2",
            "--votes", "1,1,1,1,1,1,1,1", *TEST_GROUP_FLAGS])
        assert code == 0
        assert "result,1,8" in out and "result,2,0" in out

    def test_unreachable_dealer_fails(self, capsys, tmp_path):
        cfg = tmp_path / "blocked.ini"
        cfg.write_text(
            "[election]\nn = 5\nt = 2\nk = 2\ncandidates = 2\n"
            "votes = 1,2,1,2\nseed = 14\ngroup = modp-2027\n"
            "[guardians]\n1 = 2,3\n2 = 3,4\n3 = 4,5\n4 = 5,1\n5 = 1,2\n"
            "[behaviors]\n1 = absent-round2\n2 = withhold-shares:1\n")
        code, out, _ = run_cli(capsys, ["election", "--config", str(cfg)])
        assert code == 1
        assert "unrecoverable dealers [1]" in out


class TestElectionInputErrors:
    """Election-only input exits 2 with a message, never a traceback."""

    def test_vote_for_unknown_candidate(self, capsys):
        code, _, err = run_cli(capsys, [
            "election", "--n", "5", "--t", "2", "--k", "2", "--candidates", "2",
            "--votes", "1,3", *TEST_GROUP_FLAGS])
        assert code == 2
        assert "candidate 3 out of range 1..2" in err
        assert "resolved config" not in err

    @pytest.mark.parametrize("candidates", ["20", "60"])
    def test_unbounded_tally_search_rejected(self, capsys, candidates):
        code, _, err = run_cli(capsys, [
            "election", "--n", "3", "--t", "1", "--k", "1", "--candidates", candidates,
            "--votes", "1,2"])
        assert code == 2
        assert "baby steps" in err
        assert "resolved config" not in err

    def test_single_candidate(self, capsys):
        code, _, err = run_cli(capsys, [
            "election", "--n", "5", "--t", "2", "--k", "2", "--candidates", "1",
            "--votes", "1,1", *TEST_GROUP_FLAGS])
        assert code == 2
        assert "need at least 2 candidates" in err


ALL_COMMANDS = ["ceremony", "simulate", "election", "cost"]


@pytest.mark.parametrize("command", ALL_COMMANDS)
class TestConfigFileErrors:
    """An unreadable or unparsable --config file exits 2 for every command."""

    def test_missing_config_file(self, capsys, tmp_path, command):
        missing = tmp_path / "absent.ini"
        code, _, err = run_cli(capsys, [command, "--config", str(missing)])
        assert code == 2
        assert f"{command}: cannot read config {missing}" in err

    def test_missing_section_header(self, capsys, tmp_path, command):
        cfg = tmp_path / "broken.ini"
        cfg.write_text(f"{command}]\nn = 5\n")
        code, _, err = run_cli(capsys, [command, "--config", str(cfg)])
        assert code == 2
        assert "cannot read config" in err and "section header" in err

    @pytest.mark.parametrize("value", ["5%", "%(x)s"])
    def test_percent_in_value_is_literal(self, capsys, tmp_path, command, value):
        # values are not interpolated: a `%` reaches the cast like any other text
        cfg = tmp_path / "percent.ini"
        cfg.write_text(f"[{command}]\nn = {value}\n")
        code, _, err = run_cli(capsys, [command, "--config", str(cfg)])
        assert code == 2
        assert err.startswith(f"{command}: ") and repr(value) in err
        assert "resolved config" not in err


class TestCost:
    def test_example_scenario_total(self, capsys):
        code, out, _ = run_cli(capsys, [
            "cost", "--dealers", "50", "--k", "40", "--voters", "50",
            "--direct-revealers", "40", "--shares-revealed", "1600",
            "--n", "100"])
        assert code == 0
        assert "total             880000" in out
        assert "fdkg-distribution 336000" in out

    def test_large_scenario_total(self, capsys):
        code, out, _ = run_cli(capsys, [
            "cost", "--dealers", "2500", "--k", "40", "--voters", "2500",
            "--direct-revealers", "2000", "--shares-revealed", "80000",
            "--n", "5000"])
        assert code == 0
        assert "total             44000000" in out

    def test_zero_scenario(self, capsys):
        code, out, _ = run_cli(capsys, ["cost"])
        assert code == 0
        assert "total             0" in out

    def test_non_integer_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "cost.ini"
        cfg.write_text("[cost]\nn = x\n")
        code, out, err = run_cli(capsys, ["cost", "--config", str(cfg)])
        assert code == 2
        assert err.startswith("cost: ") and "'x'" in err
        assert "total" not in out

    def test_more_dealers_than_parties(self, capsys):
        code, _, err = run_cli(capsys, ["cost", "--n", "5", "--dealers", "9"])
        assert code == 2
        assert "cost: |D| cannot exceed n" in err

    def test_more_direct_revealers_than_dealers(self, capsys):
        code, out, err = run_cli(capsys, ["cost", "--n", "3", "--dealers", "2",
                                          "--direct-revealers", "5"])
        assert code == 2
        assert "cost: direct revealers cannot exceed |D|" in err
        assert "total" not in out

    def test_more_guardians_than_other_parties(self, capsys):
        code, out, err = run_cli(capsys, ["cost", "--n", "3", "--dealers", "2", "--k", "3"])
        assert code == 2
        assert "cost: k cannot exceed n - 1 when there are dealers" in err
        assert "total" not in out
        assert run_cli(capsys, ["cost", "--n", "3", "--dealers", "2", "--k", "2"])[0] == 0
        assert run_cli(capsys, ["cost", "--n", "3", "--k", "10"])[0] == 0  # no dealers

    def test_more_share_reveals_than_shares_dealt(self, capsys):
        base = ["cost", "--n", "3", "--dealers", "2", "--k", "2", "--direct-revealers", "2"]
        code, out, err = run_cli(capsys, [*base, "--shares-revealed", "1000"])
        assert code == 2
        assert "cost: share reveals cannot exceed |D| * k, the shares dealt" in err
        assert "total" not in out
        assert run_cli(capsys, [*base, "--shares-revealed", "4"])[0] == 0

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cost.ini"
        cfg.write_text("[cost]\nn = 100\ndealers = 50\nk = 40\nvoters = 50\n"
                       "direct-revealers = 40\nshares-revealed = 1600\n")
        code, out, _ = run_cli(capsys, ["cost", "--config", str(cfg)])
        assert code == 0
        assert "total             880000" in out


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """The `fdkg ...` lines of the sh block under README's `## CLI`, and its
    INI block."""
    cli = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    sh = re.search(r"```sh\n(.*?)```", cli, re.S).group(1)
    ini = re.search(r"```ini\n(.*?)```", cli, re.S).group(1)
    return [shlex.split(line)[1:] for line in sh.splitlines() if line.startswith("fdkg ")], ini


class TestReadmeExamples:
    """Every CLI example README gives runs and exits 0."""

    @pytest.mark.parametrize("argv", readme_examples()[0], ids=lambda argv: argv[0])
    def test_sh_example(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, argv)[0] == 0

    def test_ini_example(self, capsys, tmp_path):
        cfg = tmp_path / "example.ini"
        cfg.write_text(readme_examples()[1])
        assert run_cli(capsys, ["ceremony", "--config", str(cfg)])[0] == 0


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["decrypt-everything"])


VALID_SETTINGS = {
    "ceremony": {"n": "5", "t": "2", "k": "2", "group": "modp-2027"},
    "election": {"n": "5", "t": "2", "k": "2", "group": "modp-2027", "votes": "1,2"},
    "simulate": {"n": "10", "k": "3", "t": "2", "trials": "2"},
    "cost": {"n": "5"},
}


def flag_and_config_runs(capsys, tmp_path, command, name, value):
    """Run `command` on a valid config with setting `name` = `value`, given
    once as a flag over the config and once as a config key."""
    def config(settings):
        cfg = tmp_path / "parity.ini"
        cfg.write_text(f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
        return str(cfg)
    base = VALID_SETTINGS[command]
    by_flag = run_cli(capsys, [command, "--config", config(base), f"--{name}", value])
    by_config = run_cli(capsys, [command, "--config", config({**base, name: value})])
    return by_flag, by_config


NUMERIC_SETTINGS = [(command, name) for command, names in (
    ("ceremony", "n t k seed"), ("election", "n t k seed candidates votes"),
    ("simulate", "n p r k t t-ratio trials seed"),
    ("cost", "n dealers k voters direct-revealers shares-revealed")) for name in names.split()]


class TestFlagConfigParity:
    """A flag and its config key share one cast and one check: a bad value
    exits 2 with the same message from either, before any echo."""

    @pytest.mark.parametrize("command,name", NUMERIC_SETTINGS)
    def test_non_numeric_value(self, capsys, tmp_path, command, name):
        by_flag, by_config = flag_and_config_runs(capsys, tmp_path, command, name, "x")
        assert by_flag == by_config
        code, _, err = by_flag
        assert code == 2
        assert err.startswith(f"{command}: ") and "'x'" in err
        assert "resolved config" not in err

    @pytest.mark.parametrize("command,name,value,message", [
        ("ceremony", "group", "nope", "unknown group 'nope'"),
        ("election", "group", "nope", "unknown group 'nope'"),
        ("simulate", "topology", "ring", "unknown topology 'ring'")])
    def test_unknown_name(self, capsys, tmp_path, command, name, value, message):
        by_flag, by_config = flag_and_config_runs(capsys, tmp_path, command, name, value)
        assert by_flag == by_config
        code, out, err = by_flag
        assert code == 2 and message in err and out == ""


@pytest.mark.parametrize("command,flags", [
    ("ceremony", "n t k group seed"),
    ("simulate", "n p r k t t-ratio trials topology seed"),
    ("election", "n t k group seed candidates votes"),
    ("cost", "n dealers k voters direct-revealers shares-revealed")])
def test_help_lists_exactly_the_settings(capsys, command, flags):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    expected = {f"--{name}" for name in flags.split()} | {"--help", "--config"}
    if command != "cost":  # the one subcommand that writes no file
        expected.add("--out")
    assert listed == expected


class TestOutPath:
    """An --out path that cannot be written is a usage error found before any
    work: exit 2 with the reason, never a traceback after the whole run."""

    ARGS = TestSeedRange.ARGS

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_unwritable_out(self, capsys, tmp_path, command):
        target = tmp_path / "missing-dir" / "out.txt"
        code, out, err = run_cli(capsys, [command, *self.ARGS[command], "--out", str(target)])
        assert code == 2
        assert err.startswith(f"{command}: ") and "No such file or directory" in err
        assert out == ""
        assert not target.parent.exists()

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_directory_as_out(self, capsys, tmp_path, command):
        code, out, err = run_cli(capsys, [command, *self.ARGS[command], "--out", str(tmp_path)])
        assert code == 2 and err.startswith(f"{command}: ") and out == ""

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_existing_out_is_overwritten_with_the_same_bytes(self, capsys, tmp_path, command):
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        stale.write_text("left over from an earlier run\n" * 50)
        for path in (fresh, stale):
            code, _, _ = run_cli(capsys, [command, *self.ARGS[command], "--out", str(path)])
            assert code == 0
        assert fresh.read_bytes() and stale.read_bytes() == fresh.read_bytes()

    def test_cost_rejects_out(self, capsys, tmp_path):
        # cost writes no file, so it declares no --out to accept and ignore
        target = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exit_info:
            main(["cost", "--n", "4", "--out", str(target)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --out" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []
