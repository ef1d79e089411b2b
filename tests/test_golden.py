"""Pinned output and the episode kernel's shortcuts against the plain path.

``tests/data/golden_records.csv`` holds the records of a small fixed grid,
everything below the manifest line, as this command writes them:

    PYTHONPATH=src python -m deceptsim.cli sweep --out golden.csv \\
        --honeypots 0,2 --movement-times none,25 --hosts 10,50 \\
        --one-goal false,true --seeds 1234 --agents careful,standard,aggressive \\
        --repetitions 2 --master-seed 0 --step-limit 3000
    tail -n +2 golden.csv > tests/data/golden_records.csv

The grid covers all three agents, mutation on and off, both objectives,
honeypots 0 and 2, and all three outcomes: 96 episodes, 85,927 steps. A
change that alters how much randomness any layer draws changes these bytes.
Regenerate the file only for a documented change to the record schema or to
the model, never to make a speed-up pass.

The manifest lines that the same sweep, and one traced ``run``, write are
pinned below as well: the manifest embeds the resolved configuration, so a
change to a config field or to its serialisation changes these bytes.

This module needs nothing but the standard library, so each test can also
run as a plain function under interpreters that have no pytest.
"""

import contextlib
import io
import os
import random
import tempfile
from pathlib import Path

from deceptsim.agents import AGENT_KINDS
from deceptsim.cli import TIMESTAMP_ENV_VAR, main
from deceptsim.engine import OutcomeKind, check_termination, same_stream_shuffle
from deceptsim.experiment import (
    SweepConfig,
    derive_episode_seed,
    run_episode,
    run_sweep,
    scenario_params,
)
from deceptsim.records import records_csv_text
from deceptsim.scenario import generate_scenario

GOLDEN_RECORDS = Path(__file__).parent / "data" / "golden_records.csv"
GOLDEN_GRID = SweepConfig(
    num_honeypots=(0, 2),
    movement_time=(None, 25),
    num_hosts=(10, 50),
    one_goal=(False, True),
    seeds=(1234,),
    agents=AGENT_KINDS,
    repetitions=2,
    master_seed=0,
)
GOLDEN_SWEEP_ARGV = (
    "sweep", "--out", "golden.csv",
    "--honeypots", "0,2", "--movement-times", "none,25", "--hosts", "10,50",
    "--one-goal", "false,true", "--seeds", "1234",
    "--agents", "careful,standard,aggressive",
    "--repetitions", "2", "--master-seed", "0", "--step-limit", "3000",
)
GOLDEN_RUN_ARGV = (
    "run", "--agent", "careful", "--movement-time", "25", "--honeypots", "2",
    "--seed", "42", "--master-seed", "3", "--repetition", "1", "--trace", "trace.jsonl",
)
GOLDEN_SWEEP_MANIFEST = (
    '# deceptsim-manifest: {"command":"sweep",'
    '"config":{"agents":["careful","standard","aggressive"],'
    '"fixed":{"action_cost":1,"base_host_value":1.0,"exploit_prob":1.0,'
    '"host_discovery_value":1.0,"movement_time":null,"num_addresses":256,'
    '"num_exploits":10,"num_honeypots":0,"num_hosts":10,"num_os":1,'
    '"num_privescs":10,"num_processes":10,"num_sensitive":3,'
    '"num_services":10,"num_subnets":2,"num_vulns":10,"one_goal":false,'
    '"privesc_prob":1.0,"r_honeypot":-1000.0,"r_sensitive":1000.0,'
    '"seed":1234,"step_limit":3000,"uniform":true},"master_seed":0,'
    '"movement_time_options":[null,25],"num_honeypots_options":[0,2],'
    '"num_hosts_options":[10,50],"one_goal_options":[false,true],'
    '"repetitions":2,"seed_options":[1234]},"outputs":["golden.csv"],'
    '"timestamp":null,"version":"0.1.0"}'
)
GOLDEN_RUN_MANIFEST = (
    '# deceptsim-manifest: {"command":"run","config":{"agent":"careful",'
    '"fixed":{"action_cost":1,"base_host_value":1.0,"exploit_prob":1.0,'
    '"host_discovery_value":1.0,"movement_time":null,"num_addresses":256,'
    '"num_exploits":10,"num_honeypots":0,"num_hosts":10,"num_os":1,'
    '"num_privescs":10,"num_processes":10,"num_sensitive":3,'
    '"num_services":10,"num_subnets":2,"num_vulns":10,"one_goal":false,'
    '"privesc_prob":1.0,"r_honeypot":-1000.0,"r_sensitive":1000.0,'
    '"seed":1234,"step_limit":3000,"uniform":true},"master_seed":3,'
    '"movement_time":25,"num_honeypots":2,"num_hosts":10,"one_goal":false,'
    '"repetition":1,"seed":42},"outputs":["trace.jsonl"],"timestamp":null,'
    '"version":"0.1.0"}'
)


def test_golden_records_are_byte_identical():
    text = records_csv_text({}, run_sweep(GOLDEN_GRID))
    _, body = text.split("\n", 1)
    assert body == GOLDEN_RECORDS.read_text(encoding="utf-8")


def _first_line_written(argv, name):
    """Run the CLI in a fresh directory; return the first line of ``name``
    there and of stdout."""
    cwd = os.getcwd()
    epoch = os.environ.pop(TIMESTAMP_ENV_VAR, None)  # keeps the timestamp null
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(stdout):
                assert main(list(argv)) == 0
            with open(name, encoding="utf-8") as handle:
                first = handle.readline().rstrip("\n")
        finally:
            os.chdir(cwd)
            if epoch is not None:
                os.environ[TIMESTAMP_ENV_VAR] = epoch
    return first, stdout.getvalue().split("\n", 1)[0]


def test_golden_manifest_lines_are_byte_identical():
    written, _ = _first_line_written(GOLDEN_SWEEP_ARGV, "golden.csv")
    assert written == GOLDEN_SWEEP_MANIFEST
    written, printed = _first_line_written(GOLDEN_RUN_ARGV, "trace.jsonl")
    assert written == printed == GOLDEN_RUN_MANIFEST


def test_skipped_termination_checks_never_hide_an_outcome():
    # step() runs check_termination only after a gain that can end the
    # episode (any access to a honeypot, root on a sensitive host) or at the
    # step limit; the full check after every step must agree with it.
    mismatches = []
    outcomes = set()

    def sink(action, obs, state, knowledge_reset):
        if check_termination(state) != state.outcome:
            mismatches.append((state.steps_taken, action, state.outcome))

    for cell in GOLDEN_GRID.cells():
        scenario = generate_scenario(scenario_params(GOLDEN_GRID.fixed, cell))
        for repetition in range(GOLDEN_GRID.repetitions):
            seed = derive_episode_seed(GOLDEN_GRID.master_seed, cell, repetition)
            record = run_episode(scenario, cell.agent, seed, repetition, trace_sink=sink)
            outcomes.add(record.outcome)
    assert mismatches == []
    assert outcomes == {kind.value for kind in OutcomeKind}


def test_same_stream_shuffle_matches_random_shuffle():
    for seed in range(32):
        expected_rng = random.Random(seed)
        rng = random.Random(seed)
        for length in range(301):
            expected = list(range(length))
            items = list(range(length))
            expected_rng.shuffle(expected)
            same_stream_shuffle(items, rng)
            assert items == expected, (seed, length)
            assert rng.getstate() == expected_rng.getstate(), (seed, length)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name} passed")
