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

This module needs nothing but the standard library, so each test can also
run as a plain function under interpreters that have no pytest.
"""

import random
from pathlib import Path

from deceptsim.agents import AGENT_KINDS
from deceptsim.cli import records_csv_text
from deceptsim.engine import OutcomeKind, check_termination, same_stream_shuffle
from deceptsim.experiment import (
    SweepConfig,
    derive_episode_seed,
    run_episode,
    run_sweep,
    scenario_params,
)
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


def test_golden_records_are_byte_identical():
    text = records_csv_text({}, run_sweep(GOLDEN_GRID))
    _, body = text.split("\n", 1)
    assert body == GOLDEN_RECORDS.read_text(encoding="utf-8")


def test_skipped_termination_checks_never_hide_an_outcome():
    # step() runs check_termination only after access is gained or at the
    # step limit; the full check after every step must agree with it.
    mismatches = []
    outcomes = set()

    def sink(step_index, action, obs, state, knowledge_reset):
        if check_termination(state) != state.outcome:
            mismatches.append((step_index, action, state.outcome))

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
