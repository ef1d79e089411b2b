"""Harness tests: grid expansion, seed pairing, parallel determinism, stats."""

import dataclasses
import hashlib
import itertools
import multiprocessing
import random
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from helpers import degenerate_world

from deceptsim import experiment
from deceptsim.experiment import (
    AggregateStats,
    Cell,
    EpisodeRecord,
    SweepConfig,
    aggregate,
    derive_episode_seed,
    iter_sweep,
    run_episode,
    run_sweep,
    scenario_params,
)
from deceptsim.scenario import GeneratorParams, generate_scenario


def small_config(**overrides):
    defaults = dict(
        num_honeypots=(0, 2),
        movement_time=(None,),
        num_hosts=(10,),
        one_goal=(False, True),
        seeds=(1234, 42),
        agents=("aggressive",),
        repetitions=5,
        master_seed=7,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def make_record(**overrides):
    base = dict(
        num_honeypots=2, movement_time=None, num_hosts=10, one_goal=False,
        seed=1234, agent="standard", repetition=0, outcome="win", steps=50,
        score=3000.0, episode_seed=1,
    )
    base.update(overrides)
    return EpisodeRecord(**base)


def test_default_grid_size_matches_value_lists():
    config = SweepConfig()
    assert len(config.cells()) == 6 * 5 * 2 * 2 * 3 * 3
    assert len({cell for cell in config.cells()}) == len(config.cells())


def test_config_validation():
    with pytest.raises(ValueError, match="repetitions"):
        small_config(repetitions=0).validate()
    with pytest.raises(ValueError, match="num_honeypots"):
        small_config(num_honeypots=()).validate()
    with pytest.raises(ValueError, match="unknown agent kind"):
        small_config(agents=("sneaky",)).validate()


def test_scenario_params_merges_cell_into_fixed():
    fixed = GeneratorParams(step_limit=120)
    cell = Cell(4, 25, 50, True, 42, "careful")
    params = scenario_params(fixed, cell)
    assert params.num_honeypots == 4
    assert params.movement_time == 25
    assert params.num_hosts == 50
    assert params.one_goal is True
    assert params.seed == 42
    assert params.step_limit == 120


def test_episode_seed_is_stable_and_sensitive():
    cell = Cell(2, 25, 10, False, 1234, "standard")
    seed = derive_episode_seed(0, cell, 3)
    assert seed == derive_episode_seed(0, cell, 3)
    assert seed != derive_episode_seed(1, cell, 3)
    assert seed != derive_episode_seed(0, cell, 4)
    assert seed != derive_episode_seed(0, dataclasses.replace(cell, agent="careful"), 3)


def test_episode_seed_ignores_objective():
    # Cells differing only in one_goal share seeds: their episodes run on
    # common random numbers, which makes win probabilities exactly paired.
    cell = Cell(2, 25, 10, False, 1234, "standard")
    paired = dataclasses.replace(cell, one_goal=True)
    for rep in range(5):
        assert derive_episode_seed(9, cell, rep) == derive_episode_seed(9, paired, rep)


def test_run_episode_is_deterministic():
    scenario = generate_scenario(GeneratorParams(num_honeypots=2, movement_time=25))
    first = run_episode(scenario, "standard", 999, repetition=4)
    again = run_episode(scenario, "standard", 999, repetition=4)
    assert first == again
    assert first.repetition == 4
    assert first.episode_seed == 999
    assert first.num_honeypots == 2
    assert first.movement_time == 25


def test_run_episode_without_honeypots_never_loses():
    scenario = generate_scenario(GeneratorParams(num_honeypots=0))
    for seed in range(20):
        record = run_episode(scenario, "standard", seed)
        assert record.outcome in ("win", "timeout")


def test_trace_sink_sees_every_step():
    scenario = degenerate_world(2, one_goal=True)
    steps = []
    record = run_episode(
        scenario, "aggressive", 5,
        trace_sink=lambda action, obs, state, reset: steps.append(state.steps_taken),
    )
    assert steps == list(range(1, record.steps + 1))


def test_run_sweep_counts_and_ordering():
    config = small_config()
    records = run_sweep(config)
    cells = config.cells()
    assert len(records) == len(cells) * config.repetitions
    expected_order = [
        (cell, rep) for cell in cells for rep in range(config.repetitions)
    ]
    actual_order = [
        (Cell(r.num_honeypots, r.movement_time, r.num_hosts, r.one_goal, r.seed, r.agent),
         r.repetition)
        for r in records
    ]
    assert actual_order == expected_order


def test_run_sweep_parallel_matches_serial():
    config = small_config(repetitions=3)
    assert run_sweep(config, workers=3) == run_sweep(config, workers=1)


class InProcessPool:
    """Stands in for ``multiprocessing.Pool``: runs each task in process and
    records the pool sizes asked for and the tasks handed to ``imap``."""

    sizes, tasks = [], []

    def __init__(self, processes, initializer, initargs):
        self.sizes.append(processes)

    def imap(self, fn, tasks):
        self.tasks.extend(tasks)
        results = map(fn, tasks)
        return types.SimpleNamespace(next=lambda timeout: next(results))

    def terminate(self):
        pass


@pytest.fixture
def in_process_pool(monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(InProcessPool, "tasks", [])
    return InProcessPool


@pytest.mark.parametrize("workers, pool_sizes", [(8, [2]), (2, [2]), (1, []), (None, [])])
def test_run_sweep_asks_for_no_more_workers_than_tasks(in_process_pool, workers, pool_sizes):
    # Two tasks: one world per seed, its objectives together.
    config = small_config(num_honeypots=(2,), repetitions=2)
    serial = run_sweep(config)
    assert run_sweep(config, workers=workers) == serial
    assert in_process_pool.sizes == pool_sizes
    assert run_sweep(small_config(num_honeypots=(2,), seeds=(42,)), workers=4)
    assert in_process_pool.sizes == pool_sizes  # one task runs serially


@pytest.mark.parametrize("agents", [("aggressive",), ("careful", "standard", "aggressive")])
def test_parallel_sweep_hands_each_world_to_one_worker(in_process_pool, agents):
    # Each task that the pool hands a worker must hold one world and every
    # agent, so the worker draws the world once.
    config = small_config(movement_time=(None, 25), agents=agents, repetitions=1)
    serial = run_sweep(config)
    assert run_sweep(config, workers=2) == serial
    assert in_process_pool.sizes == [2]
    worlds = [dataclasses.replace(world, agent="") for _, world, *_ in in_process_pool.tasks]
    assert len(set(worlds)) == len(worlds) == 2 * 2 * 2
    assert all(task_agents == agents for _, _, task_agents, *_ in in_process_pool.tasks)


# The file that each task appends a line to, set before the pool forks; and
# the tasks, by module name, that its workers unpickle.
TASK_LOG = None
run_cells = experiment._run_cells


def logged_slow_run_cells(task):
    """``_run_cells``, logged; tasks after the first block's (honeypot
    count 0) each take 0.2 s more."""
    with open(TASK_LOG, "a") as log:
        log.write("task\n")
    if task[1].num_honeypots:
        time.sleep(0.2)
    return run_cells(task)


def test_serial_stream_yields_a_block_before_the_next_block_runs(monkeypatch):
    # Blocks of 2 worlds, one per seed, each yielding 2 agents x 2 objectives
    # x 3 repetitions of records per world.
    config = small_config(agents=("standard", "aggressive"), repetitions=3)
    calls = []
    monkeypatch.setattr(experiment, "_run_cells", lambda task: calls.append(task) or run_cells(task))
    records = iter_sweep(config)
    assert calls == []
    block = [next(records)]
    assert len(calls) == 2
    block.extend(itertools.islice(records, 2 * 2 * 2 * 3 - 1))
    assert len(calls) == 2
    assert {record.num_honeypots for record in block} == {0}
    assert next(records).num_honeypots == 2
    assert len(calls) == 4


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("one_goal", [(False, True), (True, False), (True,)])
def test_iter_sweep_matches_run_sweep_in_cell_order(workers, one_goal):
    config = small_config(movement_time=(None, 25), one_goal=one_goal, repetitions=2)
    records = list(iter_sweep(config, workers))
    assert records == run_sweep(config)
    assert [(Cell(*record[:6]), record.repetition) for record in records] == \
        [(cell, rep) for cell in config.cells() for rep in range(config.repetitions)]


def test_closing_a_parallel_stream_cancels_the_tasks_not_started(tmp_path, monkeypatch):
    config = small_config(num_honeypots=(0, 2, 4, 6, 9, 10), movement_time=(None, 25),
                          repetitions=1)
    # One task per world: its agents and objectives share it.
    tasks = len(config.cells()) // len(config.agents) // len(config.one_goal)
    monkeypatch.setattr(sys.modules[__name__], "TASK_LOG", str(tmp_path / "tasks.log"))
    monkeypatch.setattr(experiment, "_run_cells", logged_slow_run_cells)
    records = iter_sweep(config, workers=2)
    assert next(records).num_honeypots == 0
    records.close()
    assert multiprocessing.active_children() == []
    assert (tmp_path / "tasks.log").read_text().count("task") < tasks


def modules_the_import_loads(module="deceptsim.cli"):
    """The modules that ``import <module>`` adds to a fresh interpreter's
    ``sys.modules``; those its start-up (site) loaded do not count."""
    package_root = Path(experiment.__file__).resolve().parents[1]
    code = (f"import sys; before = set(sys.modules); import {module}; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-c", code], cwd=package_root, check=True,
                            capture_output=True, text=True)
    loaded = set(result.stdout.split())
    assert module in loaded
    return loaded


def test_importing_the_cli_loads_no_process_pool():
    # Only a sweep over more than one worker needs the pool.
    assert not {"concurrent.futures", "multiprocessing"} & modules_the_import_loads()


def test_importing_the_cli_loads_no_heavy_module_it_can_do_without():
    # hashlib loads OpenSSL's libcrypto, statistics loads fractions and
    # decimal, and only a set SOURCE_DATE_EPOCH needs datetime.
    heavy = {"hashlib", "_hashlib", "statistics", "fractions", "decimal", "datetime"}
    assert not heavy & modules_the_import_loads()


def test_importing_the_records_format_loads_no_command_line():
    # A library user reads records without the argument parser.
    assert not {"deceptsim.cli", "argparse"} & modules_the_import_loads("deceptsim.records")


def test_episode_seeds_take_hashlib_sha256_digests():
    # experiment.sha256 is CPython's built-in SHA-256 where there is one.
    cell = Cell(2, None, 10, False, 1234, "aggressive")
    for repetition in range(3):
        key = f"7|hp=2|mt=None|hosts=10|seed=1234|agent=aggressive|rep={repetition}".encode()
        assert experiment.sha256(key).digest() == hashlib.sha256(key).digest()
        seed = derive_episode_seed(7, cell, repetition)
        assert seed == int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
        for label in ("engine", "agent"):
            key = f"{seed}:{label}".encode()
            assert experiment.sha256(key).digest() == hashlib.sha256(key).digest()
            expected = random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))
            assert experiment._substream(seed, label).getstate() == expected.getstate()


def test_run_sweep_fails_on_a_bad_world_before_any_episode(tmp_path, monkeypatch, capsys):
    # The second honeypot count's worlds do not fit the subnet; the CLI
    # names the same first error, in cell order, and exits 1.
    from deceptsim import cli

    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--honeypots", "0,250", "--movement-times", "none", "--hosts", "10",
            "--seeds", "1234,42", "--agents", "aggressive,standard", "--repetitions", "1"]
    assert cli.main(argv) == 1
    message = capsys.readouterr().err.removeprefix("error: ").rstrip("\n")
    assert "do not fit num_addresses" in message
    played = []
    monkeypatch.setattr(experiment, "run_episode", lambda *args, **kwargs: played.append(args))
    config = small_config(num_honeypots=(0, 250), seeds=(1234, 42),
                          agents=("aggressive", "standard"), repetitions=1)
    with pytest.raises(ValueError) as caught:
        run_sweep(config)
    assert str(caught.value) == message
    assert played == []
    assert not any(tmp_path.iterdir())


def test_objective_dominance_on_paired_seeds():
    records = run_sweep(small_config(agents=("standard", "aggressive"), repetitions=20))
    stats = {s.group: s for s in aggregate(records)}
    for group, cell_stats in stats.items():
        key = dict(group)
        if key["one_goal"]:
            continue
        paired = dict(group, one_goal=True)
        paired_stats = stats[tuple(paired.items())]
        assert paired_stats.win_probability >= cell_stats.win_probability


def test_aggregate_fractions():
    records = [
        make_record(repetition=0, outcome="win"),
        make_record(repetition=1, outcome="win"),
        make_record(repetition=2, outcome="timeout", steps=3000),
        make_record(repetition=3, outcome="loss_honeypot", steps=20),
    ]
    (stats,) = aggregate(records)
    assert stats.episodes == 4
    assert stats.win_probability == 0.5
    assert stats.timeout_fraction == 0.25
    assert stats.loss_honeypot_fraction == 0.25
    assert stats.win_probability + stats.timeout_fraction + stats.loss_honeypot_fraction == 1.0


def test_aggregate_all_win_cell():
    records = [make_record(repetition=i) for i in range(8)]
    (stats,) = aggregate(records)
    assert stats.win_probability == 1.0


def test_aggregate_quartiles_inclusive_interpolation():
    records = [
        make_record(repetition=i, steps=s) for i, s in enumerate((1, 2, 3, 4))
    ]
    (stats,) = aggregate(records)
    assert stats.steps_min == 1
    assert stats.steps_q1 == 1.75
    assert stats.steps_median == 2.5
    assert stats.steps_q3 == 3.25
    assert stats.steps_max == 4


def test_aggregate_single_episode_group():
    (stats,) = aggregate([make_record(steps=37)])
    assert stats.steps_min == stats.steps_max == 37
    assert stats.steps_q1 == stats.steps_median == stats.steps_q3 == 37.0


def test_aggregate_is_order_independent():
    records = [
        make_record(repetition=i, steps=s, outcome=o, num_honeypots=hp)
        for i, (s, o, hp) in enumerate(
            [(10, "win", 0), (20, "timeout", 0), (30, "win", 2), (40, "loss_honeypot", 2)]
        )
    ]
    shuffled = list(records)
    random.Random(3).shuffle(shuffled)
    assert aggregate(records) == aggregate(shuffled)


def test_aggregate_custom_and_derived_group_by():
    records = [
        make_record(num_honeypots=0, movement_time=None, outcome="win"),
        make_record(num_honeypots=2, movement_time=None, outcome="loss_honeypot"),
        make_record(num_honeypots=2, movement_time=25, outcome="timeout"),
    ]
    by_agent = aggregate(records, group_by=("agent",))
    assert len(by_agent) == 1
    assert by_agent[0].group == (("agent", "standard"),)
    assert by_agent[0].episodes == 3
    derived = aggregate(records, group_by=("honeypots_on", "mtd_on"))
    keys = [s.group for s in derived]
    assert keys == [
        (("honeypots_on", False), ("mtd_on", False)),
        (("honeypots_on", True), ("mtd_on", False)),
        (("honeypots_on", True), ("mtd_on", True)),
    ]


def test_aggregate_rejects_bad_input():
    with pytest.raises(ValueError, match="no records"):
        aggregate([])
    with pytest.raises(ValueError, match="unknown group-by field"):
        aggregate([make_record()], group_by=("flavor",))


def test_oracle_world_win_probability_smoke():
    scenario = degenerate_world(2, one_goal=True)
    wins = sum(
        run_episode(scenario, "aggressive", seed).outcome == "win" for seed in range(4000)
    )
    assert abs(wins / 4000 - 0.6) <= 0.03
