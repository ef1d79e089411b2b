"""A sweep over both objectives plays each episode once, under the all-goals
objective, and derives the one-goal record from it. These tests compare that
against the plain path: one ``run_episode`` per cell, on the cell's own
scenario."""

import dataclasses
import functools

import pytest

from deceptsim.agents import AGENT_KINDS
from deceptsim.experiment import (
    SweepConfig,
    derive_episode_seed,
    run_episode,
    run_sweep,
    scenario_params,
)
from deceptsim.scenario import GeneratorParams, generate_scenario
from test_golden import GOLDEN_GRID


@functools.lru_cache(maxsize=None)
def _brute_force_cell(fixed, cell, repetitions, master_seed):
    scenario = generate_scenario(scenario_params(fixed, cell))
    return [
        run_episode(scenario, cell.agent, derive_episode_seed(master_seed, cell, rep), rep)
        for rep in range(repetitions)
    ]


def brute_force(config: SweepConfig):
    """The sweep's records, each cell simulated on its own."""
    return [
        record
        for cell in config.cells()
        for record in _brute_force_cell(config.fixed, cell, config.repetitions, config.master_seed)
    ]


def _twins(records):
    """Pairs of (all-goals, one-goal) records of the same episode."""
    by_episode = {}
    for record in records:
        key = record._replace(one_goal=False, outcome="", steps=0, score=0.0)
        by_episode.setdefault(key, {})[record.one_goal] = record
    return [(pair[False], pair[True]) for pair in by_episode.values() if len(pair) == 2]


def test_golden_grid_matches_brute_force():
    records = run_sweep(GOLDEN_GRID)
    assert records == brute_force(GOLDEN_GRID)
    twins = _twins(records)
    assert len(twins) == len(records) // 2
    # The grid exercises the derivation: some one-goal twins win before
    # their all-goals episode ends, and some end exactly as it does.
    assert any(one.outcome == "win" and one.steps < full.steps for full, one in twins)
    assert any(one.outcome != "win" and one == full._replace(one_goal=True)
               for full, one in twins)


@pytest.mark.parametrize("one_goal", [(True,), (True, False), (False, True), (False,)])
def test_objective_lists_match_brute_force(one_goal):
    config = dataclasses.replace(GOLDEN_GRID, num_hosts=(10,), one_goal=one_goal)
    assert run_sweep(config) == brute_force(config)


def test_workers_match_brute_force():
    assert run_sweep(GOLDEN_GRID, workers=2) == brute_force(GOLDEN_GRID)


def _first_root_before_the_end():
    """A golden cell and repetition whose first sensitive root comes before
    its all-goals episode ends, with that root's step."""
    for cell in dataclasses.replace(GOLDEN_GRID, one_goal=(False,)).cells():
        scenario = generate_scenario(scenario_params(GOLDEN_GRID.fixed, cell))
        for rep in range(GOLDEN_GRID.repetitions):
            twin = []
            seed = derive_episode_seed(GOLDEN_GRID.master_seed, cell, rep)
            full = run_episode(scenario, cell.agent, seed, rep, one_goal_sink=twin.append)
            if twin[0].outcome == "win" and full.outcome == "timeout" and twin[0].steps > 1:
                return cell, rep, twin[0].steps
    raise AssertionError("no golden episode reaches a sensitive root and then times out")


def test_first_root_on_the_step_limit():
    # With the step limit on the first sensitive root, the all-goals
    # episode times out on the step at which the one-goal twin wins.
    cell, rep, root_step = _first_root_before_the_end()
    config = SweepConfig(
        num_honeypots=(cell.num_honeypots,),
        movement_time=(cell.movement_time,),
        num_hosts=(cell.num_hosts,),
        one_goal=(False, True),
        seeds=(cell.seed,),
        agents=(cell.agent,),
        repetitions=rep + 1,
        master_seed=GOLDEN_GRID.master_seed,
        fixed=GeneratorParams(step_limit=root_step),
    )
    records = run_sweep(config)
    assert records == brute_force(config)
    full, one = records[rep], records[config.repetitions + rep]
    assert (full.one_goal, full.outcome, full.steps) == (False, "timeout", root_step)
    assert (one.one_goal, one.outcome, one.steps) == (True, "win", root_step)
    assert one.score == full.score


def test_random_small_grids_match_brute_force():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def values(options):
        return st.lists(st.sampled_from(options), min_size=1, max_size=2, unique=True).map(tuple)

    grids = st.builds(
        SweepConfig,
        num_honeypots=values((0, 1, 3)),
        movement_time=values((None, 7, 30)),
        num_hosts=values((2, 12)),
        one_goal=st.sampled_from([(False,), (True,), (False, True), (True, False)]),
        seeds=values((1, 42, 1234)),
        agents=values(AGENT_KINDS),
        repetitions=st.integers(1, 3),
        master_seed=st.integers(0, 2**32),
        fixed=st.builds(
            GeneratorParams,
            num_sensitive=st.sampled_from((0, 1, 3)),
            exploit_prob=st.sampled_from((0.4, 0.8, 1.0)),
            privesc_prob=st.sampled_from((0.4, 0.8, 1.0)),
            step_limit=st.integers(5, 250),
        ),
    )

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(config=grids)
    def check(config):
        assert run_sweep(config) == brute_force(config)

    check()
