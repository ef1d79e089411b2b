"""Scan runs and attack runs against the per-action loop.

An agent hands over one move per turn (``next_action``). ``run_episode``
hands each run of host scans among them to ``engine.run_scans``, and each
attack sweep to ``engine.run_attacks``, each of which plays its run in one
loop. The reference below plays the same episodes the plain way, one
action at a time: ``step`` and then ``observe``. It takes the sweep's
addresses one by one, passing over those the entry already failed at, and
stops a run where the agent must act on a reply (a knowledge reset or a
gain) or the episode ends. Every step's trace row (whose step count gives
the mutation clock), reset flag and address list, and every final record,
must agree.

A scan run from wiped knowledge that nothing traces takes ``engine._fresh_pass``,
which plays it a stretch at a time: careful's scan phase after each subnet
scan that starts it, and standard's first focus after each. The tests of
that path play each episode untraced and with a no-op trace sink, which
forces the per-scan loop, and require the same records at the end.
"""

import dataclasses
import itertools
from collections import Counter

import pytest

from deceptsim import engine, experiment
from deceptsim.agents import AGENT_KINDS, make_agent
from deceptsim.engine import Action, new_network_state, step, trace_record
from deceptsim.experiment import derive_episode_seed, run_episode, scenario_params
from deceptsim.scenario import GeneratorParams, generate_scenario
from test_golden import GOLDEN_GRID


def row(action, obs, state, knowledge_reset):
    """What one step leaves behind, for comparison."""
    return (
        trace_record(action, obs, state),
        knowledge_reset,
        tuple(state.addresses),
    )


def attacks(agent, kind, ident, sweep):
    """An attack run's attacks, one at a time: each address of the sweep
    that entry ``(kind, ident)`` has not failed at."""
    for address in sweep:
        if address not in agent.knowledge.failed.get((kind, ident), ()):
            yield Action(kind, address, ident)


def reference_episode(scenario, agent_kind, episode_seed):
    """Rows, outcome and one-goal win of the episode played one action at
    a time: next_action's action (or the next scan or attack of its run),
    step, observe."""
    agent = make_agent(agent_kind, scenario, experiment._substream(episode_seed, "agent"))
    state = new_network_state(scenario, experiment._substream(episode_seed, "engine"))
    rows = []
    while state.outcome is None:
        move = agent.next_action()
        if type(move) is Action:
            actions = [move]
        elif len(move) == 2:
            actions = (Action(kind, address) for address, kind in itertools.product(*move))
        else:
            actions = attacks(agent, *move)
        for action in actions:
            resets = agent.resets
            obs, state = step(state, action)
            agent.observe(action, obs)
            knowledge_reset = agent.resets > resets
            rows.append(row(action, obs, state, knowledge_reset))
            if knowledge_reset or obs.access_gained or state.outcome is not None:
                break
    return rows, state.outcome, state.one_goal_win or state.outcome


def counted(run, prefix, agent_kind, counts: Counter):
    """``run``, an engine run taking the state first, counting into
    ``counts`` the steps it plays, the runs that end the episode and the
    runs whose steps cross a mutation."""
    def counted_run(state, *args):
        before = state.steps_taken
        result = run(state, *args)
        after, movement_time = state.steps_taken, state.scenario.params.movement_time
        counts[agent_kind, f"{prefix}_steps"] += after - before
        counts[agent_kind, f"{prefix}_ends_episode"] += state.outcome is not None
        counts[agent_kind, f"{prefix}_crosses_mutation"] += (
            movement_time is not None and before // movement_time < after // movement_time)
        return result
    return counted_run


def ended(run_attacks, agent_kind, counts: Counter):
    """``run_attacks``, counting into ``counts`` the runs by how they end
    (a gain, a failed connection, the step limit or the sweep's end), the
    runs that hold a drawn failure and the tried addresses skipped. A run's
    drawn failures are its calls to the engine's ``rng.random``, less the
    one draw of a gain that ends it."""
    def counted_run(state, run, knowledge, trace_sink):
        kind, ident, sweep = run
        order, tried = list(sweep), set(knowledge.failed.get((kind, ident), ()))
        played, draws, draw = [], [], state.rng.random

        def sink(action, *args):
            played.append(action.target)
            trace_sink(action, *args)

        def counted_draw():
            draws.append(None)
            return draw()

        state.rng.random = counted_draw
        try:
            ending = run_attacks(state, run, knowledge, sink)
        finally:
            del state.rng.random
        if ending is not None:
            played.append(ending[0].target)
            end = "gain" if ending[1].access_gained else "connection_failed"
            assert ending[1].access_gained or ending[1].connection_failed
        else:
            end = "step_limit" if state.outcome is not None else "sweep_end"
        counts[agent_kind, f"attack_run_{end}"] += 1
        counts[agent_kind, "attack_run_drawn_failure"] += len(draws) > (end == "gain")
        counts[agent_kind, "attack_run_skipped"] += sum(
            address in tried for address in order[:order.index(played[-1])])
        return ending
    return counted_run


def check_episode(scenario, agent_kind, episode_seed, counts: Counter) -> None:
    """Assert that run_episode and the reference agree on one episode; count
    the steps that scan runs and attack runs played, and how attack runs
    end, into ``counts``."""
    rows, twins = [], []
    originals = experiment.run_scans, experiment.run_attacks
    experiment.run_scans = counted(originals[0], "run", agent_kind, counts)
    experiment.run_attacks = counted(
        ended(originals[1], agent_kind, counts), "attack_run", agent_kind, counts)
    try:
        record = run_episode(
            scenario, agent_kind, episode_seed,
            trace_sink=lambda *args: rows.append(row(*args)),
            one_goal_sink=twins.append,
        )
    finally:
        experiment.run_scans, experiment.run_attacks = originals
    expected_rows, outcome, one_goal = reference_episode(scenario, agent_kind, episode_seed)
    assert rows == expected_rows
    assert (record.outcome, record.steps, record.score) == (
        outcome.kind.value, outcome.steps, outcome.score)
    assert (twins[0].outcome, twins[0].steps, twins[0].score) == (
        one_goal.kind.value, one_goal.steps, one_goal.score)
    counts[agent_kind, "steps"] += record.steps
    counts[agent_kind, "resets"] += sum(knowledge_reset for _, knowledge_reset, _ in rows)
    counts[agent_kind, record.outcome] += 1


@pytest.mark.parametrize("movement_time", [None, 25], ids=["static", "mutation"])
def test_golden_grid_runs_match_the_per_action_loop(movement_time):
    config = dataclasses.replace(GOLDEN_GRID, movement_time=(movement_time,))
    counts = Counter()
    for cell in config.cells():
        scenario = generate_scenario(scenario_params(config.fixed, cell))
        for rep in range(config.repetitions):
            check_episode(scenario, cell.agent, derive_episode_seed(config.master_seed, cell, rep),
                          counts)
    # Both scanning agents play scan runs, and only aggressive plays attack
    # runs. Under mutation most of careful's steps are scan-run steps, and
    # its runs end at resets and at the step limit; most of aggressive's are
    # attack-run steps, and its runs end the episode and cross mutations.
    assert counts["careful", "run_steps"] > 0
    assert counts["standard", "run_steps"] > 0
    assert counts["aggressive", "run_steps"] == 0
    assert counts["aggressive", "attack_run_steps"] > 0
    for kind in ("careful", "standard"):
        assert counts[kind, "attack_run_steps"] == 0
    if movement_time is not None:
        assert counts["careful", "run_steps"] > counts["careful", "steps"] / 2
        assert counts["careful", "resets"] > 0
        assert counts["careful", "run_ends_episode"] > 0
        assert counts["aggressive", "attack_run_steps"] > counts["aggressive", "steps"] / 2
        assert counts["aggressive", "attack_run_ends_episode"] > 0
        assert counts["aggressive", "attack_run_crosses_mutation"] > 0
    # Attack runs end at gains, at failed connections once addresses move,
    # at the step limit under mutation (no static aggressive episode of the
    # grid times out) and at sweeps' ends, and skip the addresses an entry
    # failed at in an earlier sweep. Every attack that draws gains, since
    # the grid's probabilities are 1.
    ends = ["gain", "sweep_end", "skipped"]
    if movement_time is not None:
        ends += ["connection_failed", "step_limit"]
    for end in ends:
        assert counts["aggressive", f"attack_run_{end}"] > 0, end
    assert counts["aggressive", "attack_run_drawn_failure"] == 0
    if movement_time is None:
        assert counts["aggressive", "attack_run_connection_failed"] == 0


def random_worlds(st, movement_times=(None, 1, 2, 7, 25)):
    """A hypothesis strategy of small worlds, with probabilities that fail
    attacks which draw and step limits that land inside the first runs."""
    return st.builds(
        GeneratorParams,
        num_hosts=st.integers(1, 12),
        num_honeypots=st.integers(0, 3),
        num_sensitive=st.integers(0, 3),
        movement_time=st.sampled_from(movement_times),
        one_goal=st.booleans(),
        seed=st.integers(0, 2**32),
        exploit_prob=st.sampled_from((0.5, 1.0)),
        privesc_prob=st.sampled_from((0.5, 1.0)),
        step_limit=st.integers(2, 300),
        num_addresses=st.sampled_from((24, 64, 256)),
    )


def test_random_worlds_runs_match_the_per_action_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    counts = Counter()

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(params=random_worlds(st), episode_seed=st.integers(0, 2**64 - 1))
    def check(params, episode_seed):
        scenario = generate_scenario(params)
        for kind in AGENT_KINDS:
            check_episode(scenario, kind, episode_seed, counts)

    check()
    for kind in ("careful", "standard"):
        assert counts[kind, "run_steps"] > 0
        assert counts[kind, "resets"] > 0
        assert counts[kind, "run_ends_episode"] > 0
    assert counts["aggressive", "attack_run_steps"] > 0
    # Probabilities of 0.5 also fail attacks that draw, inside a run.
    for end in ("gain", "connection_failed", "step_limit", "sweep_end", "skipped",
                "drawn_failure"):
        assert counts["aggressive", f"attack_run_{end}"] > 0, end


def check_untraced_episode(scenario, agent_kind, episode_seed, made):
    """Assert that the episode ends alike untraced and with a no-op trace
    sink: its records, its one-goal twin's, the agent's resets and
    knowledge, and the engine's addresses and generator state."""
    ends = []
    for trace_sink in (None, lambda *step: None):
        twins = []
        record = run_episode(scenario, agent_kind, episode_seed, trace_sink=trace_sink,
                             one_goal_sink=twins.append)
        agent, state = made[-2:]
        ends.append((record, twins, agent.resets, agent.knowledge, state.addresses,
                     state.rng.getstate()))
    assert ends[0] == ends[1]


@pytest.fixture
def fresh_passes(monkeypatch):
    """Count the fresh passes played, by agent kind and by how they end,
    and keep each episode's agent and state, in the order run_episode makes
    them; returns (counts, the made objects)."""
    counts, made = Counter(), []
    fresh_pass = engine._fresh_pass

    def counted_pass(state, addresses, kinds, learn, reset):
        before, resets = state.steps_taken, []
        fresh_pass(state, addresses, kinds, learn, lambda: (resets.append(1), reset()))
        after, movement_time = state.steps_taken, state.scenario.params.movement_time
        counts["passes", made[-2].kind] += 1
        counts["reset"] += bool(resets)
        counts["step_limit"] += state.outcome is not None
        if not resets and state.outcome is None:
            assert after - before == len(addresses) * len(kinds)
            counts["completed"] += 1
        # A mutation fired before the pass's last step.
        counts["crossed_mutation"] += (
            movement_time is not None and before // movement_time < (after - 1) // movement_time)

    def keep(make):
        return lambda *args: made.append(make(*args)) or made[-1]

    monkeypatch.setattr(engine, "_fresh_pass", counted_pass)
    monkeypatch.setattr(experiment, "make_agent", keep(make_agent))
    monkeypatch.setattr(experiment, "new_network_state", keep(new_network_state))
    return counts, made


def assert_passes_by_agent(counts: Counter) -> None:
    """Careful's scan phases and standard's first focus scans took fresh
    passes; aggressive, which never scans a host, took none."""
    for kind in ("careful", "standard"):
        assert counts["passes", kind] > 0, kind
    assert counts["passes", "aggressive"] == 0


@pytest.mark.parametrize("movement_time", [None, 25], ids=["static", "mutation"])
def test_golden_grid_untraced_runs_match_the_traced_loop(movement_time, fresh_passes):
    counts, made = fresh_passes
    config = dataclasses.replace(GOLDEN_GRID, movement_time=(movement_time,))
    for cell in config.cells():
        scenario = generate_scenario(scenario_params(config.fixed, cell))
        for rep in range(config.repetitions):
            check_untraced_episode(scenario, cell.agent,
                                   derive_episode_seed(config.master_seed, cell, rep), made)
    assert_passes_by_agent(counts)
    # Under mutation at 25 steps no careful pass of the golden grid completes.
    if movement_time is None:
        assert counts["completed"] > 0
    else:
        assert counts["reset"] > 0
        assert counts["step_limit"] > 0
        assert counts["crossed_mutation"] > 0


def test_random_worlds_untraced_runs_match_the_traced_loop(fresh_passes):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    counts, made = fresh_passes

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(params=random_worlds(st, (1, 2, 7, 25)),
                      episode_seed=st.integers(0, 2**64 - 1))
    def check(params, episode_seed):
        scenario = generate_scenario(params)
        for kind in AGENT_KINDS:
            check_untraced_episode(scenario, kind, episode_seed, made)

    check()
    assert_passes_by_agent(counts)
    for end in ("completed", "reset", "step_limit", "crossed_mutation"):
        assert counts[end] > 0, end
