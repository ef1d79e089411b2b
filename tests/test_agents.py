"""Agent tests: phase scripts, best-exploit choice, mutation restarts."""

import dataclasses
import random

import pytest
from helpers import (
    TRACE_VALIDATORS,
    build_world,
    collect_trace,
)
from test_golden import GOLDEN_GRID
from test_scan_runs import random_worlds

from deceptsim.agents import (
    AGENT_KINDS,
    CarefulAgent,
    Knowledge,
    ScriptedAgent,
    StandardAgent,
    make_agent,
)
from deceptsim.engine import Action, ActionKind, Observation
from deceptsim.experiment import derive_episode_seed, run_episode, scenario_params
from deceptsim.scenario import AccessLevel, GeneratorParams, generate_scenario

USER_EXPLOIT = (0, 0, 0, AccessLevel.USER, 1.0)
ROOT_EXPLOIT = (0, 0, 0, AccessLevel.ROOT, 1.0)
MISMATCHED_EXPLOIT = (5, 0, 0, AccessLevel.ROOT, 1.0)  # no host runs service 5


def addr(i):
    return i


def new_agent(kind, scenario, seed=0):
    return make_agent(kind, scenario, random.Random(seed))


def kinds_of(trace):
    return [action.kind for action, _ in trace]


def test_make_agent_returns_each_kind():
    scenario = build_world(num_sensitive=1)
    for kind in AGENT_KINDS:
        assert make_agent(kind, scenario, random.Random(0)).kind == kind


def test_make_agent_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown agent kind"):
        make_agent("reckless", build_world(num_sensitive=1), random.Random(0))


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_first_action_is_subnet_scan(kind):
    agent = new_agent(kind, build_world(num_sensitive=1))
    assert agent.next_action() == Action(ActionKind.SUBNET_SCAN)


def test_next_action_hands_over_each_kind_of_move():
    scenario = build_world(num_sensitive=1, num_normal=2)
    known = [addr(0), addr(1), addr(2)]
    agents = {kind: new_agent(kind, scenario) for kind in AGENT_KINDS}
    for agent in agents.values():
        agent.observe(
            Action(ActionKind.SUBNET_SCAN),
            Observation(success=True, discovered_addresses=tuple(known)),
        )
    # Careful's scan phase, which its subnet scan committed; standard's
    # whole focus; aggressive's entry and a shuffled sweep of every address.
    assert agents["careful"].next_action() == (known, CarefulAgent.SCAN_KINDS)
    standard = agents["standard"]
    assert standard.next_action() == ((standard.focus,), StandardAgent.SCAN_KINDS)
    assert standard.focus in known
    kind, ident, sweep = agents["aggressive"].next_action()
    assert (kind, ident) in agents["aggressive"].catalog
    assert sorted(sweep) == known


@pytest.fixture
def one_commitment(monkeypatch):
    """Make ``ScriptedAgent.committed`` fail on a write that would replace
    one committed move with another."""
    def get(agent):
        return vars(agent).get("_committed")

    def set_(agent, move):
        held = get(agent)
        assert held is None or move is None, f"{move!r} would overwrite {held!r}"
        vars(agent)["_committed"] = move

    monkeypatch.setattr(ScriptedAgent, "committed", property(get, set_), raising=False)


@pytest.mark.parametrize("movement_time", [None, 25], ids=["static", "mutation"])
def test_golden_grid_never_overwrites_a_commitment(movement_time, one_commitment):
    config = dataclasses.replace(GOLDEN_GRID, movement_time=(movement_time,))
    for cell in config.cells():
        scenario = generate_scenario(scenario_params(config.fixed, cell))
        for rep in range(config.repetitions):
            run_episode(scenario, cell.agent, derive_episode_seed(config.master_seed, cell, rep))


def test_random_worlds_never_overwrite_a_commitment(one_commitment):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(params=random_worlds(st), episode_seed=st.integers(0, 2**64 - 1))
    def check(params, episode_seed):
        scenario = generate_scenario(params)
        for kind in AGENT_KINDS:
            run_episode(scenario, kind, episode_seed)

    check()


def test_careful_completes_all_scans_before_attacking():
    scenario = build_world(num_sensitive=1, num_normal=2, one_goal=True)
    _, trace = collect_trace(scenario, "careful", episode_seed=11)
    kinds = kinds_of(trace)
    first_attack = kinds.index(ActionKind.EXPLOIT)
    prefix = trace[:first_attack]
    assert prefix[0][0] == Action(ActionKind.SUBNET_SCAN)
    scanned = {(action.kind, action.target) for action, _ in prefix[1:]}
    expected = {
        (kind, addr(i))
        for i in range(3)
        for kind in (ActionKind.SERVICE_SCAN, ActionKind.VULN_SCAN, ActionKind.OS_SCAN)
    }
    assert scanned == expected
    assert ActionKind.PROCESS_SCAN not in kinds[:first_attack]


def test_careful_prefers_root_granting_exploit():
    scenario = build_world(num_sensitive=1, exploits=(USER_EXPLOIT, ROOT_EXPLOIT))
    _, trace = collect_trace(scenario, "careful", episode_seed=5)
    exploit = next(a for a, _ in trace if a.kind is ActionKind.EXPLOIT)
    assert exploit.ident == 1


def test_careful_breaks_ties_by_lowest_exploit_id():
    scenario = build_world(num_sensitive=1, exploits=(ROOT_EXPLOIT, ROOT_EXPLOIT))
    _, trace = collect_trace(scenario, "careful", episode_seed=5)
    exploit = next(a for a, _ in trace if a.kind is ActionKind.EXPLOIT)
    assert exploit.ident == 0


def test_careful_user_access_path_ends_in_privesc():
    scenario = build_world(num_sensitive=1, exploits=(USER_EXPLOIT,), one_goal=True)
    record, trace = collect_trace(scenario, "careful", episode_seed=3)
    assert record.outcome == "win"
    assert kinds_of(trace) == [
        ActionKind.SUBNET_SCAN,
        ActionKind.SERVICE_SCAN,
        ActionKind.VULN_SCAN,
        ActionKind.OS_SCAN,
        ActionKind.EXPLOIT,
        ActionKind.PROCESS_SCAN,
        ActionKind.PRIVESC,
    ]


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_wiretaps_right_after_root(kind):
    # Two goal hosts under all-goals: the first root is not terminal, so the
    # wiretap reaction stays visible.
    scenario = build_world(
        num_sensitive=2, exploits=(ROOT_EXPLOIT,), step_limit=30, one_goal=False,
    )
    _, trace = collect_trace(scenario, kind, episode_seed=7)
    actions = [a for a, _ in trace]
    root_step = next(
        i for i, (a, o) in enumerate(trace) if a.kind is ActionKind.EXPLOIT and o.success
    )
    assert actions[root_step + 1].kind is ActionKind.WIRETAP
    assert actions[root_step + 1].target == actions[root_step].target


def test_standard_scans_one_host_vertically_then_attacks_it():
    scenario = build_world(num_sensitive=1, num_normal=2, one_goal=True)
    _, trace = collect_trace(scenario, "standard", episode_seed=1)
    actions = [a for a, _ in trace]
    assert actions[0] == Action(ActionKind.SUBNET_SCAN)
    focus = actions[1].target
    assert [a.kind for a in actions[1:5]] == [
        ActionKind.SERVICE_SCAN,
        ActionKind.OS_SCAN,
        ActionKind.VULN_SCAN,
        ActionKind.PROCESS_SCAN,
    ]
    assert all(a.target == focus for a in actions[1:6])
    assert actions[5].kind is ActionKind.EXPLOIT


def test_standard_exhausts_hosts_without_matching_exploits():
    scenario = build_world(
        num_sensitive=1, num_normal=2, exploits=(MISMATCHED_EXPLOIT,), step_limit=30,
    )
    record, trace = collect_trace(scenario, "standard", episode_seed=4)
    assert record.outcome == "timeout"
    kinds = kinds_of(trace)
    assert ActionKind.EXPLOIT not in kinds
    # All three hosts scanned, then nothing remains but re-discovery.
    assert kinds.count(ActionKind.SERVICE_SCAN) == 3
    assert kinds.count(ActionKind.SUBNET_SCAN) > 1


def test_standard_returns_to_user_host_for_privesc():
    scenario = build_world(num_sensitive=1, exploits=(USER_EXPLOIT,), one_goal=True)
    record, trace = collect_trace(scenario, "standard", episode_seed=2)
    assert record.outcome == "win"
    assert kinds_of(trace) == [
        ActionKind.SUBNET_SCAN,
        ActionKind.SERVICE_SCAN,
        ActionKind.OS_SCAN,
        ActionKind.VULN_SCAN,
        ActionKind.PROCESS_SCAN,
        ActionKind.EXPLOIT,
        # success at user level: the host is re-picked and re-scanned
        ActionKind.SERVICE_SCAN,
        ActionKind.OS_SCAN,
        ActionKind.VULN_SCAN,
        ActionKind.PROCESS_SCAN,
        ActionKind.PRIVESC,
    ]


def test_standard_wiretaps_after_root_then_moves_on():
    scenario = build_world(
        num_sensitive=2, exploits=(ROOT_EXPLOIT,), step_limit=40, one_goal=False,
    )
    _, trace = collect_trace(scenario, "standard", episode_seed=6)
    root_step = next(
        i for i, (a, o) in enumerate(trace) if a.kind is ActionKind.EXPLOIT and o.success
    )
    wiretap = trace[root_step + 1][0]
    assert wiretap.kind is ActionKind.WIRETAP
    assert wiretap.target == trace[root_step][0].target


def test_standard_never_repeats_a_failed_attempt():
    zero_prob = ((0, 0, 0, AccessLevel.ROOT, 0.0), (0, 0, 0, AccessLevel.USER, 0.0))
    scenario = build_world(num_sensitive=1, num_normal=2, exploits=zero_prob, step_limit=60)
    _, trace = collect_trace(scenario, "standard", episode_seed=8)
    attempts = [
        (a.target, a.ident) for a, _ in trace if a.kind is ActionKind.EXPLOIT
    ]
    assert len(attempts) == len(set(attempts)) == 6  # 3 hosts x 2 exploits, once each


def test_aggressive_never_scans_hosts_and_sweeps_one_action():
    scenario = build_world(
        num_sensitive=1, num_normal=2, exploits=(MISMATCHED_EXPLOIT,),
        privescs=((5, 1.0),), step_limit=30,
    )
    record, trace = collect_trace(scenario, "aggressive", episode_seed=9)
    assert record.outcome == "timeout"
    host_scans = {
        ActionKind.SERVICE_SCAN,
        ActionKind.OS_SCAN,
        ActionKind.VULN_SCAN,
        ActionKind.PROCESS_SCAN,
    }
    assert not host_scans & set(kinds_of(trace))
    sweeps = [
        (a.kind, a.ident)
        for a, _ in trace
        if a.kind in (ActionKind.EXPLOIT, ActionKind.PRIVESC)
    ]
    # One exploit sweep and one privesc sweep over 3 addresses each, in
    # either order, before total exhaustion forces subnet rescans.
    assert len(sweeps) == 6
    assert len(set(sweeps[:3])) == 1
    assert len(set(sweeps[3:])) == 1
    assert sweeps[0] != sweeps[3]


def test_a_run_of_failures_folds_once_and_counts_exhaustion_once():
    knowledge = Knowledge(addresses=[addr(0), addr(1), addr(2)])
    knowledge.options.update(dict.fromkeys(knowledge.addresses))
    knowledge.fail(ActionKind.EXPLOIT, 0, [addr(0), addr(1)])
    assert knowledge.failed[ActionKind.EXPLOIT, 0] == {addr(0), addr(1)}
    assert (knowledge.exhausted, list(knowledge.options)) == (0, [addr(2)])
    knowledge.fail(ActionKind.EXPLOIT, 0, [addr(2)])
    assert (knowledge.exhausted, knowledge.options) == (1, {})
    knowledge.fail(ActionKind.EXPLOIT, 0, [addr(1), addr(2)])
    knowledge.fail(ActionKind.PRIVESC, 0, [])
    assert knowledge.exhausted == 1


def test_aggressive_wiretaps_each_success():
    scenario = build_world(num_sensitive=1, num_normal=2, one_goal=True)
    _, trace = collect_trace(scenario, "aggressive", episode_seed=12)
    for i, (action, obs) in enumerate(trace[:-1]):
        if action.kind is ActionKind.EXPLOIT and obs.success:
            follow = trace[i + 1][0]
            assert follow.kind is ActionKind.WIRETAP
            assert follow.target == action.target


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_connection_failure_forces_subnet_rescan(kind):
    scenario = build_world(num_sensitive=1, num_normal=1)
    agent = new_agent(kind, scenario)
    agent.observe(
        Action(ActionKind.SUBNET_SCAN),
        Observation(success=True, discovered_addresses=(addr(0), addr(1))),
    )
    if kind == "aggressive":
        probe = Action(ActionKind.EXPLOIT, addr(1), 0)
    else:
        probe = Action(ActionKind.SERVICE_SCAN, addr(1))
    agent.observe(probe, Observation(success=False, connection_failed=True))
    assert agent.resets == 1
    assert agent.next_action() == Action(ActionKind.SUBNET_SCAN)


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_changed_subnet_reply_resets_knowledge(kind):
    scenario = build_world(num_sensitive=1, num_normal=1)
    agent = new_agent(kind, scenario)
    agent.observe(
        Action(ActionKind.SUBNET_SCAN),
        Observation(success=True, discovered_addresses=(addr(0), addr(1))),
    )
    agent.observe(
        Action(ActionKind.SUBNET_SCAN),
        Observation(success=True, discovered_addresses=(addr(0), addr(5))),
    )
    assert agent.resets == 1
    assert agent.knowledge.addresses == [addr(0), addr(5)]


@pytest.mark.parametrize("kind", ["careful", "standard"])
def test_contradicting_scan_resets_knowledge(kind):
    scenario = build_world(num_sensitive=1, num_normal=1)
    agent = new_agent(kind, scenario)
    agent.observe(
        Action(ActionKind.SUBNET_SCAN),
        Observation(success=True, discovered_addresses=(addr(0), addr(1))),
    )
    agent.observe(
        Action(ActionKind.SERVICE_SCAN, addr(0)),
        Observation(success=True, scanned=frozenset({0})),
    )
    agent.observe(
        Action(ActionKind.SERVICE_SCAN, addr(0)),
        Observation(success=True, scanned=frozenset({3})),
    )
    assert agent.resets == 1
    assert agent.next_action() == Action(ActionKind.SUBNET_SCAN)


@pytest.mark.parametrize("movement_time", [None, 3])
@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_world_without_hosts_plays_only_subnet_scans(kind, movement_time):
    # Every subnet scan lists no address, so no agent has a host to act on:
    # each step is a subnet scan until the step limit ends the episode.
    params = GeneratorParams(num_sensitive=0, num_hosts=0, num_honeypots=0,
                             movement_time=movement_time, step_limit=20)
    record, trace = collect_trace(generate_scenario(params), kind, episode_seed=5)
    assert (record.outcome, record.steps) == ("timeout", 20)
    assert kinds_of(trace) == [ActionKind.SUBNET_SCAN] * 20
    assert all(obs.discovered_addresses == () for _, obs in trace)


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_action_sequence_is_deterministic_per_seed(kind):
    scenario = generate_scenario(GeneratorParams(num_honeypots=2, movement_time=50))
    _, first = collect_trace(scenario, kind, episode_seed=77)
    _, again = collect_trace(scenario, kind, episode_seed=77)
    assert [a for a, _ in first] == [a for a, _ in again]
    others = [collect_trace(scenario, kind, episode_seed=s)[1] for s in (78, 79, 80)]
    assert any([a for a, _ in t] != [a for a, _ in first] for t in others)


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_reference_automata_accept_seeded_episodes(kind):
    validator = TRACE_VALIDATORS[kind]
    for seed in (1234, 42, 24121997):
        for honeypots, movement in ((0, None), (2, 25), (4, 75)):
            scenario = generate_scenario(
                GeneratorParams(num_honeypots=honeypots, movement_time=movement, seed=seed)
            )
            for episode_seed in range(3):
                _, trace = collect_trace(scenario, kind, episode_seed)
                validator(scenario, trace)
