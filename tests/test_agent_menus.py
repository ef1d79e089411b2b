"""The agents' indexed menus against the menus rebuilt from scratch.

The careful agent memoizes each address's attack option, and the
aggressive agent reads the size of each catalog entry's failed set instead
of testing every known address against it. The references below rebuild
both menus from ``Knowledge`` alone, the way the agents did before they kept
those indexes; every step of every checked episode compares the two. Steps
of a scan run reach no decision, so the check runs from the trace sink,
after every step, rather than before each decision.

The aggressive agent also keeps its last viable list until an entry is
exhausted, the address count changes or the knowledge is wiped; the check
counts the steps at which the kept list is the one compared.

The standard agent attacks its focus with the careful agent's per-address
rule, which picks what standard's own rule picked only while the focus is
fully scanned and below root; every standard choice checks that it is.
"""

import dataclasses
import random
from collections import Counter

import pytest

from deceptsim import experiment
from deceptsim.agents import AGENT_KINDS, CarefulAgent, make_agent
from deceptsim.engine import Action, ActionKind, Observation, new_network_state
from deceptsim.engine import step as engine_step
from deceptsim.experiment import derive_episode_seed, run_episode, run_sweep, scenario_params
from deceptsim.scenario import AccessLevel, GeneratorParams, generate_scenario
from test_golden import GOLDEN_GRID


# ---------------------------------------------------------------------------
# The reference menus


def _best_exploit(agent, address):
    knowledge = agent.knowledge
    belief = knowledge.beliefs.get(address)
    if belief is None or belief.services is None or belief.vulns is None or belief.os is None:
        return None
    candidates = [
        e
        for e in agent.exploits
        if address not in knowledge.failed.get((ActionKind.EXPLOIT, e.id), ())
        and e.matches(belief.services, belief.vulns, belief.os)
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda e: (-int(e.grants), e.id))


def _untried_privesc(agent, address):
    knowledge = agent.knowledge
    belief = knowledge.beliefs.get(address)
    if belief is None or belief.processes is None:
        return None
    candidates = [
        p
        for p in agent.privescs
        if address not in knowledge.failed.get((ActionKind.PRIVESC, p.id), ())
        and p.required_process in belief.processes
    ]
    return min(candidates, key=lambda p: p.id) if candidates else None


def reference_attack_options(agent):
    """The careful agent's attack menu, in address order, from scratch."""
    options = []
    for address in agent.knowledge.addresses:
        belief = agent.knowledge.beliefs.get(address)
        if belief is None:
            continue
        if belief.access is AccessLevel.NONE:
            exploit = _best_exploit(agent, address)
            if exploit is not None:
                options.append(Action(ActionKind.EXPLOIT, address, exploit.id))
        elif belief.access is AccessLevel.USER:
            if belief.processes is None:
                options.append(Action(ActionKind.PROCESS_SCAN, address))
            else:
                privesc = _untried_privesc(agent, address)
                if privesc is not None:
                    options.append(Action(ActionKind.PRIVESC, address, privesc.id))
    return options


def reference_viable(agent):
    """The aggressive agent's catalog entries with an untried known address."""
    knowledge = agent.knowledge
    return [
        (kind, ident)
        for kind, ident in agent.catalog
        if any(address not in knowledge.failed.get((kind, ident), ())
               for address in knowledge.addresses)
    ]


def check_menus(agent, seen: Counter) -> None:
    """Assert the agent's indexes agree with the knowledge they index."""
    knowledge = agent.knowledge
    known, sets = set(knowledge.addresses), knowledge.failed.values()
    assert all(tried <= known for tried in sets)
    assert knowledge.exhausted == sum(len(tried) >= len(known) for tried in sets)
    seen[agent.kind, "steps"] += 1
    seen[agent.kind, "failed"] += bool(knowledge.failed)
    if agent.kind == "careful":
        menu = agent._attack_options()
        assert menu == reference_attack_options(agent)
        seen["careful", "menu"] += bool(menu)
    elif agent.kind == "aggressive":
        memo = agent.viable_memo
        viable = agent._viable()
        agent.viable_memo = memo  # the check must not refresh the agent's list
        assert viable == reference_viable(agent)
        seen["aggressive", "spent"] += len(viable) < len(agent.catalog)
        if memo is not None and viable is memo[1]:
            seen["aggressive", "hit"] += 1
            seen["aggressive", "hit_after_reset"] += agent.resets > 0


def check_focus(agent, seen: Counter) -> None:
    """Assert the standard agent's focus, if any, is fully scanned and below
    root: the state in which the shared attack rule picks what standard's
    own rule picked."""
    if agent.focus is not None:
        belief = agent.knowledge.beliefs.get(agent.focus)
        assert belief is not None and belief.access < AccessLevel.ROOT
        assert None not in (belief.services, belief.os, belief.vulns, belief.processes)
        seen["standard", "focus"] += 1


def run_checked(scenario, kind, episode_seed, seen: Counter, repetition=0):
    """``run_episode`` with the agent's menus checked after every step, and
    the standard agent's focus before every choice; counts what was checked
    into ``seen``."""
    agents = []
    original = experiment.make_agent

    def make(*args):
        agent = original(*args)
        if agent.kind == "standard":
            choose = agent._choose

            def checked_choose():
                check_focus(agent, seen)
                return choose()

            agent._choose = checked_choose
        agents.append(agent)
        return agent

    def check(*step):
        check_menus(agents[-1], seen)

    experiment.make_agent = make
    try:
        return run_episode(scenario, kind, episode_seed, repetition, trace_sink=check)
    finally:
        experiment.make_agent = original


# ---------------------------------------------------------------------------
# Whole episodes


@pytest.mark.parametrize("movement_time", [None, 25], ids=["static", "mutation"])
def test_golden_grid_menus_match_the_reference(movement_time):
    # A sweep plays every episode under the all-goals objective.
    config = dataclasses.replace(
        GOLDEN_GRID, movement_time=(movement_time,), one_goal=(False,))
    seen = Counter()
    records = []
    for cell in config.cells():
        scenario = generate_scenario(scenario_params(config.fixed, cell))
        for rep in range(config.repetitions):
            seed = derive_episode_seed(config.master_seed, cell, rep)
            records.append(run_checked(scenario, cell.agent, seed, seen, rep))
    assert records == run_sweep(config)
    for kind in AGENT_KINDS:
        assert seen[kind, "steps"] > 0
    # The grid reaches the states the indexes must follow: careful menus to
    # choose from and, once addresses move, aggressive's spent entries.
    # Careful's failed attempts need exploit probabilities below 1, which
    # the random worlds below draw. Aggressive's kept list is the one
    # compared, under mutation also after a wipe.
    assert seen["careful", "menu"] > 0
    assert seen["standard", "focus"] > 0
    assert seen["aggressive", "hit"] > 0
    if movement_time is not None:
        assert seen["aggressive", "spent"] > 0
        assert seen["aggressive", "hit_after_reset"] > 0


def test_random_worlds_menus_match_the_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    probabilities = st.sampled_from((0.3, 0.6, 0.9))
    worlds = st.builds(
        GeneratorParams,
        num_hosts=st.integers(1, 10),
        num_honeypots=st.integers(1, 3),
        num_sensitive=st.integers(0, 3),
        movement_time=st.sampled_from((None, 7, 25)),
        one_goal=st.booleans(),
        seed=st.integers(0, 2**32),
        num_os=st.integers(1, 2),
        exploit_prob=probabilities,
        privesc_prob=probabilities,
        step_limit=st.integers(20, 400),
        num_addresses=st.sampled_from((24, 64, 256)),
    )
    seen_total = Counter()

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(params=worlds, episode_seed=st.integers(0, 2**64 - 1))
    def check(params, episode_seed):
        scenario = generate_scenario(params)
        for kind in AGENT_KINDS:
            run_checked(scenario, kind, episode_seed, seen_total)

    check()
    assert seen_total["careful", "failed"] > 0
    assert seen_total["standard", "focus"] > 0
    assert seen_total["aggressive", "spent"] > 0
    assert seen_total["aggressive", "hit"] > 0


# ---------------------------------------------------------------------------
# Replies the scripts never send twice


@pytest.mark.parametrize("kind", ["careful", "aggressive"])
def test_a_failure_observed_twice_counts_once(kind):
    scenario = generate_scenario(GeneratorParams(num_hosts=1, num_sensitive=1))
    state = new_network_state(scenario, random.Random(0))
    agent = make_agent(kind, scenario, random.Random(0))
    seen = Counter()

    def play(action):
        obs, _ = engine_step(state, action)
        agent.observe(action, obs)
        check_menus(agent, seen)

    play(Action(ActionKind.SUBNET_SCAN))
    target = state.addresses[scenario.sensitive_ids[0]]
    for scan in CarefulAgent.SCAN_KINDS:
        play(Action(scan, target))
    attack = agent._attack_options()[0] if kind == "careful" else Action(
        ActionKind.EXPLOIT, target, 0)
    for _ in range(2):
        agent.observe(attack, Observation(success=False))
        check_menus(agent, seen)
    assert sum(map(len, agent.knowledge.failed.values())) == 1


def test_aggressive_viable_list_follows_the_address_count():
    # A list kept while no address was known is not the answer once some are.
    scenario = generate_scenario(GeneratorParams(num_hosts=1, num_sensitive=1))
    state = new_network_state(scenario, random.Random(0))
    agent = make_agent("aggressive", scenario, random.Random(0))
    assert agent._viable() == []
    obs, _ = engine_step(state, Action(ActionKind.SUBNET_SCAN))
    agent.observe(Action(ActionKind.SUBNET_SCAN), obs)
    assert agent._viable() == reference_viable(agent) == agent.catalog
