"""The engine's terminal gate against a full check after every step.

``engine.step`` runs ``check_termination`` only after a gain that can end
the episode (any access to a honeypot, root on a sensitive host) and once
the step limit is reached, and it notes ``one_goal_win`` at the first root
on a sensitive host. On hypothesis-drawn worlds, after every step of every
agent, the full check must equal ``state.outcome``, and ``one_goal_win``
must be the win that the same check, under the one-goal objective, first
finds. ``tests/test_golden.py`` makes the first comparison on the golden
grid without hypothesis.
"""

import dataclasses
from collections import Counter

import pytest

from deceptsim.agents import AGENT_KINDS
from deceptsim.engine import ActionKind, OutcomeKind, check_termination
from deceptsim.experiment import run_episode
from deceptsim.scenario import AccessLevel, GeneratorParams, generate_scenario


def run_checked(scenario, agent_kind, episode_seed, seen):
    one_goal = dataclasses.replace(
        scenario, params=dataclasses.replace(scenario.params, one_goal=True))
    first_one_goal_win = None

    def sink(action, obs, state, knowledge_reset):
        nonlocal first_one_goal_win
        assert check_termination(state) == state.outcome, (state.steps_taken, action)
        if first_one_goal_win is None:
            outcome = check_termination(dataclasses.replace(state, scenario=one_goal))
            if outcome is not None and outcome.kind is OutcomeKind.WIN:
                first_one_goal_win = outcome
        assert state.one_goal_win == first_one_goal_win, (state.steps_taken, action)
        if state.outcome is not None:
            seen[state.outcome.kind, action.kind, obs.access_gained] += 1

    run_episode(scenario, agent_kind, episode_seed, trace_sink=sink)


def test_gated_checks_match_the_full_check_on_drawn_worlds():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    probabilities = st.floats(0.3, 1.0)
    worlds = st.builds(
        GeneratorParams,
        num_hosts=st.integers(0, 8),
        num_honeypots=st.integers(0, 3),
        num_sensitive=st.integers(0, 3),
        exploit_prob=probabilities,
        privesc_prob=probabilities,
        one_goal=st.booleans(),
        movement_time=st.sampled_from((None, 7)),
        step_limit=st.integers(5, 300),
        seed=st.integers(0, 2**32),
    )
    seen = Counter()

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(params=worlds, episode_seed=st.integers(0, 2**64 - 1))
    def check(params, episode_seed):
        scenario = generate_scenario(params)
        for kind in AGENT_KINDS:
            run_checked(scenario, kind, episode_seed, seen)

    check()
    # The drawn episodes end in each way the gate must let through: a user
    # gain on a honeypot, a win by privilege escalation, and a timeout.
    user, root = AccessLevel.USER, AccessLevel.ROOT
    assert seen[OutcomeKind.LOSS_HONEYPOT, ActionKind.EXPLOIT, user] > 0
    assert seen[OutcomeKind.WIN, ActionKind.PRIVESC, root] > 0
    assert sum(n for (kind, _, _), n in seen.items() if kind is OutcomeKind.TIMEOUT) > 0
