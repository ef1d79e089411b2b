"""The engine's address index against the full inverse.

``NetworkState.addr_to_host`` maps only the hosts' addresses, and
``_checked_host`` resolves any other address in the target subnet to an
empty one. The reference here is the straightforward path: the inverse of
the whole address list, in which an id at or past ``len(hosts)`` is an
empty address. After every mutation, every address's reply to every host
scan and to a wiretap, through ``step`` and through ``run_scans``, must be
the one that inverse gives; the subnet scan must list the sorted host
addresses; and a malformed target must be rejected before any counter
moves.
"""

import random

import pytest

from deceptsim.agents import Knowledge
from deceptsim.engine import (
    SCAN_FIELDS,
    Action,
    ActionKind,
    InvalidActionError,
    Observation,
    mutate_addresses,
    new_network_state,
    run_scans,
    step,
)
from deceptsim.scenario import GeneratorParams, generate_scenario

HOST_ACTIONS = (*SCAN_FIELDS, ActionKind.WIRETAP)


def expected_reply(scenario, host_id, kind):
    """What the host behind an address answers, read off the host itself;
    an id at or past ``len(hosts)`` is an empty address."""
    if host_id >= len(scenario.hosts):
        return Observation(success=False, connection_failed=True)
    if kind is ActionKind.WIRETAP:
        return Observation(success=False)  # nothing is at root access
    return Observation(success=True, scanned=getattr(scenario.hosts[host_id], SCAN_FIELDS[kind]))


def malformed_targets(capacity):
    return [None, (1, 0), True, -1, capacity, 0.0]


def run_one_scan(state, kind, address):
    """The reply run_scans gives to a one-scan run."""
    replies = []
    knowledge = Knowledge()
    run_scans(state, ((address,), (kind,)), knowledge, knowledge.clear,
              trace_sink=lambda _action, obs, _state, _reset: replies.append(obs))
    return replies[0]


def check_against_full_inverse(state):
    scenario = state.scenario
    inverse = {a: h for h, a in enumerate(state.addresses)}
    capacity = scenario.params.target_capacity
    assert sorted(inverse) == list(range(capacity))
    assert state.addr_to_host == {a: h for a, h in inverse.items() if h < len(scenario.hosts)}
    obs, _ = step(state, Action(ActionKind.SUBNET_SCAN))
    assert obs.discovered_addresses == tuple(sorted(
        a for a, h in inverse.items() if h < len(scenario.hosts)))
    for address in range(capacity):
        for kind in HOST_ACTIONS:
            expected = expected_reply(scenario, inverse[address], kind)
            assert step(state, Action(kind, address))[0] == expected
            if kind in SCAN_FIELDS:
                assert run_one_scan(state, kind, address) == expected
    for target in malformed_targets(capacity):
        counters = state.steps_taken, list(state.addresses)
        for kind in (ActionKind.SERVICE_SCAN, ActionKind.WIRETAP):
            with pytest.raises(InvalidActionError):
                step(state, Action(kind, target))
            assert (state.steps_taken, state.addresses) == counters
        with pytest.raises(InvalidActionError):
            run_scans(state, ((target,), (ActionKind.SERVICE_SCAN,)), Knowledge(), None)
        assert (state.steps_taken, state.addresses) == counters


def test_index_matches_the_full_inverse_across_mutations():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def worlds(draw):
        counts = {
            "num_sensitive": draw(st.integers(0, 3)),
            "num_hosts": draw(st.integers(0, 10)),
            "num_honeypots": draw(st.integers(0, 3)),
        }
        # No spare address leaves the subnet without an empty address.
        spare = draw(st.sampled_from((0, 0, 1, 2, 30)))
        return GeneratorParams(
            **counts,
            seed=draw(st.integers(0, 2**32)),
            num_addresses=sum(counts.values()) + spare + 1,
            step_limit=10**9,
        )

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(params=worlds(), mutation_seeds=st.lists(st.integers(0, 2**32), max_size=4))
    def check(params, mutation_seeds):
        scenario = generate_scenario(params)
        # The hosts are the real ones; the addresses are the whole subnet.
        assert len(scenario.hosts) == params.num_sensitive + params.num_hosts + params.num_honeypots
        assert sorted(scenario.initial_addresses) == list(range(params.target_capacity))
        state = new_network_state(scenario, random.Random(0))
        check_against_full_inverse(state)
        for seed in mutation_seeds:
            state.rng = random.Random(seed)
            mutate_addresses(state)
            check_against_full_inverse(state)

    check()


@pytest.mark.parametrize("spare", [0, 5], ids=["no_filler", "fillers"])
def test_malformed_targets_are_rejected_in_every_world(spare):
    # With no empty address every address in the subnet is indexed, so a
    # True or a 0.0 that hashed its way into the index would be played.
    params = GeneratorParams(num_hosts=4, num_sensitive=1, num_addresses=5 + spare + 1)
    state = new_network_state(generate_scenario(params), random.Random(0))
    assert (len(state.addr_to_host) == params.target_capacity) == (spare == 0)
    check_against_full_inverse(state)
