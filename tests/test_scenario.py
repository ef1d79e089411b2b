"""World generation tests: determinism, layout, rootability, the golden world."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from deceptsim.scenario import (
    TARGET_SUBNET,
    AccessLevel,
    CapacityError,
    GeneratorParams,
    HostKind,
    ParameterError,
    Scenario,
    draw_world,
    generate_scenario,
    scenario_to_dict,
    scenario_to_json,
)

DATA_DIR = Path(__file__).parent / "data"


def host_is_rootable(scenario: Scenario, host_id: int) -> bool:
    host = scenario.hosts[host_id]
    matching = [
        e for e in scenario.exploits if e.matches(host.services, host.vulns, host.os)
    ]
    if any(e.grants is AccessLevel.ROOT for e in matching):
        return True
    if not matching:
        return False
    return any(p.required_process in host.processes for p in scenario.privescs)


# These two draw each world afresh: through generate_scenario's memo, a
# second call with the same params would not generate anything.
def test_generation_is_deterministic():
    params = GeneratorParams(num_honeypots=4, seed=42)
    assert scenario_to_json(draw_world(params)) == scenario_to_json(draw_world(params))


def test_different_seeds_give_different_worlds():
    jsons = {
        scenario_to_json(draw_world(GeneratorParams(seed=s)))
        for s in (1234, 42, 24121997)
    }
    assert len(jsons) == 3


def test_host_layout_counts_and_order():
    params = GeneratorParams(num_hosts=10, num_honeypots=4, num_sensitive=3)
    scenario = generate_scenario(params)
    kinds = [h.kind for h in scenario.hosts]
    assert len(scenario.initial_addresses) == params.target_capacity == 255
    assert kinds[:3] == [HostKind.SENSITIVE] * 3
    assert kinds[3:13] == [HostKind.NORMAL] * 10
    assert kinds[13:] == [HostKind.HONEYPOT] * 4
    assert scenario.sensitive_ids == (0, 1, 2)
    assert scenario.honeypot_ids == (13, 14, 15, 16)
    assert [h.id for h in scenario.hosts] == list(range(17))


def test_host_values_by_kind():
    scenario = generate_scenario(GeneratorParams(num_honeypots=2))
    by_kind = {kind: set() for kind in HostKind}
    for host in scenario.hosts:
        by_kind[host.kind].add(host.value)
    assert by_kind[HostKind.SENSITIVE] == {1000.0}
    assert by_kind[HostKind.HONEYPOT] == {-1000.0}
    assert by_kind[HostKind.NORMAL] == {1.0}


def test_address_map_is_a_bijection():
    scenario = generate_scenario(GeneratorParams(num_honeypots=9, seed=24121997))
    addresses = scenario.initial_addresses
    assert len(scenario.hosts) == 22
    assert len(addresses) == len(set(addresses)) == 255
    assert sorted(addresses) == list(range(255))


@pytest.mark.parametrize("seed", [1234, 42, 24121997])
@pytest.mark.parametrize("num_honeypots", [0, 2, 6, 10])
def test_every_goal_host_is_rootable(seed, num_honeypots):
    # An unexploitable sensitive host would make the seed unwinnable and an
    # unexploitable honeypot would be a free pass, poisoning the statistics.
    scenario = generate_scenario(GeneratorParams(num_honeypots=num_honeypots, seed=seed))
    for host_id in scenario.sensitive_ids + scenario.honeypot_ids:
        assert host_is_rootable(scenario, host_id)


def test_rootable_without_privescs():
    params = GeneratorParams(num_privescs=0, num_honeypots=2, seed=7)
    scenario = generate_scenario(params)
    for host_id in scenario.sensitive_ids + scenario.honeypot_ids:
        host = scenario.hosts[host_id]
        assert any(
            e.grants is AccessLevel.ROOT and e.matches(host.services, host.vulns, host.os)
            for e in scenario.exploits
        )


def test_exploit_requirements_cover_all_services_and_vulns():
    scenario = generate_scenario(GeneratorParams())
    assert [e.required_service for e in scenario.exploits] == list(range(10))
    assert [e.required_vuln for e in scenario.exploits] == list(range(10))
    assert all(e.required_os == 0 for e in scenario.exploits)
    assert all(e.grants in (AccessLevel.USER, AccessLevel.ROOT) for e in scenario.exploits)
    assert [p.required_process for p in scenario.privescs] == list(range(10))


def test_zero_honeypots():
    scenario = generate_scenario(GeneratorParams(num_honeypots=0))
    assert scenario.honeypot_ids == ()
    assert len(scenario.hosts) == 13


def test_fifty_hosts_fit():
    scenario = generate_scenario(GeneratorParams(num_hosts=50, num_honeypots=10))
    assert len(scenario.hosts) == 63


def test_capacity_error():
    with pytest.raises(CapacityError):
        generate_scenario(GeneratorParams(num_hosts=260))
    with pytest.raises(CapacityError):
        generate_scenario(GeneratorParams(num_hosts=250, num_honeypots=10))


@pytest.mark.parametrize(
    "overrides",
    [
        {"num_hosts": -1},
        {"num_honeypots": -2},
        {"num_sensitive": -1},
        {"num_os": 0},
        {"movement_time": 0},
        {"movement_time": -25},
        {"exploit_prob": 1.5},
        {"privesc_prob": -0.1},
        {"step_limit": 0},
        {"num_exploits": 0},
        {"num_services": 0},
        {"num_vulns": 0},
        # Exploits need a service and a vulnerability to require, goal
        # hosts or not.
        {"num_sensitive": 0, "num_services": 0},
        {"num_sensitive": 0, "num_vulns": 0},
        # No privesc, and seed 1's one exploit grants only user access.
        {"num_exploits": 1, "num_privescs": 0, "seed": 1},
        {"num_addresses": 0},
        {"num_processes": 0},
        {"r_sensitive": float("nan")},
        # A value of another type than its field's.
        {"one_goal": 1},
    ],
)
def test_invalid_parameters_rejected(overrides):
    with pytest.raises(ParameterError):
        generate_scenario(GeneratorParams(**overrides))


@pytest.mark.parametrize("name", ["host_discovery_value", "action_cost", "uniform", "num_subnets"])
def test_not_modelled_knobs_are_not_parameters(name):
    # Paper-table keys the model ignores are checked where configs are read
    # (cli.NOT_MODELLED); the world takes no such field, at any value.
    with pytest.raises(TypeError, match=name):
        GeneratorParams(**{name: 1})


def test_a_world_without_exploits_needs_no_services():
    scenario = generate_scenario(GeneratorParams(
        num_sensitive=0, num_exploits=0, num_services=0, num_vulns=0))
    assert scenario.exploits == ()
    assert all(host.services == frozenset() for host in scenario.hosts)


def test_movement_time_none_and_positive_accepted():
    generate_scenario(GeneratorParams(movement_time=None))
    generate_scenario(GeneratorParams(movement_time=25))


def test_params_are_frozen():
    params = GeneratorParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.num_hosts = 5


def test_exploits_cover_every_os():
    # Exploit i requires OS i % num_os, as it requires service i % num_services,
    # so hosts running any OS can be exploited.
    scenario = generate_scenario(GeneratorParams(num_os=2, num_hosts=50))
    assert {e.required_os for e in scenario.exploits} == {0, 1}
    os_one = [h for h in scenario.hosts if h.kind is HostKind.NORMAL and h.os == 1]
    assert any(
        e.matches(h.services, h.vulns, h.os) for h in os_one for e in scenario.exploits
    )


def test_golden_world_is_stable():
    # Frozen snapshot of one generated world; fails if the generation
    # algorithm or its draw order ever changes.
    golden = (DATA_DIR / "scenario_h2_seed1234.json").read_text().strip()
    scenario = generate_scenario(GeneratorParams(num_honeypots=2, seed=1234))
    assert scenario_to_json(scenario) == golden
    # Keep the golden file honest too.
    assert json.loads(golden)["params"]["num_honeypots"] == 2


def reference_scenario_dict(scenario: Scenario) -> dict:
    """The world JSON with every field written out by hand: the reference
    the dataclass-derived ``scenario_to_dict`` is checked against. The
    hosts are the real ones; the initial addresses, empty ones included,
    are [subnet, index] pairs in ``Scenario.initial_addresses`` order."""
    p = scenario.params
    return {
        "params": {
            "num_hosts": p.num_hosts,
            "num_honeypots": p.num_honeypots,
            "movement_time": p.movement_time,
            "one_goal": p.one_goal,
            "seed": p.seed,
            "num_sensitive": p.num_sensitive,
            "num_services": p.num_services,
            "num_os": p.num_os,
            "num_processes": p.num_processes,
            "num_exploits": p.num_exploits,
            "num_privescs": p.num_privescs,
            "num_vulns": p.num_vulns,
            "r_sensitive": p.r_sensitive,
            "r_honeypot": p.r_honeypot,
            "base_host_value": p.base_host_value,
            "exploit_prob": p.exploit_prob,
            "privesc_prob": p.privesc_prob,
            "step_limit": p.step_limit,
            "num_addresses": p.num_addresses,
        },
        "hosts": [
            {
                "id": h.id,
                "kind": h.kind.value,
                "services": sorted(h.services),
                "os": h.os,
                "processes": sorted(h.processes),
                "vulns": sorted(h.vulns),
                "value": h.value,
            }
            for h in scenario.hosts
        ],
        "exploits": [
            {
                "id": e.id,
                "required_service": e.required_service,
                "required_vuln": e.required_vuln,
                "required_os": e.required_os,
                "grants": e.grants.name.lower(),
                "prob": e.prob,
            }
            for e in scenario.exploits
        ],
        "privescs": [
            {"id": p.id, "required_process": p.required_process, "prob": p.prob}
            for p in scenario.privescs
        ],
        "initial_addresses": [[TARGET_SUBNET, index] for index in scenario.initial_addresses],
    }


def _drawn_params(draw: int) -> GeneratorParams:
    rng = random.Random(draw)
    return GeneratorParams(
        num_os=rng.randint(1, 3),
        num_privescs=rng.choice((0, rng.randint(1, 12))),
        num_honeypots=rng.randint(0, 10),
        num_sensitive=rng.randint(0, 3),
        num_hosts=rng.randint(0, 50),
        seed=rng.getrandbits(32),
    )


@pytest.mark.parametrize("draw", range(40))
def test_scenario_to_dict_matches_the_hand_written_reference(draw):
    scenario = generate_scenario(_drawn_params(draw))
    expected = json.dumps(reference_scenario_dict(scenario), sort_keys=True)
    assert json.dumps(scenario_to_dict(scenario), sort_keys=True) == expected
