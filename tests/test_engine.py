"""Engine tests: action semantics, terminal rules, mutation schedule and law."""

import random

import pytest
from helpers import build_world

from deceptsim.engine import (
    Action,
    ActionKind,
    EpisodeOutcome,
    EpisodeTerminatedError,
    InvalidActionError,
    NetworkState,
    Observation,
    OutcomeKind,
    check_termination,
    episode_score,
    mutate_addresses,
    new_network_state,
    run_attacks,
    run_scans,
    step,
    trace_record,
)
from deceptsim.agents import Knowledge
from deceptsim.scenario import (
    AccessLevel,
    GeneratorParams,
    generate_scenario,
)

USER_EXPLOIT = (0, 0, 0, AccessLevel.USER, 1.0)
ROOT_EXPLOIT = (0, 0, 0, AccessLevel.ROOT, 1.0)
MISMATCHED_EXPLOIT = (5, 0, 0, AccessLevel.ROOT, 1.0)  # no host runs service 5


def fresh(scenario, seed=0):
    return new_network_state(scenario, random.Random(seed))


def addr(i):
    return i


def test_step_and_cost_accounting():
    state = fresh(build_world(num_sensitive=1, num_normal=2))
    for n in range(1, 6):
        _, state = step(state, Action(ActionKind.SERVICE_SCAN, addr(1)))
        assert state.steps_taken == n


def test_subnet_scan_lists_only_non_empty_hosts():
    scenario = build_world(num_sensitive=1, num_normal=2, num_honeypots=1, num_empty=3)
    obs, _ = step(fresh(scenario), Action(ActionKind.SUBNET_SCAN))
    assert obs.success
    assert obs.discovered_addresses == (addr(0), addr(1), addr(2), addr(3))


def test_scans_report_true_configuration():
    scenario = build_world(num_sensitive=1)
    state = fresh(scenario)
    host = scenario.hosts[0]
    obs, _ = step(state, Action(ActionKind.SERVICE_SCAN, addr(0)))
    assert obs.scanned == host.services
    obs, _ = step(state, Action(ActionKind.OS_SCAN, addr(0)))
    assert obs.scanned == host.os
    obs, _ = step(state, Action(ActionKind.VULN_SCAN, addr(0)))
    assert obs.scanned == host.vulns
    obs, _ = step(state, Action(ActionKind.PROCESS_SCAN, addr(0)))
    assert obs.scanned == host.processes


def test_empty_host_yields_connection_failed():
    scenario = build_world(num_sensitive=1, num_empty=1)
    state = fresh(scenario)
    for action in (
        Action(ActionKind.SERVICE_SCAN, addr(1)),
        Action(ActionKind.EXPLOIT, addr(1), 0),
        Action(ActionKind.WIRETAP, addr(1)),
    ):
        obs, state = step(state, action)
        assert obs.connection_failed
        assert not obs.success
    assert state.access == {}
    assert state.steps_taken == 3  # cost is charged even for failed connections


def test_invalid_target_rejected_before_accounting():
    state = fresh(build_world(num_sensitive=1))
    with pytest.raises(InvalidActionError):
        step(state, Action(ActionKind.SERVICE_SCAN, (0, 0)))  # attacker subnet
    with pytest.raises(InvalidActionError):
        step(state, Action(ActionKind.SERVICE_SCAN, addr(99)))  # outside address space
    assert state.steps_taken == 0


MALFORMED = {
    "no_target": Action(ActionKind.SERVICE_SCAN),
    "exploit_without_target": Action(ActionKind.EXPLOIT, ident=0),
    "exploit_id_none": Action(ActionKind.EXPLOIT, addr(0)),
    "exploit_id_unknown": Action(ActionKind.EXPLOIT, addr(0), 7),
    "exploit_id_not_int": Action(ActionKind.EXPLOIT, addr(0), "0"),
    "privesc_id_none": Action(ActionKind.PRIVESC, addr(0)),
    "privesc_id_unknown": Action(ActionKind.PRIVESC, addr(0), -1),
    "unknown_kind": Action("port_knock", addr(0)),
    "subnet_scan_target": Action(ActionKind.SUBNET_SCAN, addr(99)),
}


@pytest.mark.parametrize("action", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_action_rejected_before_accounting(action):
    state = fresh(build_world(num_sensitive=1, movement_time=1))
    with pytest.raises(InvalidActionError):
        step(state, action)
    assert state.steps_taken == 0
    assert state.addresses == [addr(0)]


@pytest.mark.parametrize("addresses, kinds, steps", [
    ((addr(0), (0, 0), addr(1)), (ActionKind.SERVICE_SCAN,), 1),  # attacker subnet
    ((addr(0), None, addr(1)), (ActionKind.OS_SCAN,), 1),
    ((addr(0), addr(1)), (ActionKind.SERVICE_SCAN, ActionKind.EXPLOIT), 0),  # not a host scan
    ((addr(0), addr(1)), (ActionKind.SERVICE_SCAN, ActionKind.SUBNET_SCAN), 0),
    ((addr(0), addr(1)), (ActionKind.SERVICE_SCAN, "port_knock"), 0),
    ((addr(0), addr(1)), ("service_scan",), 0),  # a value, as step refuses it
], ids=["target", "no_target", "exploit", "subnet_scan", "unknown_kind", "kind_value"])
def test_malformed_run_scan_rejected_before_accounting(addresses, kinds, steps):
    # A bad target raises in its turn, a bad kind before the first scan, in
    # the untraced fresh pass and in the traced per-scan loop alike.
    for trace_sink in (None, lambda *_: None):
        state = fresh(build_world(num_sensitive=1, num_normal=1))
        knowledge = Knowledge()
        with pytest.raises(InvalidActionError):
            run_scans(state, (addresses, kinds), knowledge, None, trace_sink)
        assert state.steps_taken == steps
        assert addr(1) not in knowledge.beliefs


@pytest.mark.parametrize("kind, ident", [
    (ActionKind.SERVICE_SCAN, 0),  # not an attack
    ("exploit", 0),
    (ActionKind.EXPLOIT, 1),
    (ActionKind.EXPLOIT, "0"),
    (ActionKind.EXPLOIT, True),
    (ActionKind.PRIVESC, -1),
    (ActionKind.PRIVESC, None),
], ids=["scan", "unknown_kind", "exploit_id", "exploit_id_str", "exploit_id_bool",
        "privesc_id", "privesc_id_none"])
def test_malformed_attack_run_rejected_before_accounting(kind, ident):
    scenario = build_world(num_normal=2, exploits=(MISMATCHED_EXPLOIT,), movement_time=1)
    state = fresh(scenario)
    sweep = [addr(0), addr(1)]
    with pytest.raises(InvalidActionError):
        run_attacks(state, (kind, ident, sweep), Knowledge())
    assert state.steps_taken == 0
    assert sweep == [addr(0), addr(1)]
    assert state.addresses == [addr(0), addr(1), addr(2)]


def test_attack_run_after_a_terminal_raises():
    state = fresh(build_world(num_normal=1, exploits=(MISMATCHED_EXPLOIT,), step_limit=1))
    _, state = step(state, Action(ActionKind.SUBNET_SCAN))
    with pytest.raises(EpisodeTerminatedError):
        run_attacks(state, (ActionKind.EXPLOIT, 0, [addr(0)]), Knowledge())
    assert state.steps_taken == 1


def test_attack_run_ends_at_an_empty_address():
    scenario = build_world(num_normal=2, num_empty=1, exploits=(MISMATCHED_EXPLOIT,),
                           movement_time=3)
    state = fresh(scenario)
    sweep = [addr(1), addr(2), addr(3), addr(0)]
    rows = []
    knowledge = Knowledge()
    ending = run_attacks(state, (ActionKind.EXPLOIT, 0, sweep), knowledge,
                         lambda *args: rows.append(trace_record(*args)))
    # The connection failure is returned for the caller to observe and
    # trace; its step counts and, as the third, fires the mutation.
    assert ending == (Action(ActionKind.EXPLOIT, addr(3), 0),
                      Observation(success=False, connection_failed=True))
    assert knowledge.failed == {(ActionKind.EXPLOIT, 0): {addr(1), addr(2)}}
    assert state.steps_taken == 3
    assert [(row["step"], row["target"], row["exploit_id"], row["success"]) for row in rows] \
        == [(1, [1, 1], 0, False), (2, [1, 2], 0, False)]
    mutated = mutate_addresses(fresh(scenario))
    assert (state.addresses, state.rng.getstate()) == (mutated.addresses, mutated.rng.getstate())
    assert state.outcome is None
    # An address that is not an int in the subnet is rejected before its step.
    for target in (True, 99):
        with pytest.raises(InvalidActionError):
            run_attacks(state, (ActionKind.EXPLOIT, 0, [target]), Knowledge())
        assert state.steps_taken == 3


def test_attack_run_ends_at_a_matching_exploit():
    scenario = build_world(num_normal=1, exploits=(ROOT_EXPLOIT, MISMATCHED_EXPLOIT))
    state = fresh(scenario)
    knowledge = Knowledge()
    ending = run_attacks(state, (ActionKind.EXPLOIT, 0, [addr(1), addr(0)]), knowledge)
    # The gain is applied, one engine draw consumed, and the attack returned.
    assert ending == (Action(ActionKind.EXPLOIT, addr(1), 0),
                      Observation(success=True, access_gained=AccessLevel.ROOT))
    assert state.access == {1: AccessLevel.ROOT}
    assert state.steps_taken == 1
    drawn = random.Random(0)
    drawn.random()
    assert state.rng.getstate() == drawn.getstate()
    assert not knowledge.failed
    # An exploit that matches nothing fails at every address without a draw.
    assert run_attacks(state, (ActionKind.EXPLOIT, 1, [addr(1), addr(0)]), knowledge) is None
    assert knowledge.failed[ActionKind.EXPLOIT, 1] == {addr(1), addr(0)}
    assert state.steps_taken == 3
    assert state.rng.getstate() == drawn.getstate()


def test_attack_run_folds_a_drawn_failure_and_goes_on():
    scenario = build_world(num_normal=2, exploits=(USER_EXPLOIT,), privescs=((0, 0.0),))
    state = fresh(scenario)
    _, state = step(state, Action(ActionKind.EXPLOIT, addr(1), 0))
    drawn = random.Random()
    drawn.setstate(state.rng.getstate())
    drawn.random()
    knowledge = Knowledge()
    # Host 1 is at user access and runs process 0, so the escalation there
    # draws, and at probability 0 fails; hosts 0 and 2 fail without a draw.
    rows = []
    ending = run_attacks(state, (ActionKind.PRIVESC, 0, [addr(0), addr(1), addr(2)]), knowledge,
                         lambda *args: rows.append(trace_record(*args)))
    assert ending is None
    assert knowledge.failed[ActionKind.PRIVESC, 0] == {addr(0), addr(1), addr(2)}
    assert [row["target"] for row in rows] == [[1, 0], [1, 1], [1, 2]]
    assert state.steps_taken == 4
    assert state.rng.getstate() == drawn.getstate()
    assert state.access == {1: AccessLevel.USER}


def test_attack_run_skips_the_addresses_its_entry_failed_at():
    scenario = build_world(num_normal=2, exploits=(MISMATCHED_EXPLOIT,))
    state = fresh(scenario)
    knowledge = Knowledge(addresses=[addr(0), addr(1), addr(2)])
    knowledge.fail(ActionKind.EXPLOIT, 0, [addr(1)])
    rows = []
    run_attacks(state, (ActionKind.EXPLOIT, 0, [addr(1), addr(0), addr(2)]), knowledge,
                lambda *args: rows.append(trace_record(*args)))
    assert [(row["step"], row["target"]) for row in rows] == [(1, [1, 0]), (2, [1, 2])]
    assert state.steps_taken == 2
    assert knowledge.failed[ActionKind.EXPLOIT, 0] == {addr(0), addr(1), addr(2)}
    assert knowledge.exhausted == 1


@pytest.mark.parametrize("one_goal", [True, False])
def test_attack_run_notes_a_sensitive_root_gain_inside_it(one_goal):
    scenario = build_world(num_sensitive=2, num_normal=1, exploits=(USER_EXPLOIT,),
                           one_goal=one_goal)
    state = fresh(scenario)
    _, state = step(state, Action(ActionKind.EXPLOIT, addr(0), 0))
    # Hosts 1 and 2 are below user access; sensitive host 0 is rooted at step 4.
    ending = run_attacks(state, (ActionKind.PRIVESC, 0, [addr(1), addr(2), addr(0)]),
                         Knowledge())
    assert ending == (Action(ActionKind.PRIVESC, addr(0), 0),
                      Observation(success=True, access_gained=AccessLevel.ROOT))
    win = EpisodeOutcome(OutcomeKind.WIN, 4, episode_score(state))
    assert state.one_goal_win == win
    # Under all goals, the other sensitive host is not rooted yet.
    assert state.outcome == (win if one_goal else None)


def test_attack_run_times_out_at_a_step_limit_inside_it():
    scenario = build_world(num_normal=4, exploits=(MISMATCHED_EXPLOIT,), step_limit=4)
    state = fresh(scenario)
    _, state = step(state, Action(ActionKind.SUBNET_SCAN))
    sweep = list(map(addr, range(5)))
    knowledge = Knowledge()
    assert run_attacks(state, (ActionKind.EXPLOIT, 0, sweep), knowledge) is None
    assert knowledge.failed[ActionKind.EXPLOIT, 0] == {addr(0), addr(1), addr(2)}
    assert state.outcome == EpisodeOutcome(OutcomeKind.TIMEOUT, 4, 0.0)


def test_unknown_exploit_and_privesc_ids_rejected():
    state = fresh(build_world(num_sensitive=1))
    with pytest.raises(InvalidActionError):
        step(state, Action(ActionKind.EXPLOIT, addr(0), 7))
    with pytest.raises(InvalidActionError):
        step(state, Action(ActionKind.PRIVESC, addr(0), -1))


def test_exploit_requires_matching_configuration():
    scenario = build_world(num_sensitive=1, exploits=(MISMATCHED_EXPLOIT,))
    obs, state = step(fresh(scenario), Action(ActionKind.EXPLOIT, addr(0), 0))
    assert not obs.success
    assert state.access == {}


def test_exploit_grants_access_and_never_downgrades():
    scenario = build_world(
        num_sensitive=1, num_normal=1, exploits=(USER_EXPLOIT, ROOT_EXPLOIT),
        one_goal=False,
    )
    state = fresh(scenario)
    obs, state = step(state, Action(ActionKind.EXPLOIT, addr(1), 0))
    assert obs.access_gained is AccessLevel.USER
    obs, state = step(state, Action(ActionKind.EXPLOIT, addr(1), 1))
    assert obs.access_gained is AccessLevel.ROOT
    obs, state = step(state, Action(ActionKind.EXPLOIT, addr(1), 0))  # user exploit again
    assert obs.success
    assert obs.access_gained is AccessLevel.ROOT
    assert state.access[1] is AccessLevel.ROOT


def test_exploit_probability_zero_never_succeeds():
    scenario = build_world(num_sensitive=1, exploits=((0, 0, 0, AccessLevel.ROOT, 0.0),))
    state = fresh(scenario)
    for _ in range(20):
        obs, state = step(state, Action(ActionKind.EXPLOIT, addr(0), 0))
        assert not obs.success


def test_privesc_needs_user_access_and_matching_process():
    scenario = build_world(
        num_sensitive=1, exploits=(USER_EXPLOIT,), privescs=((0, 1.0), (5, 1.0)),
    )
    state = fresh(scenario)
    obs, state = step(state, Action(ActionKind.PRIVESC, addr(0), 0))
    assert not obs.success  # no access yet
    _, state = step(state, Action(ActionKind.EXPLOIT, addr(0), 0))
    obs, state = step(state, Action(ActionKind.PRIVESC, addr(0), 1))
    assert not obs.success  # process 5 not running
    obs, state = step(state, Action(ActionKind.PRIVESC, addr(0), 0))
    assert obs.success
    assert state.access[0] is AccessLevel.ROOT


def test_wiretap_succeeds_only_at_root():
    scenario = build_world(num_sensitive=1, num_normal=1, exploits=(USER_EXPLOIT, ROOT_EXPLOIT))
    state = fresh(scenario)
    obs, state = step(state, Action(ActionKind.WIRETAP, addr(1)))
    assert not obs.success
    _, state = step(state, Action(ActionKind.EXPLOIT, addr(1), 0))
    obs, state = step(state, Action(ActionKind.WIRETAP, addr(1)))
    assert not obs.success
    _, state = step(state, Action(ActionKind.EXPLOIT, addr(1), 1))
    before = dict(state.access)
    obs, state = step(state, Action(ActionKind.WIRETAP, addr(1)))
    assert obs.success
    assert state.access == before


def test_win_one_goal_on_first_sensitive_root():
    scenario = build_world(num_sensitive=3, one_goal=True)
    _, state = step(fresh(scenario), Action(ActionKind.EXPLOIT, addr(1), 0))
    assert state.outcome is not None
    assert state.outcome.kind is OutcomeKind.WIN
    assert state.outcome.steps == 1
    assert state.outcome.score == 1000.0


def test_win_all_goals_requires_every_sensitive_host():
    scenario = build_world(num_sensitive=3, one_goal=False)
    state = fresh(scenario)
    _, state = step(state, Action(ActionKind.EXPLOIT, addr(0), 0))
    _, state = step(state, Action(ActionKind.EXPLOIT, addr(1), 0))
    assert state.outcome is None
    _, state = step(state, Action(ActionKind.EXPLOIT, addr(2), 0))
    assert state.outcome.kind is OutcomeKind.WIN
    assert state.outcome.score == 3000.0


def test_user_access_on_sensitive_host_does_not_win():
    scenario = build_world(num_sensitive=1, exploits=(USER_EXPLOIT,), one_goal=True)
    _, state = step(fresh(scenario), Action(ActionKind.EXPLOIT, addr(0), 0))
    assert state.outcome is None


@pytest.mark.parametrize("exploit", [USER_EXPLOIT, ROOT_EXPLOIT])
def test_honeypot_loss_on_any_successful_exploit(exploit):
    scenario = build_world(num_sensitive=1, num_honeypots=1, exploits=(exploit,))
    obs, state = step(fresh(scenario), Action(ActionKind.EXPLOIT, addr(1), 0))
    assert obs.success
    assert state.outcome.kind is OutcomeKind.LOSS_HONEYPOT
    assert state.outcome.steps == 1
    assert state.outcome.score == -1000.0


def test_honeypot_scan_is_not_a_loss():
    scenario = build_world(num_sensitive=1, num_honeypots=1)
    _, state = step(fresh(scenario), Action(ActionKind.SERVICE_SCAN, addr(1)))
    assert state.outcome is None


def test_timeout_at_exact_step_limit():
    scenario = build_world(num_sensitive=1, num_normal=1, step_limit=3)
    state = fresh(scenario)
    for _ in range(3):
        _, state = step(state, Action(ActionKind.SERVICE_SCAN, addr(1)))
    assert state.outcome.kind is OutcomeKind.TIMEOUT
    assert state.outcome.steps == 3


def test_terminal_state_absorbs():
    scenario = build_world(num_sensitive=1, one_goal=True)
    _, state = step(fresh(scenario), Action(ActionKind.EXPLOIT, addr(0), 0))
    with pytest.raises(EpisodeTerminatedError):
        step(state, Action(ActionKind.SUBNET_SCAN))
    assert state.steps_taken == 1


def test_loss_checked_before_win():
    # Never reachable through step() since one action touches one host, but
    # the pure check must still rank honeypot loss first.
    scenario = build_world(num_sensitive=1, num_honeypots=1, one_goal=True)
    state = fresh(scenario)
    state.access = {0: AccessLevel.ROOT, 1: AccessLevel.USER}
    outcome = check_termination(state)
    assert outcome.kind is OutcomeKind.LOSS_HONEYPOT


def test_check_termination_is_pure_and_none_when_fresh():
    state = fresh(build_world(num_sensitive=1))
    assert check_termination(state) is None
    first = check_termination(state)
    second = check_termination(state)
    assert first == second
    assert state.steps_taken == 0


def test_episode_score_counts_user_and_root_hosts():
    scenario = build_world(num_sensitive=1, num_normal=2, exploits=(USER_EXPLOIT,))
    state = fresh(scenario)
    _, state = step(state, Action(ActionKind.EXPLOIT, addr(1), 0))
    _, state = step(state, Action(ActionKind.EXPLOIT, addr(2), 0))
    assert episode_score(state) == 2.0


def test_mutation_fires_at_exact_multiples():
    scenario = build_world(num_sensitive=1, num_normal=4, num_empty=25, movement_time=5)
    state = fresh(scenario, seed=3)
    initial = list(state.addresses)
    for _ in range(4):
        _, state = step(state, Action(ActionKind.SUBNET_SCAN))
        assert state.addresses == initial
    _, state = step(state, Action(ActionKind.SUBNET_SCAN))
    assert state.steps_taken % scenario.params.movement_time == 0
    after_first = list(state.addresses)
    assert after_first != initial  # 30 addresses: identity shuffle is absurdly unlikely
    for _ in range(4):
        _, state = step(state, Action(ActionKind.SUBNET_SCAN))
        assert state.addresses == after_first
    _, state = step(state, Action(ActionKind.SUBNET_SCAN))
    assert state.addresses != after_first


def test_no_mutation_without_movement_time():
    scenario = build_world(num_sensitive=1, num_normal=4, num_empty=20)
    state = fresh(scenario, seed=1)
    initial = list(state.addresses)
    for _ in range(50):
        _, state = step(state, Action(ActionKind.SUBNET_SCAN))
    assert state.addresses == initial


def test_mutation_preserves_bijection_and_access():
    scenario = build_world(
        num_sensitive=1, num_normal=3, num_empty=20, movement_time=2, one_goal=False,
        exploits=(USER_EXPLOIT,),
    )
    state = fresh(scenario, seed=9)
    _, state = step(state, Action(ActionKind.EXPLOIT, addr(1), 0))
    accesses = dict(state.access)
    all_addresses = set(state.addresses)
    for _ in range(40):
        _, state = step(state, Action(ActionKind.SUBNET_SCAN))
        assert set(state.addresses) == all_addresses
        assert len(state.addresses) == len(set(state.addresses))
        assert state.access == accesses
        assert state.addr_to_host == {
            a: h for h, a in enumerate(state.addresses) if h < len(scenario.hosts)
        }


def test_mutation_skipped_on_terminal_step():
    scenario = build_world(num_sensitive=1, num_empty=20, movement_time=1, one_goal=True)
    state = fresh(scenario, seed=2)
    initial = list(state.addresses)
    _, state = step(state, Action(ActionKind.EXPLOIT, addr(0), 0))
    assert state.outcome.kind is OutcomeKind.WIN
    assert state.addresses == initial


def test_mutation_identity_for_single_address_subnet():
    scenario = build_world(num_sensitive=1, movement_time=1)
    state = fresh(scenario, seed=5)
    before = list(state.addresses)
    mutate_addresses(state)
    assert state.addresses == before


def test_mutation_marginal_keep_probability():
    # Uniform permutation of 255 addresses: P(host keeps its address) = 1/255.
    scenario = generate_scenario(GeneratorParams())
    state = new_network_state(scenario, random.Random(987))
    trials = 10_000
    kept = 0
    for _ in range(trials):
        before = state.addresses[0]
        mutate_addresses(state)
        kept += state.addresses[0] == before
    assert abs(kept / trials - 1 / 255) <= 0.005


def test_some_host_moves_in_every_seeded_mutation():
    scenario = generate_scenario(GeneratorParams())
    for seed in range(100):
        state = new_network_state(scenario, random.Random(seed))
        before = list(state.addresses)
        mutate_addresses(state)
        assert state.addresses != before


def test_outcome_is_deterministic_in_rng_seed():
    scenario = build_world(
        num_sensitive=2, num_normal=2, num_empty=10, movement_time=3,
        exploits=((0, 0, 0, AccessLevel.ROOT, 0.5),), one_goal=False,
    )

    def run(seed):
        state = fresh(scenario, seed=seed)
        trail = []
        for i in range(60):
            if state.outcome is not None:
                break
            obs, state = step(state, Action(ActionKind.EXPLOIT, addr(i % 4), 0))
            trail.append((obs.success, tuple(state.addresses)))
        return trail

    assert run(7) == run(7)
    assert run(7) != run(8)
