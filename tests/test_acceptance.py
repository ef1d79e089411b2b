"""Acceptance gate: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line while the
suite runs; without ``-s`` the lines still appear for failing criteria.
Monte-Carlo checks use fixed seeds, so results are reproducible bit-for-bit.
"""

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

from helpers import TRACE_VALIDATORS, TraceError, collect_trace, degenerate_world

from deceptsim import cli
from deceptsim.agents import AGENT_KINDS
from deceptsim.engine import (
    Action,
    ActionKind,
    EpisodeTerminatedError,
    OutcomeKind,
    new_network_state,
    step,
)
from deceptsim.experiment import SweepConfig, aggregate, run_episode, run_sweep
from deceptsim.scenario import (
    AccessLevel,
    GeneratorParams,
    HostKind,
    generate_scenario,
)

ORACLE_EPISODES = 10_000


def report(number: int, title: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {number}] {status} {title}: {detail}")


def measured_win(scenario, agent_kind: str, episodes: int) -> float:
    wins = 0
    for episode_seed in range(episodes):
        record = run_episode(scenario, agent_kind, episode_seed)
        wins += record.outcome == "win"
    return wins / episodes


def win_by_group(config: SweepConfig, field: str) -> dict:
    records = run_sweep(config)
    stats = aggregate(records, group_by=(field,))
    return {dict(entry.group)[field]: entry.win_probability for entry in stats}


# ---------------------------------------------------------------------------
# 1 and 2: analytic oracles in the degenerate world


def enumerated_first_pick_win(num_sensitive: int, num_honeypots: int) -> Fraction:
    """Exact one-goal win rate over all host orderings: the first host
    attacked decides the episode when every exploit roots every host."""
    hosts = range(num_sensitive + num_honeypots)
    wins = sum(1 for order in itertools.permutations(hosts) if order[0] < num_sensitive)
    return Fraction(wins, math.factorial(len(hosts)))


def enumerated_all_first_win(num_sensitive: int, num_honeypots: int) -> Fraction:
    """Exact all-goals win rate: every sensitive host must precede every
    honeypot in the visiting order."""
    hosts = range(num_sensitive + num_honeypots)
    sensitive = set(range(num_sensitive))
    wins = sum(
        1
        for order in itertools.permutations(hosts)
        if set(order[:num_sensitive]) == sensitive
    )
    return Fraction(wins, math.factorial(len(hosts)))


def test_criterion_1_one_goal_oracle():
    details = []
    passed = True
    for honeypots in (2, 6):
        analytic = Fraction(3, 3 + honeypots)
        enumerated = enumerated_first_pick_win(3, honeypots)
        scenario = degenerate_world(honeypots, one_goal=True)
        measured = measured_win(scenario, "aggressive", ORACLE_EPISODES)
        ok = enumerated == analytic and abs(measured - analytic) <= 0.02
        passed = passed and ok
        details.append(
            f"H={honeypots} analytic={float(analytic):.4f} "
            f"enumerated={float(enumerated):.4f} measured={measured:.4f}"
        )
    report(1, "one-goal oracle, aggressive agent", passed, "; ".join(details))
    assert passed


def test_criterion_2_all_goals_oracle():
    analytic = Fraction(1, math.comb(5, 3))
    enumerated = enumerated_all_first_win(3, 2)
    scenario = degenerate_world(2, one_goal=False)
    measured = measured_win(scenario, "aggressive", ORACLE_EPISODES)
    passed = enumerated == analytic and abs(measured - analytic) <= 0.01
    report(
        2,
        "all-goals oracle, aggressive agent",
        passed,
        f"H=2 analytic={float(analytic):.4f} enumerated={float(enumerated):.4f} "
        f"measured={measured:.4f}",
    )
    assert passed


# ---------------------------------------------------------------------------
# 3 and 4: qualitative trends of the standard agent


def test_criterion_3_honeypot_monotonicity():
    honeypot_counts = (0, 2, 4, 6, 9, 10)
    config = SweepConfig(
        num_honeypots=honeypot_counts,
        movement_time=(None,),
        num_hosts=(10,),
        one_goal=(False,),
        agents=("standard",),
        repetitions=100,
    )
    probs = win_by_group(config, "num_honeypots")
    series = [probs[count] for count in honeypot_counts]
    drop = series[0] - series[1]
    drop_ok = drop >= 0.2
    band_ok = all(later <= earlier + 0.07 for earlier, later in zip(series, series[1:]))
    passed = drop_ok and band_ok
    report(
        3,
        "honeypot monotonicity, standard agent",
        passed,
        "win probabilities "
        + " ".join(f"hp={c}:{p:.3f}" for c, p in zip(honeypot_counts, series))
        + f"; drop at 2 vs 0 = {drop:.3f} (need >= 0.2), band 0.07 {'held' if band_ok else 'broken'}",
    )
    assert passed


def test_criterion_4_mtd_trend():
    config = SweepConfig(
        num_honeypots=(0,),
        movement_time=(25, 100, None),
        num_hosts=(50,),
        one_goal=(False,),
        agents=("standard",),
        repetitions=100,
    )
    probs = win_by_group(config, "movement_time")
    fast, slow, off = probs[25], probs[100], probs[None]
    passed = fast < slow + 0.07 and slow < off + 0.07
    report(
        4,
        "mutation interval trend, standard agent, 50 hosts",
        passed,
        f"P(mt=25)={fast:.3f} < P(mt=100)={slow:.3f} < P(off)={off:.3f} "
        f"(each with 0.07 tolerance, 300 episodes per point)",
    )
    assert passed


# ---------------------------------------------------------------------------
# 5: objective dominance on paired seeds


def test_criterion_5_objective_dominance():
    config = SweepConfig(
        num_honeypots=(0, 2, 9),
        movement_time=(None, 25),
        num_hosts=(10,),
        one_goal=(False, True),
        repetitions=30,
    )
    records = run_sweep(config)
    wins = defaultdict(lambda: [0, 0])
    for record in records:
        key = (record.num_honeypots, record.movement_time, record.seed, record.agent)
        wins[key][record.one_goal] += record.outcome == "win"
    violations = [
        key for key, (all_goals, one_goal) in wins.items() if one_goal < all_goals
    ]
    passed = not violations
    report(
        5,
        "objective dominance on paired seeds",
        passed,
        f"{len(wins)} paired cells, {len(violations)} violations"
        + (f"; first: {violations[0]}" if violations else ""),
    )
    assert passed


# ---------------------------------------------------------------------------
# 6: fast mutation starves the careful agent


def test_criterion_6_careful_agent_starved_by_fast_mutation():
    config = SweepConfig(
        num_honeypots=(0,),
        movement_time=(25,),
        num_hosts=(10,),
        one_goal=(False,),
        agents=("careful",),
        repetitions=100,
    )
    probs = win_by_group(config, "movement_time")
    passed = probs[25] <= 0.05
    report(
        6,
        "careful agent vs movement_time=25",
        passed,
        f"win probability {probs[25]:.3f} over 300 episodes (need <= 0.05)",
    )
    assert passed


# ---------------------------------------------------------------------------
# 7: byte-level determinism through the CLI


def test_criterion_7_determinism(tmp_path, capsys):
    out = tmp_path / "records.csv"
    sweep_args = [
        "sweep", "--out", str(out),
        "--honeypots", "0,2", "--movement-times", "none,25", "--hosts", "10",
        "--one-goal", "false,true", "--seeds", "1234,42",
        "--agents", "standard,aggressive", "--repetitions", "3",
        "--step-limit", "600",
    ]
    assert cli.main(sweep_args) == 0
    first = out.read_bytes()
    assert cli.main(["sweep", "--from-manifest", str(out)]) == 0
    manifest_ok = out.read_bytes() == first
    assert cli.main(sweep_args + ["--workers", "3"]) == 0
    parallel_ok = out.read_bytes() == first
    capsys.readouterr()
    passed = manifest_ok and parallel_ok
    report(
        7,
        "determinism",
        passed,
        f"manifest re-run byte-identical: {manifest_ok}; "
        f"parallel matches serial: {parallel_ok}",
    )
    assert passed


# ---------------------------------------------------------------------------
# 8: engine invariants over randomized episodes


def random_invariant_params(rng: random.Random) -> GeneratorParams:
    return GeneratorParams(
        num_hosts=rng.randint(0, 15),
        num_honeypots=rng.randint(0, 5),
        num_sensitive=rng.randint(1, 4),
        movement_time=rng.choice((None, 3, 7, 20)),
        one_goal=rng.random() < 0.5,
        seed=rng.randrange(10**6),
        exploit_prob=rng.choice((0.4, 1.0)),
        privesc_prob=rng.choice((0.4, 1.0)),
        num_addresses=64,
        step_limit=rng.randint(40, 140),
    )


def random_walk_action(rng: random.Random, scenario) -> Action:
    capacity = scenario.params.num_addresses - 1
    target = rng.randrange(capacity)
    kind = rng.choice(tuple(ActionKind))
    if kind is ActionKind.SUBNET_SCAN:
        return Action(ActionKind.SUBNET_SCAN)
    if kind is ActionKind.EXPLOIT:
        return Action(ActionKind.EXPLOIT, target, rng.randrange(scenario.params.num_exploits))
    if kind is ActionKind.PRIVESC:
        return Action(ActionKind.PRIVESC, target, rng.randrange(scenario.params.num_privescs))
    return Action(kind, target)


def check_invariant_episode(scenario, walk_rng, engine_rng) -> list:
    state = new_network_state(scenario, engine_rng)
    movement_time = scenario.params.movement_time
    capacity = scenario.params.num_addresses - 1
    all_addresses = set(range(capacity))
    violations = []
    prev_map = list(state.addresses)
    prev_access = dict(state.access)
    steps = 0
    while state.outcome is None:
        action = random_walk_action(walk_rng, scenario)
        target_host = state.addr_to_host.get(action.target)
        obs, state = step(state, action)
        steps += 1
        if state.steps_taken != steps:
            violations.append(f"accounting at step {steps}")
        addresses = state.addresses
        if len(set(addresses)) != len(addresses) or set(addresses) != all_addresses:
            violations.append(f"address map not a bijection at step {steps}")
        if movement_time is None:
            if state.addresses != prev_map:
                violations.append(f"mutated without movement_time at step {steps}")
        elif state.outcome is None:
            expected = state.steps_taken % movement_time
            if expected == 0 and state.subnet_reply is not None:
                violations.append(f"no mutation on schedule at step {steps}")
            if expected != 0 and state.addresses != prev_map:
                violations.append(f"mutated off schedule at step {steps}")
        elif state.addresses != prev_map:
            violations.append(f"mutated on terminal step {steps}")
        for host_id, level in prev_access.items():
            if state.access.get(host_id, AccessLevel.NONE) < level:
                violations.append(f"access dropped on host {host_id} at step {steps}")
        if (
            action.kind is ActionKind.EXPLOIT
            and obs.success
            and scenario.hosts[target_host].kind is HostKind.HONEYPOT
            and (state.outcome is None or state.outcome.kind is not OutcomeKind.LOSS_HONEYPOT)
        ):
            violations.append(f"honeypot exploit not an immediate loss at step {steps}")
        prev_map = list(state.addresses)
        prev_access = dict(state.access)
    try:
        step(state, Action(ActionKind.SUBNET_SCAN))
        violations.append("stepped past a terminal state")
    except EpisodeTerminatedError:
        pass
    return violations


def test_criterion_8_engine_invariants():
    rng = random.Random(20260815)
    episodes = 1000
    violations = []
    for index in range(episodes):
        scenario = generate_scenario(random_invariant_params(rng))
        walk_rng = random.Random(rng.randrange(2**63))
        engine_rng = random.Random(rng.randrange(2**63))
        violations.extend(check_invariant_episode(scenario, walk_rng, engine_rng))
    passed = not violations
    report(
        8,
        "engine invariant suite",
        passed,
        f"{episodes} randomized episodes, {len(violations)} violations"
        + (f"; first: {violations[0]}" if violations else ""),
    )
    assert passed


# ---------------------------------------------------------------------------
# 9: script conformance against the reference automata


def test_criterion_9_agent_script_conformance():
    failures = []
    scenarios = {}
    traces_per_agent = 100
    for agent_kind in AGENT_KINDS:
        for index in range(traces_per_agent):
            honeypots = (0, 2, 4, 6, 9, 10)[index % 6]
            movement_time = (None, 25, 50, 75, 100)[index % 5]
            seed = (1234, 42, 24121997)[index % 3]
            key = (honeypots, movement_time, seed)
            if key not in scenarios:
                scenarios[key] = generate_scenario(
                    GeneratorParams(
                        num_hosts=10,
                        num_honeypots=honeypots,
                        movement_time=movement_time,
                        seed=seed,
                    )
                )
            record, trace = collect_trace(scenarios[key], agent_kind, episode_seed=index)
            try:
                TRACE_VALIDATORS[agent_kind](scenarios[key], trace)
            except TraceError as exc:
                failures.append(f"{agent_kind} episode {index} ({key}): {exc}")
    passed = not failures
    report(
        9,
        "agent script conformance",
        passed,
        f"{traces_per_agent} traces per agent accepted by the reference automata, "
        f"{len(failures)} rejections" + (f"; first: {failures[0]}" if failures else ""),
    )
    assert passed
