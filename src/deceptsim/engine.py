"""Episode state machine.

Executes attacker actions against a scenario: counts steps, answers scans
truthfully, applies exploits and privilege escalations, fires the periodic
address mutation of the moving-target defense, and detects the three
terminal outcomes (win, honeypot loss, timeout).

State transitions mutate the passed-in ``NetworkState``; ``step`` also
returns it so call sites can chain functionally if they prefer. The
mutation clock is ``steps_taken % movement_time``: the addresses mutate
after each non-terminal step that brings it to 0.

``step`` plays one action; ``run_scans`` plays committed host scans and
``run_attacks`` an attack sweep up to the first reply the agent must act on
(a gain or a failed connection), each in one loop, and each run folds its
failures into the agent's knowledge. ``_draws`` is the one rule for which
attacks draw; an attack that does, or one at an empty address, is played
by ``_apply``. An untraced scan pass from wiped knowledge, which mutation
mostly dooms, costs a lookup per address and a step sum per mutation
interval (``_fresh_pass``). Every step the engine plays ends with
``_settle``: the one-goal note, the terminal gate and the mutation tick.
Each rejects a malformed action or entry before its step counts. An attack
names its catalog entry by ``(kind, ident)``. The address index covers only
the hosts: any other address in the target subnet is empty, and empty
addresses, host id None, all answer alike.

The terminal check runs only when its answer can have changed: after any
access gained on a honeypot or root gained on a sensitive host, and once
the step limit is reached. A gain on any other host, a user gain on a
sensitive host and a scan cannot end the episode.

Replies are immutable ``Observation`` values and are shared: the failure
replies and the access-gained replies are module constants, a host's scan
replies are built once per scenario, and the subnet-scan reply is kept
until the next address mutation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .scenario import (
    AccessLevel,
    Address,
    Scenario,
    address_pair,
)


class EpisodeTerminatedError(RuntimeError):
    """An action was submitted after the episode reached a terminal outcome."""


class InvalidActionError(ValueError):
    """Malformed action: unknown kind, bad target address or unknown exploit/privesc id."""


class ActionKind(str, Enum):
    SUBNET_SCAN = "subnet_scan"
    SERVICE_SCAN = "service_scan"
    OS_SCAN = "os_scan"
    VULN_SCAN = "vuln_scan"
    PROCESS_SCAN = "process_scan"
    EXPLOIT = "exploit"
    PRIVESC = "privesc"
    WIRETAP = "wiretap"


class Action(NamedTuple):
    """One attacker move; every move costs one step. An exploit or privesc
    names its catalog entry's id, ``ident``."""

    kind: ActionKind
    target: Address | None = None
    ident: int | None = None


@dataclass(frozen=True, slots=True)
class Observation:
    """The engine's truthful reply to one action.

    ``connection_failed`` is set when the targeted address is empty; it is
    the only signal from which an agent can infer that addresses have
    mutated. ``scanned`` is a host scan's value of the host field that
    ``SCAN_FIELDS`` names. Replies are immutable because the engine hands
    the same object to every step that earns the same answer.
    """

    success: bool
    connection_failed: bool = False
    discovered_addresses: tuple[Address, ...] | None = None
    scanned: frozenset[int] | int | None = None
    access_gained: AccessLevel | None = None


_FAILURE = Observation(success=False)
_CONNECTION_FAILED = Observation(success=False, connection_failed=True)
_SUCCESS = Observation(success=True)
_ACCESS_GAINED = {
    level: Observation(success=True, access_gained=level)
    for level in (AccessLevel.USER, AccessLevel.ROOT)
}
# Members read on every step, as globals: on Python 3.11 a read off an Enum
# class costs about 0.1 us more than a global read.
_SUBNET_SCAN, _EXPLOIT, _PRIVESC = ActionKind.SUBNET_SCAN, ActionKind.EXPLOIT, ActionKind.PRIVESC
_NONE, _USER, _ROOT = AccessLevel.NONE, AccessLevel.USER, AccessLevel.ROOT
# The host configuration field, and the belief field, each host scan reports.
SCAN_FIELDS = {
    ActionKind.SERVICE_SCAN: "services",
    ActionKind.OS_SCAN: "os",
    ActionKind.VULN_SCAN: "vulns",
    ActionKind.PROCESS_SCAN: "processes",
}


class OutcomeKind(str, Enum):
    WIN = "win"
    LOSS_HONEYPOT = "loss_honeypot"
    TIMEOUT = "timeout"


@dataclass(frozen=True, slots=True)
class EpisodeOutcome:
    kind: OutcomeKind
    steps: int
    score: float


@dataclass
class NetworkState:
    """Mutable per-episode state; confined to a single episode runner."""

    scenario: Scenario
    # Every target-subnet address, laid out as Scenario.initial_addresses,
    # and the inverse for the hosts.
    addresses: list[Address]
    addr_to_host: dict[Address, int]
    rng: random.Random
    access: dict[int, AccessLevel] = field(default_factory=dict)
    steps_taken: int = 0
    outcome: EpisodeOutcome | None = None
    # The subnet-scan reply for the current address map; None until the
    # first subnet scan after a mutation.
    subnet_reply: Observation | None = field(default=None, repr=False, compare=False)
    # The win the one-goal objective scores: its step count and score at
    # the first step that any sensitive host is at root access. It is noted
    # under either objective, so an all-goals episode also yields the
    # outcome of its one-goal twin, which plays the same steps up to here.
    one_goal_win: EpisodeOutcome | None = None


def new_network_state(scenario: Scenario, rng: random.Random) -> NetworkState:
    addresses = list(scenario.initial_addresses)
    return NetworkState(scenario, addresses, dict(zip(addresses, range(len(scenario.hosts)))), rng)


def step(state: NetworkState, action: Action) -> tuple[Observation, NetworkState]:
    """Execute one action: count the step, apply semantics, then ``_settle``.

    ``check_termination`` runs only after a gain that can end the episode,
    or once the step limit is reached. The outcome depends on nothing but
    access levels and the step count, and only two gains can change it: any
    access to a honeypot (a loss) and root access to a sensitive host (a
    win under either objective). A step that roots a sensitive host also
    notes ``one_goal_win`` if it is the first to do so.
    The mutation clock, ``steps_taken % movement_time``, is read last and
    only on non-terminal states, so a win or loss on the mutation boundary
    is never masked by the mutation.
    The returned observation is an immutable reply that may be shared with
    other steps and episodes.
    """
    host_id = _checked_host(state, action)
    state.steps_taken += 1
    obs = _apply(state, action, host_id)
    _settle(state, host_id, obs.access_gained)
    return obs, state


def _settle(state: NetworkState, host_id: int | None, gained: AccessLevel | None) -> None:
    """The end of every step the engine plays: the one-goal note, the terminal
    gate and the mutation tick, as ``step`` documents them. ``gained`` is the
    reply's ``access_gained`` on ``host_id``; None for a scan, a failure or a stretch end."""
    scenario = state.scenario
    params = scenario.params
    can_end = False
    if gained is not None:
        if host_id in scenario.honeypot_ids:
            can_end = True
        elif gained is _ROOT and host_id in scenario.sensitive_ids:
            can_end = True
            if state.one_goal_win is None:
                state.one_goal_win = EpisodeOutcome(
                    OutcomeKind.WIN, state.steps_taken, episode_score(state)
                )
    if can_end or state.steps_taken >= params.step_limit:
        state.outcome = check_termination(state)
        if state.outcome is not None:
            return

    movement_time = params.movement_time
    if movement_time is not None and state.steps_taken % movement_time == 0:
        mutate_addresses(state)


def run_scans(state: NetworkState, run, knowledge, reset, trace_sink=None) -> None:
    """Play ``run``, ``(addresses, kinds)``: each kind of host scan at each
    distinct address, address by address, until the first knowledge reset,
    a terminal, or its end. ``Knowledge.learn`` folds each reply, and
    ``reset`` wipes the agent on a failed connection or a contradiction. Only
    the step limit can end the episode. ``trace_sink`` is called as
    ``run_episode`` calls it. An untraced run from wiped knowledge takes
    ``_fresh_pass``; this loop, its reference in the tests, plays the rest."""
    if state.outcome is not None:
        _checked_host(state, None)  # raises EpisodeTerminatedError
    addresses, kinds = run
    for kind in kinds:  # the member, as step requires: its str value compares equal
        if type(kind) is not ActionKind or kind not in SCAN_FIELDS:
            raise InvalidActionError(f"a scan run holds {kind!r}, which is not a host scan")
    if trace_sink is None and not knowledge.beliefs:
        return _fresh_pass(state, addresses, kinds, knowledge.learn, reset)
    scenario = state.scenario
    replies = scenario.scan_replies
    learn = knowledge.learn
    addr_to_host = state.addr_to_host
    for address in addresses:
        for kind in kinds:
            host_id = addr_to_host.get(address) if type(address) is int else None
            if host_id is None:
                host_id = _checked_host(state, Action(kind, address))
            state.steps_taken += 1
            obs = replies.get((host_id, kind)) or _scan_reply(scenario, host_id, kind)
            knowledge_reset = obs.connection_failed or not learn(
                address, SCAN_FIELDS[kind], obs.scanned)
            if knowledge_reset:
                reset()
            _settle(state, None, None)
            if trace_sink is not None:
                trace_sink(Action(kind, address), obs, state, knowledge_reset)
            if knowledge_reset or state.outcome is not None:
                return


def _fresh_pass(state: NetworkState, addresses, kinds, learn, reset) -> None:
    """``run_scans`` from wiped knowledge, a stretch at a time up to the next
    mutation, the step limit or the end. Each (address, field) is new, so
    only an empty address resets; no scan draws, and the address map holds
    within a stretch: a lookup per address finds its first empty one. Unless
    a reset wipes them, the replies are folded from the host ids found."""
    params, addr_to_host = state.scenario.params, state.addr_to_host
    period = params.movement_time or params.step_limit  # unmutated: the limit alone bounds
    width, end = len(kinds), len(addresses) * len(kinds)
    played, at = [], 0  # per stretch: its first scan, the scan after its last, its host ids
    while at < end and state.outcome is None:
        taken, first = state.steps_taken, at // width
        stop = min(end, at + params.step_limit - taken, at + period - taken % period)
        span = addresses[first:(stop - 1) // width + 1]
        hosts = [addr_to_host.get(a) if type(a) is int else None for a in span]
        if None in hosts:  # the scan at the first empty address fails and resets
            stop = max(at, (first + hosts.index(None)) * width) + 1
            state.steps_taken = taken + stop - 1 - at
            _checked_host(state, Action(kinds[(stop - 1) % width], span[hosts.index(None)]))
            reset()
        state.steps_taken = taken + stop - at
        _settle(state, None, None)
        if None in hosts:
            return
        played.append((at, stop, hosts))
        at = stop
    for at, stop, hosts in played:
        for index, host_id in enumerate(hosts, at // width):
            host = state.scenario.hosts[host_id]
            for kind in kinds[max(at - index * width, 0):stop - index * width]:
                learn(addresses[index], SCAN_FIELDS[kind], getattr(host, SCAN_FIELDS[kind]))


def run_attacks(state: NetworkState, run, knowledge, trace_sink=None):
    """Play ``run``, ``(kind, ident, sweep)``: the attacks of catalog entry
    ``(kind, ident)`` at the addresses of ``sweep`` in order, skipping
    without a step each address in ``knowledge.failed[kind, ident]``, until
    a reply the agent must act on (a gain or a failed connection), the
    episode's end or the sweep's end. The failures, drawn or not, are
    folded with one ``Knowledge.fail``. The ending attack is played as
    ``step`` plays it and returned as ``(action, reply)`` for the caller to
    observe and trace; None if no attack ends the run. ``trace_sink`` is
    called for the failures as in ``run_episode``."""
    if state.outcome is not None:
        _checked_host(state, None)  # raises EpisodeTerminatedError
    kind, ident, sweep = run
    if kind is not _EXPLOIT and kind is not _PRIVESC:
        raise InvalidActionError(f"an attack run holds {kind!r}, which is not an attack")
    scenario = state.scenario
    entry = _catalog_entry(scenario, kind, ident)
    hosts, access, addr_to_host = scenario.hosts, state.access, state.addr_to_host
    tried = knowledge.failed.get((kind, ident), ())
    failed, ending = [], None
    for address in sweep:
        if address in tried:
            continue
        host_id = addr_to_host.get(address) if type(address) is int else None
        if host_id is None:
            _checked_host(state, Action(kind, address, ident))  # raises on a bad target
        state.steps_taken += 1
        obs = _FAILURE
        if host_id is None or _draws(kind, entry, hosts[host_id], access):
            obs = _apply(state, Action(kind, address, ident), host_id)
        _settle(state, host_id, obs.access_gained)
        if obs is not _FAILURE:
            ending = Action(kind, address, ident), obs
            break
        failed.append(address)
        if trace_sink is not None:
            trace_sink(Action(kind, address, ident), _FAILURE, state, False)
        if state.outcome is not None:
            break
    if failed:
        knowledge.fail(kind, ident, failed)
    return ending


def _checked_host(state: NetworkState, action: Action) -> int | None:
    """The targeted host's id, None for a subnet scan or an empty address.
    Raises on a terminal state, an unknown kind, a host action without a
    target in the target subnet, or an unknown exploit or privesc id.
    run_scans and run_attacks ask only on a miss."""
    if state.outcome is not None:
        raise EpisodeTerminatedError(
            f"episode already ended with {state.outcome.kind.value} "
            f"after {state.outcome.steps} steps"
        )
    kind, target, ident = action
    if type(kind) is not ActionKind:
        raise InvalidActionError(f"unknown action kind {kind!r}")
    # An int test first: True and 0.0 hash and compare as addresses do.
    host_id = state.addr_to_host.get(target) if type(target) is int else None
    if host_id is None and (target is not None or kind is not _SUBNET_SCAN):
        if type(target) is not int or not 0 <= target < len(state.addresses):
            raise InvalidActionError(f"target address {target} is not in the target subnet")
    if kind is _EXPLOIT or kind is _PRIVESC:
        _catalog_entry(state.scenario, kind, ident)
    return host_id


def _catalog_entry(scenario: Scenario, kind: ActionKind, ident):
    """The exploit or privesc entry an attack of ``kind`` names by ``ident``;
    raises on an unknown id."""
    catalog = scenario.exploits if kind is _EXPLOIT else scenario.privescs
    if type(ident) is not int or not 0 <= ident < len(catalog):
        raise InvalidActionError(f"unknown {kind.value} id {ident!r}")
    return catalog[ident]


def _scan_reply(scenario: Scenario, host_id: int | None, kind: ActionKind) -> Observation:
    """A host scan's reply, built once and kept in ``scan_replies``."""
    reply = _CONNECTION_FAILED if host_id is None else Observation(
        success=True, scanned=getattr(scenario.hosts[host_id], SCAN_FIELDS[kind]))
    scenario.scan_replies[host_id, kind] = reply
    return reply


def _apply(state: NetworkState, action: Action, host_id: int | None) -> Observation:
    scenario = state.scenario
    kind = action.kind
    if kind is _SUBNET_SCAN:
        if state.subnet_reply is None:
            discovered = tuple(sorted(state.addr_to_host))
            state.subnet_reply = Observation(success=True, discovered_addresses=discovered)
        return state.subnet_reply

    if kind in SCAN_FIELDS:
        return scenario.scan_replies.get((host_id, kind)) or _scan_reply(scenario, host_id, kind)
    if host_id is None:
        return _CONNECTION_FAILED
    host = scenario.hosts[host_id]

    if kind is _EXPLOIT or kind is _PRIVESC:
        access = state.access
        entry = _catalog_entry(scenario, kind, action.ident)
        if not _draws(kind, entry, host, access) or state.rng.random() >= entry.prob:
            return _FAILURE
        gained = max(access.get(host_id, _NONE), entry.grants) if kind is _EXPLOIT else _ROOT
        access[host_id] = gained
        return _ACCESS_GAINED[gained]

    # A wiretap. Credentials are not modelled: wiretapping costs a step and
    # succeeds at root access, changing nothing else.
    has_root = state.access.get(host_id, _NONE) is _ROOT
    return _SUCCESS if has_root else _FAILURE


def _draws(kind: ActionKind, entry, host, access: dict[int, AccessLevel]) -> bool:
    """Whether an attack of catalog ``entry`` on ``host`` draws for success:
    an exploit the host matches, or a privesc on a user or root host running its process."""
    if kind is _EXPLOIT:
        return entry.matches(host.services, host.vulns, host.os)
    return access.get(host.id, _NONE) >= _USER and entry.required_process in host.processes


def mutate_addresses(state: NetworkState) -> NetworkState:
    """Reassign every target-subnet address by a uniform random permutation
    drawn from ``state.rng``.

    Empty addresses move too, so the effective mutation space is the whole
    subnet. Access levels and host configurations are untouched; only the
    hosts' addresses (and the attacker's stale knowledge of them) change.
    The address list is shuffled and the index rebuilt, both in place.
    """
    addresses, addr_to_host = state.addresses, state.addr_to_host
    same_stream_shuffle(addresses, state.rng)
    addr_to_host.clear()
    addr_to_host.update(zip(addresses, range(len(state.scenario.hosts))))
    state.subnet_reply = None
    return state


def same_stream_shuffle(items: list, rng: random.Random) -> None:
    """Shuffle ``items`` in place, drawing from ``rng`` exactly what
    ``rng.shuffle(items)`` draws, so it leaves the same list and the same
    generator state.

    This is CPython's ``random.shuffle`` (3.10 to 3.13) with its per-index
    ``_randbelow`` call inlined: for ``i`` from ``len - 1`` down to 1, ``j``
    is a ``getrandbits(k)`` rejection draw below ``i + 1``, where ``k`` is
    the bit length of ``i + 1``. ``k`` is computed once per run of indices
    that share it. The tests check the helper against ``random.Random.shuffle``.
    """
    getrandbits = rng.getrandbits
    n = len(items)
    while n > 1:
        k = n.bit_length()
        low = 1 << (k - 1)  # the smallest count with bit length k
        for i in range(n - 1, low - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            items[i], items[j] = items[j], items[i]
        n = low - 1


def check_termination(state: NetworkState) -> EpisodeOutcome | None:
    """Pure terminal-condition check: honeypot loss, then win, then timeout."""
    scenario = state.scenario
    access = state.access
    for host_id in scenario.honeypot_ids:
        if access.get(host_id, AccessLevel.NONE) >= AccessLevel.USER:
            return EpisodeOutcome(OutcomeKind.LOSS_HONEYPOT, state.steps_taken, episode_score(state))
    sensitive = scenario.sensitive_ids
    if scenario.params.one_goal:
        won = any(access.get(h, AccessLevel.NONE) is AccessLevel.ROOT for h in sensitive)
    else:
        won = bool(sensitive) and all(
            access.get(h, AccessLevel.NONE) is AccessLevel.ROOT for h in sensitive
        )
    if won:
        return EpisodeOutcome(OutcomeKind.WIN, state.steps_taken, episode_score(state))
    if state.steps_taken >= scenario.params.step_limit:
        return EpisodeOutcome(OutcomeKind.TIMEOUT, state.steps_taken, episode_score(state))
    return None


def episode_score(state: NetworkState) -> float:
    """Sum of the values of every host compromised to at least user access."""
    return float(
        sum(
            state.scenario.hosts[host_id].value
            for host_id, level in state.access.items()
            if level >= AccessLevel.USER
        )
    )


def trace_record(action: Action, obs: Observation, state: NetworkState,
                 knowledge_reset: bool = False) -> dict:
    """Compact per-step record for line-delimited trace output; its
    arguments are those of a ``trace_sink`` call. An attack's entry is
    written as ``exploit_id`` or ``privesc_id``."""
    kind = action.kind
    record = {"step": state.steps_taken, "action": kind.value, "success": obs.success}
    if action.target is not None:
        record["target"] = address_pair(action.target)
    if kind is _EXPLOIT or kind is _PRIVESC:
        record[f"{kind.value}_id"] = action.ident
    if obs.connection_failed:
        record["connection_failed"] = True
    if obs.discovered_addresses is not None:
        record["discovered"] = len(obs.discovered_addresses)
    if obs.access_gained is not None:
        record["access_gained"] = obs.access_gained.name.lower()
    if knowledge_reset:
        record["knowledge_reset"] = True
    record["outcome"] = state.outcome.kind.value if state.outcome else None
    return record
