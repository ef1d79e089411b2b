"""Scripted attacker policies.

Three phase machines:

* careful: scan every discovered host fully, then attack chosen hosts with
  the best matching exploit.
* standard: scan and attack one host at a time, vertically.
* aggressive: never scan beyond the subnet; sweep one random exploit or
  privilege escalation across all known addresses in random order.

Agents know their own toolkit (the exploit and privilege-escalation
definitions) but nothing about any host until they observe it, and they
address hosts purely by network address, so an address mutation silently
invalidates their beliefs. Mutation is inferred only from observations: a
connection failure on a known address, a scan that contradicts an earlier
one, or a subnet scan listing a different address set.

A decision pays only for what changed. ``Knowledge`` owns each write to a
belief and to ``failed`` and keeps two indexes beside it. ``options`` holds
the careful agent's attack option per address, which reads only that
address's belief and failed entries: a scan that fills a belief field, a
gained access or a failed attempt at the address drops it, and a wipe drops
all. ``failures`` counts the failed entries per ``(kind, id)``, each pair
once. ``failed`` is a subset of the known addresses × the catalog, and the
addresses are distinct, because a subnet scan that changes the address set
wipes the knowledge first; so an entry has an untried address exactly when
its count is below the number of known addresses.

``scan_run()`` hands over the host scans the agent is committed to next, as
``(kind, address)`` pairs, or None. ``engine.run_scans`` plays them up to
the first reset, folding each reply as ``observe`` would, so a run holds
only scans that draw no random numbers and that a reset drops: careful's
scan phase, set by the subnet scan that starts it (nothing pending, subnet
known), and standard's focus scans after the first, which commits it to
the focus. Aggressive has none.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .engine import SCAN_FIELDS, Action, ActionKind, Observation, same_stream_shuffle
from .scenario import AccessLevel, Address, Scenario

AGENT_KINDS = ("careful", "standard", "aggressive")


@dataclass
class HostBelief:
    """What the agent thinks sits at one address; fields stay None until scanned."""

    services: frozenset[int] | None = None
    os: int | None = None
    vulns: frozenset[int] | None = None
    processes: frozenset[int] | None = None
    access: AccessLevel = AccessLevel.NONE


@dataclass
class Knowledge:
    """Observation-derived world view; the only state agents may act on."""

    addresses: list[Address] = field(default_factory=list)
    # Indexing creates an empty belief; a read that must not create one uses get.
    beliefs: dict[Address, HostBelief] = field(default_factory=lambda: defaultdict(HostBelief))
    failed: set[tuple[Address, ActionKind, int]] = field(default_factory=set)
    # Indexes over beliefs and failed; see the module docstring.
    options: dict[Address, Action | None] = field(default_factory=dict)
    failures: dict[tuple[ActionKind, int], int] = field(default_factory=dict)

    def learn(self, address: Address, name: str, seen) -> bool:
        """Fold one host-scan reply; False if it contradicts an earlier one."""
        belief = self.beliefs[address]
        believed = getattr(belief, name)
        if believed is None:
            setattr(belief, name, seen)
            self.options.pop(address, None)
        return believed is None or believed == seen

    def gain(self, address: Address, access: AccessLevel) -> None:
        belief = self.beliefs[address]
        belief.access = max(belief.access, access)
        self.options.pop(address, None)

    def fail(self, address: Address, kind: ActionKind, ident: int) -> None:
        if (address, kind, ident) not in self.failed:
            self.failed.add((address, kind, ident))
            self.failures[kind, ident] = self.failures.get((kind, ident), 0) + 1
        self.options.pop(address, None)

    def clear(self) -> None:
        self.addresses.clear()
        self.beliefs.clear()
        self.failed.clear()
        self.options.clear()
        self.failures.clear()


class ScriptedAgent:
    """Shared toolkit access, belief bookkeeping, mutation detection, and
    attack selection. Subclasses supply ``next_action`` and the hooks that
    ``observe`` calls."""

    kind = "scripted"

    def __init__(self, scenario: Scenario, rng: random.Random):
        self.exploits = scenario.exploits
        self.privescs = scenario.privescs
        self.rng = rng
        self.knowledge = Knowledge()
        self.scan_queue = None  # the next scan run, until scan_run hands it over
        self.need_subnet = True
        self.resets = 0  # completed knowledge wipes after detected mutations

    def next_action(self) -> Action:
        raise NotImplementedError

    def scan_run(self):
        """The host scans the agent is committed to next, or None; see the
        module docstring."""
        run, self.scan_queue = self.scan_queue, None
        return run

    def observe(self, action: Action, obs: Observation) -> None:
        """Fold one reply into the knowledge. A subnet scan listing a new
        address set, a connection failure, or a host scan contradicting an
        earlier one reveals a mutation and wipes the knowledge; any other
        reply goes to ``_observe_attack``."""
        kind = action.kind
        knowledge = self.knowledge
        if kind is ActionKind.SUBNET_SCAN:
            discovered = list(obs.discovered_addresses)
            if knowledge.addresses and set(discovered) != set(knowledge.addresses):
                self.mtd_reset()
            knowledge.addresses = discovered
            self.need_subnet = False
            self._after_subnet_scan()
            return
        if obs.connection_failed:
            self.mtd_reset()
            return
        name = SCAN_FIELDS.get(kind)
        if name is None:
            self._observe_attack(action, obs)
        elif not knowledge.learn(action.target, name, getattr(obs, name)):
            self.mtd_reset()

    def _after_subnet_scan(self) -> None:
        """Hook: the address list has just been (re)discovered."""

    def _observe_attack(self, action: Action, obs: Observation) -> None:
        """Hook: the reply to an exploit, privilege escalation or wiretap."""
        raise NotImplementedError

    def mtd_reset(self) -> None:
        """Forget everything learned at the old addresses; subclasses extend
        it to drop their plans too."""
        self.resets += 1
        self.knowledge.clear()
        self.scan_queue = None
        self.need_subnet = True

    def _best_exploit(self, address: Address):
        """Untried exploit matching the believed configuration; root-granting
        first, then lowest id."""
        belief = self.knowledge.beliefs.get(address)
        if (
            belief is None
            or belief.services is None
            or belief.vulns is None
            or belief.os is None
        ):
            return None
        candidates = [
            e
            for e in self.exploits
            if (address, ActionKind.EXPLOIT, e.id) not in self.knowledge.failed
            and e.matches(belief.services, belief.vulns, belief.os)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda e: (-int(e.grants), e.id))

    def _untried_privesc(self, address: Address):
        belief = self.knowledge.beliefs.get(address)
        if belief is None or belief.processes is None:
            return None
        candidates = [
            p
            for p in self.privescs
            if (address, ActionKind.PRIVESC, p.id) not in self.knowledge.failed
            and p.required_process in belief.processes
        ]
        return min(candidates, key=lambda p: p.id) if candidates else None

    def _record_attack_reply(self, action: Action, obs: Observation) -> AccessLevel | None:
        """Update beliefs and the failed-attempt set; return gained access."""
        kind = action.kind
        if kind is ActionKind.WIRETAP:
            return None
        if obs.success:
            self.knowledge.gain(action.target, obs.access_gained)
            return obs.access_gained
        ident = action.exploit_id if kind is ActionKind.EXPLOIT else action.privesc_id
        self.knowledge.fail(action.target, kind, ident)
        return None


class CarefulAgent(ScriptedAgent):
    """Scan everything, then attack: subnet scan plus service, vulnerability
    and OS scans on every host before the first exploit. Process scans are
    deferred until a host is at user access. Detected mutation restarts the
    whole scan phase."""

    kind = "careful"
    SCAN_KINDS = (ActionKind.SERVICE_SCAN, ActionKind.VULN_SCAN, ActionKind.OS_SCAN)

    def __init__(self, scenario: Scenario, rng: random.Random):
        super().__init__(scenario, rng)
        self.pending: deque[Action] = deque()

    def next_action(self) -> Action:
        # The scan phase is a scan run, which a subnet scan starts.
        if self.pending:
            return self.pending.popleft()
        if not self.need_subnet:
            choice = self._pick_attack()
            if choice is not None:
                return choice
        # Nothing attackable under current knowledge: rescan everything but
        # keep the attempt memory so failed pairs are not retried.
        return Action(ActionKind.SUBNET_SCAN)

    def _pick_attack(self) -> Action | None:
        options = self._attack_options()
        return options[self.rng.randrange(len(options))] if options else None

    def _attack_options(self) -> list[Action]:
        """Every known address's attack option, in address order, each
        computed once until a write at its address drops it."""
        addresses, memo = self.knowledge.addresses, self.knowledge.options
        for address in addresses:
            if address not in memo:
                memo[address] = self._attack_option(address)
        return [option for option in map(memo.get, addresses) if option is not None]

    def _attack_option(self, address: Address) -> Action | None:
        belief = self.knowledge.beliefs.get(address)
        if belief is None:
            return None
        if belief.access is AccessLevel.NONE:
            exploit = self._best_exploit(address)
            if exploit is not None:
                return Action(ActionKind.EXPLOIT, address, exploit.id)
        elif belief.access is AccessLevel.USER:
            if belief.processes is None:
                return Action(ActionKind.PROCESS_SCAN, address)
            privesc = self._untried_privesc(address)
            if privesc is not None:
                return Action(ActionKind.PRIVESC, address, privesc_id=privesc.id)
        return None

    def _after_subnet_scan(self) -> None:
        # Lazy, as a reset usually drops most of the run unplayed.
        pairs = itertools.product(self.knowledge.addresses, self.SCAN_KINDS)
        self.scan_queue = ((kind, address) for address, kind in pairs)

    def _observe_attack(self, action: Action, obs: Observation) -> None:
        gained = self._record_attack_reply(action, obs)
        if gained is AccessLevel.ROOT:
            self.pending.append(Action(ActionKind.WIRETAP, action.target))
        elif gained is AccessLevel.USER:
            self.pending.append(Action(ActionKind.PROCESS_SCAN, action.target))
        # wiretap replies carry no knowledge

    def mtd_reset(self) -> None:
        # next_action restarts the scan phase from a subnet scan.
        super().mtd_reset()
        self.pending.clear()


class StandardAgent(ScriptedAgent):
    """One host at a time: pick a random known host, scan only it, then
    attack it until success or until no untried exploit or escalation is
    left, then move on. Detected mutation restarts from the subnet scan."""

    kind = "standard"
    SCAN_KINDS = (
        ActionKind.SERVICE_SCAN,
        ActionKind.OS_SCAN,
        ActionKind.VULN_SCAN,
        ActionKind.PROCESS_SCAN,
    )

    def __init__(self, scenario: Scenario, rng: random.Random):
        super().__init__(scenario, rng)
        self.focus: Address | None = None
        self.pending: deque[Action] = deque()
        self.exhausted: set[Address] = set()

    def next_action(self) -> Action:
        if self.pending:
            return self.pending.popleft()
        if self.need_subnet:
            return Action(ActionKind.SUBNET_SCAN)
        while True:
            if self.focus is None:
                candidates = []
                for address in self.knowledge.addresses:
                    if address in self.exhausted:
                        continue
                    belief = self.knowledge.beliefs.get(address)
                    if belief is not None and belief.access is AccessLevel.ROOT:
                        continue
                    candidates.append(address)
                if not candidates:
                    # Everything exhausted or owned: re-discover, which also
                    # gives mutation a chance to be noticed.
                    return Action(ActionKind.SUBNET_SCAN)
                self.focus = candidates[self.rng.randrange(len(candidates))]
                first, *rest = self.SCAN_KINDS
                self.scan_queue = [(kind, self.focus) for kind in rest]
                return Action(first, self.focus)
            belief = self.knowledge.beliefs[self.focus]
            if belief.access is AccessLevel.NONE:
                exploit = self._best_exploit(self.focus)
                if exploit is not None:
                    return Action(ActionKind.EXPLOIT, self.focus, exploit.id)
            elif belief.access is AccessLevel.USER:
                privesc = self._untried_privesc(self.focus)
                if privesc is not None:
                    return Action(ActionKind.PRIVESC, self.focus, privesc_id=privesc.id)
            else:
                return Action(ActionKind.WIRETAP, self.focus)
            self.exhausted.add(self.focus)
            self.focus = None

    def _observe_attack(self, action: Action, obs: Observation) -> None:
        if action.kind is ActionKind.WIRETAP:
            self.focus = None
            return
        gained = self._record_attack_reply(action, obs)
        if gained is AccessLevel.ROOT:
            self.pending.append(Action(ActionKind.WIRETAP, action.target))
        elif gained is AccessLevel.USER:
            self.focus = None  # success: move to a new host, come back later

    def mtd_reset(self) -> None:
        super().mtd_reset()
        self.exhausted.clear()
        self.pending.clear()
        self.focus = None


class AggressiveAgent(ScriptedAgent):
    """No host scans at all: after one subnet scan, repeatedly pick a random
    exploit or escalation and sweep it over every known address in a random
    order, wiretapping after each success. Detected mutation forces a fresh
    subnet scan; the chosen action is kept and the sweep restarts."""

    kind = "aggressive"

    def __init__(self, scenario: Scenario, rng: random.Random):
        super().__init__(scenario, rng)
        self.catalog = [(ActionKind.EXPLOIT, e.id) for e in self.exploits]
        self.catalog += [(ActionKind.PRIVESC, p.id) for p in self.privescs]
        self.current: tuple[ActionKind, int] | None = None
        self.sweep: deque[Address] = deque()
        self.pending_wiretap: Address | None = None

    def next_action(self) -> Action:
        if self.need_subnet:
            return Action(ActionKind.SUBNET_SCAN)
        if self.pending_wiretap is not None:
            return Action(ActionKind.WIRETAP, self.pending_wiretap)
        while True:
            if self.current is None:
                viable = self._viable()
                if not viable:
                    # Every pair tried and failed: re-discover and retry; only
                    # a mutation can make progress possible again.
                    return Action(ActionKind.SUBNET_SCAN)
                self.current = viable[self.rng.randrange(len(viable))]
                self._new_sweep()
            kind, ident = self.current
            while self.sweep:
                address = self.sweep.popleft()
                if (address, kind, ident) in self.knowledge.failed:
                    continue
                if kind is ActionKind.EXPLOIT:
                    return Action(ActionKind.EXPLOIT, address, ident)
                return Action(ActionKind.PRIVESC, address, privesc_id=ident)
            self.current = None

    def _viable(self) -> list[tuple[ActionKind, int]]:
        """Catalog entries with an untried known address: fewer failures than
        known addresses (see the module docstring)."""
        failures, known = self.knowledge.failures, len(self.knowledge.addresses)
        return [spec for spec in self.catalog if failures.get(spec, 0) < known]

    def _new_sweep(self) -> None:
        order = list(self.knowledge.addresses)
        same_stream_shuffle(order, self.rng)
        self.sweep = deque(order)

    def _after_subnet_scan(self) -> None:
        if self.current is not None:
            self._new_sweep()

    def _observe_attack(self, action: Action, obs: Observation) -> None:
        if action.kind is ActionKind.WIRETAP:
            self.pending_wiretap = None
        elif obs.success:
            self.pending_wiretap = action.target
            self.current = None
            self.sweep.clear()
        else:
            self._record_attack_reply(action, obs)

    def mtd_reset(self) -> None:
        # The chosen action survives; the sweep restarts over fresh addresses.
        super().mtd_reset()
        self.sweep.clear()
        self.pending_wiretap = None


_AGENT_CLASSES = {cls.kind: cls for cls in (CarefulAgent, StandardAgent, AggressiveAgent)}


def make_agent(kind: str, scenario: Scenario, rng: random.Random) -> ScriptedAgent:
    try:
        cls = _AGENT_CLASSES[kind]
    except KeyError:
        raise ValueError(
            f"unknown agent kind {kind!r}; expected one of: {', '.join(AGENT_KINDS)}"
        ) from None
    return cls(scenario, rng)
