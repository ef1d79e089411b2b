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

``ScriptedAgent`` holds the decision skeleton the three share. A decision
is the committed ``follow_up`` if there is one, else the subclass's
``_choose()`` once the address list is known, else a subnet scan.
``observe`` folds every reply: scans into beliefs, attack replies through
``Knowledge.gain`` and ``Knowledge.fail``. After a gain it calls
``_after_gain``, which commits the follow-up (a wiretap after root; careful
also commits a process scan after user access, and aggressive wiretaps
after any gain); after a wiretap reply it calls ``_after_wiretap``. A
detected mutation clears the follow-up and the address list, so the next
decision is a subnet scan. ``_attack_option`` is the per-address attack
rule: the best untried matching exploit below user access, a process scan
or the lowest untried matching escalation at user access.

A decision pays only for what changed. ``Knowledge`` owns each write to a
belief and to ``failed``, which maps a catalog entry ``(kind, id)`` to the
set of known addresses it failed at. ``options`` holds the careful agent's
attack option per address, which reads only that address's belief and
failed entries: a scan that fills a belief field, a gained access or a
failed attempt at the address drops it, and a wipe drops all. The known
addresses are distinct and a set holds only known ones, because a subnet
scan that changes the address set wipes the knowledge first; so an entry
has an untried address exactly when its set is smaller than the address
list. ``exhausted`` counts the entries whose set reached that size: the
aggressive agent's viable entries change only when it, the address count
or the agent's ``resets`` (its wipes) does.

``scan_run()`` hands over the host scans the agent is committed to next,
``(addresses, kinds)`` in address-major order, or None. ``engine.run_scans``
plays them up to the first reset, folding each reply as ``observe`` would,
so a run holds only scans that draw no random numbers and that a reset
drops: careful's scan phase, set by the subnet scan that starts it (no
follow-up, subnet known), and standard's focus scans after the first, which
commits it to the focus. ``attack_run()`` hands over aggressive's entry and
sweep (no follow-up, subnet known), or None. ``engine.run_attacks`` plays
every attack of it, skipping the addresses the entry failed at, up to the
first gain or failed connection, which ``observe`` then folds as a plain
reply; the failures before it are folded with one ``Knowledge.fail``.
"""

from __future__ import annotations

import operator
import random
from collections import defaultdict
from dataclasses import dataclass, field

from .engine import SCAN_FIELDS, Action, ActionKind, Observation, same_stream_shuffle
from .scenario import AccessLevel, Address, Scenario

# Members read on every decision, as globals: on Python 3.11 a read off an
# Enum class costs about 0.1 us more than a global read.
_SUBNET_SCAN, _PROCESS_SCAN, _WIRETAP = (
    ActionKind.SUBNET_SCAN, ActionKind.PROCESS_SCAN, ActionKind.WIRETAP)
_EXPLOIT, _PRIVESC = ActionKind.EXPLOIT, ActionKind.PRIVESC
_NONE, _USER, _ROOT = AccessLevel.NONE, AccessLevel.USER, AccessLevel.ROOT
_GRANTS = operator.attrgetter("grants")


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
    # Indexing creates an empty belief or failed set; a read that must not
    # create one uses get.
    beliefs: dict[Address, HostBelief] = field(default_factory=lambda: defaultdict(HostBelief))
    failed: dict[tuple[ActionKind, int], set[Address]] = field(
        default_factory=lambda: defaultdict(set))
    # An index over beliefs and failed; see the module docstring.
    options: dict[Address, Action | None] = field(default_factory=dict)
    # Entries whose set holds every known address.
    exhausted: int = 0

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

    def fail(self, kind: ActionKind, ident: int, addresses) -> None:
        """Fold failed attacks of catalog entry ``(kind, ident)`` at ``addresses``."""
        tried = self.failed[kind, ident]
        before = len(tried)
        tried.update(addresses)
        if before < len(self.addresses) == len(tried):
            self.exhausted += 1
        for address in addresses:
            self.options.pop(address, None)

    def clear(self) -> None:
        self.addresses.clear()
        self.beliefs.clear()
        self.failed.clear()
        self.options.clear()
        self.exhausted = 0


class ScriptedAgent:
    """The decision skeleton, belief bookkeeping, mutation detection and
    attack rule; see the module docstring. Subclasses supply ``_choose``
    and extend the hooks."""

    kind = "scripted"

    def __init__(self, scenario: Scenario, rng: random.Random):
        self.exploits = scenario.exploits  # in id order, as are privescs
        self.privescs = scenario.privescs
        self.rng = rng
        self.knowledge = Knowledge()
        self.scan_queue = None  # the next scan run, until scan_run hands it over
        self.follow_up: Action | None = None  # the move a reply committed to
        self.resets = 0  # completed knowledge wipes after detected mutations

    def next_action(self) -> Action:
        follow_up = self.follow_up
        if follow_up is not None:
            self.follow_up = None
            return follow_up
        if self.knowledge.addresses:
            choice = self._choose()
            if choice is not None:
                return choice
        # Nothing to do under current knowledge: re-discover, which also
        # gives mutation a chance to be noticed.
        return Action(_SUBNET_SCAN)

    def _choose(self) -> Action | None:
        """The next move once the address list is known; None for a subnet scan."""
        raise NotImplementedError

    def scan_run(self):
        """The host scans the agent is committed to next, or None; see the
        module docstring."""
        run, self.scan_queue = self.scan_queue, None
        return run

    def attack_run(self):
        """``(kind, id, sweep)``, the attacks committed to next, or None."""
        return None

    def observe(self, action: Action, obs: Observation) -> None:
        """Fold one reply into the knowledge. A subnet scan listing a new
        address set, a connection failure, or a host scan contradicting an
        earlier one reveals a mutation and wipes the knowledge."""
        kind = action.kind
        knowledge = self.knowledge
        if kind is _SUBNET_SCAN:
            discovered = list(obs.discovered_addresses)
            if knowledge.addresses and set(discovered) != set(knowledge.addresses):
                self.mtd_reset()
            knowledge.addresses = discovered
            self._after_subnet_scan()
        elif obs.connection_failed:
            self.mtd_reset()
        elif kind is _WIRETAP:
            self._after_wiretap()  # a wiretap reply carries no knowledge
        elif kind is _EXPLOIT or kind is _PRIVESC:
            if obs.success:
                knowledge.gain(action.target, obs.access_gained)
                self._after_gain(action.target, obs.access_gained)
            else:
                knowledge.fail(kind, action.ident, (action.target,))
        elif not knowledge.learn(action.target, SCAN_FIELDS[kind], obs.scanned):
            self.mtd_reset()

    def _after_subnet_scan(self) -> None:
        """Hook: the address list has just been (re)discovered."""

    def _after_gain(self, address: Address, access: AccessLevel) -> None:
        """Hook: an attack at ``address`` gained ``access``; root commits a wiretap."""
        if access is _ROOT:
            self.follow_up = Action(_WIRETAP, address)

    def _after_wiretap(self) -> None:
        """Hook: a wiretap was answered."""

    def mtd_reset(self) -> None:
        """Forget everything learned at the old addresses; subclasses extend
        it to drop their plans too."""
        self.resets += 1
        self.knowledge.clear()
        self.scan_queue = None
        self.follow_up = None

    def _attack_option(self, address: Address) -> Action | None:
        """The attack rule at one address: below user access, the untried
        exploit matching the believed configuration, root-granting first,
        then lowest id; at user access, a process scan until the processes
        are known, then the lowest untried matching escalation."""
        knowledge = self.knowledge
        belief = knowledge.beliefs.get(address)
        if belief is None:
            return None
        failed = knowledge.failed
        if belief.access is _NONE:
            services, vulns, os = belief.services, belief.vulns, belief.os
            if services is None or vulns is None or os is None:
                return None
            candidates = [
                e for e in self.exploits
                if address not in failed.get((_EXPLOIT, e.id), ())
                and e.matches(services, vulns, os)
            ]
            if candidates:
                # max keeps the first, so the lowest id, of the best grants.
                return Action(_EXPLOIT, address, max(candidates, key=_GRANTS).id)
        elif belief.access is _USER:
            processes = belief.processes
            if processes is None:
                return Action(_PROCESS_SCAN, address)
            for p in self.privescs:
                if (p.required_process in processes
                        and address not in failed.get((_PRIVESC, p.id), ())):
                    return Action(_PRIVESC, address, p.id)
        return None


class CarefulAgent(ScriptedAgent):
    """Scan everything, then attack: subnet scan plus service, vulnerability
    and OS scans on every host before the first exploit. Process scans are
    deferred until a host is at user access. Detected mutation restarts the
    whole scan phase."""

    kind = "careful"
    SCAN_KINDS = (ActionKind.SERVICE_SCAN, ActionKind.VULN_SCAN, ActionKind.OS_SCAN)

    def _choose(self) -> Action | None:
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

    def _after_subnet_scan(self) -> None:
        self.scan_queue = (self.knowledge.addresses, self.SCAN_KINDS)

    def _after_gain(self, address: Address, access: AccessLevel) -> None:
        self.follow_up = Action(_WIRETAP if access is _ROOT else _PROCESS_SCAN, address)


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
        self.exhausted: set[Address] = set()

    def _choose(self) -> Action | None:
        # A focus reached here is fully scanned and below root: a root gain
        # commits the wiretap, whose reply clears the focus, and a user gain
        # clears it at once.
        while self.focus is not None:
            option = self._attack_option(self.focus)
            if option is not None:
                return option
            self.exhausted.add(self.focus)
            self.focus = None
        beliefs, exhausted = self.knowledge.beliefs, self.exhausted
        candidates = [
            address
            for address in self.knowledge.addresses
            if address not in exhausted
            and (address not in beliefs or beliefs[address].access is not _ROOT)
        ]
        if not candidates:
            return None  # everything exhausted or owned
        self.focus = focus = candidates[self.rng.randrange(len(candidates))]
        self.scan_queue = ((focus,), self.SCAN_KINDS[1:])
        return Action(self.SCAN_KINDS[0], focus)

    def _after_gain(self, address: Address, access: AccessLevel) -> None:
        super()._after_gain(address, access)
        if access is _USER:
            self.focus = None  # move to a new host, come back later

    def _after_wiretap(self) -> None:
        self.focus = None

    def mtd_reset(self) -> None:
        super().mtd_reset()
        self.exhausted.clear()
        self.focus = None


class AggressiveAgent(ScriptedAgent):
    """No host scans at all: after one subnet scan, repeatedly pick a random
    exploit or escalation and sweep it over every known address in a random
    order, wiretapping after each success. Detected mutation forces a fresh
    subnet scan; the chosen action is kept and the sweep restarts."""

    kind = "aggressive"

    def __init__(self, scenario: Scenario, rng: random.Random):
        super().__init__(scenario, rng)
        self.catalog = [(_EXPLOIT, e.id) for e in self.exploits]
        self.catalog += [(_PRIVESC, p.id) for p in self.privescs]
        self.current: tuple[ActionKind, int] | None = None
        self.sweep: list[Address] = []
        self.viable_memo: tuple[tuple[int, int, int], list] | None = None

    def _choose(self) -> Action | None:
        # Attack runs play every attack, so a decision comes here only when
        # no entry is viable, and only a mutation can make progress possible.
        return None

    def attack_run(self):
        """Hand over the current entry and its sweep, drawing both if no
        sweep is pending; None if no entry is viable."""
        if self.follow_up is not None or not self.knowledge.addresses:
            return None
        if not self.sweep:
            viable = self._viable()
            if not viable:
                self.current = None
                return None
            self.current = viable[self.rng.randrange(len(viable))]
            self._new_sweep()
        sweep, self.sweep = self.sweep, []
        return (*self.current, sweep)

    def _viable(self) -> list[tuple[ActionKind, int]]:
        """Catalog entries with an untried known address: a failed set
        smaller than the address list (see the module docstring). The last
        list is kept until an entry is exhausted, the address count changes
        or the knowledge is wiped, the only events that change the answer."""
        knowledge = self.knowledge
        known = len(knowledge.addresses)
        key = (self.resets, known, knowledge.exhausted)
        memo = self.viable_memo
        if memo is None or memo[0] != key:
            failed = knowledge.failed
            memo = self.viable_memo = key, [
                spec for spec in self.catalog if len(failed.get(spec, ())) < known]
        return memo[1]

    def _new_sweep(self) -> None:
        """Shuffle the known addresses; the attack run skips those the
        entry already failed at."""
        self.sweep = list(self.knowledge.addresses)
        same_stream_shuffle(self.sweep, self.rng)

    def _after_subnet_scan(self) -> None:
        if self.current is not None:
            self._new_sweep()

    def _after_gain(self, address: Address, access: AccessLevel) -> None:
        self.follow_up = Action(_WIRETAP, address)
        self.current = None


_AGENT_CLASSES = {cls.kind: cls for cls in (CarefulAgent, StandardAgent, AggressiveAgent)}
AGENT_KINDS = tuple(_AGENT_CLASSES)


def agent_class(kind: str) -> type[ScriptedAgent]:
    """The script of agent ``kind``; ValueError names an unknown kind."""
    if kind not in _AGENT_CLASSES:
        raise ValueError(f"unknown agent kind {kind!r}; expected one of: {', '.join(AGENT_KINDS)}")
    return _AGENT_CLASSES[kind]


def make_agent(kind: str, scenario: Scenario, rng: random.Random) -> ScriptedAgent:
    return agent_class(kind)(scenario, rng)
