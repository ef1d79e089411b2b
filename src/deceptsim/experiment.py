"""Monte-Carlo harness.

Expands the swept parameter grid into cells, streams the records of seeded
episode batches (serial or across processes) in order, and aggregates
outcome statistics over record columns, zipping group keys from whole
columns: no Python call per record for a field. Episode seeds are a pure
hash of (master seed, cell, repetition), so any subset of the grid
reproduces identical records in any execution order. The cell key
deliberately excludes the objective flag: cells differing only in one_goal
share episode seeds, which makes their win probabilities exactly paired.

Excluding it also lets one simulation produce both records. Nothing but the
terminal check reads the objective, so a one-goal episode plays exactly the
steps of its all-goals twin up to the first step that roots a sensitive
host, and ends there with a win. A sweep over both objectives therefore
plays each episode once, under the all-goals objective, and derives the
one-goal record from the win the engine notes at that step.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .agents import AGENT_KINDS, agent_class, make_agent
from .engine import new_network_state, run_attacks, run_scans, step as engine_step
from .scenario import GeneratorParams, Scenario, check_type, generate_scenario

# hashlib loads OpenSSL's libcrypto; take SHA-256 from CPython's built-in
# module where there is one, as random.py does for SHA-512.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in hashes


@dataclass(frozen=True)
class Cell:
    """One combination of swept parameter values."""

    num_honeypots: int
    movement_time: int | None
    num_hosts: int
    one_goal: bool
    seed: int
    agent: str


CELL_FIELDS = tuple(spec.name for spec in dataclasses.fields(Cell))


@dataclass(frozen=True)
class SweepConfig:
    """The experiment grid: swept value lists plus fixed world parameters."""

    num_honeypots: tuple[int, ...] = (0, 2, 4, 6, 9, 10)
    movement_time: tuple[int | None, ...] = (None, 25, 50, 75, 100)
    num_hosts: tuple[int, ...] = (10, 50)
    one_goal: tuple[bool, ...] = (False, True)
    seeds: tuple[int, ...] = (1234, 42, 24121997)
    agents: tuple[str, ...] = AGENT_KINDS
    repetitions: int = 100
    master_seed: int = 0
    fixed: GeneratorParams = GeneratorParams()

    def validate(self) -> None:
        check_type("repetitions", self.repetitions, "int")
        check_type("master_seed", self.master_seed, "int")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be at least 1, got {self.repetitions}")
        for name, item_type in SWEPT_TYPES.items():
            values = getattr(self, name)
            if not values:
                raise ValueError(f"swept value list {name} must not be empty")
            for value in values:
                check_type(name, value, item_type)
            if len(set(values)) < len(values):
                raise ValueError(f"swept value list {name} repeats a value: {values}")
        for agent in self.agents:
            agent_class(agent)
        # The agent and objective vary fastest and decide no error: check each world once.
        first = dataclasses.replace(self, one_goal=self.one_goal[:1], agents=self.agents[:1])
        for cell in first.cells():
            scenario_params(self.fixed, cell).validate()

    def cells(self) -> list[Cell]:
        return [
            Cell(*combo)
            for combo in itertools.product(*(getattr(self, name) for name in SWEPT_TYPES))
        ]


# SweepConfig's swept lists, in Cell field order, each with its item type:
# the annotation of the Cell field that its values fill.
SWEPT_TYPES = {
    spec.name: cell_spec.type
    for spec, cell_spec in zip(dataclasses.fields(SweepConfig), dataclasses.fields(Cell))
}


class EpisodeRecord(NamedTuple):
    """One episode's cell parameters and outcome, flat for tabular output;
    its fields are the records CSV's columns, in order."""

    num_honeypots: int
    movement_time: int | None
    num_hosts: int
    one_goal: bool
    seed: int
    agent: str
    repetition: int
    outcome: str
    steps: int
    score: float
    episode_seed: int


@dataclass(frozen=True)
class AggregateStats:
    """Outcome fractions and step-count distribution for one record group."""

    group: tuple[tuple[str, object], ...]
    episodes: int
    win_probability: float
    loss_honeypot_fraction: float
    timeout_fraction: float
    steps_min: int
    steps_q1: float
    steps_median: float
    steps_q3: float
    steps_max: int


def derive_episode_seed(master_seed: int, cell: Cell, repetition: int) -> int:
    """Stable per-episode seed; one_goal is left out so objective variants
    of a cell run on common random numbers."""
    key = (
        f"{master_seed}|hp={cell.num_honeypots}|mt={cell.movement_time}"
        f"|hosts={cell.num_hosts}|seed={cell.seed}|agent={cell.agent}|rep={repetition}"
    )
    digest = sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _substream(episode_seed: int, label: str) -> random.Random:
    digest = sha256(f"{episode_seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def scenario_params(fixed: GeneratorParams, cell: Cell) -> GeneratorParams:
    """``fixed`` with the cell's fields laid over it: all but the last, the
    agent, are GeneratorParams fields."""
    return dataclasses.replace(fixed, **{name: getattr(cell, name) for name in CELL_FIELDS[:-1]})


def run_episode(
    scenario: Scenario,
    agent_kind: str,
    episode_seed: int,
    repetition: int = 0,
    trace_sink=None,
    one_goal_sink=None,
) -> EpisodeRecord:
    """Play one episode to termination; deterministic in all arguments.

    A run of host scans the agent hands over (``scan_run``) is played by
    ``engine.run_scans``, and an attack sweep (``attack_run``) by
    ``engine.run_attacks``, before the plain step; each run folds its own
    replies into the agent's knowledge, except the attack that ends an
    attack run (a gain or a failed connection), which is observed and
    traced here as a plain step is. ``trace_sink``, when given, is
    called after every step with (action, observation, state,
    knowledge_reset flag); the state holds the step's index, ``steps_taken``.
    ``one_goal_sink``, when given, is called once with the record the same
    episode has under the one-goal objective: a win at the first step that
    roots a sensitive host if there is one, else the returned record's
    outcome, steps and score.
    """
    engine_rng = _substream(episode_seed, "engine")
    agent_rng = _substream(episode_seed, "agent")
    agent = make_agent(agent_kind, scenario, agent_rng)
    state = new_network_state(scenario, engine_rng)
    while state.outcome is None:
        run = agent.scan_run()
        if run is not None:
            run_scans(state, run, agent.knowledge, agent.mtd_reset, trace_sink)
            continue
        run = agent.attack_run()
        if run is None:
            action = agent.next_action()
            obs, state = engine_step(state, action)
        else:
            played = run_attacks(state, run, agent.knowledge, trace_sink)
            if played is None:
                continue
            action, obs = played
        resets_before = agent.resets
        agent.observe(action, obs)
        if trace_sink is not None:
            trace_sink(action, obs, state, agent.resets > resets_before)
    outcome = state.outcome
    params = scenario.params
    record = EpisodeRecord(
        num_honeypots=params.num_honeypots,
        movement_time=params.movement_time,
        num_hosts=params.num_hosts,
        one_goal=params.one_goal,
        seed=params.seed,
        agent=agent_kind,
        repetition=repetition,
        outcome=outcome.kind.value,
        steps=outcome.steps,
        score=outcome.score,
        episode_seed=episode_seed,
    )
    if one_goal_sink is not None:
        outcome = state.one_goal_win or outcome
        one_goal_sink(record._replace(
            one_goal=True, outcome=outcome.kind.value, steps=outcome.steps,
            score=outcome.score,
        ))
    return record


def _run_cells(task: tuple) -> dict:
    """Every repetition of one world's cells, those that differ from ``world``
    only in agent, one of ``agents``, and in one_goal, one per objective in
    ``objectives``: keyed by objective, in agent then repetition order.

    Each episode is played once. When both objectives are wanted it is
    played under the all-goals objective, and its one-goal twin is derived
    from it. Each agent's ``generate_scenario`` call after the first takes
    the world from its memo.
    """
    fixed, world, agents, objectives, repetitions, master_seed = task
    records = {objective: [] for objective in objectives}
    twins = records[True].append if len(objectives) == 2 else None
    for agent in agents:
        cell = dataclasses.replace(world, agent=agent, one_goal=False not in objectives)
        scenario = generate_scenario(scenario_params(fixed, cell))
        for repetition in range(repetitions):
            records[cell.one_goal].append(
                run_episode(
                    scenario,
                    agent,
                    derive_episode_seed(master_seed, cell, repetition),
                    repetition,
                    one_goal_sink=twins,
                )
            )
    return records


def iter_sweep(config: SweepConfig, workers: int | None = None) -> Iterator[EpisodeRecord]:
    """All cells x repetitions, by cell then repetition, once ``config`` is
    valid, as each (num_honeypots, movement_time, num_hosts) block of tasks
    is done. A task is one world: the cells that differ only in agent and
    one_goal (``_run_cells``). ``workers`` > 1 spreads tasks over at most one
    process each, which ignore interrupts; closing the iterator, a failure
    or an interrupt ends them at once."""
    config.validate()
    worlds = dataclasses.replace(config, one_goal=(False,), agents=config.agents[:1]).cells()
    tasks = [(config.fixed, world, config.agents, config.one_goal, config.repetitions,
              config.master_seed) for world in worlds]
    # A pool starts all its workers at once, so idle ones would be forked.
    return _ordered_records(config, tasks, min(workers or 1, len(tasks)))


def _ordered_records(config: SweepConfig, tasks: list, workers: int) -> Iterator[EpisodeRecord]:
    pool, batches = None, map(_run_cells, tasks)
    try:
        if workers > 1:
            # Imported here: a serial sweep, run and aggregate load no multiprocessing.
            import multiprocessing
            import signal

            # The workers ignore interrupts: the parent acts on one and ends them.
            pool = multiprocessing.Pool(workers, signal.signal, (signal.SIGINT, signal.SIG_IGN))
            batches = _watched(pool.imap(_run_cells, tasks), multiprocessing.active_children())
        for batch_block in iter(lambda: list(itertools.islice(batches, len(config.seeds))), []):
            for objective in config.one_goal:
                for batch in batch_block:
                    yield from batch[objective]
    finally:
        if pool is not None:
            pool.terminate()


def _watched(results, workers: list) -> Iterator[dict]:
    """``results``, a pool's ``imap``, checking ``workers`` each second it
    waits: a pool replaces a killed worker, whose task never returns."""
    import multiprocessing
    while True:
        try:
            yield results.next(timeout=1)
        except StopIteration:
            return
        except multiprocessing.TimeoutError:
            for worker in workers:
                if worker.exitcode is not None:
                    raise RuntimeError(f"worker {worker.pid} died, exit code {worker.exitcode}")


def run_sweep(config: SweepConfig, workers: int | None = None) -> list[EpisodeRecord]:
    """``iter_sweep``'s records, as a list."""
    return list(iter_sweep(config, workers))


# How aggregate() reads each grouping field's column off the record columns:
# every cell field, and two derived dimensions; and the record column each
# one reads.
GROUP_GETTERS = {name: operator.itemgetter(name) for name in CELL_FIELDS}
GROUP_GETTERS.update(
    honeypots_on=lambda columns: map(operator.gt, columns["num_honeypots"], itertools.repeat(0)),
    mtd_on=lambda columns: map(operator.is_not, columns["movement_time"], itertools.repeat(None)),
)
GROUP_SOURCES = {name: name for name in CELL_FIELDS}
GROUP_SOURCES.update(honeypots_on="num_honeypots", mtd_on="movement_time")


def aggregate_fields(group_by: tuple[str, ...]) -> tuple[str, ...]:
    """The record columns ``aggregate(columns, group_by)`` reads, in record
    order: the group-by fields' sources, ``outcome`` and ``steps``."""
    read = {"outcome", "steps", *map(GROUP_SOURCES.__getitem__, group_by)}
    return tuple(name for name in EpisodeRecord._fields if name in read)


def _quartiles(data: list) -> tuple[float, float, float]:
    """The quartiles of ``data``, already sorted, by the arithmetic of
    ``statistics.quantiles(data, n=4, method="inclusive")``, without its
    second sort; a single value is each quartile, as a float."""
    if len(data) == 1:
        return (float(data[0]),) * 3
    quartiles = []
    for i in range(1, 4):
        j, delta = divmod(i * (len(data) - 1), 4)
        quartiles.append((data[j] * (4 - delta) + data[j + 1] * delta) / 4)
    return tuple(quartiles)


def aggregate(records, group_by: tuple[str, ...] = CELL_FIELDS) -> list[AggregateStats]:
    """Group records and compute outcome fractions and step quartiles.

    ``records`` are EpisodeRecords, transposed here, or their columns by
    field name, as ``records.read_records_csv`` returns them (at least those
    that ``aggregate_fields(group_by)`` names); a group holds row indexes.
    Quartiles use inclusive linear interpolation. Output order follows the
    sorted group keys, so it is independent of record order.
    """
    columns = records if isinstance(records, dict) \
        else dict(zip(EpisodeRecord._fields, zip(*records)))
    if not columns.get("outcome"):
        raise ValueError("no records to aggregate")
    for name in group_by:
        if name not in GROUP_GETTERS:
            raise ValueError(
                f"unknown group-by field {name!r}; expected any of: {', '.join(GROUP_GETTERS)}"
            )
    keys = zip(*(GROUP_GETTERS[name](columns) for name in group_by)) if group_by \
        else itertools.repeat((), len(columns["outcome"]))
    groups: defaultdict[tuple, list[int]] = defaultdict(list)
    for index, key in enumerate(keys):
        groups[key].append(index)

    stats = []
    for key in sorted(groups, key=lambda k: tuple((v is None, v) for v in k)):
        members = groups[key]
        n = len(members)
        outcomes = list(map(columns["outcome"].__getitem__, members))
        steps = sorted(map(columns["steps"].__getitem__, members))
        q1, median, q3 = _quartiles(steps)
        stats.append(
            AggregateStats(
                group=tuple(zip(group_by, key)),
                episodes=n,
                win_probability=outcomes.count("win") / n,
                loss_honeypot_fraction=outcomes.count("loss_honeypot") / n,
                timeout_fraction=outcomes.count("timeout") / n,
                steps_min=steps[0],
                steps_q1=q1,
                steps_median=median,
                steps_q3=q3,
                steps_max=steps[-1],
            )
        )
    return stats
