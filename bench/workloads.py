"""Workloads of the deceptsim benchmark: grids, generated inputs, output checks.

A sweep workload is a fixed grid handed to ``deceptsim sweep`` as flags; the
benchmark's ``--seed`` becomes the sweep's ``--master-seed``.  The aggregate
workload reads records that ``generate_records`` makes from the seed.  The
checks here re-derive what a correct output must contain without calling the
program, so a program change cannot also change what counts as correct.
"""

from __future__ import annotations

import collections
import csv
import itertools
import random
import statistics
from dataclasses import dataclass, field

RECORDS_FILE = "records.csv"
STEP_LIMIT = 3000
OUTCOMES = ("win", "loss_honeypot", "timeout")
RECORD_FIELDS = (
    "num_honeypots", "movement_time", "num_hosts", "one_goal", "seed", "agent",
    "repetition", "outcome", "steps", "score", "episode_seed",
)
KEY_COLUMNS = RECORD_FIELDS[:7]

# Swept-value flags in the order the records nest their cells.
GRID_FLAGS = ("honeypots", "movement-times", "hosts", "one-goal", "seeds", "agents")

DEFAULT_GRID = {
    "honeypots": "0,2,4,6,9,10",
    "movement-times": "none,25,50,75,100",
    "hosts": "10,50",
    "one-goal": "false,true",
    "seeds": "1234,42,24121997",
    "agents": "careful,standard,aggressive",
}

# The three figure projections the README runs on a sweep's output.
AGGREGATE_GROUP_BYS = ("agent,honeypots", "agent,movement_time", "honeypots_on,mtd_on")
# The projection whose numbers the benchmark recomputes on its own, and the
# output columns that hold its group key.
CHECKED_GROUP_BY = AGGREGATE_GROUP_BYS[0]
CHECKED_KEY_COLUMNS = ("agent", "num_honeypots")


def aggregate_argv(index: int) -> list[str]:
    """``deceptsim aggregate`` arguments for the ``index``-th of
    AGGREGATE_GROUP_BYS; the output file is the last argument."""
    return ["aggregate", "--records", RECORDS_FILE, "--group-by", AGGREGATE_GROUP_BYS[index],
            "--out", f"aggregate_{index}.csv"]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "aggregate"
    repetitions: int
    grid: dict = field(default_factory=lambda: dict(DEFAULT_GRID))

    def sweep_argv(self, master_seed: int) -> list[str]:
        """``deceptsim sweep`` arguments that write this grid to RECORDS_FILE,
        serially."""
        argv = [
            "sweep", "--out", RECORDS_FILE,
            "--workers", "1",
            "--master-seed", str(master_seed),
            "--repetitions", str(self.repetitions),
            "--step-limit", str(STEP_LIMIT),
        ]
        for flag in GRID_FLAGS:
            argv += [f"--{flag}", self.grid[flag]]
        return argv

    def cells(self) -> list[tuple[str, ...]]:
        """Cells in record order, each value spelled as the records CSV spells it."""
        return list(itertools.product(*(self.grid[flag].split(",") for flag in GRID_FLAGS)))


WORKLOADS = {
    w.name: w
    for w in (
        # No mutation: short episodes, where agent decide and the per-episode
        # and per-cell overheads dominate.
        Workload("static_serial", "sweep", repetitions=5,
                 grid=dict(DEFAULT_GRID, **{"movement-times": "none"})),
        # Fast mutation on one objective: address mutation and knowledge
        # resets dominate.
        Workload("mtd_serial", "sweep", repetitions=4,
                 grid=dict(DEFAULT_GRID, **{"honeypots": "0,2", "movement-times": "25,50",
                                            "one-goal": "false"})),
        # The read side: aggregating a default-size records file.
        Workload("aggregate_108k", "aggregate", repetitions=100),
    )
}


# ---------------------------------------------------------------------------
# Sweep records


@dataclass
class RecordsSummary:
    """What one records CSV holds, and how many of its episodes are wrong."""

    cells: int
    episodes: int
    failed: int
    steps: int = 0
    outcomes: collections.Counter = field(default_factory=collections.Counter)

    def size_line(self) -> str:
        return (
            f"cells={self.cells} episodes={self.episodes} record_steps={self.steps} "
            + " ".join(f"{name}={self.outcomes[name]}" for name in OUTCOMES)
        )


def _row_ok(row: dict) -> bool:
    try:
        steps = int(row["steps"])
        float(row["score"])
        int(row["episode_seed"])
        honeypots = int(row["num_honeypots"])
    except (TypeError, ValueError):
        return False
    outcome = row["outcome"]
    if outcome not in OUTCOMES or not 1 <= steps <= STEP_LIMIT:
        return False
    if outcome == "timeout" and steps != STEP_LIMIT:
        return False
    return outcome != "loss_honeypot" or honeypots > 0


def check_records(text: str, workload: Workload) -> RecordsSummary:
    """Check a records CSV against the grid: one well-formed row per cell and
    repetition, in cell-then-repetition order.  Every expected episode whose
    row is missing, misplaced or malformed counts as failed."""
    cells = workload.cells()
    expected = [cell + (str(rep),) for cell in cells for rep in range(workload.repetitions)]
    summary = RecordsSummary(cells=len(cells), episodes=len(expected), failed=0)
    rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
    if len(rows) != len(expected):
        summary.failed = len(expected)
        return summary
    for want, row in zip(expected, rows):
        if tuple(row.get(column) for column in KEY_COLUMNS) != want or not _row_ok(row):
            summary.failed += 1
            continue
        summary.steps += int(row["steps"])
        summary.outcomes[row["outcome"]] += 1
    return summary


# ---------------------------------------------------------------------------
# Aggregate workload input and checks


def _typed(token: str):
    if token == "none":
        return None
    if token in ("true", "false"):
        return token == "true"
    return int(token) if token.lstrip("-").isdigit() else token


def generate_records(seed: int, repetitions: int = 100) -> list[tuple]:
    """Seeded synthetic records in the default grid's shape, as tuples in
    RECORD_FIELDS order.  Each cell draws its own outcome mix; honeypot
    losses only occur in cells that have honeypots, and timeouts always end
    at the step limit, as in a real sweep."""
    rng = random.Random(seed)
    grid = Workload("default", "sweep", repetitions)
    rows = []
    for cell in grid.cells():
        cell = tuple(_typed(token) for token in cell)
        weights = (rng.random(), rng.random() if cell[0] else 0.0, rng.random())
        for rep in range(repetitions):
            outcome = rng.choices(OUTCOMES, weights)[0]
            steps = STEP_LIMIT if outcome == "timeout" else rng.randint(1, STEP_LIMIT - 1)
            score = float(rng.randrange(0, 3000, 10))
            rows.append(cell + (rep, outcome, steps, score, rng.getrandbits(64)))
    return rows


def expected_aggregate(rows: list[tuple]) -> dict[tuple[str, str], dict[str, float]]:
    """CHECKED_GROUP_BY (agent, honeypots) recomputed from generated records:
    episode counts, outcome fractions and inclusive step quartiles."""
    agent, honeypots = RECORD_FIELDS.index("agent"), RECORD_FIELDS.index("num_honeypots")
    outcome, steps = RECORD_FIELDS.index("outcome"), RECORD_FIELDS.index("steps")
    groups = collections.defaultdict(list)
    for row in rows:
        groups[(row[agent], str(row[honeypots]))].append(row)
    expected = {}
    for key, members in groups.items():
        n = len(members)
        counts = collections.Counter(row[outcome] for row in members)
        ordered = sorted(row[steps] for row in members)
        q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
        expected[key] = {
            "episodes": n,
            "win_probability": counts["win"] / n,
            "loss_honeypot_fraction": counts["loss_honeypot"] / n,
            "timeout_fraction": counts["timeout"] / n,
            "steps_min": ordered[0],
            "steps_q1": q1,
            "steps_median": median,
            "steps_q3": q3,
            "steps_max": ordered[-1],
        }
    return expected


def _close(text: str, value: float) -> bool:
    try:
        return abs(float(text) - value) <= 1e-6 * max(1.0, abs(value))
    except (TypeError, ValueError):
        return False


def check_aggregate(text: str, total: int, expected=None) -> bool:
    """An aggregate CSV is correct when its groups partition all ``total``
    records, each group's outcome fractions sum to one, and, when
    ``expected`` is given, every CHECKED_GROUP_BY group matches the
    independent recomputation."""
    rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
    try:
        if sum(int(row["episodes"]) for row in rows) != total:
            return False
        fractions = ("win_probability", "loss_honeypot_fraction", "timeout_fraction")
        if any(abs(sum(float(row[f]) for f in fractions) - 1.0) > 1e-5 for row in rows):
            return False
    except (KeyError, TypeError, ValueError):
        return False
    if expected is None:
        return True
    got = {tuple(row.get(column) for column in CHECKED_KEY_COLUMNS): row for row in rows}
    if set(got) != set(expected):
        return False
    return all(
        _close(got[key].get(column), value)
        for key, stats in expected.items()
        for column, value in stats.items()
    )
