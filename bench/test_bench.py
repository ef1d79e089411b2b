"""Self-tests of the benchmark on a tiny grid.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import contextlib
import io
import os

import pytest

import deceptsim
from deceptsim import agents, cli, engine, experiment
from layers import Tracer
from speed import REFERENCE_S, SpeedProbe
from workloads import (
    CHECKED_GROUP_BY,
    RECORD_FIELDS,
    RECORDS_FILE,
    STEP_LIMIT,
    Workload,
    check_aggregate,
    check_records,
    expected_aggregate,
    generate_records,
)

AGENT_CLASSES = (agents.CarefulAgent, agents.StandardAgent, agents.AggressiveAgent)
TINY = Workload("tiny", "sweep", repetitions=1, grid={
    "honeypots": "0,2",
    "movement-times": "none,5",
    "hosts": "10",
    "one-goal": "false",
    "seeds": "1234",
    "agents": "careful,standard,aggressive",
})


def _sweep(directory, tracer=None) -> str:
    """Run the tiny sweep through the CLI in ``directory``; its records."""
    directory.mkdir()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), tracer or contextlib.nullcontext():
            assert cli.main(TINY.sweep_argv(master_seed=7)) == 0
    finally:
        os.chdir(cwd)
    return (directory / RECORDS_FILE).read_text()


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _sweep(tmp_path_factory.mktemp("tiny") / "untraced")


def test_traced_sweep_writes_the_same_records(untraced, tmp_path):
    tracer = Tracer()
    assert _sweep(tmp_path / "traced", tracer) == untraced
    assert check_records(untraced, TINY).failed == 0
    assert len(tracer.episodes) == len(TINY.cells()) * TINY.repetitions
    assert tracer.calls["scenario.generate"] == len(TINY.cells())
    assert tracer.calls["engine.mutate"] > 0
    assert tracer.calls["cli.resolve_sweep"] == 1
    assert all(tracer.calls[f"agents.{kind}.decide"] > 0 for kind in ("careful", "standard", "aggressive"))


def test_speed_probe_leaves_the_records_alone(untraced, tmp_path):
    probe = SpeedProbe()
    assert _sweep(tmp_path / "probed", probe) == untraced
    assert len(probe.probes) >= 2
    assert probe.reference_seconds(probe.probes[0][1], probe.probes[-1][0]) > 0


def test_reference_seconds_rescales_each_stretch_by_its_probes():
    probe = SpeedProbe()
    # Probes of 1, 2 and 1 reference units around two stretches of 1 s.
    unit = REFERENCE_S
    probe.probes = [(0.0, unit), (1 + unit, 1 + 3 * unit), (2 + 3 * unit, 2 + 4 * unit)]
    assert probe.reference_seconds(0.0, 3.0) == pytest.approx(2 / 1.5)
    assert probe.reference_seconds(0.5, 1.5) == pytest.approx((1 - 2 * unit) / 1.5)


def _references():
    """Every function a deceptsim module namespace or agent class holds."""
    found = {}
    for owner in (deceptsim, agents, cli, engine, experiment, *AGENT_CLASSES):
        for name, value in vars(owner).items():
            if callable(value):
                found[(owner.__name__, name)] = value
    return found


def test_tracer_wraps_every_alias_and_restores_them():
    before = _references()
    aliases = [key for key, value in before.items() if value is engine.step]
    assert len(aliases) > 1  # the defining module plus at least one importer
    with Tracer() as tracer:
        during = _references()
        assert during[("deceptsim.engine", "step")] is not engine.step.__wrapped__
        assert all(during[key] is engine.step for key in aliases)
        assert tracer.missing == []
    assert _references() == before


def test_check_records_counts_bad_episodes(untraced):
    lines = untraced.splitlines()
    header = lines[1].split(",")
    row = lines[2].split(",")
    row[header.index("outcome")] = "timeout"
    row[header.index("steps")] = str(STEP_LIMIT - 1)
    broken = "\n".join(lines[:2] + [",".join(row)] + lines[3:]) + "\n"
    assert check_records(broken, TINY).failed == 1
    assert check_records("\n".join(lines[:-1]) + "\n", TINY).failed == len(TINY.cells()) * TINY.repetitions


def test_generated_records_are_deterministic_in_the_seed():
    first = generate_records(3, repetitions=2)
    assert first == generate_records(3, repetitions=2)
    assert first != generate_records(4, repetitions=2)
    assert len(first) == 1080 * 2
    outcome, steps, honeypots = (RECORD_FIELDS.index(name) for name in ("outcome", "steps", "num_honeypots"))
    assert all(row[steps] == STEP_LIMIT for row in first if row[outcome] == "timeout")
    assert not any(row[honeypots] == 0 for row in first if row[outcome] == "loss_honeypot")


@pytest.mark.parametrize("corrupt", [False, True])
def test_aggregate_check_agrees_with_the_cli(corrupt):
    rows = generate_records(5, repetitions=3)
    records = [deceptsim.EpisodeRecord(**dict(zip(RECORD_FIELDS, row))) for row in rows]
    group_by = cli.normalize_group_by(CHECKED_GROUP_BY)
    text = cli.aggregates_csv_text({}, group_by, experiment.aggregate(records, group_by))
    if corrupt:
        lines = text.splitlines()
        cells = lines[2].split(",")
        cells[-2] = str(float(cells[-2]) + 1)  # steps_q3
        text = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
    assert check_aggregate(text, len(rows), expected_aggregate(rows)) is not corrupt
