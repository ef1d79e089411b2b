"""Benchmark of deceptsim's command line on three named workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
``src/`` and nothing else.  Every measured command runs ``deceptsim.cli.main``
in a fresh child process (``child.py``).  With ``--trace 0`` the benchmark
repeats the workload's command for about ``--seconds`` seconds and reports
the end-to-end metrics over those rounds: times are medians of the rounds'
times at a reference machine speed (see ``speed.py``), set-up is the median
of start-ups spread over the run.  With ``--trace 1`` it runs the workload once untraced and once
traced and reports the per-layer metrics.  Every output is checked (see
``workloads.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, named and with units
as in ``BENCHMARK.json``.  See README.md in this directory for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
from child import import_cli
from workloads import (
    AGGREGATE_GROUP_BYS,
    CHECKED_GROUP_BY,
    OUTCOMES,
    RECORD_FIELDS,
    RECORDS_FILE,
    WORKLOADS,
    aggregate_argv,
    check_aggregate,
    check_records,
    expected_aggregate,
    generate_records,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set-up is short and noisy, so it is measured this many times before each
# round, and the run reports the median over all rounds.
SETUP_PER_ROUND = 2
# Every run ends well inside the three minutes a run may take.
DEADLINE_S = 170.0


class Runner:
    """Starts the measured child processes, each in a fresh directory under
    one work directory, and stops any that outlive the run's deadline."""

    def __init__(self, work: Path, setup_argv: list[str] | None = None):
        self.work = work
        self.setup_argv = setup_argv
        self.setup_times: list[float] = []
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("DECEPTSIM_WORKERS", "SOURCE_DATE_EPOCH")}
        self.env["PYTHONPATH"] = str(SRC)
        self.dirs = 0

    def fresh_dir(self) -> Path:
        self.dirs += 1
        path = self.work / str(self.dirs)
        path.mkdir()
        return path

    def child(self, mode: str, argv: list[str], cwd: Path) -> dict | None:
        """Run child.py; its JSON result, or None if it failed or ran out of time."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return None
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(SRC), mode, json.dumps(argv)],
            cwd=cwd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            out, err = "", f"{mode} {argv[0]} did not finish before the deadline\n"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode != 0:
            sys.stderr.write(err)
            return None
        return json.loads(out.splitlines()[-1])

    def setup_once(self) -> None:
        """Time a fresh interpreter that imports the CLI and parses and
        resolves the command ``setup_argv``, into ``setup_times``: the
        interpreter's start and exit in wall time, the work between them at
        the reference speed.  ``perf_counter`` is one clock for all
        processes of the machine."""
        cwd = self.fresh_dir()
        spawned = time.perf_counter()
        result = self.child("setup", self.setup_argv, cwd)
        exited = time.perf_counter()
        if result is None:
            raise SystemExit("set-up failed")
        self.setup_times.append(result["entered"] - spawned + result["reference_seconds"]
                                + exited - result["left"])
        shutil.rmtree(cwd)

    def rounds(self, seconds: float, one_round) -> list:
        """Call ``one_round`` while one more round, as long as the last, still
        fits in ``seconds``; the results of the rounds that ran.  A round that
        returns None ends the loop and is left out.  With a ``setup_argv``,
        SETUP_PER_ROUND set-ups are timed before each round, so that set-up
        is sampled over the whole run."""
        results = []
        started = time.monotonic()
        while True:
            round_started = time.monotonic()
            if self.setup_argv is not None:
                for _ in range(SETUP_PER_ROUND):
                    self.setup_once()
            result = one_round()
            if result is None:
                break
            results.append(result)
            now = time.monotonic()
            if now - started + (now - round_started) > seconds:
                break
        if not results:
            raise SystemExit("the workload's command did not run")
        return results

    def sweep(self, argv: list[str], mode: str) -> tuple[dict | None, bytes | None]:
        cwd = self.fresh_dir()
        result = self.child(mode, argv, cwd)
        path = cwd / RECORDS_FILE
        data = path.read_bytes() if result is not None and result["rc"] == 0 and path.exists() else None
        shutil.rmtree(cwd)
        return result, data


class SweepTally:
    """Counts attempted and failed episodes over every sweep of one run.

    A sweep's records must pass ``check_records`` and have the same sha256 as
    the pinned digest for this seed, or, for an unpinned seed, as the run's
    first sweep.  A digest mismatch fails every episode of the sweep."""

    def __init__(self, workload, pinned: str | None):
        self.workload = workload
        self.reference = pinned
        self.episodes = len(workload.cells()) * workload.repetitions
        self.attempted = self.failed = 0
        self.summary = None

    def add(self, data: bytes | None) -> None:
        self.attempted += self.episodes
        if data is None:
            self.failed += self.episodes
            return
        summary = check_records(data.decode(), self.workload)
        digest = hashlib.sha256(data).hexdigest()
        self.reference = self.reference or digest
        self.failed += summary.failed if digest == self.reference else self.episodes
        self.summary = self.summary or summary


def pinned_digest(workload: str, seed: int) -> str | None:
    pins = json.loads((BENCH / "digests.json").read_text())
    return pins.get(workload, {}).get(str(seed))


def end_to_end(times: list[float], rss_kb: list[int], records: int, steps: int) -> dict[str, float]:
    """End-to-end metrics from the rounds' times at the reference speed and
    peak memory, for ``records`` records holding ``steps`` steps per round."""
    wall = statistics.median(times)
    return {
        "wall_s": wall,
        "records_per_s": records / wall,
        "steps_per_s": steps / wall,
        "peak_rss_mb": statistics.median(rss_kb) / 1024,
    }


def rounds_note(times: list[float], reference: list[float], what: str) -> str:
    return (f"{len(times)} {what}, wall " + ", ".join(f"{t:.3f}" for t in times)
            + " s; at the reference speed " + ", ".join(f"{t:.3f}" for t in reference) + " s")


def missing_note(report: dict) -> str:
    if not report["missing"]:
        return ""
    return "; not traced, missing from the program: " + ", ".join(sorted(set(report["missing"])))


def measure_sweep(runner: Runner, workload, seed: int, seconds: float, trace: bool):
    tally = SweepTally(workload, pinned_digest(workload.name, seed))
    argv = workload.sweep_argv(seed)
    if not trace:
        def one_sweep():
            result, data = runner.sweep(argv, "run")
            tally.add(data)
            return result

        results = runner.rounds(seconds, one_sweep)
        reference = [result["reference_seconds"] for result in results]
        metrics = end_to_end(reference, [result["maxrss_kb"] for result in results], tally.episodes,
                             tally.summary.steps if tally.summary else 0)
        note = rounds_note([result["seconds"] for result in results], reference, "sweeps")
    else:
        untraced, data = runner.sweep(argv, "run")
        tally.add(data)
        traced, data = runner.sweep(argv, "trace")
        tally.add(data)
        if None in (untraced, traced):
            raise SystemExit("the sweep did not run")
        report = traced["trace"]
        metrics = layers.layer_metrics(report, traced["seconds"] / untraced["seconds"])
        note = (f"untraced sweep {untraced['seconds']:.3f} s, traced {traced['seconds']:.3f} s"
                + missing_note(report))
    size = tally.summary.size_line() if tally.summary else "no readable records"
    return tally.attempted, tally.failed, metrics, note, size


def measure_aggregate(runner: Runner, workload, seed: int, seconds: float, trace: bool):
    cli = import_cli(str(SRC))
    import deceptsim
    rows = generate_records(seed, workload.repetitions)
    cwd = runner.fresh_dir()
    manifest = {"command": "sweep", "config": {"master_seed": seed, "repetitions": workload.repetitions},
                "outputs": [RECORDS_FILE], "timestamp": None, "version": deceptsim.__version__}
    records = [deceptsim.EpisodeRecord(**dict(zip(RECORD_FIELDS, row))) for row in rows]
    (cwd / RECORDS_FILE).write_text(cli.records_csv_text(manifest, records), encoding="utf-8")
    del records
    expected = expected_aggregate(rows)
    outputs: dict[str, bytes] = {}
    counts = {"attempted": 0, "failed": 0}

    def one_round(mode: str):
        """The three aggregate commands; their summed seconds, summed seconds
        at the reference speed, peak memory and traces."""
        total, reference, rss, traces = 0.0, 0.0, 0, []
        for index, group_by in enumerate(AGGREGATE_GROUP_BYS):
            argv = aggregate_argv(index)
            out = cwd / argv[-1]
            out.unlink(missing_ok=True)
            result = runner.child(mode, argv, cwd)
            counts["attempted"] += 1
            data = out.read_bytes() if result is not None and result["rc"] == 0 and out.exists() else None
            ok = data is not None and check_aggregate(
                data.decode(), len(rows), expected if group_by == CHECKED_GROUP_BY else None)
            if ok and outputs.setdefault(group_by, data) != data:
                ok = False
            counts["failed"] += not ok
            if result is None:
                raise SystemExit("the aggregate command did not run")
            total += result["seconds"]
            reference += result["reference_seconds"] or 0.0
            rss = max(rss, result["maxrss_kb"])
            traces.append(result["trace"])
        return total, reference, rss, traces

    steps = sum(row[RECORD_FIELDS.index("steps")] for row in rows)
    commands = len(AGGREGATE_GROUP_BYS)
    if trace:
        untraced = one_round("run")[0]
        traced, _, _, traces = one_round("trace")
        report = layers.merge_reports(traces)
        metrics = layers.layer_metrics(report, traced / untraced)
        note = f"untraced {untraced:.3f} s, traced {traced:.3f} s" + missing_note(report)
    else:
        results = runner.rounds(seconds, lambda: one_round("run"))
        reference = [rescaled for _, rescaled, _, _ in results]
        metrics = end_to_end(reference, [rss for _, _, rss, _ in results], len(rows) * commands, steps * commands)
        note = rounds_note([elapsed for elapsed, _, _, _ in results], reference, f"rounds of {commands} commands")
    outcome = RECORD_FIELDS.index("outcome")
    size = (f"records={len(rows)} record_steps={steps} "
            + " ".join(f"{name}={sum(row[outcome] == name for row in rows)}" for name in OUTCOMES)
            + f" commands_per_round={commands}")
    return counts["attempted"], counts["failed"], metrics, note, size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Children run in their own sessions; a terminated benchmark still
    # unwinds through Runner.child, which kills them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "deceptsim" / "cli.py").is_file():
        print(f"error: no deceptsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    work = Path(tempfile.mkdtemp(prefix=".bench_work_", dir=ROOT))
    try:
        setup_argv = workload.sweep_argv(args.seed) if workload.kind == "sweep" else aggregate_argv(0)
        runner = Runner(work, None if args.trace else setup_argv)
        measure = measure_sweep if workload.kind == "sweep" else measure_aggregate
        attempted, failed, metrics, note, size = measure(
            runner, workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = statistics.median(runner.setup_times)

    names = [entry["name"] for entry in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {size}")
    if args.trace:
        print("layer counts: " + " ".join(
            f"{name}={metrics[name]}" for name in
            ("engine.mutations", "engine.check_termination_calls", "agents.resets")))
    print(note)
    print(f"failed_share = {failed}/{attempted} = {failed / attempted:.6g}")
    for entry in declared:
        print(f"{entry['name']} = {metrics[entry['name']]:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
                    for entry in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
