"""Per-layer tracing for the deceptsim benchmark.

``Tracer`` wraps the public functions of the five modules (``scenario``,
``agents``, ``engine``, ``experiment``, ``cli``) in place, from outside the
program: every reference to a wrapped function in a ``deceptsim`` module
namespace, aliases included, is swapped for a timing wrapper, and each agent
class's ``next_action``/``observe`` method is wrapped per agent kind.  Spans
are folded into per-name totals as they close (inclusive time, time in traced
children, call count) rather than kept one by one, because a sweep makes
millions of calls; only episode and cell spans are kept individually.

``layer_metrics`` turns a trace into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import collections
import statistics
import sys
import time

# (module, function, span name) for every wrapped module-level function.
FUNCTIONS = (
    ("scenario", "generate_scenario", "scenario.generate"),
    ("agents", "make_agent", "agents.make_agent"),
    ("engine", "step", "engine.step"),
    ("engine", "check_termination", "engine.check_termination"),
    ("engine", "mutate_addresses", "engine.mutate"),
    ("experiment", "run_episode", "experiment.run_episode"),
    ("experiment", "run_sweep", "experiment.run_sweep"),
    ("experiment", "aggregate", "experiment.aggregate"),
    ("cli", "resolve_sweep", "cli.resolve_sweep"),
    ("cli", "records_csv_text", "cli.records_csv_text"),
    ("cli", "write_text", "cli.write"),
    ("cli", "read_records_csv", "cli.read_records_csv"),
    ("cli", "aggregates_csv_text", "cli.aggregates_csv_text"),
)
AGENT_KINDS = ("careful", "standard", "aggressive")


class Tracer:
    """Installs timing wrappers into an imported ``deceptsim``; use as a
    context manager so the originals are restored."""

    def __init__(self):
        self.seconds = collections.defaultdict(float)
        self.inner = collections.defaultdict(float)
        self.calls = collections.Counter()
        self.episodes: list[tuple[str, int, float]] = []
        self.cells: list[float] = []
        self.terminal = 0
        self.resets = 0
        self._stack: list[float] = []
        self._agent = None
        self.missing: list[str] = []  # functions the program no longer has
        self._restore: list[tuple[object, str, object, bool]] = []

    def _wrap(self, name, fn, after=None):
        seconds, inner, calls, stack = self.seconds, self.inner, self.calls, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner[name] += stack.pop()
                seconds[name] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        had_own = attr in vars(owner)
        self._restore.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, new)

    # Hooks that read results; they run after the span closes.
    def _on_cell(self, scenario, elapsed):
        self.cells.append(elapsed)

    def _on_agent(self, agent, elapsed):
        self._agent = agent

    def _on_check(self, outcome, elapsed):
        if outcome is not None:
            self.terminal += 1

    def _on_episode(self, record, elapsed):
        self.episodes.append((record.agent, record.steps, elapsed))
        self.resets += self._agent.resets
        if self.cells:
            self.cells[-1] += elapsed

    def install(self) -> "Tracer":
        import deceptsim
        from deceptsim import agents, cli  # noqa: F401  (loads every layer)

        modules = [m for n, m in sys.modules.items() if n == "deceptsim" or n.startswith("deceptsim.")]
        hooks = {
            "scenario.generate": self._on_cell,
            "agents.make_agent": self._on_agent,
            "engine.check_termination": self._on_check,
            "experiment.run_episode": self._on_episode,
        }
        for module_name, attr, name in FUNCTIONS:
            original = getattr(getattr(deceptsim, module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        classes = {
            cls.kind: cls
            for cls in vars(agents).values()
            if isinstance(cls, type) and issubclass(cls, agents.ScriptedAgent)
        }
        for kind in AGENT_KINDS:
            if kind not in classes:
                self.missing.append(f"agents.{kind} agent class")
                continue
            for method, span in (("next_action", "decide"), ("observe", "observe")):
                original = getattr(classes[kind], method)
                self._patch(classes[kind], method, self._wrap(f"agents.{kind}.{span}", original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._restore):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def report(self) -> dict:
        """The trace as plain JSON-able data."""
        return {
            "seconds": dict(self.seconds),
            "inner": dict(self.inner),
            "calls": dict(self.calls),
            "episodes": self.episodes,
            "cells": self.cells,
            "terminal": self.terminal,
            "resets": self.resets,
            "missing": self.missing,
        }


def merge_reports(reports: list[dict]) -> dict:
    """Sum the traces of several processes into one."""
    merged = {"seconds": collections.Counter(), "inner": collections.Counter(),
              "calls": collections.Counter(), "episodes": [], "cells": [],
              "terminal": 0, "resets": 0, "missing": []}
    for report in reports:
        for key in ("seconds", "inner", "calls"):
            merged[key].update(report[key])
        for key in ("episodes", "cells", "missing"):
            merged[key] += report[key]
        merged["terminal"] += report["terminal"]
        merged["resets"] += report["resets"]
    return merged


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(report: dict, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics from one (merged) trace.  Layers the workload does
    not reach, or that the program no longer has, read 0."""
    seconds = collections.defaultdict(float, report["seconds"])
    inner = collections.defaultdict(float, report["inner"])
    calls = collections.Counter(report["calls"])
    decide = sum(seconds[f"agents.{kind}.decide"] for kind in AGENT_KINDS)
    observe = sum(seconds[f"agents.{kind}.observe"] for kind in AGENT_KINDS)
    metrics = {
        "scenario.generate_s": seconds["scenario.generate"],
        "scenario.generate_calls": calls["scenario.generate"],
        "agents.decide_s": decide,
    }
    for kind in AGENT_KINDS:
        span = f"agents.{kind}.decide"
        metrics[f"agents.{kind}.decide_us"] = 1e6 * _ratio(seconds[span], calls[span])
    metrics.update({
        "agents.observe_s": observe,
        "agents.resets": report["resets"],
        "engine.step_s": seconds["engine.step"],
        "engine.step_self_s": seconds["engine.step"] - inner["engine.step"],
        "engine.step_calls": calls["engine.step"],
        "engine.check_termination_s": seconds["engine.check_termination"],
        "engine.check_termination_calls": calls["engine.check_termination"],
        "engine.terminal_hit_ratio": _ratio(report["terminal"], calls["engine.check_termination"]),
        "engine.mutate_s": seconds["engine.mutate"],
        "engine.mutations": calls["engine.mutate"],
        "engine.mutate_us": 1e6 * _ratio(seconds["engine.mutate"], calls["engine.mutate"]),
        "experiment.run_episode_s": seconds["experiment.run_episode"],
        "experiment.episode_overhead_s":
            seconds["experiment.run_episode"] - decide - observe - seconds["engine.step"],
    })
    durations = sorted(1e3 * elapsed for _, _, elapsed in report["episodes"])
    n = len(durations)
    # The highest percentile with ten samples beyond it: rank n - 10.
    tail_rank = max(n - 10, 1)
    metrics.update({
        "experiment.episode_ms_p50": statistics.median(durations) if n else 0.0,
        "experiment.episode_ms_tail": durations[tail_rank - 1] if n else 0.0,
        "experiment.episode_tail_pct": 100.0 * tail_rank / n if n else 0.0,
        "experiment.episode_samples": n,
    })
    for kind in AGENT_KINDS:
        mine = [(steps, elapsed) for agent, steps, elapsed in report["episodes"] if agent == kind]
        metrics[f"experiment.{kind}.steps_per_s"] = _ratio(
            sum(steps for steps, _ in mine), sum(elapsed for _, elapsed in mine))
    cells = report["cells"]
    metrics.update({
        "experiment.cell_cost_max_over_mean": _ratio(max(cells), statistics.fmean(cells)) if cells else 0.0,
        "experiment.aggregate_s": seconds["experiment.aggregate"],
        "cli.read_records_csv_s": seconds["cli.read_records_csv"],
        "cli.aggregates_csv_text_s": seconds["cli.aggregates_csv_text"],
        "cli.records_csv_text_s": seconds["cli.records_csv_text"],
        "cli.write_s": seconds["cli.write"],
        "cli.resolve_sweep_s": seconds["cli.resolve_sweep"],
        "trace.overhead_ratio": overhead_ratio,
    })
    return metrics
