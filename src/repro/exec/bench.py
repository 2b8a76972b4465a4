"""Throughput benchmark harness: the BENCH_perf trajectory.

ROADMAP item 2 wants decisions/sec vs ``n``, ``d``, ``f`` to be "a
tracked number, not a slogan".  This module is the tracker: it drives
the sweep engine over a named standard grid with a record-free
:class:`~repro.obs.tracer.Tracer` installed, and emits a versioned
``BENCH_perf.json`` that every later perf PR (vectorised kernels,
multi-core) is judged against:

* **throughput rows** — one per ``(algorithm, n, d, f)`` cell,
  aggregated over adversaries and reps, each with decisions/sec and
  mean rounds/messages;
* **per-phase breakdown** — the full flame snapshot plus a per-name
  rollup (where did the wall clock actually go);
* **environment block** — cpu_count / python / numpy / platform, so a
  1-core artifact can never masquerade as a parallel measurement: when
  ``cpu_count == 1`` any parallel pass reports ``speedup: null`` with an
  explicit "unmeasurable" note instead of a number (the same honesty
  rule :func:`repro.exec.engine.compare_grid` applies).

:func:`compare_bench` diffs two BENCH documents under a regression
threshold — ``python -m repro bench --compare OLD NEW`` exits non-zero
when throughput fell by more than the allowed fraction, which is the CI
regression gate.  Wall-clock numbers are only comparable on similar
machines, so the threshold is deliberately generous by default and the
comparison refuses cells the two documents don't share.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Any, Mapping, Optional

from ..geometry.cache import clear_cache
from ..obs.tracer import Tracer, rollup_phases, use_tracer
from .grid import SweepGrid
from .results import SweepResult
from .engine import run_grid

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_COMPARE_SCHEMA",
    "STANDARD_GRIDS",
    "bench_grid",
    "compare_bench",
    "environment_block",
    "run_bench",
]

BENCH_SCHEMA = "repro.exec.bench/1"
BENCH_COMPARE_SCHEMA = "repro.exec.bench.compare/1"

#: Default fraction of baseline throughput a cell may lose before the
#: comparison fails.  Generous on purpose: decisions/sec moves with the
#: machine, so only a large drop on the *same* machine is a signal.
DEFAULT_MAX_REGRESSION = 0.5

_GRID_SPECS: dict[str, dict[str, Any]] = {
    # CI smoke: seconds, two algorithm families (sync geometry + async
    # averaging), enough reps for a stable rate.
    "tiny": dict(
        algorithms=("algo", "averaging"),
        dimensions=(2,),
        faults=(1,),
        sizes=(6,),
        adversaries=("none",),
        reps=2,
        base_seed=2016,
    ),
    # The committed-baseline grid: every synchronous family plus
    # averaging, two dimensions, silent faults — a superset of ``tiny``'s
    # cells so the CI smoke run always has rows to compare against.
    "small": dict(
        algorithms=("algo", "exact", "averaging"),
        dimensions=(2, 3),
        faults=(1,),
        sizes=(6, 8),
        adversaries=("none", "silent"),
        reps=2,
        base_seed=2016,
    ),
    # The full trajectory grid for perf PRs (mirrors BENCH_sweep.json's
    # axes with the k-relaxed family added).
    "standard": dict(
        algorithms=("algo", "exact", "krelaxed", "averaging"),
        dimensions=(3, 4),
        faults=(1,),
        sizes=(8, 10, 12),
        adversaries=("none", "silent", "mutate"),
        reps=2,
        base_seed=2016,
    ),
}

STANDARD_GRIDS = tuple(sorted(_GRID_SPECS))


def bench_grid(name: str) -> SweepGrid:
    """The named standard grid (``tiny`` / ``small`` / ``standard``)."""
    try:
        spec = _GRID_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown bench grid {name!r}; choose from {', '.join(STANDARD_GRIDS)}"
        ) from None
    return SweepGrid(**spec)


def environment_block() -> dict[str, Any]:
    """Where this BENCH document was measured — the honesty header."""
    import numpy

    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _cell_key(algorithm: str, n: int, d: int, f: int) -> str:
    return f"{algorithm}/n={n}/d={d}/f={f}"


def _throughput_cells(result: SweepResult) -> list[dict[str, Any]]:
    """One row per ``(algorithm, n, d, f)``, aggregated over adversaries
    and reps.  ``decisions`` counts individual per-process decisions (the
    unit of consensus work); the rate divides by the cells' summed trial
    wall time, not the sweep wall (which includes engine overhead)."""
    groups: dict[tuple[str, int, int, int], list[Any]] = {}
    for t in result.trials:
        groups.setdefault((t.algorithm, t.n, t.d, t.f), []).append(t)
    cells = []
    for (algorithm, n, d, f), trials in sorted(groups.items()):
        decisions = sum(len(t.decisions) for t in trials)
        wall = sum(t.wall_seconds for t in trials)
        cells.append({
            "key": _cell_key(algorithm, n, d, f),
            "algorithm": algorithm,
            "n": n,
            "d": d,
            "f": f,
            "trials": len(trials),
            "ok": sum(1 for t in trials if t.ok),
            "decisions": decisions,
            "wall_seconds": round(wall, 6),
            "decisions_per_second": round(decisions / wall, 3) if wall else None,
            "rounds_mean": round(
                sum(t.rounds for t in trials) / len(trials), 2
            ),
            "messages_mean": round(
                sum(t.messages for t in trials) / len(trials), 1
            ),
        })
    return cells


def run_bench(
    grid: SweepGrid,
    *,
    grid_name: Optional[str] = None,
    workers: int = 1,
) -> dict[str, Any]:
    """Run the benchmark and build the BENCH document.

    The timed pass is always serial and cold (cache cleared first) with a
    record-free :class:`~repro.obs.tracer.Tracer` installed, so the per-phase
    breakdown and the throughput numbers describe the same execution.
    ``workers > 1`` adds a second, parallel pass; its speedup is reported
    only when the environment can actually measure one (``cpu_count > 1``)
    and is flagged unmeasurable otherwise.
    """
    env = environment_block()
    tracer = Tracer(records=False)
    clear_cache()
    with use_tracer(tracer):
        result = run_grid(grid, workers=1)
    snapshot = tracer.snapshot()
    decisions_total = sum(len(t.decisions) for t in result.trials)
    doc: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "grid_name": grid_name,
        "grid": grid.to_dict(),
        "environment": env,
        "trial_count": result.trial_count,
        "skipped_trials": result.skipped_trials,
        "ok_count": result.ok_count,
        "decisions_digest": result.decisions_digest(),
        "wall_seconds": round(result.wall_seconds, 6),
        "throughput": {
            "decisions_total": decisions_total,
            "decisions_per_second": round(
                decisions_total / result.wall_seconds, 3
            ) if result.wall_seconds else None,
            "trials_per_second": round(
                result.trial_count / result.wall_seconds, 3
            ) if result.wall_seconds else None,
        },
        "cells": _throughput_cells(result),
        "phases": snapshot["phases"],
        "phases_by_name": {
            name: {
                "count": row["count"],
                "wall_seconds": round(row["wall_seconds"], 6),
                "cpu_seconds": round(row["cpu_seconds"], 6),
                "self_seconds": round(row["self_seconds"], 6),
                "paths": row["paths"],
            }
            for name, row in rollup_phases(snapshot).items()
        },
        "cache": _cache_block(result),
    }
    if workers > 1:
        clear_cache()
        t0 = time.perf_counter()
        parallel = run_grid(grid, workers=workers)
        parallel_wall = time.perf_counter() - t0
        block: dict[str, Any] = {
            "workers": workers,
            "wall_seconds": round(parallel_wall, 6),
            "identical": (
                parallel.decisions_digest() == doc["decisions_digest"]
            ),
        }
        if env["cpu_count"] == 1:
            block["speedup"] = None
            block["note"] = (
                "unmeasurable: cpu_count == 1 — parallel workers time-share "
                "a single core, so the wall-clock ratio is not a speedup"
            )
        else:
            block["speedup"] = round(
                result.wall_seconds / parallel_wall, 4
            ) if parallel_wall else None
        doc["parallel"] = block
    return doc


def _cache_block(result: SweepResult) -> dict[str, dict[str, int]]:
    """Per-kernel geometry-cache lookups, summed over the trials'
    ``geometry.cache.<kernel>.hits`` / ``.misses`` counters."""
    block: dict[str, dict[str, int]] = {}
    for trial in result.trials:
        for name, value in trial.metrics.items():
            parts = name.split(".")
            if (len(parts) == 4 and parts[:2] == ["geometry", "cache"]
                    and parts[3] in ("hits", "misses")):
                entry = block.setdefault(parts[2], {"hits": 0, "misses": 0})
                entry[parts[3]] += int(value)
    return dict(sorted(block.items()))


def _rate_drop(old: Optional[float], new: Optional[float]) -> Optional[float]:
    """Fractional throughput loss from ``old`` to ``new`` (>0 = slower)."""
    if not old or new is None:
        return None
    return (old - new) / old


def compare_bench(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    *,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> dict[str, Any]:
    """Diff two BENCH documents under a throughput-regression threshold.

    A cell present in both documents regresses when its decisions/sec
    drops by more than ``max_regression`` (a fraction: 0.5 means "new may
    not be less than half of old").  The overall rate is judged only when
    the two documents ran the same grid — otherwise the mix of cells
    makes the aggregate meaningless and only shared cells are compared.
    The verdict also flags an environment change (different cpu_count or
    machine), since cross-machine wall-clock deltas are not regressions.
    """
    if not 0.0 <= max_regression < 1.0:
        raise ValueError(
            f"max_regression must be in [0, 1), got {max_regression}"
        )
    for label, doc in (("old", old), ("new", new)):
        if doc.get("schema") != BENCH_SCHEMA:
            raise ValueError(
                f"{label} document schema {doc.get('schema')!r} is not "
                f"{BENCH_SCHEMA!r}"
            )
    old_env = old.get("environment", {})
    new_env = new.get("environment", {})
    env_changed = (
        old_env.get("cpu_count") != new_env.get("cpu_count")
        or old_env.get("machine") != new_env.get("machine")
    )
    old_cells = {c["key"]: c for c in old.get("cells", [])}
    new_cells = {c["key"]: c for c in new.get("cells", [])}
    shared = sorted(set(old_cells) & set(new_cells))
    regressions: list[dict[str, Any]] = []
    improvements: list[dict[str, Any]] = []
    for key in shared:
        drop = _rate_drop(
            old_cells[key].get("decisions_per_second"),
            new_cells[key].get("decisions_per_second"),
        )
        if drop is None:
            continue
        row = {
            "key": key,
            "old_decisions_per_second": old_cells[key]["decisions_per_second"],
            "new_decisions_per_second": new_cells[key]["decisions_per_second"],
            "drop": round(drop, 4),
        }
        if drop > max_regression:
            regressions.append(row)
        elif drop < -max_regression:
            improvements.append(row)
    same_grid = old.get("grid") == new.get("grid")
    overall_drop = None
    if same_grid:
        overall_drop = _rate_drop(
            old.get("throughput", {}).get("decisions_per_second"),
            new.get("throughput", {}).get("decisions_per_second"),
        )
        if overall_drop is not None and overall_drop > max_regression:
            regressions.append({
                "key": "overall",
                "old_decisions_per_second":
                    old["throughput"]["decisions_per_second"],
                "new_decisions_per_second":
                    new["throughput"]["decisions_per_second"],
                "drop": round(overall_drop, 4),
            })
    return {
        "schema": BENCH_COMPARE_SCHEMA,
        "max_regression": max_regression,
        "same_grid": same_grid,
        "environment_changed": env_changed,
        "cells_compared": len(shared),
        "cells_only_old": sorted(set(old_cells) - set(new_cells)),
        "cells_only_new": sorted(set(new_cells) - set(old_cells)),
        "overall_drop": (
            round(overall_drop, 4) if overall_drop is not None else None
        ),
        "regressions": regressions,
        "improvements": improvements,
        "ok": not regressions,
    }
