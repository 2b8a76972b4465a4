"""Deterministic parallel experiment engine.

Declare a sweep as a :class:`SweepGrid` (the cross product ``algorithm ×
d × f × n × adversary × rep``), expand it to plain-data
:class:`TrialSpec` cells with position-independent hashed seeds, and run
it with :func:`run_grid` — in-process or fanned over a
``multiprocessing`` pool.  Serial and parallel execution produce
byte-identical decision vectors and verdicts (:func:`compare_grid`
checks this; ``python -m repro sweep`` exposes it).

>>> from repro.exec import SweepGrid, run_grid
>>> result = run_grid(SweepGrid(algorithms=("algo",), reps=2), workers=2)
>>> result.ok_count == result.trial_count
True
"""

from .bench import (
    BENCH_SCHEMA,
    STANDARD_GRIDS,
    bench_grid,
    compare_bench,
    environment_block,
    run_bench,
)
from .engine import compare_grid, run_grid, run_sweep, run_trial
from .grid import (
    ADVERSARIES,
    SweepGrid,
    TrialSpec,
    build_adversary,
    build_runspec,
    derive_trial_seed,
    min_trial_size,
)
from .live_launch import (
    TOPOLOGY_SCHEMA,
    build_topology,
    launch_local,
    load_topology,
    run_node,
    write_topology,
)
from .results import SweepResult, TrialResult, decisions_to_hex, hex_to_decisions

__all__ = [
    "ADVERSARIES",
    "BENCH_SCHEMA",
    "STANDARD_GRIDS",
    "TOPOLOGY_SCHEMA",
    "SweepGrid",
    "SweepResult",
    "TrialResult",
    "TrialSpec",
    "bench_grid",
    "build_adversary",
    "build_runspec",
    "build_topology",
    "compare_bench",
    "compare_grid",
    "decisions_to_hex",
    "derive_trial_seed",
    "environment_block",
    "hex_to_decisions",
    "launch_local",
    "load_topology",
    "min_trial_size",
    "run_bench",
    "run_grid",
    "run_node",
    "run_sweep",
    "run_trial",
    "write_topology",
]
