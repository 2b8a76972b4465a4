"""Seeded mutations of the *shipped* tree: each family must catch them.

The sources are read once, mutated in memory (``lint_flow`` takes
``(path, source)`` pairs), and re-analysed — no disk copies.  Each test
asserts both directions: the mutation is caught, and the unmutated tree
is clean for that family (so the finding is attributable to the seed).
"""

from pathlib import Path

import pytest

from repro.lint import lint_flow
from repro.lint.engine import iter_python_files

REPO = Path(__file__).resolve().parents[3]
SRC = REPO / "src" / "repro"


@pytest.fixture(scope="module")
def shipped_sources():
    return {
        path: Path(path).read_text()
        for path in iter_python_files([str(SRC)])
    }


def _mutate(sources, filename, old, new):
    files = []
    hit = False
    for path, source in sources.items():
        if path.endswith(filename):
            assert old in source, f"mutation anchor gone from {filename}: {old!r}"
            source = source.replace(old, new)
            hit = True
        files.append((path, source))
    assert hit, f"{filename} not found in shipped sources"
    return files


def test_shipped_tree_flow_clean(shipped_sources):
    findings = lint_flow(list(shipped_sources.items()))
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_deleting_a_handler_branch_trips_flow(shipped_sources):
    files = _mutate(
        shipped_sources,
        "core/averaging.py",
        'parts[0] != "rva"',
        'parts[0] != "zzz"',
    )
    rules = {f.rule for f in lint_flow(files, select=["FLOW"])}
    # The sent kind 'rva' loses its handler AND the renamed arm is dead.
    assert rules == {"FLOW001", "FLOW002"}


def test_bypassing_bounds_trips_quo(shipped_sources):
    files = _mutate(
        shipped_sources,
        "system/broadcast/bracha.py",
        "self.ready_threshold = bracha_ready_quorum(f)",
        "self.ready_threshold = 2 * f + 1",
    )
    rules = {f.rule for f in lint_flow(files, select=["QUO"])}
    assert rules == {"QUO001", "QUO002"}


def test_wall_clock_payload_trips_tnt(shipped_sources):
    files = _mutate(
        shipped_sources,
        "core/broadcast_all.py",
        'ctx.atomic_broadcast("abc", value, round=0)',
        "import time\n"
        "            stamped = (value, time.time())\n"
        '            ctx.atomic_broadcast("abc", stamped, round=0)',
    )
    findings = lint_flow(files, select=["TNT"])
    assert {f.rule for f in findings} == {"TNT002"}
    assert any("time" in f.message for f in findings)


def test_rng_in_payload_trips_xpt(shipped_sources):
    files = _mutate(
        shipped_sources,
        "core/averaging.py",
        "ctx.send(dst, tag, payload)",
        "ctx.send(dst, tag, (payload, self.rng))",
    )
    rules = {f.rule for f in lint_flow(files, select=["XPT"])}
    assert "XPT002" in rules


def test_non_seam_import_trips_xpt(shipped_sources):
    files = _mutate(
        shipped_sources,
        "core/runner.py",
        "from ..system.scheduler import RunResult",
        "from ..system.scheduler import _drain_queues  # type: ignore\n"
        "from ..system.scheduler import RunResult",
    )
    findings = lint_flow(files, select=["XPT003"])
    assert [f.rule for f in findings] == ["XPT003"]
    assert "_drain_queues" in findings[0].message
