"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload async-rva --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced pass (see ``tracing.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The lines before it
are a readable report.

End-to-end measurement (``--trace 0``):

* ``setup_s``: median of three fresh interpreters, each importing
  ``repro``, generating one run's inputs and running it once on a seed of
  its own (``--setup-probe`` is that child).
* a fixed check set of runs, which also warms up this process; on the
  simulator workloads its decisions digest must equal the one recorded
  in ``expected.json``, or the benchmark exits 1 (the live workload's
  arrival order is real, so only its oracle verdicts are checked);
* the timed loop: closed loop, one client, a new seed per run.  Its
  length is a number of runs, ``Workload.timed_runs``: about
  ``--seconds`` of runs on a 2-core 2.1 GHz VM and at least ``MIN_RUNS``,
  so that at least ten samples lie beyond the 90th percentile.  A count,
  not a deadline, so that a seed gives the same runs on every host.

Every time reported (``setup_s``, ``run_ms.*``, and the time under
``decisions_per_s``) is a wall time scaled to a nominal host speed: the
wall time of each run or probe is multiplied by ``hostspeed.NOMINAL_S``
over the time of a fixed reference loop measured just before and just
after it (see ``hostspeed.py`` for why).  The times as measured are
printed in the report lines above the result.

The numerical libraries' thread pools are held to one thread, so that a
run is one thread on the machine's few cores.

A run fails when it raises or the oracle's verdict is not ok.  Failures
count against ``ok_ratio`` and in ``failed`` whatever their cause;
``correct`` is false when a failure is not explained by a defect
recorded in ``expected.json``, or a digest does not match.

Traced measurement (``--trace 1``): ``Workload.trace_runs`` runs once
untraced and then once traced, on the same seeds, each pass from a
cleared geometry cache; the ratio of the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

#: Set before numpy is imported; the setup probes inherit them.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: UDS socket paths must stay short, so the live backend's temp dirs are
#: made relative to the checkout root (the working directory).
TMP_DIR = ".perfbench-tmp"
MIN_RUNS = 100
#: Hard stop for the timed loop, so one invocation ends within 180 s on
#: a host far slower than the one the run counts were sized on.
MAX_MEASURE_S = 140.0
SETUP_REPS = 3


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--rep", type=int, default=0, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def _setup_probe(args: argparse.Namespace) -> int:
    """Child process: import, build one run's inputs, run it once."""
    workload = wl.WORKLOADS[args.workload]
    record = wl.execute(workload, 0, wl.derive_seed(
        workload.name, "setup", args.seed, args.rep))
    return 0 if record.error is None else 1


def _measure_setup(args: argparse.Namespace) -> float:
    """Median probe wall time, each scaled by the host speed around it."""
    raw = []
    refs = [hostspeed.sample()]
    for rep in range(SETUP_REPS):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--rep", str(rep)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        raw.append(time.perf_counter() - start)
        refs.append(hostspeed.sample())
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    times = [t * k for t, k in zip(raw, hostspeed.scales(refs))]
    print(f"setup: probes {', '.join(f'{t:.3f}' for t in raw)} s "
          f"as measured")
    return statistics.median(times)


def _classify(workload: wl.Workload, records: list[wl.RunRecord],
              defects: list[dict[str, Any]]) -> tuple[int, list[str]]:
    """Failed runs, and a line for each one no recorded defect explains."""
    failed, unknown = 0, []
    for index, record in enumerate(records):
        if record.ok:
            continue
        failed += 1
        if wl.known_defect(workload, index, record, defects) is None:
            unknown.append(f"run {index} seed {record.seed} {record.label}: "
                           f"verdict {record.verdict} {record.error or ''}")
    return failed, unknown


def _end_to_end(args: argparse.Namespace, workload: wl.Workload,
                defects: list[dict[str, Any]]) -> tuple[dict, int, int, list]:
    wl.clear_cache()
    count = workload.timed_runs(args.seconds, MIN_RUNS)
    records = []
    refs = [hostspeed.reference()]
    start = time.perf_counter()
    for index in range(count):
        seed = wl.derive_seed(workload.name, "timed", args.seed, index)
        records.append(wl.execute(workload, index, seed))
        refs.append(hostspeed.reference())
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S:
            print(f"timed: stopped after {len(records)} of {count} runs")
            break
    scales = hostspeed.scales(refs)
    walls_ms = [r.wall * 1e3 * k for r, k in zip(records, scales)]
    raw_ms = [r.wall * 1e3 for r in records]
    decisions = sum(len(r.decisions) for r in records)
    failed, unknown = _classify(workload, records, defects)
    metrics = {
        "decisions_per_s": _metric(1e3 * decisions / sum(walls_ms), "1/s"),
        "run_ms.p50": _metric(statistics.median(walls_ms), "ms"),
        "run_ms.p90": _metric(_percentile(walls_ms, 90), "ms"),
        "ok_ratio": _metric((len(records) - failed) / len(records), "ratio"),
    }
    beyond = sum(1 for w in walls_ms if w > metrics["run_ms.p90"]["value"])
    print(f"timed: {len(records)} runs in {elapsed:.2f} s, "
          f"{beyond} beyond p90, {failed} failed")
    print(f"as measured, before scaling to the nominal host speed: "
          f"run_ms.p50 {statistics.median(raw_ms):.2f}, run_ms.p90 "
          f"{_percentile(raw_ms, 90):.2f}, decisions_per_s "
          f"{1e3 * decisions / sum(raw_ms):.2f}; host speed median "
          f"{statistics.median(scales):.3f}, quartiles "
          f"{', '.join(f'{q:.3f}' for q in statistics.quantiles(scales, n=4))}")
    return metrics, len(records), failed, unknown


def _per_layer(args: argparse.Namespace, workload: wl.Workload,
               defects: list[dict[str, Any]]) -> tuple[dict, int, int, list]:
    count = workload.trace_runs(args.seconds)
    seeds = [wl.derive_seed(workload.name, "timed", args.seed, i)
             for i in range(count)]
    metrics, plain, traced, tracer = wl.traced_pass(workload, seeds)
    unknown = []
    if workload.sim and wl.digest(plain) != wl.digest(traced):
        unknown.append("traced decisions differ from untraced decisions")
    failed = 0
    for records in (plain, traced):
        f, u = _classify(workload, records, defects)
        failed += f
        unknown += u

    plain_wall = sum(r.wall for r in plain)
    wall = sum(r.wall for r in traced)
    print(f"untraced: {count} runs, run_ms.p50 "
          f"{statistics.median(1e3 * r.wall for r in plain):.2f} ms, "
          f"{sum(len(r.decisions) for r in plain) / plain_wall:.2f} "
          f"decisions/s")
    print(f"traced: {count} runs, {1e3 * wall / count:.2f} ms/run; "
          f"self time per run and share of traced run wall:")
    for layer, seconds in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:28s} {1e3 * seconds / count:10.3f} ms "
              f"{seconds / wall:7.2%}")
    return metrics, 2 * count, failed, unknown


def main(argv: list[str]) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    # The setup probes run while this process holds the directory, so
    # only the process that made it removes it.
    made_tmp = not os.path.isdir(TMP_DIR)
    os.makedirs(TMP_DIR, exist_ok=True)
    tempfile.tempdir = TMP_DIR
    try:
        if args.setup_probe:
            return _setup_probe(args)
        return _bench(args)
    finally:
        if made_tmp:
            os.rmdir(TMP_DIR)


def _bench(args: argparse.Namespace) -> int:
    workload = wl.WORKLOADS[args.workload]
    expected = wl.load_expected()
    defects = expected["known_defects"]
    setup_s = None if args.trace else _measure_setup(args)

    check = [wl.execute(workload, i, wl.derive_seed(workload.name, "check",
                                                    0, i))
             for i in range(workload.check_runs)]
    _, unknown = _classify(workload, check, defects)
    digest_ok = True
    if workload.sim:
        got, want = wl.digest(check), expected["digests"][workload.name]
        digest_ok = got == want
        print(f"check: {len(check)} runs, digest {got} "
              f"{'matches' if digest_ok else 'DIFFERS from ' + want}")

    measure = _per_layer if args.trace else _end_to_end
    metrics, attempted, failed, more = measure(args, workload, defects)
    unknown += more
    if setup_s is not None:
        metrics["setup_s"] = _metric(setup_s, "s")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = _metric(rss_kib / 1024, "MB")
    for line in unknown:
        print(f"unexplained failure: {line}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    correct = digest_ok and not unknown
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if digest_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
