"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``      run a quick end-to-end ALGO demonstration
``bounds``    print the paper's process-count bounds for given (d, f)
``delta``     compute δ*(S) for random or provided inputs
``verdicts``  execute the impossibility constructions for a given d
``fuzz``      deterministic-simulation soak test of one algorithm
``sweep``     run an experiment grid (algorithm × d × f × n × adversary),
              optionally across a worker pool, with serial/parallel
              bit-identity checking and a JSON report
``shrink``    minimise a violating scenario while the violation persists
``replay``    re-execute a replay token / seed file under full tracing
``explain``   run one spec under causal tracing and reconstruct the
              provenance (causal cone) of a process's decision
``trace``     run any other command under the tracer, dump JSONL + summary
``bench``     throughput benchmark over a standard grid with per-phase
              timing (BENCH_perf.json), or diff two BENCH files under a
              regression threshold (``--compare OLD NEW``)
``metrics``   Prometheus text-format snapshots: ``serve`` a scrapeable
              endpoint, ``snapshot`` to stdout/file, ``diff`` counter
              deltas between two exported JSONL traces
``node``      run ONE live consensus node (own OS process) from a
              topology file; prints a one-line JSON decision record
``launch``    spawn an n-node local live cluster (TCP or UDS) running
              one RunSpec, collect every node's decision, and judge
              them with the runner's checker
``lint``      protocol-aware static analysis: per-file rule families
              (determinism/float-safety/resilience-bounds/handler-
              hygiene/observability) plus whole-program flow analysis
              (message exhaustiveness, determinism taint, quorum
              provenance, transport readiness); SARIF output and a
              stale-suppression audit (``--check-noqa``)

``fuzz``/``shrink``/``replay`` are the deterministic simulation-testing
loop (see ``docs/fuzzing.md``): every violation ``fuzz`` prints comes
with a replay token; ``shrink`` minimises it; ``replay`` reproduces it
bit-for-bit with a span/metrics forensic trail.

Every command accepts ``--quiet`` / ``--verbose``, wired to the tracer's
log level (``--verbose`` echoes debug events to stderr as they happen).

Examples::

    python -m repro demo --d 4 --seed 3
    python -m repro bounds --d 5 --f 2
    python -m repro delta --n 5 --d 4 --f 1 --seed 0
    python -m repro verdicts --d 3
    python -m repro fuzz --algorithm averaging --trials 50 --seed 7
    python -m repro fuzz --algorithm algo --trials 5 --inject split-brain
    python -m repro sweep --algorithms algo,exact --d 2,3 --reps 4 --workers 4
    python -m repro sweep --reps 8 --workers 2 --compare --out BENCH_sweep.json
    python -m repro shrink --token dst1-...
    python -m repro replay --token dst1-... --trace failure.jsonl
    python -m repro explain --algorithm algo --d 2 --f 1 --pid 0 --probes all
    python -m repro explain --algorithm averaging --format dot --out cone.dot
    python -m repro trace --out run.jsonl demo --d 3
    python -m repro bench --grid tiny --out BENCH_perf.json
    python -m repro bench --compare BENCH_perf.json BENCH_new.json
    python -m repro metrics serve --demo --port 9464 --max-requests 1
    python -m repro metrics snapshot --from run.jsonl
    python -m repro launch --algorithm averaging --n 4 --d 2 --transport tcp
    python -m repro node --topology cluster/topology.json --id 2
    python -m repro lint src/repro benchmarks examples --check-noqa
    python -m repro lint --format sarif
    python -m repro lint --list-rules
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _fail(message: str) -> int:
    """Clean CLI error: one line on stderr, exit code 2, no traceback."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_demo(args: argparse.Namespace) -> int:
    from .core import RunSpec, run
    from .core.bounds import exact_bvc_min_n, theorem9_bound
    from .obs import trace_event
    from .system import Adversary

    d, f = args.d, args.f
    n = args.n if args.n is not None else d + 1
    if d < 1:
        return _fail(f"--d must be >= 1, got {d}")
    if f < 1:
        return _fail(f"--f must be >= 1, got {f}")
    if n < 3 * f + 1:
        return _fail(
            f"inconsistent system size: ALGO requires n >= 3f+1 "
            f"(got --n {n}, --f {f}; try --n {3 * f + 1} or larger)"
        )
    rng = np.random.default_rng(args.seed)
    inputs = rng.normal(size=(n, d))
    inputs[-1] = 25.0  # adversarially chosen faulty input
    if not args.quiet:
        print(f"n={n}, d={d}, f={f}; exact BVC needs n >= {exact_bvc_min_n(d, f)}")
    trace_event("demo.start", n=n, d=d, f=f, seed=args.seed)
    try:
        run(RunSpec(algorithm="exact", inputs=inputs, f=f,
                    adversary=Adversary(faulty=[n - 1])))
        if not args.quiet:
            print("exact BVC: succeeded (Γ nonempty for this instance)")
    except ValueError as exc:
        if not args.quiet:
            print(f"exact BVC: {exc}")
    out = run(RunSpec(algorithm="algo", inputs=inputs, f=f,
                      adversary=Adversary(faulty=[n - 1])))
    trace_event("demo.done", ok=out.ok, delta=out.delta_used)
    print(f"ALGO: ok={out.ok}  δ*={out.delta_used:.6f}  "
          f"(Theorem 9 bound {theorem9_bound(out.honest_inputs, n):.6f})")
    if not args.quiet:
        print(f"decision: {np.round(next(iter(out.decisions.values())), 4)}")
        m = out.metrics
        print(f"traffic: {m.counter_value('net.messages_sent')} messages, "
              f"~{m.counter_value('net.bytes_estimate')} bytes, "
              f"{m.counter_value('geometry.delta_star.calls')} δ* solves")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .core import bounds

    d, f = args.d, args.f
    rows = [
        ("exact BVC (sync)", bounds.exact_bvc_min_n(d, f)),
        ("approximate BVC (async)", bounds.approx_bvc_min_n(d, f)),
        ("k-relaxed exact, k=1", bounds.k_relaxed_exact_min_n(d, f, 1)),
        ("k-relaxed exact, 2<=k<=d", bounds.k_relaxed_exact_min_n(d, f, min(2, d))),
        ("(δ,p) exact, constant δ", bounds.delta_p_exact_min_n(d, f, 1.0)),
        ("(δ,p) approx, constant δ", bounds.delta_p_approx_min_n(d, f, 1.0)),
        ("input-dependent δ (Lemma 10 floor)", bounds.input_dependent_min_n(f)),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"tight process-count bounds for d={d}, f={f}:")
    for name, val in rows:
        print(f"  {name.ljust(width)}  n >= {val}")
    if f >= 1 and 3 * f + 1 <= (d + 1) * f:
        k = bounds.kappa(3 * f + 1, f, d, 2)
        print(f"  κ(3f+1={3 * f + 1}, f, d, 2) = {k:.4f}  "
              f"(δ* < κ · max-edge at the minimum system size)")
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    from .geometry import delta_star
    from .geometry.norms import max_edge_length, min_edge_length

    if args.n < 2:
        return _fail(f"--n must be >= 2, got {args.n}")
    if not 0 <= args.f < args.n:
        return _fail(
            f"inconsistent --n/--f: need 0 <= f < n, got n={args.n}, f={args.f}"
        )
    rng = np.random.default_rng(args.seed)
    S = rng.normal(size=(args.n, args.d))
    res = delta_star(S, args.f, p=args.p)
    print(f"random inputs: n={args.n}, d={args.d}, f={args.f}, p={args.p}, "
          f"seed={args.seed}")
    print(f"δ*(S)      = {res.value:.9f}   (certified gap {res.gap:.2e})")
    print(f"minimiser  = {np.round(res.point, 5)}")
    print(f"min-edge/2 = {min_edge_length(S) / 2:.9f}")
    if args.n >= 3:
        print(f"max-edge/(n-2) = {max_edge_length(S) / (args.n - 2):.9f}")
    return 0


def _cmd_verdicts(args: argparse.Namespace) -> int:
    from .core import (
        theorem3_verdict,
        theorem4_verdict,
        theorem5_verdict,
        theorem6_verdict,
    )

    d = args.d
    print(f"impossibility constructions at d={d} (f=1):")
    if d >= 3:
        print(f"  Theorem 3 (k=2, n=d+1):      Ψ(Y) empty = {theorem3_verdict(d)}")
        sep, thr = theorem4_verdict(d)
        print(f"  Theorem 4 (k=2, n=d+2):      forced sep {sep} >= 2ε = {thr}")
    else:
        print("  Theorems 3/4 need d >= 3")
    print(f"  Theorem 5 (δ=0.25, n=d+1):   intersection empty = "
          f"{theorem5_verdict(d, 0.25)}")
    sep, thr = theorem6_verdict(d, 0.25, 0.1)
    print(f"  Theorem 6 (δ=0.25, n=d+2):   forced sep {sep} > ε = {thr}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .dst import explore, save_seed, shrink

    if args.trials < 1:
        return _fail(f"--trials must be >= 1, got {args.trials}")
    try:
        violations = explore(args.algorithm, trials=args.trials,
                             seed=args.seed, inject=args.inject,
                             workers=args.workers)
    except ValueError as exc:
        return _fail(str(exc))
    print(f"{args.trials} sampled scenarios of {args.algorithm!r}: "
          f"{len(violations)} invariant violations")
    for i, v in enumerate(violations):
        s = v.scenario
        print(f"  [{i}] {v.invariant}: {v.detail}")
        print(f"      scenario: n={s.n} d={s.d} f={s.f} seed={s.seed} "
              f"faults={s.strategy_label()} windows={len(s.schedule)}")
        if args.shrink:
            res = shrink(s, invariant=v.invariant)
            from .dst import encode_token

            small = res.shrunk
            print(f"      shrunk:   n={small.n} d={small.d} f={small.f} "
                  f"clauses={len(small.faults)} windows={len(small.schedule)} "
                  f"({res.accepted} edits kept of {res.attempts} tried)")
            print(f"      replay: python -m repro replay --token "
                  f"{encode_token(small)}")
        else:
            print(f"      replay: {v.replay_command}")
            print(f"      shrink: {v.shrink_command}")
        if args.save_dir:
            import os

            os.makedirs(args.save_dir, exist_ok=True)
            target = s if not args.shrink else res.shrunk
            path = os.path.join(
                args.save_dir, f"{args.algorithm}-{v.invariant}-{s.seed}.json"
            )
            save_seed(path, target, expect={"violates": v.invariant},
                      notes=f"found by: python -m repro fuzz --algorithm "
                            f"{args.algorithm} --trials {args.trials} "
                            f"--seed {args.seed}"
                            + (f" --inject {args.inject}" if args.inject else ""))
            print(f"      saved: {path}")
    return 1 if violations else 0


def _int_tuple(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list CLI value."""
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return values


def _str_tuple(text: str) -> tuple[str, ...]:
    """Parse a comma-separated string list CLI value."""
    values = tuple(x.strip() for x in text.split(",") if x.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from .exec import SweepGrid, compare_grid, run_grid
    from .geometry import set_cache_enabled

    if args.workers < 1:
        return _fail(f"--workers must be >= 1, got {args.workers}")
    try:
        grid = SweepGrid(
            algorithms=args.algorithms,
            dimensions=args.d,
            faults=args.f,
            sizes=() if args.n is None else args.n,
            adversaries=args.adversaries,
            reps=args.reps,
            base_seed=args.seed,
            p=args.p,
            k=args.k,
            epsilon=args.epsilon,
            probes=args.probes if args.probes else (),
        )
    except ValueError as exc:
        return _fail(str(exc))
    if args.no_cache:
        set_cache_enabled(False)

    if args.compare:
        doc = compare_grid(grid, workers=args.workers,
                           chunksize=args.chunksize,
                           measure_cache=args.measure_cache)
        summary = doc["summary"]
        if not args.quiet:
            print(f"{doc['trial_count']} trials "
                  f"({doc['skipped_trials']} trials skipped), "
                  f"{summary['ok']} ok, cpu_count={doc['cpu_count']}")
            for mode in doc["modes"]:
                print(f"  workers={mode['workers']}: "
                      f"{mode['wall_seconds']:.3f}s")
            cache = summary["geometry_cache"]
            print(f"  geometry cache: {cache['hits']:.0f} hits / "
                  f"{cache['misses']:.0f} misses "
                  f"(hit rate {cache['hit_rate']:.1%})")
            if "cache_off" in doc:
                off = doc["cache_off"]
                print(f"  cache off: {off['wall_seconds']:.3f}s "
                      f"(speedup {off['cache_speedup']:.2f}x, identical="
                      f"{off['identical_to_cached']})")
        print("serial/parallel decisions identical: "
              f"{doc['identical']} "
              f"(digest {doc['decisions_digest']['serial'][:16]}...)")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
            if not args.quiet:
                print(f"wrote {args.out}")
        return 0 if doc["identical"] else 1

    result = run_grid(grid, workers=args.workers, chunksize=args.chunksize)
    summary = result.summary()
    print(f"{result.trial_count} trials ({result.skipped_trials} trials "
          f"skipped), {result.ok_count} ok, workers={result.workers}, "
          f"{result.wall_seconds:.3f}s")
    if not args.quiet:
        if args.probes:
            print(f"  probe violations: {summary['probe_violations']}")
        cache = summary["geometry_cache"]
        print(f"  geometry cache: {cache['hits']:.0f} hits / "
              f"{cache['misses']:.0f} misses "
              f"(hit rate {cache['hit_rate']:.1%})")
        for name, row in summary["per_algorithm"].items():
            print(f"  {name}: {row['ok']}/{row['trials']} ok, "
                  f"{row['messages']} msgs, {row['wall_seconds']:.3f}s")
    if args.out:
        result.save(args.out)
        if not args.quiet:
            print(f"wrote {args.out}")
    return 0 if result.ok_count == result.trial_count else 1


def _resolve_scenario(args: argparse.Namespace):
    """Shared --token/--seed-file resolution for shrink/replay.

    Returns (scenario, seed_case_or_None) or an int error code.
    """
    from .dst import decode_token
    from .dst.corpus import load_seed

    if bool(args.token) == bool(args.seed_file):
        return _fail("provide exactly one of --token or --seed-file")
    if args.token:
        try:
            return decode_token(args.token), None
        except ValueError as exc:
            return _fail(str(exc))
    try:
        case = load_seed(args.seed_file)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"cannot load seed file {args.seed_file!r}: {exc}")
    return case.scenario, case


def _cmd_shrink(args: argparse.Namespace) -> int:
    from .dst import encode_token, save_seed, shrink

    resolved = _resolve_scenario(args)
    if isinstance(resolved, int):
        return resolved
    scenario, case = resolved
    invariant = args.invariant
    if invariant is None and case is not None:
        invariant = case.expected_violation
    try:
        res = shrink(scenario, invariant=invariant,
                     max_attempts=args.max_attempts)
    except ValueError as exc:
        return _fail(str(exc))
    o, s = res.original, res.shrunk
    print(f"shrinking while {res.invariant!r} stays violated: "
          f"{res.accepted} edits kept of {res.attempts} tried")
    print(f"  original: n={o.n} d={o.d} f={o.f} clauses={len(o.faults)} "
          f"windows={len(o.schedule)}")
    print(f"  shrunk:   n={s.n} d={s.d} f={s.f} clauses={len(s.faults)} "
          f"windows={len(s.schedule)}")
    token = encode_token(s)
    print(f"  token:  {token}")
    print(f"  replay: python -m repro replay --token {token}")
    if args.out:
        save_seed(args.out, s, expect={"violates": res.invariant},
                  notes=args.notes or "shrunk counterexample")
        print(f"  saved:  {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .dst import replay

    resolved = _resolve_scenario(args)
    if isinstance(resolved, int):
        return resolved
    scenario, case = resolved
    try:
        report = replay(scenario, trace_path=args.trace,
                        probes=args.probes if args.probes else ())
    except ValueError as exc:
        return _fail(str(exc))
    s = scenario
    print(f"replayed {s.algorithm!r}: n={s.n} d={s.d} f={s.f} seed={s.seed} "
          f"faults={s.strategy_label()} windows={len(s.schedule)}"
          + (f" inject={s.inject}" if s.inject else ""))
    result = report.result
    if result.ok:
        print("invariants: all hold (agreement, validity, termination)")
    else:
        for name, detail in sorted(result.violations.items()):
            print(f"violated {name}: {detail}")
    for probe_report in result.probe_reports:
        status = ("ok" if not probe_report.violations
                  else f"{len(probe_report.violations)} violation(s)")
        print(f"probe {probe_report.name}: {status} "
              f"({probe_report.checks} checks)")
        for v in probe_report.violations[:5]:
            pids = ",".join(str(p) for p in v.pids) or "-"
            print(f"  t={v.time} pids={pids}: {v.detail}")
    m = report.metrics
    print(f"forensics: {len(report.tracer.spans)} spans, "
          f"{m.counter_value('net.messages_sent')} messages, "
          f"{result.outcome.result.rounds} rounds/steps"
          + (f" -> {report.trace_path}" if report.trace_path else ""))
    if case is not None:
        mismatch = case.check(result)
        if mismatch:
            print(f"expectation MISMATCH: {mismatch}")
            return 1
        print(f"expectation holds: "
              + ("clean run" if case.expect_ok
                 else f"reproduces {case.expected_violation!r}"))
        return 0
    return 1 if not result.ok else 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from .analysis.timeline import (
        CausalGraph,
        cone_json,
        render_dot,
        render_explanation,
        render_timeline,
    )
    from .core import RunSpec, run
    from .exec.grid import build_adversary, min_trial_size
    from .obs.causal import CausalCollector, use_causal_collector
    from .obs.export import dump_jsonl, header_record

    n = args.n if args.n is not None else min_trial_size(
        args.algorithm, args.d, args.f, args.k
    )
    try:
        adversary = build_adversary(args.adversary, n, args.f)
        spec = RunSpec(
            algorithm=args.algorithm, n=n, d=args.d, f=args.f,
            adversary=adversary, p=args.p, k=args.k, epsilon=args.epsilon,
            rounds=args.rounds, seed=args.seed,
            probes=args.probes if args.probes else (),
        )
    except ValueError as exc:
        return _fail(str(exc))
    collector = CausalCollector(n)
    with use_causal_collector(collector):
        try:
            out = run(spec)
        except ValueError as exc:
            return _fail(str(exc))
    graph = CausalGraph.from_source(collector)
    decided = graph.decided_pids()
    pid = args.pid if args.pid is not None else (decided[0] if decided else 0)

    if args.format == "timeline":
        rendered = render_timeline(graph)
    elif args.format == "json":
        rendered = json.dumps(cone_json(graph, pid), indent=2, sort_keys=True)
    elif args.format == "dot":
        rendered = render_dot(graph, pid=pid)
    else:
        rendered = render_explanation(graph, pid)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            return _fail(f"cannot write {args.out!r}: {exc}")
        if not args.quiet:
            print(f"wrote {args.out}")
    else:
        print(rendered)
    if not args.quiet:
        print(f"\nrun: ok={out.ok} algorithm={args.algorithm} n={n} "
              f"d={args.d} f={args.f} adversary={args.adversary} "
              f"seed={args.seed}; {len(graph)} causal events, "
              f"decided pids {decided}")
        for report in out.probe_reports:
            status = "ok" if report.ok else "VIOLATED"
            print(f"probe {report.name}: {status} "
                  f"({report.checks} checks, {len(report.violations)} "
                  f"violations)")
    if args.causal_out:
        records = [header_record()] + collector.to_records()
        try:
            with open(args.causal_out, "w", encoding="utf-8") as fh:
                lines = dump_jsonl(records, fh)
        except OSError as exc:
            return _fail(f"cannot write {args.causal_out!r}: {exc}")
        if not args.quiet:
            print(f"wrote {args.causal_out} ({lines} lines)")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from .analysis.timeline import (
        cone_json,
        render_dot,
        render_explanation,
        render_timeline,
    )
    from .obs.export import dump_jsonl, header_record
    from .obs.fleet import (
        aggregate_metrics,
        discover_trails,
        fleet_probes,
        load_trails,
        stitch,
    )

    paths = list(args.trails)
    if args.trail_dir:
        paths.extend(discover_trails(args.trail_dir))
    if not paths:
        return _fail(
            "fleet needs per-node trails: positional JSONL files and/or "
            "--trail-dir (written by 'repro launch --trace-dir' or "
            "'repro node --trace')"
        )
    try:
        trails = load_trails(sorted(set(paths)))
    except (OSError, ValueError) as exc:
        return _fail(f"cannot load trails: {exc}")

    if args.action == "metrics":
        from .obs.prom import render_metrics_snapshot

        text = render_metrics_snapshot(aggregate_metrics(trails))
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                return _fail(f"cannot write {args.out!r}: {exc}")
            if not args.quiet:
                print(f"wrote {args.out}")
        else:
            print(text, end="")
        return 0

    try:
        graph, report = stitch(trails)
    except (KeyError, ValueError) as exc:
        return _fail(f"cannot stitch trails: {exc}")

    if not args.quiet:
        print(
            f"stitched {len(report.nodes)} trails (nodes "
            f"{list(report.nodes)}): {report.events} events, "
            f"{report.stitched_edges} cross-node edges, "
            f"{report.orphan_delivers} orphan delivers, "
            f"{report.duplicate_delivers_dropped} duplicates dropped"
        )

    if args.action == "stitch":
        if args.out:
            records = [header_record()] + list(graph.events)
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    lines = dump_jsonl(records, fh)
            except OSError as exc:
                return _fail(f"cannot write {args.out!r}: {exc}")
            if not args.quiet:
                print(f"wrote {args.out} ({lines} lines)")
        if not report.complete:
            print(
                f"INCOMPLETE: {report.orphan_delivers} delivers have no "
                "matching send (missing or truncated trails?)",
                file=sys.stderr,
            )
        return 0 if report.complete else 1

    if args.action == "probes":
        try:
            reports, context = fleet_probes(trails, graph, inject=args.inject)
        except ValueError as exc:
            return _fail(str(exc))
        for probe in reports:
            status = "ok" if probe.ok else "VIOLATED"
            print(f"probe {probe.name}: {status} ({probe.checks} checks, "
                  f"{len(probe.violations)} violations)")
            for violation in probe.violations:
                print(f"  - {violation.detail}")
        ok = all(probe.ok for probe in reports)
        if not args.quiet:
            inject = f" inject={args.inject}" if args.inject else ""
            print(f"fleet probes on {context['algorithm']} "
                  f"n={context['n']} d={context['d']} f={context['f']}"
                  f"{inject} -> " + ("OK" if ok else "FAILED"))
        if args.out:
            payload = {
                "stitch": report.to_dict(),
                "probes": [probe.to_dict() for probe in reports],
                "context": context,
                "ok": ok,
            }
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            except OSError as exc:
                return _fail(f"cannot write {args.out!r}: {exc}")
            if not args.quiet:
                print(f"wrote {args.out}")
        return 0 if ok else 1

    # explain: cross-node decision cone over the merged graph
    decided = graph.decided_pids()
    pid = args.pid if args.pid is not None else (decided[0] if decided else 0)
    if args.format == "timeline":
        rendered = render_timeline(graph)
    elif args.format == "json":
        rendered = json.dumps(cone_json(graph, pid), indent=2, sort_keys=True)
    elif args.format == "dot":
        rendered = render_dot(graph, pid=pid)
    else:
        rendered = render_explanation(graph, pid)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            return _fail(f"cannot write {args.out!r}: {exc}")
        if not args.quiet:
            print(f"wrote {args.out}")
    else:
        print(rendered)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .analysis.profiling import render_hot_phases, render_phase_flame
    from .exec.bench import bench_grid, compare_bench, run_bench

    if args.compare:
        old_path, new_path = args.compare
        docs = []
        for path in (old_path, new_path):
            try:
                with open(path, encoding="utf-8") as fh:
                    docs.append(json.load(fh))
            except (OSError, ValueError) as exc:
                return _fail(f"cannot load BENCH file {path!r}: {exc}")
        try:
            report = compare_bench(docs[0], docs[1],
                                   max_regression=args.max_regression)
        except ValueError as exc:
            return _fail(str(exc))
        print(f"compared {report['cells_compared']} shared cells "
              f"(threshold: {report['max_regression']:.0%} drop)")
        if report["environment_changed"]:
            print("note: environment changed between documents "
                  "(different machine/cpu_count) — wall-clock deltas are "
                  "not regressions")
        if not report["same_grid"]:
            print("note: grids differ; only shared cells compared, "
                  "no overall verdict")
        elif report["overall_drop"] is not None and not args.quiet:
            print(f"overall decisions/sec drop: {report['overall_drop']:+.1%}")
        for row in report["regressions"]:
            print(f"REGRESSION {row['key']}: "
                  f"{row['old_decisions_per_second']} -> "
                  f"{row['new_decisions_per_second']} decisions/sec "
                  f"({row['drop']:+.1%})")
        if not args.quiet:
            for row in report["improvements"]:
                print(f"improvement {row['key']}: "
                      f"{row['old_decisions_per_second']} -> "
                      f"{row['new_decisions_per_second']} decisions/sec")
        print("bench comparison: " + ("OK" if report["ok"] else
                                      f"{len(report['regressions'])} "
                                      f"regression(s)"))
        return 0 if report["ok"] else 1

    try:
        grid = bench_grid(args.grid)
    except ValueError as exc:
        return _fail(str(exc))
    if args.workers < 1:
        return _fail(f"--workers must be >= 1, got {args.workers}")
    doc = run_bench(grid, grid_name=args.grid, workers=args.workers)
    env = doc["environment"]
    print(f"bench grid {args.grid!r}: {doc['trial_count']} trials "
          f"({doc['skipped_trials']} skipped), {doc['ok_count']} ok, "
          f"{doc['wall_seconds']:.3f}s "
          f"[cpu_count={env['cpu_count']} python={env['python']} "
          f"numpy={env['numpy']}]")
    tp = doc["throughput"]
    print(f"throughput: {tp['decisions_per_second']} decisions/sec "
          f"({tp['decisions_total']} decisions, "
          f"{tp['trials_per_second']} trials/sec)")
    if not args.quiet:
        for cell in doc["cells"]:
            print(f"  {cell['key']}: {cell['decisions_per_second']} "
                  f"decisions/sec over {cell['trials']} trials "
                  f"({cell['rounds_mean']} rounds avg)")
    if "parallel" in doc:
        par = doc["parallel"]
        label = (f"{par['speedup']}x" if par["speedup"] is not None
                 else f"unmeasurable ({par['note']})")
        print(f"parallel x{par['workers']}: {par['wall_seconds']:.3f}s, "
              f"identical={par['identical']}, speedup {label}")
    snapshot = {"schema": doc["schema"], "phases": doc["phases"],
                "cache": doc["cache"]}
    if not args.quiet:
        print()
        print(render_hot_phases(snapshot, top=args.hot))
    if args.flame:
        print()
        print(render_phase_flame(snapshot))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            return _fail(f"cannot write {args.out!r}: {exc}")
        if not args.quiet:
            print(f"wrote {args.out}")
    return 0 if doc["ok_count"] == doc["trial_count"] else 1


def _demo_sources() -> tuple:
    """Populate a registry + record-free tracer with a tiny workload."""
    from .core import RunSpec, run
    from .obs import MetricsRegistry, Tracer, use_registry, use_tracer

    registry = MetricsRegistry()
    tracer = Tracer(records=False)
    with use_registry(registry), use_tracer(tracer):
        run(RunSpec(algorithm="algo", n=6, d=2, f=1, seed=11))
        run(RunSpec(algorithm="averaging", n=6, d=2, f=1, seed=7))
    return registry, tracer


def _metrics_exposition(args: argparse.Namespace) -> "str | int":
    """Build the exposition text for metrics snapshot/serve (or exit code)."""
    from .analysis.profiling import metrics_record
    from .obs import get_tracer, global_registry, read_jsonl
    from .obs.prom import render_exposition

    if getattr(args, "from_jsonl", None):
        try:
            records = read_jsonl(args.from_jsonl)
        except (OSError, ValueError) as exc:
            return _fail(f"cannot read {args.from_jsonl!r}: {exc}")
        snap = metrics_record(records)
        if snap is None:
            return _fail(f"{args.from_jsonl!r} holds no metrics record")
        return render_exposition(snap)
    if getattr(args, "demo", False):
        registry, tracer = _demo_sources()
        return render_exposition(registry.snapshot(), tracer.snapshot())
    return render_exposition(
        global_registry().snapshot(), get_tracer().snapshot()
    )


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .analysis.profiling import metrics_record
    from .obs import read_jsonl
    from .obs.prom import diff_counter_snapshots, serve_metrics

    if args.action == "snapshot":
        text = _metrics_exposition(args)
        if isinstance(text, int):
            return text
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                return _fail(f"cannot write {args.out!r}: {exc}")
            if not args.quiet:
                print(f"wrote {args.out}")
        else:
            print(text, end="")
        return 0

    if args.action == "diff":
        if len(args.files) != 2:
            return _fail("metrics diff needs exactly two JSONL files")
        snaps = []
        for path in args.files:
            try:
                records = read_jsonl(path)
            except (OSError, ValueError) as exc:
                return _fail(f"cannot read {path!r}: {exc}")
            snap = metrics_record(records)
            if snap is None:
                return _fail(f"{path!r} holds no metrics record")
            snaps.append(snap)
        deltas = diff_counter_snapshots(snaps[0], snaps[1])
        if not deltas:
            print("no counter deltas")
            return 0
        width = max(len(name) for name in deltas)
        for name, delta in deltas.items():
            print(f"  {name.ljust(width)}  {delta:+g}")
        return 0

    # serve
    text_or_code = _metrics_exposition(args)
    if isinstance(text_or_code, int):
        return text_or_code
    if args.from_jsonl or args.demo:
        # static snapshot: every scrape returns the same document
        static_text = text_or_code

        def source() -> str:
            return static_text
    else:
        def source() -> str:
            live = _metrics_exposition(args)
            assert isinstance(live, str)
            return live

    try:
        server = serve_metrics(source, host=args.host, port=args.port,
                               max_requests=args.max_requests)
    except OSError as exc:
        return _fail(f"cannot bind {args.host}:{args.port}: {exc}")
    host, port = server.address
    print(f"serving Prometheus metrics on http://{host}:{port}/metrics"
          + (f" (exiting after {args.max_requests} request(s))"
             if args.max_requests else ""), flush=True)
    try:
        served = server.serve_forever()
    except KeyboardInterrupt:
        return 0
    if not args.quiet:
        print(f"served {served} request(s)")
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    import json

    from .exec.live_launch import load_topology, run_node
    from .system.transport.base import TransportError

    try:
        doc = load_topology(args.topology)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot load topology {args.topology!r}: {exc}")
    n = int(doc["spec"]["n"])
    if not 0 <= args.id < n:
        return _fail(f"--id must be in 0..{n - 1}, got {args.id}")

    def emit(record: dict) -> None:
        # Printed before any --linger window so the launcher can read the
        # decision while this node keeps serving /metrics.
        print(json.dumps(record, sort_keys=True), flush=True)

    try:
        record = run_node(
            doc, args.id, metrics_port=args.metrics_port,
            linger=args.linger, trace_path=args.trace, emit=emit,
        )
    except (TransportError, OSError) as exc:
        return _fail(f"node {args.id} failed: {exc}")
    return 0 if record["decided"] and record["completed"] else 1


def _cmd_launch(args: argparse.Namespace) -> int:
    import json

    from .core import RunSpec
    from .exec.live_launch import launch_local

    if args.n < 2:
        return _fail(f"--n must be >= 2, got {args.n}")
    try:
        spec = RunSpec(
            algorithm=args.algorithm, n=args.n, d=args.d, f=args.f,
            transport=f"live-{args.transport}", seed=args.seed,
            broadcast=args.broadcast, p=args.p, k=args.k,
            epsilon=args.epsilon, rounds=args.rounds,
        )
        report = launch_local(
            spec, timeout=args.timeout, metrics_port=args.metrics_port,
            linger=args.linger, trace_dir=args.trace_dir,
        )
    except ValueError as exc:
        return _fail(str(exc))
    print(f"launched {report['n']} {args.transport} nodes: "
          f"{report['algorithm']} d={report['d']} f={report['f']} "
          f"seed={report['seed']} ({report['instance']})")
    for record in report["nodes"]:
        if record is None:
            continue
        decision = record["decision"]
        shown = ("-" if decision is None
                 else str([round(x, 4) for x in decision]))
        print(f"  node {record['node']}: decided={record['decided']} "
              f"rounds={record['rounds']} decision={shown}")
    for err in report["errors"]:
        print(f"  ERROR {err}", file=sys.stderr)
    print(f"agreement spread {report['agreement_spread']:.3e} "
          f"(tolerance {report['agreement_tolerance']:.3e}); validity "
          + ("ok" if report["validity_ok"] else "VIOLATED")
          + f"; {report['decided_nodes']}/{report['n']} decided -> "
          + ("OK" if report["ok"] else "FAILED"))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            return _fail(f"cannot write {args.out!r}: {exc}")
        if not args.quiet:
            print(f"wrote {args.out}")
    return 0 if report["ok"] else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import cli as lint_cli

    return lint_cli.run(args)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .analysis.profiling import render_phase_flame, render_summary
    from .obs import (
        MetricsRegistry,
        Tracer,
        trace_to_records,
        use_registry,
        use_tracer,
        write_jsonl,
    )

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        return _fail("trace requires a command to run, "
                     "e.g. 'trace --out run.jsonl demo --d 3'")
    if rest[0] == "trace":
        return _fail("trace cannot wrap itself")

    level = "warning" if args.quiet else ("debug" if args.verbose else "info")
    tracer = Tracer(level=level, echo=args.verbose)
    registry = MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        inner_code = main(rest)
    try:
        lines = write_jsonl(args.out, tracer, registry)
    except OSError as exc:
        return _fail(f"cannot write trace to {args.out!r}: {exc}")
    records = trace_to_records(tracer, registry)
    if not args.quiet:
        print(f"\n--- trace: {len(tracer.spans)} spans, "
              f"{len(tracer.events)} events -> {args.out} ({lines} lines)")
        print(render_summary(records))
        if args.flame:
            print("\n" + render_phase_flame(tracer.snapshot()))
    return inner_code


def build_parser() -> argparse.ArgumentParser:
    from .dst.explore import INJECTIONS
    from .system.broadcast.interface import BROADCAST_KINDS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Relaxed Byzantine Vector Consensus — reproduction toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    verbosity = common.add_mutually_exclusive_group()
    verbosity.add_argument("--quiet", action="store_true",
                           help="warnings only (tracer level 'warning')")
    verbosity.add_argument("--verbose", action="store_true",
                           help="echo debug events (tracer level 'debug')")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", parents=[common],
                       help="quick end-to-end ALGO demonstration")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, default=None,
                   help="processes (default d+1; must satisfy n >= 3f+1)")
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("bounds", parents=[common],
                       help="print the paper's n-bounds")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("delta", parents=[common],
                       help="compute δ*(S) on random inputs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("verdicts", parents=[common],
                       help="run the impossibility constructions")
    p.add_argument("--d", type=int, default=3)
    p.set_defaults(func=_cmd_verdicts)

    p = sub.add_parser("fuzz", parents=[common],
                       help="deterministic-simulation soak test")
    p.add_argument("--algorithm", default="algo",
                   choices=["exact", "algo", "k1", "averaging"])
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject", default=None,
                   choices=sorted(INJECTIONS),
                   help="enable a named bug injection (demo/testing of the "
                        "fuzz->shrink->replay loop)")
    p.add_argument("--shrink", action="store_true",
                   help="minimise each violation before printing its token")
    p.add_argument("--save-dir", default=None,
                   help="write each violation as a seed file in this directory")
    p.add_argument("--workers", type=int, default=1,
                   help="fan trials over N worker processes (violations are "
                        "identical to a serial run's)")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "sweep", parents=[common],
        help="run a deterministic experiment grid (optionally in parallel)",
    )
    p.add_argument("--algorithms", type=_str_tuple, default=("algo",),
                   help="comma list: exact,algo,krelaxed,scalar,iterative,"
                        "averaging (default algo)")
    p.add_argument("--d", type=_int_tuple, default=(2,),
                   help="comma list of dimensions (default 2)")
    p.add_argument("--f", type=_int_tuple, default=(1,),
                   help="comma list of fault budgets (default 1)")
    p.add_argument("--n", type=_int_tuple, default=None,
                   help="comma list of system sizes (default: the smallest "
                        "legal n per cell; undersized cells are skipped)")
    p.add_argument("--adversaries", type=_str_tuple, default=("none",),
                   help="comma list: none,honest,silent,crash,mutate,"
                        "equivocate,duplicate (default none)")
    p.add_argument("--reps", type=int, default=1,
                   help="repetitions per cell, each with its own derived seed")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed hashed into every cell's trial seed")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=5e-2)
    p.add_argument("--probes", type=_str_tuple, default=None,
                   help="comma list of online probes for every trial "
                        "(validity,agreement,broadcast or 'all'); violation "
                        "totals land in the summary, never in the digest")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = in-process serial)")
    p.add_argument("--chunksize", type=int, default=None,
                   help="trials per pool chunk (default ~4 chunks/worker)")
    p.add_argument("--compare", action="store_true",
                   help="run serially AND in parallel; exit 1 unless the "
                        "decision digests are identical")
    p.add_argument("--measure-cache", action="store_true",
                   help="with --compare: add a cache-disabled pass to "
                        "measure the geometry cache speedup")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the geometry kernel cache for this sweep")
    p.add_argument("--out", default=None,
                   help="write the sweep/comparison report as JSON "
                        "(BENCH_sweep.json by convention)")
    p.set_defaults(func=_cmd_sweep)

    for name, helptext in (
        ("shrink", "minimise a violating scenario (same invariant must "
                   "keep failing)"),
        ("replay", "re-execute a token/seed file under full tracing"),
    ):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("--token", default=None,
                       help="replay token (dst1-...) as printed by fuzz")
        p.add_argument("--seed-file", default=None,
                       help="corpus seed file (tests/corpus/*.json)")
        if name == "shrink":
            p.add_argument("--invariant", default=None,
                           choices=["agreement", "validity", "termination"],
                           help="invariant to preserve (default: first "
                                "violated)")
            p.add_argument("--max-attempts", type=int, default=200)
            p.add_argument("--out", default=None,
                           help="write the shrunk scenario as a seed file")
            p.add_argument("--notes", default=None,
                           help="notes stored in the --out seed file")
            p.set_defaults(func=_cmd_shrink)
        else:
            p.add_argument("--trace", default=None,
                           help="dump the forensic span/metrics trail as "
                                "JSONL to this path")
            p.add_argument("--probes", type=_str_tuple, default=(),
                           help="comma-separated online probes to run "
                                "alongside the replay (validity, agreement, "
                                "broadcast, or 'all')")
            p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "explain", parents=[common],
        help="run one spec under causal tracing; explain a decision's "
             "provenance (causal cone / timeline / DOT)",
    )
    p.add_argument("--algorithm", default="algo",
                   help="exact,algo,krelaxed,scalar,iterative,averaging")
    p.add_argument("--n", type=int, default=None,
                   help="processes (default: smallest legal n for the cell)")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--adversary", default="none",
                   help="named adversary: none,honest,silent,crash,mutate,"
                        "equivocate,duplicate (default none)")
    p.add_argument("--pid", type=int, default=None,
                   help="process whose decision to explain (default: the "
                        "lowest decided pid)")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=5e-2)
    p.add_argument("--probes", type=_str_tuple, default=None,
                   help="comma list of online probes to run alongside "
                        "(validity,agreement,broadcast or 'all')")
    p.add_argument("--format", default="cone",
                   choices=["cone", "timeline", "json", "dot"],
                   help="cone: text causal cone (default); timeline: "
                        "per-round event groups; json: machine-readable "
                        "cone; dot: Graphviz DAG")
    p.add_argument("--out", default=None,
                   help="write the rendering to this file instead of stdout")
    p.add_argument("--causal-out", default=None,
                   help="also dump the full causal event log as JSONL")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "bench", parents=[common],
        help="throughput benchmark over a standard grid, with per-phase "
             "timing; or diff two BENCH files (--compare)",
    )
    p.add_argument("--grid", default="small",
                   choices=["tiny", "small", "standard"],
                   help="named standard grid (default small; tiny is the "
                        "CI smoke grid)")
    p.add_argument("--workers", type=int, default=1,
                   help="add a parallel pass with N workers (speedup is "
                        "reported only when cpu_count > 1; flagged "
                        "unmeasurable on a 1-core machine)")
    p.add_argument("--hot", type=int, default=10,
                   help="rows in the hot-phase table (default 10)")
    p.add_argument("--flame", action="store_true",
                   help="also print the aggregated phase-path tree")
    p.add_argument("--out", default=None,
                   help="write the BENCH document as JSON "
                        "(BENCH_perf.json by convention)")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
                   help="diff two BENCH JSON files instead of running; "
                        "exit 1 when throughput regressed beyond "
                        "--max-regression")
    p.add_argument("--max-regression", type=float, default=0.5,
                   help="allowed fractional decisions/sec drop before "
                        "--compare fails (default 0.5)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "metrics", parents=[common],
        help="Prometheus text-format metrics: serve / snapshot / diff",
    )
    p.add_argument("action", choices=["serve", "snapshot", "diff"],
                   help="serve: HTTP endpoint at /metrics; snapshot: "
                        "exposition text to stdout/--out; diff: counter "
                        "deltas between two exported JSONL traces")
    p.add_argument("files", nargs="*",
                   help="for diff: OLD.jsonl NEW.jsonl")
    p.add_argument("--from", dest="from_jsonl", default=None,
                   help="serve/snapshot the metrics record of an exported "
                        "JSONL trace instead of the live registry")
    p.add_argument("--demo", action="store_true",
                   help="populate the metrics from a small instrumented "
                        "demo workload first (so a fresh process has "
                        "something to scrape)")
    p.add_argument("--host", default="127.0.0.1",
                   help="serve: bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=9464,
                   help="serve: TCP port; 0 picks a free port (default 9464)")
    p.add_argument("--max-requests", type=int, default=None,
                   help="serve: exit after N scrapes (CI smoke uses 1)")
    p.add_argument("--out", default=None,
                   help="snapshot: write the exposition text to this file")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "node", parents=[common],
        help="run one live consensus node from a topology file "
             "(prints a one-line JSON decision record)",
    )
    p.add_argument("--topology", required=True,
                   help="topology JSON (repro.transport.topology/2), "
                        "shared by every node of the cluster")
    p.add_argument("--id", type=int, required=True,
                   help="this node's id (0..n-1)")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="serve live Prometheus text at /metrics on this "
                        "port for the whole run")
    p.add_argument("--linger", type=float, default=0.0,
                   help="keep serving /metrics this many seconds after "
                        "the decision line is printed")
    p.add_argument("--trace", default=None,
                   help="export this node's trail (spans, metrics, causal "
                        "events) as JSONL; enables causal tracing")
    p.set_defaults(func=_cmd_node)

    p = sub.add_parser(
        "launch", parents=[common],
        help="spawn an n-node local live cluster and judge agreement",
    )
    p.add_argument("--algorithm", default="averaging",
                   help="exact,algo,krelaxed,scalar,iterative,averaging "
                        "(default averaging)")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--f", type=int, default=1)
    p.add_argument("--transport", default="tcp", choices=["tcp", "uds"],
                   help="loopback TCP or Unix-domain sockets (default tcp)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed: inputs, per-node rngs, signature keys")
    p.add_argument("--broadcast", default="eig",
                   choices=BROADCAST_KINDS + ("atomic",),
                   help="sync algorithms' broadcast primitive (default eig)")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=5e-2)
    p.add_argument("--rounds", type=int, default=None,
                   help="protocol rounds (default: the algorithm's own "
                        "estimate, which every node derives from the seed)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="whole-cluster wall-clock budget in seconds")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="base port: node PID serves /metrics on "
                        "metrics-port + PID (every node)")
    p.add_argument("--linger", type=float, default=0.0,
                   help="nodes keep serving /metrics this long after "
                        "deciding")
    p.add_argument("--trace-dir", default=None,
                   help="collect one causal-traced JSONL trail per node "
                        "in this directory (enables the fleet probe "
                        "block in the report)")
    p.add_argument("--out", default=None,
                   help="write the full launch report as JSON")
    p.set_defaults(func=_cmd_launch)

    p = sub.add_parser(
        "fleet", parents=[common],
        help="stitch per-node live trails into one causal graph; "
             "post-hoc probes, explanations, aggregated metrics",
    )
    p.add_argument("action",
                   choices=["stitch", "probes", "explain", "metrics"],
                   help="stitch: merge trails (JSONL out); probes: "
                        "post-hoc invariant verdicts; explain: cross-"
                        "node decision cone; metrics: aggregated "
                        "Prometheus exposition")
    p.add_argument("trails", nargs="*",
                   help="per-node trail JSONL files")
    p.add_argument("--trail-dir", default=None,
                   help="directory of *.jsonl trails (repro launch "
                        "--trace-dir output)")
    p.add_argument("--pid", type=int, default=None,
                   help="explain: node whose decision to explain "
                        "(default: lowest decided)")
    p.add_argument("--format", default="explain",
                   choices=["explain", "timeline", "json", "dot"],
                   help="explain rendering (default explain)")
    p.add_argument("--inject", default=None,
                   choices=sorted(INJECTIONS),
                   help="probes: perturb the logged decisions to "
                        "demonstrate probe sensitivity")
    p.add_argument("--out", default=None,
                   help="write the action's artifact (stitched JSONL, "
                        "probe report JSON, rendering, or exposition)")
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "lint", parents=[common],
        help="protocol-aware static analysis of the source tree",
    )
    from .lint import cli as lint_cli

    lint_cli.add_arguments(p)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "trace", parents=[common],
        help="run another command under the tracer; dump JSONL + summary",
    )
    p.add_argument("--out", default="repro_trace.jsonl",
                   help="JSONL output path (default repro_trace.jsonl)")
    p.add_argument("--flame", action="store_true",
                   help="also print the aggregated span-path tree")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="the command to run, with its own flags")
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (returns the process exit code)."""
    from .obs import Tracer, get_tracer, set_tracer

    args = build_parser().parse_args(argv)
    installed = None
    tracer = get_tracer()
    if getattr(args, "verbose", False) and not tracer.enabled:
        # --verbose outside `trace`: echo debug events without collecting
        # a span dump.
        installed = set_tracer(
            Tracer(level="debug", echo=True, records=False)
        )
    elif getattr(args, "quiet", False) and tracer.enabled:
        tracer.level = "warning"
    try:
        return args.func(args)
    finally:
        if installed is not None:
            set_tracer(installed)


if __name__ == "__main__":
    sys.exit(main())
