"""Command-line front end: ingest, model, report, simulate, whatif, schedule, execute.

Exit codes: 0 success, 1 validation/run error, 2 usage error, 130 interrupted
(Ctrl-C). All primary outputs are deterministic for identical inputs; logging
goes to stderr.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import datafiles
from .codec import dump_json, enum_of, load_json
from .energy import (
    affine_total,
    breakdown_csv,
    category_breakdown,
    member_energy_breakdown,
    scatter_csv,
    suite_total,
    wallclock_breakdown,
)
from .errors import SuiteError
from .executor import (
    InlineBackend,
    LocalProcessBackend,
    execute,
    generate_schedule,
    load_schedule,
    save_schedule,
)
from .model import (
    EnsembleConfig,
    JobCategory,
    MemberPath,
    cluster_from_dict,
    expand_instances,
    load_edges,
    load_suite_model,
    save_suite_model,
    validate_suite,
)
from .profiles import (
    IoMode,
    ingest_measurements,
    load_profile,
    merge_profiles,
    parse_io_profile,
    parse_mpi_profile,
    save_profile,
)
from .simulate import events_csv, simulate, summary_json, utilization
from .whatif import Scenario, apply_scenario, energy_savings, load_scenario, max_speedup

log = logging.getLogger(__name__)


def _ensemble(args, default: EnsembleConfig) -> EnsembleConfig:
    """`-n/-N` over `default`; a flag left out keeps the default's count."""
    return EnsembleConfig(
        default.n_control if args.n_control is None else args.n_control,
        default.n_total if args.n_total is None else args.n_total,
    )


def _load_model(args):
    """`--model` with `-n/-N` and `simulate --nodes` applied, then validated."""
    model = load_suite_model(args.model)
    model = model.with_ensemble(_ensemble(args, model.ensemble))
    nodes = getattr(args, "nodes", None)
    if nodes is not None:
        if nodes != "unlimited" and not nodes.isdecimal():  # isdigit() passes "²", which int() rejects
            raise SuiteError(f"--nodes takes a count or 'unlimited', got {nodes!r}")
        node_count = None if nodes == "unlimited" else int(nodes)
        model = replace(model, cluster=replace(model.cluster, node_count=node_count))
    report = validate_suite(model)
    for issue in report.warnings:
        log.info("warning [%s] %s", issue.code, issue.message)
    if not report.ok:
        for issue in report.errors:
            print(f"error [{issue.code}] {issue.message}", file=sys.stderr)
        raise SuiteError(f"{args.model}: model failed validation")
    return model


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


_category = enum_of(JobCategory)


def _parse_cat_map(pairs: list[str], what: str) -> dict[JobCategory, float]:
    out = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        try:
            out[_category(name, f"--{what}")] = float(value)
        except ValueError:
            raise SuiteError(f"--{what} expects CATEGORY=VALUE, got {pair!r}") from None
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    records = []
    for raw in args.files:
        path = Path(raw)
        if path.suffix == ".mpiprof":
            records.append(parse_mpi_profile(path))
        elif path.suffix == ".ioprof":
            mode = args.io_mode
            if mode == "auto":
                mode = "parallel" if "ranks=" in path.read_text(encoding="utf-8") else "single"
            records.append(parse_io_profile(path, IoMode.PARALLEL if mode == "parallel" else IoMode.SINGLE))
        else:
            raise SuiteError(f"{path}: unknown profile type (expected .mpiprof or .ioprof)")
    by_job: dict[str, list] = {}
    for rec in records:
        by_job.setdefault(rec.job, []).append(rec)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for job in sorted(by_job):
        profile = merge_profiles(by_job[job])
        target = outdir / f"{job}.kjp"
        save_profile(profile, target)
        print(f"wrote {target} ({len(profile.phases)} phases)")
    return 0


def cmd_model(args) -> int:
    cluster = None
    if args.cluster:
        cluster = load_json(args.cluster, cluster_from_dict)
    model = ingest_measurements(
        args.measurements,
        low_confidence_threshold_s=args.low_confidence_threshold,
        ensemble=_ensemble(args, EnsembleConfig(2, 22)),
        cluster=cluster,
    )
    model = replace(model, edges=load_edges(args.edges))
    report = validate_suite(model)
    for issue in report.warnings:
        print(f"warning [{issue.code}] {issue.message}", file=sys.stderr)
    if not report.ok:
        for issue in report.errors:
            print(f"error [{issue.code}] {issue.message}", file=sys.stderr)
        return 1
    save_suite_model(model, args.output)
    print(f"wrote {args.output} ({len(model.jobs)} jobs, {len(model.edges)} edges)")
    return 0


def cmd_report(args) -> int:
    model = _load_model(args)
    cfg = model.ensemble
    breakdown = category_breakdown(
        model,
        cfg,
        exclude_forecast=args.exclude_forecast,
        include_contaminated=not args.exclude_contaminated,
    )
    A, B, D = affine_total(model)
    total = suite_total(model, cfg)

    if args.format == "json":
        doc = {
            "ensemble": {"n_control": cfg.n_control, "n_total": cfg.n_total},
            "total_kj": total,
            "affine": {"per_control": A, "per_member": B, "fixed": D},
            "per_category_kj": {c.value: v for c, v in sorted(breakdown.per_category_kj.items())},
            "fractions": {c.value: v for c, v in sorted(breakdown.fractions.items())},
            "per_job_kj": breakdown.per_job_kj,
        }
        _write_or_print(dump_json(doc), args.output)
    elif args.format == "csv":
        _write_or_print(breakdown_csv(model, breakdown), args.output)
    else:
        lines = [
            f"suite energy at (n={cfg.n_control}, N={cfg.n_total})",
            f"  total: {total:.1f} kJ (~{int(total // 1000) * 1000})",
            f"  affine: {A:.1f}*n + {B:.1f}*N + {D:.1f} kJ",
            "",
            f"  {'category':<18}{'energy [kJ]':>14}{'fraction':>10}",
        ]
        denom_note = " (of non-Forecast total)" if breakdown.forecast_excluded else ""
        for cat in JobCategory:
            if cat not in breakdown.per_category_kj:
                continue
            frac = breakdown.fractions.get(cat)
            frac_s = f"{frac:.4f}" if frac is not None else "-"
            lines.append(f"  {cat.value:<18}{breakdown.per_category_kj[cat]:>14.1f}{frac_s:>10}")
        if denom_note:
            lines.append(f"  fractions{denom_note}")
        for path in (MemberPath.CONTROL, MemberPath.PERTURBED):
            wc = wallclock_breakdown(model, path)
            _, shares = member_energy_breakdown(model, path)
            lines.append("")
            lines.append(
                f"  per-{path.value}-member serial wall-clock: {wc.total_s:.1f} s"
            )
            for cat in JobCategory:
                if cat not in wc.per_category_s:
                    continue
                lines.append(
                    f"    {cat.value:<16}{wc.per_category_s[cat]:>10.1f} s"
                    f"  {wc.fractions[cat]:>7.1%} of time"
                    f"  {shares.get(cat, 0.0):>7.1%} of member energy"
                )
        flagged = [j.name for j in model.jobs if j.contaminated]
        if flagged and not args.exclude_contaminated:
            lines.append("")
            lines.append(f"  shared-queue (contaminated) jobs included: {', '.join(flagged)}")
        _write_or_print("\n".join(lines) + "\n", args.output)

    if args.scatter:
        Path(args.scatter).write_text(scatter_csv(model, cfg), encoding="utf-8")
        print(f"wrote scatter data to {args.scatter}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    model = _load_model(args)
    graph = expand_instances(model)
    result = simulate(graph, model.cluster)
    per_node, aggregate = utilization(result, model.cluster)
    if args.events:
        Path(args.events).write_text(events_csv(result), encoding="utf-8")
    if args.summary:
        Path(args.summary).write_text(summary_json(result, model.cluster), encoding="utf-8")
    if args.format == "json":
        sys.stdout.write(summary_json(result, model.cluster))
    else:
        print(f"instances: {len(graph)}")
        print(f"makespan: {result.makespan_s:.1f} s")
        print(f"critical path: {result.critical_path_s:.1f} s over {len(result.critical_path)} instances")
        print(f"nodes used: {result.nodes_used}")
        print(f"aggregate utilization: {aggregate:.3f}")
    return 0


def cmd_whatif(args) -> int:
    scenario = Scenario(
        n_prime=args.n_prime,
        N_prime=args.N_prime,
        speedup=_parse_cat_map(args.speedup, "speedup"),
        energy_factor=_parse_cat_map(args.energy_factor, "energy-factor"),
    )
    flags = "--n-prime, --N-prime, --speedup or --energy-factor"
    if args.zero_category is not None and (args.scenario is not None or scenario != Scenario()):
        raise SuiteError(f"--zero-category does not combine with --scenario, {flags}")
    if args.path is not None and args.zero_category is None:
        raise SuiteError("--path applies only with --zero-category")
    if args.scenario is not None:
        if scenario != Scenario():
            raise SuiteError(f"--scenario does not combine with {flags}")
        scenario = load_scenario(args.scenario)
    model = _load_model(args)
    if args.zero_category is not None:
        category = _category(args.zero_category, "--zero-category")
        paths = (
            [MemberPath.CONTROL, MemberPath.PERTURBED]
            if args.path in (None, "both")
            else [MemberPath(args.path)]
        )
        for path in paths:
            factor = max_speedup(model, category, path)
            factor_s = "inf" if factor == float("inf") else f"{factor:.2f}"
            print(f"max speedup ({path.value} path, {category.value} -> 0): {factor_s}")
        saved, fraction = energy_savings(model, model.ensemble, category, 0.0)
        print(f"energy ceiling: {saved:.1f} kJ savable = {fraction:.1%} of the suite total")
        return 0

    before_total = suite_total(model)
    after = apply_scenario(model, scenario)
    after_total = suite_total(after)
    A, B, D = affine_total(after)
    cfg = after.ensemble
    print(f"scenario applied: (n={cfg.n_control}, N={cfg.n_total})")
    print(f"total energy: {before_total:.1f} kJ -> {after_total:.1f} kJ")
    print(f"affine: {A:.1f}*n + {B:.1f}*N + {D:.1f} kJ")
    for path in (MemberPath.CONTROL, MemberPath.PERTURBED):
        wc_before = wallclock_breakdown(model, path).total_s
        wc_after = wallclock_breakdown(after, path).total_s
        print(f"{path.value} member path: {wc_before:.1f} s -> {wc_after:.1f} s")
    return 0


def cmd_schedule(args) -> int:
    profile_paths: list[Path] = []
    for raw in args.profiles:
        p = Path(raw)
        if p.is_dir():
            profile_paths.extend(sorted(p.glob("*.kjp")))
        else:
            profile_paths.append(p)
    if not profile_paths:
        raise SuiteError("no .kjp profiles given")
    profiles = [load_profile(p) for p in profile_paths]
    edges = list(load_edges(args.edges))
    catalog = {j.name: j for j in _load_model(args).jobs} if args.model else None
    cfg = _ensemble(args, EnsembleConfig(1, 1))
    scenario = Scenario(io_scale=args.io_scale, compute_scale=args.compute_scale)
    doc = generate_schedule(profiles, edges, cfg, scenario, catalog=catalog)
    save_schedule(doc, args.output)
    print(f"wrote {args.output} ({len(doc.jobs)} jobs)")
    return 0


def cmd_execute(args) -> int:
    doc = load_schedule(args.schedule)
    backend_cls = InlineBackend if args.inline else LocalProcessBackend
    backend = backend_cls(desk_scale=args.desk_scale, compute_ceiling_s=args.compute_ceiling)
    runlog = execute(
        doc,
        backend=backend,
        parallelism=args.parallelism,
        workdir=args.workdir,
        keep_scratch=args.keep_scratch,
    )
    if args.log:
        Path(args.log).write_text(dump_json(runlog.to_dict()), encoding="utf-8")
    counts = {"ok": 0, "failed": 0, "skipped": 0}
    for entry in sorted(runlog.entries, key=lambda e: e.job_id):
        counts[entry.status] += 1
        span = (
            f"{entry.end_wallclock - entry.start_wallclock:8.3f} s"
            if entry.status != "skipped"
            else "       -  "
        )
        print(
            f"  [{entry.status:>7}] {entry.job_id:4d} {entry.name:<20} {span}"
            f"  r={entry.bytes_read} w={entry.bytes_written}"
        )
    print(
        f"{counts['ok']} ok, {counts['failed']} failed, {counts['skipped']} skipped; "
        f"scratch: {runlog.workdir}"
    )
    return 0 if runlog.ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_model_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--model",
        default=str(datafiles.suite_model_path()),
        help="suite model JSON (default: bundled dataset)",
    )
    p.add_argument("-n", "--n-control", type=int, default=None, help="override control member count")
    p.add_argument("-N", "--n-total", type=int, default=None, help="override total member count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsim",
        description="Workload modeling, energy accounting and schedule simulation "
        "for multi-member ensemble forecasting suites.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log details to stderr")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("ingest", help="parse profiler files into unified .kjp profiles")
    p.add_argument("files", nargs="+", help="profiler outputs (.mpiprof / .ioprof)")
    p.add_argument(
        "--io-mode",
        choices=["auto", "parallel", "single"],
        default="auto",
        help="how to parse .ioprof files (default: auto-detect via ranks key)",
    )
    p.add_argument("-o", "--output", default=".", help="directory for .kjp files")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("model", help="build a suite model from a measurement CSV and an edge list")
    p.add_argument("--measurements", default=str(datafiles.measurements_path()), help="measurement CSV")
    p.add_argument("--edges", default=str(datafiles.edges_path()), help="dependency edge JSON")
    p.add_argument("--cluster", default=None, help="cluster spec JSON (optional)")
    p.add_argument("-n", "--n-control", type=int, default=None)
    p.add_argument("-N", "--n-total", type=int, default=None)
    p.add_argument(
        "--low-confidence-threshold",
        type=float,
        default=1.0,
        help="wall-clock below this many seconds is flagged low-confidence",
    )
    p.add_argument("-o", "--output", required=True, help="where to write the model JSON")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("report", help="energy and wall-clock breakdowns")
    _add_model_arg(p)
    p.add_argument("--exclude-forecast", action="store_true", help="fractions over the non-Forecast total")
    p.add_argument("--exclude-contaminated", action="store_true", help="drop shared-queue jobs")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--scatter", default=None, help="also write power-scatter CSV here")
    p.add_argument("-o", "--output", default=None, help="write instead of printing")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("simulate", help="discrete-event schedule simulation")
    _add_model_arg(p)
    p.add_argument("--nodes", default=None, help="node count or 'unlimited' (default: model cluster)")
    p.add_argument("--events", default=None, help="write event log CSV here")
    p.add_argument("--summary", default=None, help="write summary JSON here")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("whatif", help="scenario transforms and speedup/savings bounds")
    _add_model_arg(p)
    p.add_argument("--scenario", default=None, help="scenario JSON file")
    p.add_argument("--n-prime", type=int, default=None, help="scenario control member count")
    p.add_argument("--N-prime", dest="N_prime", type=int, default=None, help="scenario total member count")
    p.add_argument("--speedup", action="append", metavar="CATEGORY=DIVISOR", help="wall-clock divisor")
    p.add_argument("--energy-factor", action="append", metavar="CATEGORY=FACTOR", help="energy multiplier")
    p.add_argument("--zero-category", default=None, metavar="CATEGORY", help="report the limiting speedup")
    p.add_argument("--path", choices=["control", "perturbed", "both"], default=None)
    p.set_defaults(func=cmd_whatif)

    p = sub.add_parser("schedule", help="generate a synthetic schedule (.kjs) from .kjp profiles")
    p.add_argument("--profiles", nargs="+", required=True, help=".kjp files or directories")
    p.add_argument("--edges", default=str(datafiles.edges_path()), help="dependency edge JSON")
    p.add_argument("--model", default=None, help="suite model supplying member roles (optional)")
    p.add_argument("-n", "--n-control", type=int, default=None, help="control members (default 1)")
    p.add_argument("-N", "--n-total", type=int, default=None, help="total members (default 1)")
    p.add_argument("--io-scale", type=float, default=1.0)
    p.add_argument("--compute-scale", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True, help="where to write the .kjs document")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("execute", help="run a .kjs schedule as local synthetic stub jobs")
    p.add_argument("--schedule", required=True, help=".kjs schedule document")
    p.add_argument("--parallelism", type=int, default=2, help="max concurrent stub jobs")
    p.add_argument(
        "--workdir",
        default=None,
        help="scratch directory (default: $EPSIM_SCRATCH or a fresh temp dir)",
    )
    p.add_argument("--keep-scratch", action="store_true", help="keep scratch files on success")
    p.add_argument("--desk-scale", type=float, default=100.0, help="divide compute durations by this")
    p.add_argument("--compute-ceiling", type=float, default=30.0, help="cap on each compute phase, in seconds")
    p.add_argument("--inline", action="store_true", help="run phases in-process instead of spawning")
    p.add_argument("--log", default=None, help="write the run log JSON here")
    p.set_defaults(func=cmd_execute)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # `execute` has already killed and reaped its jobs
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
