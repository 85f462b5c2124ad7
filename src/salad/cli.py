"""Command-line front door.

Subcommands: gen | run | check | analyze | export-maps. Shared flags:
--config PATH, --set K=V (repeatable), --seed U64, --out DIR,
--threads N, --no-timestamp. --threads sets the forward threads of run
and export-maps, and gen, check and analyze refuse it (exit 3); check
spreads its oracles over the usable CPUs, running gradcheck in this
process and the rest on forked workers.

Exit codes are a stable contract: 0 success, 2 I/O error, 3 config or
validation error (a config too large for memory included), 4
verification-check failure. Every named check prints one verdict line:
one that raised, or was lost when a check worker process died, prints
[FAIL] with its cause like one that missed its tolerance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import RunConfig, load_config
from .errors import ConfigError, SaladError

EXIT_OK = 0
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_CHECK_FAILED = 4


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config document")
    parser.add_argument("--set", metavar="K=V", action="append", default=[],
                        dest="overrides", help="override a config key (dotted path)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", metavar="DIR", help="override the output directory")
    parser.add_argument("--threads", type=int,
                        help="forward threads of run and export-maps (1 = sequential)")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp field from reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salad",
        description="Hybrid sparse + gated linear attention: workloads, runs, checks, analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a seeded synthetic workload")
    p_run = sub.add_parser("run", help="run the block across layers and timesteps")
    p_check = sub.add_parser("check", help="run the oracle and gradient suite")
    p_check.add_argument("--only", metavar="NAMES",
                         help="comma-separated subset of checks to run, each named once")
    p_check.add_argument("--list", action="store_true", help="list check names and exit")
    p_analyze = sub.add_parser("analyze", help="gate percentiles and drop plans from reports")
    p_analyze.add_argument("--report", metavar="PATH", action="append", default=[],
                           dest="reports", help="saved run report (repeatable)")
    p_maps = sub.add_parser("export-maps", help="run the block as run does, writing report.json "
                            "and the attention maps of the maps.* forward")
    for p in (p_gen, p_run, p_check, p_analyze, p_maps):
        _common_flags(p)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    if args.threads is not None and args.command not in ("run", "export-maps"):
        raise ConfigError("--threads applies to run and export-maps")
    cfg = load_config(args.config, args.overrides)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if args.threads is not None:
        cfg.threads = args.threads
    if args.no_timestamp:
        cfg.timestamp = False
    return cfg.validate()


def _load_bundle_if_configured(cfg: RunConfig) -> None:
    # Validates a referenced parameter bundle so shape problems surface as
    # exit 3 with a message naming the offending field. `run` loads the
    # bundle itself; this covers commands that never reach the pipeline.
    if cfg.block.params_bundle is not None:
        from .tensor_io import read_params

        read_params(cfg.block.params_bundle, cfg.to_grid())


def _note_fallbacks() -> None:
    # One stderr line, once the work is done, for each import-time bit
    # probe that fell back to a slower path; the bits, stdout and the
    # report are the same either way.
    import numpy as np

    from . import masking, numerics

    if numerics.BLOCK_KERNEL is numerics.stacked_block:
        print(f"note: numpy {np.__version__} einsum failed the bit probe; "
              "products use the slower stack kernel", file=sys.stderr)
    elif not numerics.FUSED_COLUMN_MAJOR:
        print(f"note: numpy {np.__version__} einsum failed the column-major bit probe; "
              "products write row-major blocks", file=sys.stderr)
    # The row-sum probe runs when the first window list is built, so a run
    # that built none took no row-sum fallback.
    probe = masking._window_row_sum_holds
    if probe.cache_info().currsize and not probe():
        print(f"note: numpy {np.__version__} sum failed the row-sum probe; "
              "window lists scatter their row sums", file=sys.stderr)


def cmd_gen(cfg: RunConfig) -> int:
    from .workload import generate_workload, write_workload

    written = write_workload(generate_workload(cfg), cfg, cfg.out)
    for path in written:
        print(path)
    return EXIT_OK


def cmd_run(cfg: RunConfig) -> int:
    from .runner import REPORT_NAME, run_pipeline

    report = run_pipeline(cfg, out_dir=cfg.out)
    _note_fallbacks()
    print(Path(cfg.out) / REPORT_NAME)
    print(f"aggregate sparsity {report.sparsity['aggregate']:.4f}, "
          f"estimated speedup {report.speedup_estimate:.3f}x")
    return EXIT_OK


def cmd_check(cfg: RunConfig, only: str | None, list_only: bool) -> int:
    from .checks import ALL_CHECKS, run_checks

    if list_only:
        if only is not None:
            raise ConfigError("--list lists every check; it takes no --only")
        for name in ALL_CHECKS:
            print(name)
        return EXIT_OK
    _load_bundle_if_configured(cfg)
    names = None if only is None else [n.strip() for n in only.split(",") if n.strip()]
    results = run_checks(names)
    for res in results:
        print(res.line())
    _note_fallbacks()
    failed = [res for res in results if not res.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def cmd_analyze(cfg: RunConfig, reports: list[str]) -> int:
    from .runner import analyze_reports

    summary = analyze_reports(cfg, reports, cfg.out)
    for plan in summary["drop_plans"]:
        print(f"strategy {plan['strategy']}: drop layers {plan['dropped_layers']} "
              f"-> estimated speedup {plan['speedup_estimate']:.3f}x"
              + (" (preferred)" if plan["preferred"] else ""))
    print(Path(cfg.out) / "analysis.json")
    return EXIT_OK


def cmd_export_maps(cfg: RunConfig) -> int:
    from .runner import run_pipeline

    cfg.maps.export = True
    cfg.validate()
    run_pipeline(cfg, out_dir=cfg.out)
    _note_fallbacks()
    maps_dir = Path(cfg.out) / "maps"
    for path in sorted(maps_dir.iterdir()):
        print(path)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "check":
            return cmd_check(cfg, args.only, args.list)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.reports)
        if args.command == "export-maps":
            return cmd_export_maps(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except SaladError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: the config needs more memory than this host has: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
