"""Command-line entry point.

Subcommands: gen, run, verify, enum, search-unfair, render.  Every command
is deterministic given its flags; randomness always flows from an explicit
--seed.  Exit codes: 0 success, 1 a checked property failed or a searched
object was not found, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator

from .lattice import Cell
from .config import ConfigError, Configuration, all_in_configuration, load, save
from .oracle import StateSpaceTooLarge
from .support import Support, SupportError, check_angle_census, boundary_witness, parse_shape_text
from . import generators, oracle
from .rules import rule_report
from .render import render_svg
from .scheduler import (
    Outcome,
    RandomSequential,
    RoundRobin,
    Scripted,
    run as drive,
    shape_hash,
    violating_cells,
)


class UsageError(Exception):
    pass


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value


def _named_shape(name: str) -> Support:
    try:
        return generators.shape_by_name(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_support(args: argparse.Namespace) -> Support:
    if args.shape:
        return _named_shape(args.shape)
    if args.random is not None:
        return generators.random_support(args.random, args.seed)
    try:
        return Support(_read_cells(args.file, "shape"))
    except OSError as exc:
        raise UsageError(f"cannot read shape file: {exc}") from None


def _read_cells(path: str, kind: str) -> list[Cell]:
    """The cells a file in the shape format lists; a parse error names
    the file as a ``kind`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_shape_text(text)
    except SupportError as exc:
        raise UsageError(f"{kind} file {path}: {exc}") from None


def _require_simply_connected(s: Support) -> None:
    if not s.is_simply_connected():
        sample = min(s.hole_cells())
        raise UsageError(
            f"support is not simply connected: enclosed empty cell at ({sample.q} {sample.r})"
        )


def cmd_gen(args: argparse.Namespace) -> int:
    support = _load_support(args)
    _require_simply_connected(support)
    if args.init == "erosion":
        cfg = generators.erosion_orientation(support)
    elif args.init == "all-in":
        cfg = all_in_configuration(support)
    else:
        portmaps = generators.random_portmaps(support, args.seed)
        cfg = generators.random_registers(
            support, args.seed + 1, args.conflict_prob, portmaps
        )
    save(cfg, args.out)
    print(f"wrote {args.out} ({len(support)} cells)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load(args.config)
    _require_simply_connected(cfg.support)
    if args.scheduler == "random":
        kind = RandomSequential(args.seed)
    elif args.scheduler == "roundrobin":
        kind = RoundRobin()
    elif args.scheduler.startswith("script:"):
        kind = Scripted(tuple(_read_cells(args.scheduler[len("script:"):], "script")))
    else:
        raise UsageError(f"unknown scheduler {args.scheduler!r}")
    trace_fh = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        result = drive(cfg, kind, max_steps=args.max_steps, trace_file=trace_fh)
    finally:
        if trace_fh:
            trace_fh.close()
    if result.outcome is Outcome.FINAL:
        final = result.config
        # A sink is Out toward no occupied cell, and a mask never names an empty one.
        sinks = final.masks.count(0)
        print(f"FINAL steps={result.steps} sinks={sinks}")
        if violating_cells(final) or sinks != 1:
            print("final configuration is not a valid single-sink state:")
            print(rule_report(final).to_text())
            return 1
        return 0
    print(f"CAP steps={result.steps}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = load(args.config)
    violating = [cfg.support.order[i] for i in violating_cells(cfg)]
    sinks = cfg.masks.count(0)
    print(f"valid={'no' if violating else 'yes'} sinks={sinks}")
    if args.per_particle:
        for line in rule_report(cfg).to_records():
            print(line)
    if violating:
        bad = ", ".join(f"({c.q} {c.r})" for c in violating)
        print(f"violations at: {bad}")
        return 1
    if sinks != 1:
        print("valid configuration without a unique sink; this should be impossible")
        return 1
    return 0


def _enum_one(payload: tuple[str, Support]) -> tuple[bool, str]:
    check, support = payload
    if check == "unique-sink":
        rep = oracle.check_unique_sink(support)
        return rep.ok, rep.counterexamples[0] if not rep.ok else ""
    if check == "silence":
        rep = oracle.check_silence(support)
        return rep.ok, rep.mismatches[0] if not rep.ok else ""
    if check == "reach":
        rep = oracle.check_reachability(support)
        return rep.ok, rep.unreachable[0] if not rep.ok else ""
    if check == "angle-census":
        if len(support) < 3 or not support.is_two_connected():
            return True, ""
        return check_angle_census(support), f"census identity fails on {sorted(support.cells)}"
    if check == "boundary-witness":
        if len(support) < 2:
            return True, ""
        try:
            boundary_witness(support)
            return True, ""
        except Exception as exc:  # raise -> counterexample
            return False, f"{sorted(support.cells)}: {exc}"
    raise UsageError(f"unknown check {check!r}")


def _with_progress(
    results: Iterable[tuple[bool, str]], total: int, label: str
) -> Iterator[tuple[bool, str]]:
    """Pass ``results`` through, writing ``<label> done=i/total seconds=…``
    to stderr after about every tenth of them and after the last."""
    start = time.perf_counter()
    every = max(1, total // 10)
    for i, result in enumerate(results, start=1):
        yield result
        if i % every == 0 or i == total:
            seconds = time.perf_counter() - start
            print(f"{label} done={i}/{total} seconds={seconds:.2f}", file=sys.stderr)


def cmd_enum(args: argparse.Namespace) -> int:
    supports = generators.enumerate_supports(args.n)
    payloads = [(args.check, s) for s in supports]
    label = f"enum check={args.check}"
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            # ``map`` yields in input order as results arrive.
            outcomes = pool.map(_enum_one, payloads, chunksize=16)
            results = list(_with_progress(outcomes, len(payloads), label))
    else:
        results = list(_with_progress(map(_enum_one, payloads), len(payloads), label))
    failures = [(p, detail) for (ok, detail), p in zip(results, payloads) if not ok]
    print(f"check={args.check} n={args.n} supports={len(supports)}")
    if failures:
        path = f"counterexample-{args.check}-n{args.n}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(failures[0][1] + "\n")
        print(f"{len(failures)} counterexamples; first dumped to {path}")
        return 1
    print("0 counterexamples")
    return 0


def cmd_search_unfair(args: argparse.Namespace) -> int:
    if args.shape:
        groups = [(None, [_named_shape(args.shape)])]
    else:
        # Smallest supports first, fewest edges first within a size.
        groups = (
            (n, sorted(generators.enumerate_supports(n), key=lambda s: len(s.edges())))
            for n in range(2, args.max_n + 1)
        )
    for n, candidates in groups:
        start = time.perf_counter()
        for support in candidates:
            # A scan skips what is over budget; a named shape reports it.
            if n is not None and 3 ** len(support.edges()) > args.max_states:
                continue
            found = oracle.find_unfair_cycle(support, max_states=args.max_states)
            if found is None:
                continue
            print(
                f"cycle found: {len(support)} cells, {len(support.edges())} edges, "
                f"period {found.period}"
            )
            if args.out_config:
                save(found.initial_config(), args.out_config)
                print(f"initial configuration written to {args.out_config}")
            if args.out_script:
                with open(args.out_script, "w", encoding="utf-8") as fh:
                    for c in found.script:
                        fh.write(f"{c.q} {c.r}\n")
                print(f"activation script written to {args.out_script}")
            return 0
        if n is not None:
            seconds = time.perf_counter() - start
            print(f"n={n} supports={len(candidates)} seconds={seconds:.2f}", file=sys.stderr)
    print("no cycle found within budget")
    return 1


def _trace_cells(path: str, cfg: Configuration) -> list[Cell]:
    """The activated cells of a trace log, in order.

    A ``# trace shape=<hash>`` header must name the shape of ``cfg``.
    """
    expected = f"shape={shape_hash(cfg)}"
    cells = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            header = raw.split()
            if header[:2] == ["#", "trace"] and expected not in header:
                raise UsageError(
                    f"trace line {lineno}: header {raw.strip()!r} does not name "
                    f"this configuration's {expected}"
                )
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            try:
                cell = Cell(int(parts[1]), int(parts[2]))
            except (IndexError, ValueError):
                raise UsageError(
                    f"trace line {lineno}: expected 'step q r ...', got {raw.strip()!r}"
                ) from None
            if cell not in cfg.support.cells:
                raise UsageError(
                    f"trace line {lineno}: cell ({cell.q} {cell.r}) is not in the configuration"
                )
            cells.append(cell)
    return cells


def cmd_render(args: argparse.Namespace) -> int:
    cfg = load(args.config)
    if args.trace:
        # Replaying the first ``frame`` events through the engine; a cell
        # that is not activable at its turn is a no-op event, as in the run.
        cells = tuple(_trace_cells(args.trace, cfg)[: args.frame])
        if cells:
            cfg = drive(cfg, Scripted(cells), max_steps=len(cells)).config
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(render_svg(cfg))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trielect",
        description="Triangular-grid leader election: generate, run, verify, sweep, render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a configuration file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--shape", help="named shape (triangle3, lineN, hexagonK, parallelogramWxH)")
    src.add_argument("--random", type=_int_at_least(1), metavar="N", help="random support of N cells")
    src.add_argument("--file", help="shape file (one 'q r' per line)")
    p.add_argument("--init", choices=("erosion", "all-in", "random"), default="erosion")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--conflict-prob", type=_probability, default=0.25)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("run", help="drive a configuration with a scheduler")
    p.add_argument("--config", required=True)
    p.add_argument("--scheduler", default="random", help="random | roundrobin | script:PATH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_int_at_least(0), default=1_000_000)
    p.add_argument("--trace", help="write a trace log to this path")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify", help="check the four rules and count sinks")
    p.add_argument("--config", required=True)
    p.add_argument("--per-particle", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("enum", help="sweep all simply connected supports of size N")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument(
        "--check",
        required=True,
        choices=("unique-sink", "silence", "reach", "angle-census", "boundary-witness"),
    )
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(fn=cmd_enum)

    p = sub.add_parser("search-unfair", help="look for a periodic execution")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--shape", help="search one named shape")
    src.add_argument("--max-n", type=_int_at_least(1), help="scan all supports up to N cells")
    p.add_argument("--max-states", type=_int_at_least(1), default=2_000_000)
    p.add_argument("--out-config", help="write the cycle's initial configuration here")
    p.add_argument("--out-script", help="write the cyclic activation script here")
    p.set_defaults(fn=cmd_search_unfair)

    p = sub.add_parser("render", help="render a configuration (or trace frame) as SVG")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--frame", type=_int_at_least(0), default=0)
    p.set_defaults(fn=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ConfigError, SupportError, StateSpaceTooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input file is not valid UTF-8: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
