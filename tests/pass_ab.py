"""Time two source trees' in-process passes of one benchmark workload, in
alternating pairs, in one process.

    python tests/pass_ab.py SRC_A SRC_B [--workload W] [--rounds N] [--size full|smoke]

Each SRC is a directory holding a ``spinphoton`` package, such as a
checkout's ``src/``. Both trees are imported into this process, one after the
other, and each keeps its own ``sys.modules`` entries; a pass puts its tree's
entries in place first. ``floatrows`` is imported up front, as ``cli``
imports it only inside the commands that use it. A pass runs every command
of the workload (``bench/workloads.build`` of this checkout, seed 11)
through that tree's ``cli.main``, as ``tests/output_digest.py`` does. One
untimed pass per tree comes first; if any output's bytes differ between the
trees, their names are printed and the exit code is 1. Then each tree runs
one more untimed pass under ``tracemalloc``, and its traced peak is printed:
this process's allocations only (a forked CSV share is not traced), after
both trees have paid every first-use cost, so that neither pays the ones the
two share. Then ``--rounds`` pairs are timed, untraced, tree A first in even
rounds and tree B first in odd ones. Printed: each tree's median and minimum
pass time; each command's median in A and in B and B's over A's, so that a
pass's change can be split between its commands; then B's pass over A's, and
how many pairs each tree won.
"""
import argparse
import contextlib
import gc
import io
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(src: str) -> dict:
    """The ``spinphoton`` modules imported from ``src``, by name, leaving
    ``sys.modules`` and ``sys.path`` as they were."""
    saved = {name: sys.modules.pop(name) for name in list(sys.modules)
             if name.partition(".")[0] == "spinphoton"}
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        import spinphoton.cli  # noqa: F401
        import spinphoton.floatrows  # noqa: F401  (cli imports it lazily)
        return {name: sys.modules.pop(name) for name in list(sys.modules)
                if name.partition(".")[0] == "spinphoton"}
    finally:
        del sys.path[0]
        sys.modules.update(saved)


def run_pass(modules: dict, commands: list, out: Path) -> dict:
    """Seconds each of ``commands``, (name, argv) pairs, takes through the
    tree's ``cli.main`` in one pass, by name; each writes its output to
    ``out / name``."""
    sys.modules.update(modules)
    main = modules["spinphoton.cli"].main
    seconds = {}
    for name, argv in commands:
        start = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--out", str(out / name)])
        seconds[name] = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"{name}: exit {code}\n{err.getvalue()}")
    return seconds


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # leave no __pycache__ beside bench/workloads.py
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WHY, build, render_config

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", metavar="SRC_A")
    parser.add_argument("src_b", metavar="SRC_B")
    parser.add_argument("--workload", default="ghz-dephased", choices=list(WHY))
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    args = parser.parse_args(argv)

    trees = {"A": load(args.src_a), "B": load(args.src_b)}
    gc.collect()
    gc.freeze()  # as cli.run does: no collection walks the imports again
    times = {tag: [] for tag in trees}  # one {command: seconds} per pass
    with tempfile.TemporaryDirectory() as tmp:
        commands = []
        for cmd in build(args.workload, 11, args.size).commands:
            cfg = Path(tmp, f"{cmd.name}.cfg")
            cfg.write_text(render_config(cmd.config), encoding="utf-8")
            commands.append((cmd.name, [cmd.kind, "--config", str(cfg), *cmd.args]))
        for tag, modules in trees.items():
            Path(tmp, tag).mkdir()
            run_pass(modules, commands, Path(tmp, tag))
        differing = [name for name, _ in commands
                     if Path(tmp, "A", name).read_bytes() != Path(tmp, "B", name).read_bytes()]
        for name in differing:
            print(f"{name}: the two trees wrote different bytes")
        if differing:
            return 1
        for tag, src in (("A", args.src_a), ("B", args.src_b)):
            tracemalloc.start()
            try:
                run_pass(trees[tag], commands, Path(tmp, tag))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(f"{tag} {src}: traced peak {peak / 2 ** 20:.2f} MiB over an untimed pass")
        for r in range(args.rounds):
            for tag in ("AB" if r % 2 == 0 else "BA"):
                times[tag].append(run_pass(trees[tag], commands, Path(tmp, tag)))
    if not args.rounds:
        return 0
    totals = {tag: [sum(p.values()) for p in passes] for tag, passes in times.items()}
    median = {tag: statistics.median(t) for tag, t in totals.items()}
    for tag, src in (("A", args.src_a), ("B", args.src_b)):
        print(f"{tag} {src}: median {median[tag] * 1e3:.2f} ms, "
              f"min {min(totals[tag]) * 1e3:.2f} ms")
    for name, _ in commands:
        a, b = (statistics.median(p[name] for p in times[tag]) for tag in "AB")
        print(f"{name}: A median {a * 1e3:.2f} ms, B median {b * 1e3:.2f} ms, "
              f"B / A {b / a:.3f}")
    pairs = list(zip(totals["A"], totals["B"]))
    print(f"B / A: median {median['B'] / median['A']:.3f}, "
          f"min {min(totals['B']) / min(totals['A']):.3f}; "
          f"pairs won: A {sum(a < b for a, b in pairs)}, B {sum(b < a for a, b in pairs)} "
          f"of {args.rounds} "
          f"({args.workload}, {args.size} size, seed 11)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
