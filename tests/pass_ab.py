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
trees, their names are printed and the exit code is 1. Then ``--rounds``
pairs are timed, tree A first in even rounds and tree B first in odd ones.
Printed: each tree's median and minimum pass time, B's over A's, and how
many pairs each tree won.
"""
import argparse
import contextlib
import gc
import io
import statistics
import sys
import tempfile
import time
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


def run_pass(modules: dict, commands: list, out: Path) -> float:
    """Seconds one pass of ``commands``, (name, argv) pairs, takes through the
    tree's ``cli.main``; each writes its output to ``out / name``."""
    sys.modules.update(modules)
    main = modules["spinphoton.cli"].main
    start = time.perf_counter()
    for name, argv in commands:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--out", str(out / name)])
        if code != 0:
            raise SystemExit(f"{name}: exit {code}\n{err.getvalue()}")
    return time.perf_counter() - start


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
    times = {tag: [] for tag in trees}
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
        for r in range(args.rounds):
            for tag in ("AB" if r % 2 == 0 else "BA"):
                times[tag].append(run_pass(trees[tag], commands, Path(tmp, tag)))
    if not args.rounds:
        return 0
    median = {tag: statistics.median(t) for tag, t in times.items()}
    for tag, src in (("A", args.src_a), ("B", args.src_b)):
        print(f"{tag} {src}: median {median[tag] * 1e3:.2f} ms, "
              f"min {min(times[tag]) * 1e3:.2f} ms")
    pairs = list(zip(times["A"], times["B"]))
    print(f"B / A: median {median['B'] / median['A']:.3f}, "
          f"min {min(times['B']) / min(times['A']):.3f}; "
          f"pairs won: A {sum(a < b for a, b in pairs)}, B {sum(b < a for a, b in pairs)} "
          f"of {args.rounds} "
          f"({args.workload}, {args.size} size, seed 11)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
