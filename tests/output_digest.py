"""Print one sha256 per output of the benchmark's workloads and of the demos,
for byte checks, or size how far the numbers of each output moved.

Every command of the ``sweep-pure``, ``ghz-dephased`` and ``grid-and-draws``
workloads (``bench/workloads.build``, full size) is run through ``cli.main``
in-process, against the package in this checkout's ``src/``, and its
``--out`` file hashed. Then each script in ``demos/`` runs as its own process,
as ``tests/test_demos.py`` runs it (a temporary working directory, ``src/`` on
``PYTHONPATH``), and its stdout is hashed under the key ``demo stdout NAME``.
Save one checkout's listing, then check another against it:

    python tests/output_digest.py > old.txt
    python tests/output_digest.py --against old.txt

With ``--against LISTING`` it prints each ``workload seed command`` whose
digest differs from the listing's (or that one of the two lacks) and exits 1,
or exits 0 when every one matches. To see how much a differing output moved,
keep one checkout's outputs and compare another's with them:

    python tests/output_digest.py --save old_outputs > old.txt
    python tests/output_digest.py --moved old_outputs

``--save DIR`` writes each output to ``DIR/workload/seed/command``.
``--moved DIR`` compares each output with its saved copy number by number
(JSON numbers, CSV cells) and prints, for each that differs, how many of its
numbers moved, the largest absolute change and where (``moved``); it exits
as ``--against`` does.
"""
import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEEDS = (0, 3, 11)


def outputs():
    """(workload, seed, command name, output bytes), in run order, then
("demo", "stdout", demo name, its stdout) for each demo."""
    sys.dont_write_bytecode = True  # leave no __pycache__ beside bench/workloads.py
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from spinphoton import cli
    from workloads import WHY, build, render_config

    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        for name in WHY:
            for seed in SEEDS:
                for cmd in build(name, seed).commands:
                    cfg.write_text(render_config(cmd.config), encoding="utf-8")
                    argv = [cmd.kind, "--config", str(cfg), "--out", str(out), *cmd.args]
                    with contextlib.redirect_stderr(io.StringIO()) as err:
                        code = cli.main(argv)
                    if code != 0:
                        raise SystemExit(f"{name} seed {seed} {cmd.name}: exit {code}\n"
                                         + err.getvalue())
                    yield name, str(seed), cmd.name, out.read_bytes()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for demo in sorted((ROOT / "demos").glob("*.py")):
            proc = subprocess.run([sys.executable, str(demo)], cwd=tmp, env=env,
                                  capture_output=True, timeout=600)
            if proc.returncode != 0:
                raise SystemExit(f"demo {demo.stem}: exit {proc.returncode}\n"
                                 + proc.stderr.decode(errors="replace"))
            yield "demo", "stdout", demo.stem, proc.stdout


def _walk(node, place: str):
    """A JSON value's scalars as (place, value): the keys and indices down to
    it, with the indices of a list kept only if it holds an object."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _walk(value, f"{place}.{key}" if place else key)
    elif isinstance(node, list):
        records = any(isinstance(value, dict) for value in node)
        for i, value in enumerate(node):
            yield from _walk(value, f"{place}[{i if records else ''}]")
    else:
        yield place, node


def _number(cell: str):
    """A CSV cell as a float where it reads as one, else as it is."""
    try:
        return float(cell)
    except ValueError:
        return cell


def _leaves(data: bytes) -> list:
    """An output's values as (place, value), a number as a float: a JSON
    document's scalars (see ``_walk``), else each CSV cell under its column's
    header (a row past the header's width under its column's index)."""
    text = data.decode("utf-8")
    try:
        return [(place, float(v) if type(v) in (int, float) else v)
                for place, v in _walk(json.loads(text), "")]
    except ValueError:
        rows = list(csv.reader(io.StringIO(text)))
    header = rows[0] if rows else []
    return [(header[j] if j < len(header) else str(j), _number(cell) if i else cell)
            for i, row in enumerate(rows) for j, cell in enumerate(row)]


def moved(old: bytes, new: bytes):
    """How far the numbers of output ``new`` moved from those of ``old``: (numbers
    that differ, numbers, the largest absolute change, the sorted places where
    one differs); None if the two differ in anything but their numbers. NaN
    equals NaN, and a change to or from NaN or an infinity is infinite."""
    a, b = _leaves(old), _leaves(new)
    if len(a) != len(b) or any(pa != pb or (x != y and not (isinstance(x, float)
                                                          and isinstance(y, float)))
                               for (pa, x), (pb, y) in zip(a, b)):
        return None
    numbers = [(place, x, y) for (place, x), (_, y) in zip(a, b) if isinstance(x, float)]
    changed = [(place, abs(x - y) if math.isfinite(x - y) else math.inf)
               for place, x, y in numbers if x != y and not (x != x and y != y)]
    return (len(changed), len(numbers), max((d for _, d in changed), default=0.0),
            sorted({place for place, _ in changed}))


def _saved(root: Path) -> dict:
    """The outputs kept by ``--save`` under ``root``, by key."""
    return {" ".join(path.relative_to(root).parts): path.read_bytes()
            for path in root.glob("*/*/*") if path.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 of each benchmark output")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--against", metavar="LISTING",
                      help="a saved listing to compare with instead of printing")
    mode.add_argument("--moved", metavar="DIR",
                      help="outputs kept by --save to size the moved numbers against")
    parser.add_argument("--save", metavar="DIR", help="also keep every output under DIR")
    args = parser.parse_args(argv)
    ours = {}
    for *key, data in outputs():
        ours[" ".join(key)] = data
        if args.save is not None:
            path = Path(args.save).joinpath(*key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
    if args.moved is not None:
        saved = _saved(Path(args.moved))
        differing = [key for key in {**ours, **saved} if saved.get(key) != ours.get(key)]
        for key in differing:
            if key not in saved or key not in ours:
                print(f"{key}: only in the {'saved' if key in saved else 'current'} outputs")
                continue
            size = moved(saved[key], ours[key])
            print(f"{key}: differs beyond its numbers" if size is None else
                  f"{key}: {size[0]} of {size[1]} numbers moved, by at most {size[2]:.3g}, "
                  f"at {', '.join(size[3])}")
        return 1 if differing else 0
    digests = {key: hashlib.sha256(data).hexdigest() for key, data in ours.items()}
    if args.against is None:
        for key, digest in digests.items():
            print(key, digest)
        return 0
    with open(args.against, encoding="utf-8") as fh:
        saved = dict(line.rsplit(" ", 1) for line in fh.read().splitlines() if line)
    differing = [key for key in {**saved, **digests} if saved.get(key) != digests.get(key)]
    for key in differing:
        print(key)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
