"""Print one sha256 per output of the benchmark's workloads, for byte checks.

Every command of the ``sweep-pure``, ``ghz-dephased`` and ``grid-and-draws``
workloads (``bench/workloads.build``, full size) is run through ``cli.main``
in-process, against the package in this checkout's ``src/``, and its
``--out`` file hashed. Save one checkout's listing, then check another
against it:

    python tests/output_digest.py > old.txt
    python tests/output_digest.py --against old.txt

With ``--against LISTING`` it prints each ``workload seed command`` whose
digest differs from the listing's (or that one of the two lacks) and exits 1,
or exits 0 when every one matches.
"""
import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ beside bench/workloads.py
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from spinphoton import cli  # noqa: E402
from workloads import WHY, build, render_config  # noqa: E402

SEEDS = (0, 3, 11)


def digests():
    """(workload, seed, command name, sha256 of its output), in run order."""
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
                    yield name, seed, cmd.name, hashlib.sha256(out.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 of each benchmark output")
    parser.add_argument("--against", metavar="LISTING",
                        help="a saved listing to compare with instead of printing")
    args = parser.parse_args(argv)
    if args.against is None:
        for row in digests():
            print(*row)
        return 0
    with open(args.against, encoding="utf-8") as fh:
        saved = dict(line.rsplit(" ", 1) for line in fh.read().splitlines() if line)
    ours = {" ".join(map(str, row[:3])): row[3] for row in digests()}
    differing = [key for key in {**saved, **ours} if saved.get(key) != ours.get(key)]
    for key in differing:
        print(key)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
