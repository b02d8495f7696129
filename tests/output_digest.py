"""Print one sha256 per output of the benchmark's workloads and of the demos,
for byte checks.

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
or exits 0 when every one matches.
"""
import argparse
import contextlib
import hashlib
import io
import os
import subprocess
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
    """(workload, seed, command name, sha256 of its output), in run order, then
("demo", "stdout", demo name, sha256 of its stdout) for each demo."""
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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for demo in sorted((ROOT / "demos").glob("*.py")):
            proc = subprocess.run([sys.executable, str(demo)], cwd=tmp, env=env,
                                  capture_output=True, timeout=600)
            if proc.returncode != 0:
                raise SystemExit(f"demo {demo.stem}: exit {proc.returncode}\n"
                                 + proc.stderr.decode(errors="replace"))
            yield "demo", "stdout", demo.stem, hashlib.sha256(proc.stdout).hexdigest()


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
