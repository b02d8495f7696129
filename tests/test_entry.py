"""The process entry, ``cli.run``: ``python -m spinphoton.cli`` and the
``spinphoton`` script both go through it. A command run as a fresh process
writes the bytes and exits with the code that ``cli.main(argv)`` does in this
process, and only the entry freezes the collector's heap. The processes are
started together, so that the file costs about one interpreter start per CPU.
"""
import ast
import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spinphoton import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIG = "protocol = scheme-b\ngate.mode = realistic\n"
COMMANDS = {
    "reflectance": ["reflectance", "--grid=-1:1:5"],
    "protocol": ["protocol"],
    "sweep": ["sweep", "--sweep", "g_rel", "--grid=2:20:3"],
    "sample": ["sample", "--trials", "10"],
}
# the function the ``spinphoton`` script calls, as pyproject.toml names it
SCRIPT = re.search(r'^spinphoton = "spinphoton\.cli:(\w+)"$',
                   (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M).group(1)
# prints the freeze count at exit, after the command has run as the entry runs it
PROBE = ("import atexit, gc, sys\n"
         "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n")
ENTRIES = {
    "python -m": PROBE + "import runpy\n"
                         "runpy.run_module('spinphoton.cli', run_name='__main__', alter_sys=True)\n",
    "script": PROBE + f"from spinphoton.cli import {SCRIPT}\nsys.exit({SCRIPT}())\n",
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """name -> (exit code, stdout bytes, stderr text) of each process, and the
    directory they ran in."""
    tmp = tmp_path_factory.mktemp("entry")
    (tmp / "c.cfg").write_text(CONFIG, encoding="utf-8")
    (tmp / "bad.cfg").write_text("cavity.kappa = -2\n", encoding="utf-8")
    module = [sys.executable, "-m", "spinphoton.cli"]
    argvs = {name: [*module, *argv, "--config", "c.cfg", "--out", f"{name}.out"]
             for name, argv in COMMANDS.items()}
    argvs["protocol to stdout"] = [*module, "protocol", "--config", "c.cfg"]
    argvs["bad config"] = [*module, "protocol", "--config", "bad.cfg", "--out", "bad.out"]
    argvs["unwritable out"] = [*module, "protocol", "--out", "missing/o.json"]
    argvs.update({name: [sys.executable, "-c", code, "sample", "--trials", "3"]
                  for name, code in ENTRIES.items()})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    procs = {name: subprocess.Popen(argv, cwd=tmp, env=env, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
             for name, argv in argvs.items()}
    done = {}
    try:
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=120)
            done[name] = (proc.returncode, out, err.decode())
    finally:  # a timeout leaves no process behind
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return done, tmp


@pytest.mark.parametrize("name", COMMANDS)
def test_a_command_as_a_process_writes_the_in_process_bytes(runs, tmp_path, name):
    done, tmp = runs
    assert done[name] == (0, b"", "")
    out = tmp_path / "o"
    assert cli.main([*COMMANDS[name], "--config", str(tmp / "c.cfg"), "--out", str(out)]) == 0
    assert (tmp / f"{name}.out").read_bytes() == out.read_bytes()


def test_protocol_to_stdout_equals_protocol_out(runs):
    done, tmp = runs
    assert done["protocol to stdout"] == (0, (tmp / "protocol.out").read_bytes(), "")


def test_a_bad_config_exits_2_naming_its_key(runs):
    done, tmp = runs
    code, _, err = done["bad config"]
    assert code == 2 and err.startswith("error: ") and "cavity.kappa" in err
    assert not (tmp / "bad.out").exists()


def test_an_unwritable_out_exits_1_with_the_os_message(runs):
    code, _, err = runs[0]["unwritable out"]
    assert code == 1 and err.startswith("error: ") and "No such file or directory" in err


@pytest.mark.parametrize("entry", ENTRIES)
def test_the_entry_freezes_the_heap(runs, entry):
    code, out, err = runs[0][entry]
    assert code == 0 and out.startswith(b"trial_index,branch_label\n")
    assert int(err.removeprefix("frozen ")) > 0


def test_main_in_process_does_not_freeze(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    before = gc.get_freeze_count()
    for argv in COMMANDS.values():
        assert cli.main([*argv, "--config", str(cfg)]) == 0
    assert gc.get_freeze_count() == before


def test_the_script_calls_what_the_main_block_calls():
    tree = ast.parse((ROOT / "src" / "spinphoton" / "cli.py").read_text(encoding="utf-8"))
    block = next(n for n in tree.body if isinstance(n, ast.If)
                 and ast.unparse(n.test) == "__name__ == '__main__'")
    assert [ast.unparse(n) for n in block.body] == [f"{SCRIPT}()"]
