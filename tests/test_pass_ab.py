"""``tests/pass_ab.py``: two trees' in-process passes, timed in one process."""
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "pass_ab.py"


def _pass_ab(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, argv), "--size", "smoke"],
                          capture_output=True, text=True, timeout=120)


def test_a_tree_against_itself_reports_both_and_every_pair():
    src = ROOT / "src"
    proc = _pass_ab(src, src, "--rounds", "2")
    assert proc.returncode == 0, proc.stderr
    a, b, ratio = proc.stdout.splitlines()
    assert re.fullmatch(rf"A {src}: median \d+\.\d\d ms, min \d+\.\d\d ms", a)
    assert re.fullmatch(rf"B {src}: median \d+\.\d\d ms, min \d+\.\d\d ms", b)
    won = re.fullmatch(r"B / A: median \d+\.\d{3}, min \d+\.\d{3}; pairs won: A (\d), B (\d) "
                       r"of 2 \(ghz-dephased, smoke size, seed 11\)", ratio)
    assert won and int(won[1]) + int(won[2]) == 2


def test_trees_that_write_different_bytes_exit_1(tmp_path):
    # a tree whose protocol document ends in one more newline
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "spinphoton" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('_emit([_dump(doc), "\\n"], args.out)') == 1
    cli.write_text(text.replace('_emit([_dump(doc), "\\n"]', '_emit([_dump(doc), "\\n\\n"]'),
                   encoding="utf-8")
    proc = _pass_ab(ROOT / "src", tmp_path / "src", "--rounds", "0")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [f"protocol-ghz{n}: the two trees wrote different bytes"
                                        for n in range(3, 7)]
