#!/usr/bin/env python3
"""Benchmark of the spinphoton CLI.

    python3 bench/run.py --workload sweep-pure --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one report
    python3 bench/run.py --smoke                      # tiny sizes, every check

Run from anywhere; the program is loaded from ``src/`` beside this directory.
One closed-loop client runs the workload's commands one after another, both
as fresh ``python -m spinphoton.cli`` subprocesses and in-process through
``spinphoton.cli.main``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones. The last line of standard output is one
JSON object; the exit code is 1 if any output check failed and 2 if the
program is missing. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"  # inputs and outputs of one run; removed after it
OUT_ROOT = ROOT / ".bench_out"    # results, provenance and spans of every run

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MiB"))
MIN_SETUP_PROBES = 5
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 120
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _load_program():
    """Import spinphoton from this checkout's src/, never from elsewhere."""
    if not (SRC / "spinphoton" / "cli.py").is_file():
        print(f"error: no spinphoton sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import spinphoton
    from spinphoton import cavity, cli, gates, metrics, protocols, qstate
    if Path(spinphoton.__file__).resolve().parent != SRC / "spinphoton":
        print(f"error: imported spinphoton from {spinphoton.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return {"package": spinphoton, "cli": cli, "metrics": metrics,
            "protocols": protocols, "gates": gates, "qstate": qstate, "cavity": cavity}


def calibration_probe() -> float:
    """Seconds for a fixed mix of interpreter work, small numpy calls and float
    formatting, like the program's own mix but independent of it. On a shared
    VM the host changes the vCPU's speed by up to 2x within minutes; the
    median of this probe, taken after every timed block and kept in the run
    record, shows how fast the machine was while the run measured."""
    t0 = time.perf_counter()
    v = np.arange(16, dtype=np.complex128)
    m = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    acc = 0.0
    rows = []
    for i in range(600):
        a = np.tensordot(m, v.reshape((2,) * 4), axes=([1], [i % 4]))
        v = np.moveaxis(a, 0, i % 4).reshape(-1)
        acc += float(np.vdot(v, v).real)
        rows.append(",".join(f"{x:.17g}" for x in (acc, i * 0.1, -i / 7.0)))
    return time.perf_counter() - t0


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    """One workload's commands, run and checked in a scratch directory."""

    def __init__(self, workload, workdir: Path, modules: dict):
        self.workload = workload
        self.workdir = workdir
        self.modules = modules
        self.env = dict(os.environ)  # SPINPHOTON_THREADS already removed
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.reference_hash: dict[str, str] = {}
        # mode ("setup", "subprocess", "in-process", "traced") -> command -> seconds
        self.times: dict[str, dict[str, list[float]]] = {}
        self.probes: list[float] = []  # calibration probe seconds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        for cmd in workload.commands:
            self._config_path(cmd).write_text(workloads.render_config(cmd.config))

    def _config_path(self, cmd) -> Path:
        return self.workdir / f"{cmd.name}.cfg"

    def _argv(self, cmd) -> list[str]:
        return [cmd.kind, "--config", str(self._config_path(cmd)),
                "--out", str(self.workdir / f"{cmd.name}.out"), *cmd.args]

    def _clear_outputs(self) -> None:
        for cmd in self.workload.commands:
            (self.workdir / f"{cmd.name}.out").unlink(missing_ok=True)

    def reference(self, config: dict):
        """run_protocol in this process, at the config the CLI would read."""
        path = self.workdir / "reference.cfg"
        path.write_text(workloads.render_config(config))
        run = self.modules["cli"].load_config(str(path))
        return self.modules["protocols"].run_protocol(run.protocol, run.config,
                                                      n_photons=run.n_photons)

    def _verify(self, cmd, rc: int, how: str) -> None:
        """Count one operation; it fails on a non-zero exit, a failed check,
        or output that differs from the first run of the same command."""
        path = self.workdir / f"{cmd.name}.out"
        if rc != 0:
            problems = [f"exit code {rc}"]
            if how == "subprocess":
                errors = (self.workdir / "child.err").read_text(errors="replace")
                problems += errors.strip().splitlines()[-1:]
        elif not path.is_file():
            problems = ["no output file written"]
        else:
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if cmd.name not in self.reference_hash:
                self.reference_hash[cmd.name] = digest
                problems = checks.check(data.decode(), cmd, self.reference)
            elif digest != self.reference_hash[cmd.name]:
                problems = ["output differs from the first run at the same seed"]
            else:
                problems = []
        self._count(f"{cmd.name} ({how})", problems)

    def _record(self, mode: str, runs: list[tuple[str, float]]) -> None:
        """Keep one round or pass, and probe the machine's speed after it."""
        for name, seconds in runs:
            self.times.setdefault(mode, {}).setdefault(name, []).append(seconds)
        self.probes.append(calibration_probe())

    def clear_times(self) -> None:
        self.times.clear()
        self.probes.clear()

    def median_total(self, mode: str) -> float:
        """Sum over the commands of each one's median run time in this mode."""
        return sum(statistics.median(runs) for runs in self.times[mode].values())



    def _count(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"{what}: {p}" for p in problems]

    def _spawn(self, argv: list[str]) -> tuple[float, int, int]:
        """Run one child to completion: (wall seconds, exit code, peak RSS in KiB)."""
        with open(self.workdir / "child.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss

    def setup_probe(self) -> None:
        wall, rc, _ = self._spawn([sys.executable, "-c", "import spinphoton.cli"])
        self._record("setup", [("import spinphoton.cli", wall)])
        self._count("import spinphoton.cli", [f"exit code {rc}"] if rc else [])

    def subprocess_round(self) -> tuple[float, int]:
        """Each command as a fresh interpreter: (summed wall seconds, peak RSS KiB)."""
        self._clear_outputs()
        runs, peak = [], 0
        for cmd in self.workload.commands:
            wall, rc, rss = self._spawn(
                [sys.executable, "-m", "spinphoton.cli", *self._argv(cmd)])
            runs.append((cmd.name, wall))
            peak = max(peak, rss)
            self._verify(cmd, rc, "subprocess")
        self._record("subprocess", runs)
        return sum(wall for _, wall in runs), peak

    def inprocess_pass(self, tracer=None) -> float:
        """Each command through cli.main in this process: summed work seconds."""
        self._clear_outputs()
        gc.collect()
        cli = self.modules["cli"]
        mode = "in-process" if tracer is None else "traced"
        runs = []
        if tracer is not None:
            tracer.install()
        try:
            for cmd in self.workload.commands:
                argv = self._argv(cmd)
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    rc = exc.code
                runs.append((cmd, rc, time.perf_counter() - t0))
        finally:
            if tracer is not None:
                tracer.uninstall()
        self._record(mode, [(cmd.name, seconds) for cmd, _, seconds in runs])
        for cmd, rc, _ in runs:
            self._verify(cmd, rc, mode)
        return sum(seconds for _, _, seconds in runs)


def _loop(seconds: float, min_iterations: int):
    """Iteration indices while the next iteration should end within the budget
    (its length is taken to be the previous one's), and at least the minimum."""
    start = last = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if i >= min_iterations and now + (now - last) > start + seconds:
            return
        last = now
        yield i
        i += 1


def measure_end_to_end(bench: Bench, seconds: float, min_iterations: int) -> dict:
    bench.inprocess_pass()  # warm-up; its outputs get the full checks
    bench.clear_times()
    peak_kib = 0
    for _ in _loop(seconds, min_iterations):
        bench.setup_probe()
        round_s, rss = bench.subprocess_round()
        peak_kib = max(peak_kib, rss)
        spent = 0.0
        while spent < round_s:  # as long in-process as in subprocesses
            spent += bench.inprocess_pass()
    while len(bench.times["setup"]["import spinphoton.cli"]) < MIN_SETUP_PROBES:
        bench.setup_probe()
    units = sum(cmd.units for cmd in bench.workload.commands)
    return {
        "wall_s": bench.median_total("subprocess"),
        "setup_s": bench.median_total("setup"),
        "items_per_s": units / bench.median_total("in-process"),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def measure_layers(bench: Bench, seconds: float, min_iterations: int,
                   spans_path: Path) -> dict:
    tracer = tracing.Tracer(bench.modules)
    bench.inprocess_pass()  # warm-up; its outputs get the full checks
    bench.clear_times()
    passes, spans = [], []
    for i in _loop(seconds, min_iterations):
        bench.inprocess_pass()
        tracer.reset(keep_spans=i == 0)
        bench.inprocess_pass(tracer)
        passes.append(tracer.snapshot())
        spans = spans or tracer.spans
    _write_spans(spans, spans_path)
    metrics = tracing.combine(passes)
    metrics["trace.untraced_work_s"] = bench.median_total("in-process")
    metrics["trace.traced_work_s"] = bench.median_total("traced")
    metrics["trace.overhead_s"] = (metrics["trace.traced_work_s"]
                                   - metrics["trace.untraced_work_s"])
    return metrics


def _write_spans(spans, path: Path) -> None:
    origin = spans[0][2] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("id,name,start_s,end_s,parent\n")
        for sid, name, t0, t1, parent in spans:
            fh.write(f"{sid},{name},{t0 - origin:.9f},{t1 - origin:.9f},{parent}\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 min_iterations: int, modules: dict, provenance: dict) -> dict:
    workload = workloads.build(name, seed, size)
    tag = f"{name}-seed{seed}-trace{int(trace)}" + ("-smoke" if size != "full" else "")
    WORK_ROOT.mkdir(exist_ok=True)
    OUT_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        bench = Bench(workload, workdir, modules)
        if trace:
            metrics = measure_layers(bench, seconds, min_iterations,
                                     OUT_ROOT / f"spans-{tag}.csv")
            units = dict(tracing.metric_names())
        else:
            metrics = measure_end_to_end(bench, seconds, min_iterations)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"workload": name, "why": workload.why, "size": size, "seed": seed,
              "seconds": seconds, "trace": trace, "result": result,
              "failures": bench.failures, "seconds_per_run": bench.times,
              "calibration_probes_s": bench.probes,
              "provenance": {**provenance, "child_env": {
                  v: bench.env.get(v) for v in BLAS_VARS + ("PYTHONPATH",)}}}
    (OUT_ROOT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def report(record: dict) -> None:
    """Human summary, then the JSON result as the last line."""
    result = record["result"]
    print(f"workload {record['workload']} (seed {record['seed']}, "
          f"trace {int(record['trace'])}, {record['size']} size): {record['why']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"  failed_frac = {frac:.6g} ({result['failed']} of {result['attempted']} operations)")
    prov = record["provenance"]
    print("  provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))


class Terminated(BaseException):
    """SIGTERM, raised so that the running child is killed and reaped and the
    work directory removed on the way out."""


def _on_sigterm(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    names = list(workloads.WHY)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes, "
                             "end-to-end and traced, with all checks")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _on_sigterm)
    # an ambient SPINPHOTON_THREADS would switch on the threaded sweep, in
    # this process and in every child (the children copy this environment)
    os.environ.pop("SPINPHOTON_THREADS", None)
    modules = _load_program()
    import numpy
    provenance = {"python": platform.python_version(), "numpy": numpy.__version__,
                  "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                  "platform": platform.platform(), "git_sha": _git_sha()}

    selected = names if args.workload == "all" else [args.workload]
    if args.smoke:
        runs = [(n, t) for n in selected for t in (False, True)]
        size, seconds, min_iterations = "smoke", 0.0, 1
    else:
        runs = [(n, bool(args.trace)) for n in selected]
        size, seconds, min_iterations = "full", args.seconds, MIN_ITERATIONS
    ok = True
    try:
        for name, trace in runs:
            record = run_workload(name, args.seed, seconds, trace, size, min_iterations,
                                  modules, provenance)
            report(record)
            ok = ok and record["result"]["correct"]
    except Terminated:
        print("terminated", file=sys.stderr)
        return 143
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
