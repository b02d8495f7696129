"""Batch command-line front end.

Subcommands: reflectance | protocol | sweep | sample. Configuration comes from
a plain-text ``key = value`` file ('#' starts a comment); frequencies and
rates may be given in units of kappa with a ``_rel`` suffix. Data goes to
--out (or stdout) as CSV or JSON; human messages go to stderr. Exit codes:
0 success; 2 a usage or configuration error, with the flag or key at fault
named; 1 the program was at fault (an internal error, with its traceback) or
the output could not be written. A file named by --out is written whole or
not at all: a failed run leaves an earlier file there as it was. Stdout is
streamed, so a failed run may have written part of its output there. The
library checks each model rule once and raises ParameterError naming the
field; ``_naming`` names the key or flag that field came from, by the field
-> key table of the config or the sweep.

``reflectance`` evaluates the cold and hot r over its grid ``_CHUNK_ROWS``
points at a time and builds each chunk of rows only as it formats it, so it
grows by 40 bytes a point, not by the whole table. Each other writer reads
the run's columns, not its ``branches``. ``sweep`` runs its grid as one
batched pass, each row the ``protocol`` run at that grid point bit for bit.
``sample`` draws all its trials at once; its ``--seed`` (default: the config's
``seed`` key) is the only seed any subcommand reads. ``protocol`` writes the
bytes ``json.dumps(indent=2)`` would: ``json`` writes the document, and the CLI
writes only its complex arrays, each from a template cached per shape and built
level by level, filled in where ``json`` reached the array; one table, which
formats each distinct magnitude once, serves every array in the document. Each
distinct array is formatted once per document and written at every place it
appears (a dephased chain's ``±45`` leaves share their matrices).
``main`` builds its argument parser once per process. Start-up imports only
what every command uses: ``json`` (``protocol``'s writer), ``floatrows`` (the
``reflectance`` and ``sample`` CSVs), and ``signal`` and ``traceback`` (error
paths) are imported where they are first needed. The process entry, ``run``
(``python -m spinphoton.cli`` and the ``spinphoton`` script), calls
``gc.freeze()`` before ``main``: interpreter shutdown runs full collections,
and each would walk again the ~21,000 objects the imports leave tracked, about
9 ms a command in all. ``main(argv)`` called in-process does not freeze.

The ``reflectance`` CSV's numbers are written by ``floatrows.csv_rows``: a
cell ``%.17g`` writes in fixed notation is rounded to 17 significant digits
on whole arrays, exactly (Dekker's error-free product with an exact power of
ten), and its text built by table lookups, a few thousand cells at a time;
every other cell goes through ``%``, and which way a cell goes follows from
its value alone. The bytes are those of one ``%`` per float, and there is
nothing to configure. The ``sample`` CSV's rows are written by
``floatrows.indexed_rows``, as one byte table per chunk: each row's index
digits, its leading zeros left as pad bytes, then its ``",label\n"`` bytes,
gathered by draw from a table of the labels. The bytes are those of
``str(i) + ",label\n"`` per row.

The ``reflectance`` and ``sample`` CSVs of at least ``_SPLIT_ROWS`` rows are
formatted across the CPUs this process may use: the rows are cut into one
contiguous share per CPU, this process formats the first, and children made
with ``os.fork`` format the others, which are written after it in order. The
bytes are those of one process formatting every row. A shorter table, one
CPU, or a platform without ``os.fork`` (or ``os.sched_getaffinity``) runs in
one process. Nothing about this is configured: the split follows from the row
count and the CPUs alone.
"""
from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import math
import os
import sys
from itertools import chain

import numpy as np

from .cavity import CavityParams, ParameterError, phase_difference, reflection_coefficient
from .frozen import Frozen
from .gates import GateMode, IdealGate, RealisticGate
from .metrics import SWEEP_PARAMETERS, SweepSpec, sweep_columns
from .protocols import PROTOCOL_NAMES, ProtocolConfig, run_protocol
from .qstate import PureState, sample_indices


class ConfigError(ValueError):
    """Raised for malformed configuration files or flag values."""


# each known key's parser; a number must also be finite
_PARSERS = {
    **dict.fromkeys(("cavity.g", "cavity.g_rel", "cavity.kappa", "cavity.gamma",
                     "cavity.gamma_rel", "cavity.kappa_s", "cavity.kappa_s_rel",
                     "cavity.omega_c", "cavity.omega_x", "cavity.omega_x_rel",
                     "gate.detuning_rel", "noise.t_over_t2"), float),
    **dict.fromkeys(("alpha1", "beta1", "alpha2", "beta2"), lambda v: complex(v.replace(" ", ""))),
    **dict.fromkeys(("seed", "trials", "ghz.n_photons"), int),
    "gate.mode": str, "protocol": str,
}


def parse_config_text(text: str) -> dict:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _convert(key: str, value: str):
    try:
        x = _PARSERS[key](value)
    except ValueError:
        raise ConfigError(f"cannot parse value for {key!r}: {value!r}")
    if not (isinstance(x, str) or cmath.isfinite(x)):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return x


class RunConfig(Frozen):
    def __init__(self, protocol: str, cavity: CavityParams, config: ProtocolConfig,
                 seed: int, trials: int, n_photons: int, echo: dict):
        self.__dict__.update(protocol=protocol, cavity=cavity, config=config, seed=seed,
                             trials=trials, n_photons=n_photons, echo=echo)


@contextlib.contextmanager
def _naming(keys: dict):
    """Re-raise a ParameterError from the block as a ConfigError: the template
    ``keys[field]``, its ``{}`` filled with the message minus the field name."""
    try:
        yield
    except ParameterError as exc:
        raise ConfigError(keys[exc.field].format(str(exc).removeprefix(exc.field)))


def _at_least(name: str, value: int, low: int) -> int:
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


def resolve_config(raw: dict) -> RunConfig:
    vals = {k: _convert(k, v) for k, v in raw.items()}

    kappa = vals.get("cavity.kappa", 1.0)  # CavityParams refuses kappa <= 0
    # field -> message template (see _naming); cavity_value and omega_x_rel add
    # the rest. A finite omega_c or absolute omega_x breaks no rule: no entry.
    keys = {"kappa": "cavity.kappa{}", "t_over_t2": "noise.t_over_t2{}",
            "alpha1/beta1": "alpha1/beta1{}", "alpha2/beta2": "alpha2/beta2{}",
            "coefficients": "{}: check the cavity.* keys and gate.detuning_rel"}

    def cavity_value(field: str, default: float) -> float:
        key, rel = f"cavity.{field}", f"cavity.{field}_rel"
        if key in vals and rel in vals:
            raise ConfigError(f"both {key!r} and {rel!r} given")
        if rel in vals:
            keys[field] = rel + " * cavity.kappa{}"
            return vals[rel] * kappa
        # g's and gamma's defaults scale with cavity.kappa
        keys[field] = key + ("{}" if key in vals else "{}: check cavity.kappa")
        return vals.get(key, default)

    omega_c = vals.get("cavity.omega_c", 0.0)
    if "cavity.omega_x" in vals and "cavity.omega_x_rel" in vals:
        raise ConfigError("both 'cavity.omega_x' and 'cavity.omega_x_rel' given")
    if "cavity.omega_x_rel" in vals:  # offset from the cavity line, in kappa units
        omega_x = omega_c + vals["cavity.omega_x_rel"] * kappa
        keys["omega_x"] = "cavity.omega_c + cavity.omega_x_rel * cavity.kappa{}"
    else:
        omega_x = vals.get("cavity.omega_x", omega_c)
    g = cavity_value("g", 10.0 * kappa)
    gamma = cavity_value("gamma", 0.1 * kappa)
    kappa_s = cavity_value("kappa_s", 0.0)

    mode_name = vals.get("gate.mode", "ideal")
    if mode_name not in ("ideal", "realistic"):
        raise ConfigError(f"gate.mode must be 'ideal' or 'realistic', got {mode_name!r}")
    detuning_rel = vals.get("gate.detuning_rel", 0.5)
    sq = 1.0 / math.sqrt(2.0)
    with _naming(keys):
        cavity = CavityParams(g=g, kappa=kappa, gamma=gamma, omega_c=omega_c,
                              omega_x=omega_x, kappa_s=kappa_s)
        gate: GateMode = IdealGate()
        if mode_name == "realistic":
            gate = RealisticGate(cavity, omega_c + detuning_rel * kappa)
            gate.coefficients  # evaluated here, where a refusal can name the keys
        config = ProtocolConfig(
            gate=gate,
            alpha1=vals.get("alpha1", sq), beta1=vals.get("beta1", sq),
            alpha2=vals.get("alpha2", sq), beta2=vals.get("beta2", sq),
            t_over_t2=vals.get("noise.t_over_t2", 0.0),
        )

    # Checked here, as reflectance runs no protocol and only ghz reaches the
    # library's n_photons rule: both would take a bad value without a word.
    protocol = vals.get("protocol", "scheme-b")
    if protocol not in PROTOCOL_NAMES:
        raise ConfigError(f"unknown protocol {protocol!r} (valid: {', '.join(PROTOCOL_NAMES)})")
    n_photons = vals.get("ghz.n_photons", 3)
    if not 2 <= n_photons <= 6:
        raise ConfigError(f"ghz.n_photons must be in [2, 6], got {n_photons}")

    seed = _at_least("seed", vals.get("seed", 0), 0)
    trials = _at_least("trials", vals.get("trials", 1), 1)

    echo: dict = {"protocol": protocol}
    if isinstance(gate, IdealGate):
        echo["gate"] = {"mode": "ideal", "delta_phi": math.pi / 2}
    else:
        echo["gate"] = {
            "mode": "realistic",
            "detuning_rel": detuning_rel,
            "cavity": {
                "g": cavity.g, "kappa": cavity.kappa, "gamma": cavity.gamma,
                "kappa_s": cavity.kappa_s, "omega_c": cavity.omega_c,
                "omega_x": cavity.omega_x,
            },
        }
    echo["amplitudes"] = {k: np.array(getattr(config, k), dtype=complex)
                          for k in ("alpha1", "beta1", "alpha2", "beta2")}
    echo["noise"] = {"t_over_t2": config.t_over_t2}
    echo["seed"] = seed
    if protocol == "ghz":
        echo["ghz"] = {"n_photons": n_photons}

    return RunConfig(protocol, cavity, config, seed, trials, n_photons, echo)


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return resolve_config({})
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a BOM is skipped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    return resolve_config(parse_config_text(text))


def parse_grid(spec: str) -> np.ndarray:
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:  # not three parts, or one that does not parse
        raise ConfigError(f"grid must be 'start:stop:count', got {spec!r}")
    if n <= 0:
        raise ConfigError("empty range: grid count must be >= 1")
    with np.errstate(all="ignore"):  # an infinite end or step is refused just below
        try:
            grid = np.linspace(a, b, n)
        except MemoryError:
            raise ConfigError(f"--grid count must be small enough to allocate, got {n}")
    if not np.isfinite(grid).all():
        raise ConfigError(f"--grid points must be finite, got {spec!r}")
    if n == 1 and a != b:
        raise ConfigError(f"--grid with count 1 needs start == stop, got {spec!r}")
    return grid


_CHUNK_ROWS = 4096  # points evaluated, and rows built and formatted, at once
# A table of at least this many rows (16 chunks) is formatted on every usable
# CPU; a shorter one stays in one process.
_SPLIT_ROWS = 16 * _CHUNK_ROWS
# Characters read from a child's pipe at once: pieces of 1 MiB were measured
# to leave the reading process about 5 MiB larger after the run.
_PIECE = 1 << 16
# Characters of the --out name kept in the name of the file written beside it.
_PARTIAL_PREFIX = 32


def _emit(parts, out_path: str | None) -> None:
    """Write the text pieces, in order, to ``out_path`` or stdout.

    Stdout is streamed. A new ``out_path`` or a regular file (through any
    symlink) is written whole or not at all: the pieces go to a file created
    beside it, which replaces it after the last piece, and which is removed
    on any failure, so an earlier file at ``out_path`` stays as it was. Any
    other existing path (a device, a FIFO) is written in place."""
    if out_path is None:
        sys.stdout.writelines(parts)
        return
    with contextlib.suppress(FileNotFoundError):  # a name too long for its filesystem
        os.stat(out_path)  # is refused here, before any piece is made
    if os.path.exists(out_path) and not os.path.isfile(out_path):
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        return
    target = os.path.realpath(out_path)
    head, name = os.path.split(target)
    # at most 4 * _PARTIAL_PREFIX + 20 bytes, so that any name the filesystem
    # takes for --out (255 bytes on common ones) leaves room for this one
    partial = os.path.join(head, f".{name[:_PARTIAL_PREFIX]}.{os.getpid()}.partial")
    fh = open(partial, "x", encoding="utf-8")  # outside the try: a taken name is not ours
    try:
        with fh:
            fh.writelines(parts)
        os.replace(partial, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


def _csv_chunks(header: str, n_rows: int, format_rows):
    """The header line, then the rows: ``format_rows(start, stop)`` chunk by
    chunk, in order. The rows are cut into one contiguous share per CPU this
    process may use when there are at least ``_SPLIT_ROWS`` of them and
    ``os.fork`` and ``os.sched_getaffinity`` exist, else into one share. This
    process formats the first share and yields it; a forked child formats
    each later share and writes it to a pipe, which is read in order and
    yielded in pieces of at most ``_PIECE`` characters. Every child is reaped
    before this returns or raises, killed first if it is still running; one
    that fails raises."""
    yield header + "\n"
    shares = 1
    if n_rows >= _SPLIT_ROWS and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        shares = len(os.sched_getaffinity(0))
    bounds = [n_rows * i // shares for i in range(shares + 1)]
    children = []  # (pid, text reader of its pipe), in row order
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_share(format_rows, start, stop))
        yield from _share(format_rows, 0, bounds[1])
        while children:
            pid, pipe = children[0]
            yield from iter(functools.partial(pipe.read, _PIECE), "")
            del children[0]
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                raise RuntimeError(f"a child formatting CSV rows exited with code {code}")
    finally:  # the consumer stopped early, or a fork or a child failed
        if children:
            import signal  # needed only here, so startup does not load it
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _share(format_rows, start: int, stop: int):
    """``format_rows`` over rows ``start`` to ``stop``, ``_CHUNK_ROWS`` at a time."""
    for a in range(start, stop, _CHUNK_ROWS):
        yield format_rows(a, min(a + _CHUNK_ROWS, stop))


def _fork_share(format_rows, start: int, stop: int):
    """Fork a child that formats rows ``start`` to ``stop`` into a pipe and
    leaves through ``os._exit``: 0 once it has written them all, 1 on any
    error. It formats its whole share before writing, so a full pipe does
    not stall it. It only slices arrays and formats numbers, and calls no
    BLAS routine, so the threads a fork does not copy are never waited on.
    Returns (its pid, a text reader of the pipe)."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "w", encoding="utf-8") as fh:
                fh.writelines(list(_share(format_rows, start, stop)))
            code = 0
        except BaseException:
            import traceback  # needed only on this error path, so startup does not load it
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "r", encoding="utf-8")


class _Chunks(list):
    """What ``json.dump`` writes to: each chunk ``json`` yields, one item each."""
    write = list.append


def _dump(obj) -> str:
    """The text ``json.dumps(obj, indent=2, allow_nan=False)`` writes for ``obj``,
    where a complex array is written as nested lists with an ``[re, im]`` pair
    per entry. ``json`` writes the text; the chunk it yields right after its
    ``default`` hook takes an array is that array's hole. Each distinct array
    object is formatted once per document (a dephased chain's ``-45`` leaves
    hold their ``+45`` partners' matrices): ``_reprs`` formats the floats of
    every distinct array, each array's text is filled from its ``_template``
    once per depth of a hole's line, and that one string is written at each
    hole holding the array. What ``json`` cannot write raises TypeError; a
    non-finite number, ValueError."""
    import json  # needed only here, so startup does not load it
    chunks, holes = _Chunks(), {}  # holes: id -> (a distinct array, indices of its chunks)

    def hole(a):
        if not isinstance(a, np.ndarray):
            raise TypeError(f"Object of type {type(a).__name__} is not JSON serializable")
        if id(a) not in holes:
            if not np.isfinite(a).all():
                raise ValueError(f"non-finite value in a complex array of shape {a.shape}")
            holes[id(a)] = a, []
        holes[id(a)][1].append(len(chunks))

    json.dump(obj, chunks, indent=2, allow_nan=False, default=hole)
    strings, at = _reprs([a for a, _ in holes.values()]) if holes else [], 0
    for a, places in holes.values():
        n, texts = 2 * a.size, {}  # texts: depth of a hole's line -> the array's text
        for i in places:
            line = i  # the array's line starts after the last newline before it
            while line and "\n" not in chunks[line - 1]:
                line -= 1
            d = len(chunks[line - 1].rpartition("\n")[2]) // 2 if line else 0
            if d not in texts:
                pieces = [""] * (2 * n + 1)  # the template's n + 1 parts, a float between each two
                pieces[::2], pieces[1::2] = _template(a.shape, d), strings[at:at + n]
                texts[d] = "".join(pieces)
            chunks[i] = texts[d]
        at += n
    return "".join(chunks)


def _reprs(arrays: list) -> list[str]:
    """The repr (what ``json`` writes) of each float of the arrays' ``[re, im]``
    pairs, in order, array after array; ``_dump`` passes each distinct array
    of a document once. Each distinct magnitude is formatted once: floats are
    told apart by their bits, sign bit cleared, and ``repr(-x) == "-" + repr(x)``
    for every finite double, -0.0 included."""
    bits = np.concatenate([a.ravel() for a in arrays]).astype(complex, copy=False).view(np.int64)
    mags, inverse = np.unique(bits & np.int64(2 ** 63 - 1), return_inverse=True)
    table = list(map(repr, mags.view(np.float64).tolist()))
    table += ["-" + s for s in table]
    return np.array(table, dtype=object)[inverse + len(mags) * (bits < 0)].tolist()


@functools.lru_cache
def _template(shape: tuple, depth: int) -> list[str]:
    """``_dump``'s text for a complex array of ``shape``, split at each float:
    built level by level from the ``[re, im]`` pair outwards, each level's
    text its inner level's repeated with ``join``."""
    text = "0.0"
    for d, n in reversed(list(enumerate(shape + (2,), depth))):
        indent = "\n" + "  " * (d + 1)
        text = ("[" + indent + ("," + indent).join([text] * n) + "\n" + "  " * d + "]"
                if n else "[]")
    return text.split("0.0")


# --- subcommands -------------------------------------------------------------

def cmd_reflectance(args) -> int:
    run = load_config(args.config)
    grid = parse_grid(args.grid)
    params = run.cavity
    # parse_grid's linspace can fit while the two responses do not
    with np.errstate(all="ignore"):  # extreme values are refused just below
        try:
            cold, hot = np.empty(len(grid), complex), np.empty(len(grid), complex)
            for a in range(0, len(grid), _CHUNK_ROWS):
                rows = slice(a, a + _CHUNK_ROWS)
                omega = params.omega_c + grid[rows] * params.kappa
                cold[rows] = reflection_coefficient(params, omega, coupled=False)
                hot[rows] = reflection_coefficient(params, omega, coupled=True)
            # the grid is finite, and so are a finite r's phase and phase difference
            finite = np.isfinite(cold).all() and np.isfinite(hot).all()
        except MemoryError:
            raise ConfigError(f"--grid count must be small enough to allocate its "
                              f"reflectance table, got {len(grid)}")
    if not finite:
        raise ConfigError("the reflectance table is not finite: "
                          "check the cavity.* keys and --grid")
    from .floatrows import csv_rows  # needed only here, so startup does not load it

    def format_rows(a, b):
        c, h = cold[a:b], hot[a:b]
        phase_c, phase_h = np.angle(c), np.angle(h)
        return csv_rows(np.column_stack([grid[a:b], c.real, c.imag, phase_c,
                                         h.real, h.imag, phase_h,
                                         phase_difference(phase_h, phase_c)]))

    _emit(_csv_chunks("detuning_rel,r_cold_re,r_cold_im,phase_cold,"
                      "r_hot_re,r_hot_im,phase_hot,delta_phi", len(grid), format_rows),
          args.out)
    return 0


def _branch_payload(c) -> dict:
    state = c.state
    pure = isinstance(state, PureState)
    fidelity, conc = c.fidelity[0], None if c.concurrence is None else c.concurrence[0]
    return {
        "label": c.label,
        "probability": c.probability[0],
        "register": [str(q) for q in state.register],
        "basis": state.basis_strings(),
        "amplitudes" if pure else "density_matrix": state.amplitudes if pure else state.matrix,
        # the only fields that can hold NaN (a dead branch, a vanishing target)
        "fidelity": fidelity if fidelity == fidelity else None,
        "concurrence": conc if conc == conc else None,
        "success_probability": c.probability[0],
    }


def cmd_protocol(args) -> int:
    run = load_config(args.config)
    result = run_protocol(run.protocol, run.config, n_photons=run.n_photons)
    doc = {
        "protocol": run.protocol,
        "config": run.echo,
        "branches": [_branch_payload(c) for c in result.columns],
    }
    _emit([_dump(doc), "\n"], args.out)
    return 0


def cmd_sweep(args) -> int:
    run = load_config(args.config)
    grid = parse_grid(args.grid)
    # load_config accepted the other fields: a pass refuses only these
    swept = f"--grid for {args.sweep}"
    keys = {"grid": "--grid{}", "gate": "gate.mode{}", "t_over_t2": swept + "{}",
            "coefficients": "{}: check --grid, the cavity.* keys and gate.detuning_rel",
            **dict.fromkeys(("g", "gamma", "kappa_s"), swept + " * cavity.kappa{}")}
    with _naming(keys):  # every pass runs before --out is opened
        passes = list(sweep_columns(SweepSpec(
            parameter=args.sweep, grid=grid, config=run.config,
            protocol=run.protocol, n_photons=run.n_photons)))
    _emit(_sweep_chunks(args.sweep, passes), args.out)
    return 0


def _sweep_chunks(name: str, passes):
    """The sweep CSV from each pass's (grid values, branch columns): one ``%``
    template per grid point, with ``name`` and the labels baked in, filled once
    per chunk of at most ``_CHUNK_ROWS`` rows. A cell written more than once
    (the swept value on each branch row, a probability as ``probability`` and
    ``success_probability``) is formatted once per pass, into a ``%s`` slot."""
    yield ("swept_name,swept_value,branch_label,probability,fidelity,"
           "concurrence,success_probability\n")
    name, text = name.replace("%", "%%"), "%.17g".__mod__
    for values, columns in passes:
        point = "".join(f"{name},%s,{c.label.replace('%', '%%')},%s,%.17g,"
                        f"{'' if c.concurrence is None else '%.17g'},%s\n" for c in columns)
        swept, cells = list(map(text, values)), []
        for c in columns:
            probability = list(map(text, c.probability))
            cells += [x for x in (swept, probability, c.fidelity, c.concurrence, probability)
                      if x is not None]
        step = max(1, _CHUNK_ROWS // len(columns))
        for a in range(0, len(values), step):
            yield point * len(values[a:a + step]) % tuple(
                chain.from_iterable(zip(*(x[a:a + step] for x in cells))))


def cmd_sample(args) -> int:
    run = load_config(args.config)
    key = "trials" if args.trials is None else "--trials"
    trials = run.trials if args.trials is None else _at_least(key, args.trials, 1)
    seed = run.seed if args.seed is None else _at_least("--seed", args.seed, 0)
    result = run_protocol(run.protocol, run.config, n_photons=run.n_photons)
    labels = [c.label for c in result.columns]
    probabilities = [c.probability[0] for c in result.columns]
    missing = 1.0 - sum(probabilities)
    if missing > 1e-9:
        # photon loss in realistic mode: no detector fires
        labels.append("no_detection")
        probabilities.append(missing)
    endings = np.array([f",{label}\n".encode() for label in labels])
    try:
        draws = sample_indices(probabilities, np.random.default_rng(seed), trials)
    except MemoryError:
        raise ConfigError(f"{key} must be small enough to allocate its draws, got {trials}")
    from .floatrows import indexed_rows  # needed only here, so startup does not load it
    _emit(_csv_chunks("trial_index,branch_label", trials,
                      lambda a, b: indexed_rows(a, endings[draws[a:b]])),
          args.out)
    return 0


# --- entry point -------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinphoton",
        description="Spin-photon entanglement protocol simulator (batch runs).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")

    p_refl = sub.add_parser("reflectance", parents=[common],
                            help="cold/hot reflection sweep as CSV")
    p_refl.add_argument("--grid", required=True, metavar="a:b:n",
                        help="detuning grid in units of kappa")
    p_refl.set_defaults(func=cmd_reflectance)

    p_prot = sub.add_parser("protocol", parents=[common],
                            help="run one protocol, emit every branch as JSON")
    p_prot.set_defaults(func=cmd_protocol)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="sweep one parameter, emit per-branch CSV rows")
    p_sweep.add_argument("--sweep", required=True, metavar="NAME", choices=SWEEP_PARAMETERS,
                         help=f"one of: {', '.join(SWEEP_PARAMETERS)}")
    p_sweep.add_argument("--grid", required=True, metavar="a:b:n")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sample = sub.add_parser("sample", parents=[common],
                              help="seeded draws of detection outcomes as CSV")
    p_sample.add_argument("--trials", type=int, default=None)
    p_sample.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sample.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # every input fault is a ConfigError by now
        import traceback  # needed only on this error path, so startup does not load it
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry (``python -m spinphoton.cli``, the ``spinphoton``
    script): freeze what the imports built, so that no collection of the run
    or of interpreter shutdown walks it again, then exit with ``main``'s code."""
    import gc  # here, so that importing the package does not load it
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
