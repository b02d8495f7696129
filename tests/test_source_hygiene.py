"""Static checks on the package source: no unused imports, no dead private helpers,
no export without a user, no input refusal without the field it refuses,
nothing imported at start-up beyond what the package needs, and no JSON writer
in the CLI beside ``json``."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinphoton"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}

# Exports that no other module, demo or README example uses, and why each stays.
KEPT = {
    "ReflectionResponse": "reflect returns it",
    "ConditionalReflectionGate": "make_gate returns it",
    "scheme_a_photon_pairs": "it is run_protocol's scheme-a driver",
    "drop_qubit": "bench/tracing.py LAYERS wraps it; deleted with the layer",
    "dephase_spin": "bench/tracing.py LAYERS wraps it; deleted with the layer",
    "sample_outcome": "bench/tracing.py LAYERS wraps it; deleted with the layer",
    # the step engine no protocol runs: public API, and the tests' reference engine
    "make_gate": "bench/tracing.py LAYERS wraps it; the tests' reference engine uses it",
    "apply_gate": "bench/tracing.py LAYERS wraps it; the tests' reference engine uses it",
    "trion_emission_map": "bench/tracing.py LAYERS wraps it",
    "tensor_all": "bench/tracing.py LAYERS wraps it; the tests' reference engine uses it",
    "ket_state": "public step API the tests' reference engine uses",
    "qubit_state": "public step API the tests' reference engine uses",
    "hadamard": "public step API the tests' reference engine uses",
    "ProjectiveOutcome": "measure returns it",
}


def referenced(node) -> set[str]:
    """Every name read in ``node``: bare names and attribute names."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":  # re-exports the public names
            continue
        used = referenced(tree)
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                   and getattr(n, "module", None) != "__future__"]
        bound = [a.asname or a.name.split(".")[0] for n in imports for a in n.names]
        unused += [f"{name}: {b}" for b in bound if b not in used]
    assert unused == []


def test_every_private_helper_has_a_caller():
    # a top-level statement's references, keyed by (module, statement index)
    refs = {(name, i): referenced(stmt) for name, tree in MODULES.items()
            for i, stmt in enumerate(tree.body)}
    dead = [f"{name}: {stmt.name}" for name, tree in MODULES.items()
            for i, stmt in enumerate(tree.body)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_")
            and not any(stmt.name in names for key, names in refs.items() if key != (name, i))]
    assert dead == []


def test_every_export_has_a_user_outside_its_module():
    exports = {a.asname or a.name: f"{n.module}.py" for n in MODULES["__init__.py"].body
               if isinstance(n, ast.ImportFrom) for a in n.names}
    demos = set().union(*(referenced(ast.parse(p.read_text(encoding="utf-8")))
                          for p in (ROOT / "demos").glob("*.py")))
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    unused = sorted(name for name, home in exports.items()
                    if name not in demos | readme
                    and not any(name in referenced(tree) for module, tree in MODULES.items()
                                if module not in (home, "__init__.py")))
    assert unused == sorted(KEPT)
    assert set(KEPT) <= set(exports)


def test_every_parameter_error_names_its_field():
    # the CLI finds the config key or flag of a refusal by its field
    calls = [(name, n) for name, tree in MODULES.items() for n in ast.walk(tree)
             if isinstance(n, ast.Call) and "ParameterError" in referenced(n.func)]
    assert calls
    assert [f"{name}:{n.lineno}" for name, n in calls
            if "field" not in {k.arg for k in n.keywords}] == []


# What a module may import at its top level. Every command imports them all
# before it starts; a module needed on one path only is imported there.
STARTUP_IMPORTS = {"__future__", "argparse", "cmath", "contextlib", "functools",
                   "itertools", "math", "os", "sys", "enum", "numpy"}


def _imported(node) -> list[str]:
    """The top-level modules an import statement names, "" for a relative one."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[0] for a in node.names]
    return ["" if node.level else node.module.split(".")[0]]


def test_no_module_imports_dataclasses():
    # a dataclass is built by exec'ing generated source, about 0.4 ms a class
    assert [f"{name}:{n.lineno}" for name, tree in MODULES.items() for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom)) and "dataclasses" in _imported(n)] == []


def test_module_level_imports_stay_within_the_startup_list():
    extra = [f"{name}: {m}" for name, tree in MODULES.items() for n in tree.body
             if isinstance(n, (ast.Import, ast.ImportFrom))
             for m in _imported(n) if m and m not in STARTUP_IMPORTS]
    assert extra == []


def test_importing_the_cli_after_numpy_and_argparse_loads_only_the_package():
    code = ("import sys, numpy, argparse; before = set(sys.modules); import spinphoton.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    gained = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120).stdout.split()
    assert "spinphoton.cli" in gained
    assert [m for m in gained if m.split(".")[0] != "spinphoton"
            and m not in ("__future__", "cmath")] == []


def test_protocols_build_states_only_where_a_leaf_or_a_target_is_closed():
    # one lifecycle: a run keeps each branch as arrays and builds its state in
    # _leaf on the column's first read; a target is built in _target_state and
    # a merged mixture in merged_detection_branch
    builders = {stmt.name for stmt in MODULES["protocols.py"].body for n in ast.walk(stmt)
                if isinstance(n, ast.Call)
                and referenced(n.func) & {"PureState", "DensityState"}}
    assert builders <= {"_leaf", "_target_state", "merged_detection_branch"}


def test_the_cli_writes_every_run_from_its_columns():
    # one read path from a run to output bytes: no writer reads the
    # per-element branches view or builds a ProtocolBranch
    tree = MODULES["cli.py"]
    assert [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "branches"] == []
    assert "ProtocolBranch" not in referenced(tree) | {
        a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
        for a in n.names}


def test_the_cli_leaves_the_json_text_to_json():
    # json writes a protocol document and the CLI fills in only its arrays: no
    # encoder class of its own, and no function that walks a document by
    # calling itself, so a second JSON writer does not grow back
    tree = MODULES["cli.py"]
    assert "JSONEncoder" not in referenced(tree)
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert functions
    assert [f.name for f in functions if any(
        isinstance(n, ast.Call) and f.name in referenced(n.func) for n in ast.walk(f))] == []
