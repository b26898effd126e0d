"""Guards on the package source itself."""

import ast
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import essentia
from essentia import lp, problems

PACKAGE = Path(essentia.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in essentia: {found}"


def test_no_environment_reads_in_package():
    # every setting arrives as an argument, never from the process environment
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv", "environb", "getenvb")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {a.name for a in node.names}
                if names & {"environ", "getenv", "environb", "getenvb"}:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"environment reads in essentia: {found}"


def test_public_names_resolve_and_are_not_modules():
    for name in essentia.__all__:
        obj = getattr(essentia, name)  # AttributeError if it does not resolve
        assert not isinstance(obj, types.ModuleType), name


def test_bench_tracer_bindings_resolve():
    # a traced benchmark run wraps these attributes and raises AttributeError
    # on any that is gone; the benchmark's own smoke test is not in tier-1
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = tracing._bindings()
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in bindings if not hasattr(o, a)]
    assert not missing, f"tracer bindings that do not resolve: {missing}"
    assert (lp, "find_violated_obstacle") in [(o, a) for o, a, _ in bindings]
    assert lp.find_violated_obstacle is problems.find_violated_obstacle


def test_bench_imports_resolve():
    # the benchmark imports these names from src/ by name, and its traced run
    # clears the P4 cache between the plain and the traced call of each op
    names = []
    for script in ("run.py", "workloads.py"):
        path = BENCH / script
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("essentia"):
                names += [(node.module, alias.name) for alias in node.names]
    assert ("essentia.problems", "all_induced_p4s") in names
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"names the benchmark imports that do not resolve: {missing}"
    assert callable(problems.all_induced_p4s.cache_clear)


def test_only_problems_calls_the_path_search():
    # the package has one path search: is_solution, exact search, the
    # separation oracle and the rounding's heavy sets all go through
    # problems.cheapest_obstacle, whose heap is the only one; nothing else
    # in the package uses heapq
    users, importers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "heapq":
                    users.add(f"{path.stem}: from heapq import")
                elif isinstance(node, ast.Import):
                    if any(alias.name == "heapq" for alias in node.names):
                        importers.add(path.stem)
                elif isinstance(node, ast.Name) and node.id == "heapq":
                    users.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert users == {"problems.cheapest_obstacle"}
    assert importers == {"problems"}


def test_only_problems_names_the_p4_listing():
    # every other module reads the listed obstacles through
    # problems.listed_obstacles or asks problems.cheapest_obstacle
    banned = {"all_induced_p4s", "iter_induced_p4s"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "problems.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            names = set()
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
            found += [f"{path.name}:{node.lineno}: {name}" for name in sorted(names & banned)]
    assert not found, f"modules besides problems.py name the P4 listing: {found}"


def test_every_dataclass_is_frozen():
    # the package's values are immutable: no operation writes into its inputs
    thawed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                func = call.func if call else dec
                if getattr(func, "id", getattr(func, "attr", None)) != "dataclass":
                    continue
                frozen = call is not None and any(
                    kw.arg == "frozen" and getattr(kw.value, "value", None) is True
                    for kw in call.keywords
                )
                if not frozen:
                    thawed.append(f"{path.name}:{node.name}")
    assert not thawed, f"dataclasses that are not frozen: {thawed}"


def test_lp_names_no_problem():
    # how a pinned LP starts is detection's choice: the cutting-plane loop
    # treats every problem alike, so it neither imports `Problem` nor
    # names one of its members
    path = PACKAGE / "lp.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    members = {p.name for p in problems.Problem}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "Problem":
            found.append(f"lp.py:{node.lineno}: Problem")
        elif isinstance(node, ast.Attribute) and node.attr in members:
            found.append(f"lp.py:{node.lineno}: {node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"lp.py:{node.lineno}: import {a.name}" for a in node.names if a.name == "Problem"]
    assert not found, f"lp.py names problems: {found}"


def test_detection_ties_no_start_rule_to_a_problem():
    # every pinned LP starts from the unpinned LP's optimal tableau, so
    # detection neither lists obstacles nor searches for one
    path = PACKAGE / "detection.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    banned = {"all_induced_p4s", "listed_obstacles", "cheapest_obstacle"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in banned:
            found.append(f"detection.py:{node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in banned:
            found.append(f"detection.py:{node.lineno}: {node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"detection.py:{node.lineno}: import {a.name}" for a in node.names if a.name in banned]
    assert not found, f"detection.py names obstacles: {found}"


def test_import_leaves_multiprocessing_unloaded():
    # only detection's `jobs > 1` branch starts worker processes, and it
    # imports the process pool itself; a one-worker run never pays for it
    code = "import sys, essentia; print('multiprocessing' in sys.modules)"
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent) + (os.pathsep + path if path else "")}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def test_simplex_kernel_takes_no_gcd():
    # integer-preserving pivots divide exactly, so no row is ever reduced
    tree = ast.parse((PACKAGE / "simplex.py").read_text(encoding="utf-8"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "gcd" not in names
