"""Every name defined in ``src/timopigp`` is reached from a command.

A static walk over the package's source.  It starts at ``cli.main`` and
at the code each module runs as it is imported: its top-level
statements, class bodies, decorators and default values.  From there it
follows, transitively, the functions, classes and methods that reached
code names:
- a bare name resolves through its module's own definitions and its
  ``from timopigp...`` imports;
- ``module.name`` resolves in that module, through its imports too;
- any other ``obj.attr`` reaches the method or property ``attr`` of every
  reached class that defines one, as the walk does not know obj's type.
A reached class also reaches its dunder methods.  Annotations are not
followed, since the package does not evaluate them.

Where a name is ambiguous the walk counts it as reached, so it misses
dead code rather than flag live code.  Only a function reached through
``getattr`` with a computed name would be flagged, and the package reads
only data fields that way.  What it leaves unreached must be
exactly ``KEPT``: names that a reader outside ``src/`` needs, each with
the file that reads it.  Code that nothing runs or reads is deleted, or
moves into the tests that use it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "timopigp"
SRC = ROOT / "src" / PACKAGE

# Unreached from the commands on purpose: name -> (reader, what it reads).
KEPT = {
    # The tests' reference: sympy checks it, and the engine is checked
    # against it bit for bit.
    "kernels.kernel": ("tests/test_gp.py", "kernels.kernel("),
    "kernels.se_derivative": ("tests/test_kernels.py",
                              "kernels.se_derivative("),
    # A BENCHMARK.json figure, and the tests' fresh-Sigma reference.
    "placement.set_entropy": ("BENCHMARK.json", "placement.set_entropy"),
    # The benchmark's tracer keys the entropy sets it counts by it.
    "placement.PlacementProblem.params": ("bench/spans.py",
                                          "problem.params"),
    # The README's library quick start predicts from it.
    "mcmc.PosteriorChain.thetas": ("README.md", "chain.thetas"),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _import_time(node) -> list:
    """The parts of a definition that run when it is defined."""
    parts = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        parts += node.bases + [k.value for k in node.keywords]
        for stmt in node.body:
            parts += _import_time(stmt) if isinstance(stmt, _DEFS) \
                else [stmt]
    else:
        args = node.args
        parts += args.defaults + [d for d in args.kw_defaults if d]
    return parts


class _Module:
    def __init__(self, name: str, tree: ast.Module):
        self.name = name
        self.defs = {}        # local name -> definition node
        self.methods = {}     # class name -> {method name: node}
        self.aliases = {}     # local name -> (module, name or None)
        self.import_time = []
        for node in tree.body:
            if isinstance(node, _DEFS):
                self.defs[node.name] = node
                self.import_time += _import_time(node)
                if isinstance(node, ast.ClassDef):
                    self.methods[node.name] = {
                        m.name: m for m in node.body
                        if isinstance(m, _DEFS[:2])}
            else:
                self.import_time.append(node)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").split(".")[0] == PACKAGE:
                for a in node.names:
                    self.aliases[a.asname or a.name] = (
                        (a.name, None) if node.module == PACKAGE  # a module
                        else (node.module.split(".")[1], a.name))


def _load_modules() -> dict:
    modules = {}
    for path in sorted(SRC.glob("*.py")):
        name = path.stem
        modules[name] = _Module(name, ast.parse(path.read_text("utf-8")))
    return modules


def _resolve(modules, module: str, name: str, seen=()):
    """The (module, definition) a name of ``module`` binds, or None."""
    mod = modules.get(module)
    if mod is None or (module, name) in seen:
        return None
    if name in mod.defs:
        return module, name
    target = mod.aliases.get(name)
    if target is None or target[1] is None:
        return None
    return _resolve(modules, target[0], target[1], seen + ((module, name),))


def _module_alias(modules, module: str, name: str):
    """The package module that ``name`` stands for in ``module``."""
    target = modules[module].aliases.get(name)
    if target is not None and target[1] is None and target[0] in modules:
        return target[0]
    return None


def _names_used(node) -> tuple:
    """(bare names, (object name, attribute) pairs) loaded under node,
    annotations left out."""
    bare, attrs = set(), set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            bare.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            base = n.value.id if isinstance(n.value, ast.Name) else None
            attrs.add((base, n.attr))
        for field, child in ast.iter_fields(n):
            if field in ("annotation", "returns"):
                continue
            if isinstance(child, ast.AST):
                stack.append(child)
            elif isinstance(child, list):
                stack.extend(c for c in child if isinstance(c, ast.AST))
    return bare, attrs


def unreached(modules) -> set:
    """The qualified names that the walk from ``cli.main`` and import
    time does not reach: ``module.name`` and ``module.Class.method``."""
    reached = set()           # (module, name) or (module, Class, method)
    attr_names = set()        # attributes loaded on non-module objects
    queue = [("cli", [modules["cli"].defs["main"]])]
    queue += [(m.name, m.import_time) for m in modules.values()]

    def reach(key):
        if key in reached:
            return
        reached.add(key)
        mod = modules[key[0]]
        if len(key) == 3:
            queue.append((key[0], [mod.methods[key[1]][key[2]]]))
        elif key[1] in mod.methods:   # a class; its body ran at import
            for meth in mod.methods[key[1]]:
                if meth in attr_names or meth.startswith("__") \
                        and meth.endswith("__"):
                    reach(key + (meth,))
        else:
            queue.append((key[0], [mod.defs[key[1]]]))

    while queue:
        module, nodes = queue.pop()
        for node in nodes:
            bare, attrs = _names_used(node)
            for name in bare:
                hit = _resolve(modules, module, name)
                if hit is not None:
                    reach(hit)
            for base, attr in attrs:
                target = _module_alias(modules, module, base)
                if target is not None:
                    hit = _resolve(modules, target, attr)
                    if hit is not None:
                        reach(hit)
                elif attr not in attr_names:
                    attr_names.add(attr)
                    for key in [k for k in reached if len(k) == 2]:
                        if attr in modules[key[0]].methods.get(key[1], {}):
                            reach(key + (attr,))

    defined = set()
    for m in modules.values():
        defined |= {(m.name, d) for d in m.defs}
        defined |= {(m.name, c, meth) for c, meths in m.methods.items()
                    for meth in meths}
    return {".".join(key) for key in defined - reached}


def test_every_name_is_reached_from_a_command():
    left = unreached(_load_modules())
    assert left == set(KEPT), (
        f"unreached from cli.main and import time: "
        f"{sorted(left - set(KEPT))}; kept names now reached or gone: "
        f"{sorted(set(KEPT) - left)}")


@pytest.mark.parametrize("name", sorted(KEPT))
def test_kept_name_has_its_reader(name):
    """A kept name goes when its reader stops reading it."""
    reader, needle = KEPT[name]
    assert needle in (ROOT / reader).read_text("utf-8"), (name, reader)
