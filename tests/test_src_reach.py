"""`src/presforge` holds only code that a command, the bench or other
`src/` code reaches.

Every module-level function and class and every method of a module-level
class must be referenced somewhere in `src/presforge` (as a name or an
attribute) outside its own definition, outside `__init__.py` and outside
every definition that fails this test itself, so a helper whose only
caller is unreached is named too.  A definition needs no reference when it
is a name that `perfbench/tracing.py` `TARGETS` pins, one of the paper's
constructions in `LIBRARY`, a dunder, or a command registered with
`cli._command`.  Code that only tests call belongs in `tests/oracles.py`
or in the test module that uses it.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "presforge"

# the paper's constructions that the library exports and no command or bench
# job calls yet: the amalgam of F x F with doubled attachments, the acyclic
# subdirect product and H2 of an aspherical presentation
LIBRARY = {"constructions.delta_amalgam", "constructions.acyclic_subdirect",
           "homology.h2_aspherical"}


def _targets() -> set[str]:
    """The `module.attribute` names that `TARGETS` pins, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {f"{entry.elts[0].value.removeprefix('presforge.')}.{entry.elts[1].value}"
                    for entry in node.value.elts}
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def _is_command(node: ast.FunctionDef | ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_command"
               for d in node.decorator_list)


def _references(node: ast.AST) -> Counter:
    """How often each name occurs in `node`, as a name or an attribute."""
    names: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
    return names


def unreached() -> list[str]:
    """The `module.name` of each definition in `src/presforge` that no
    reached code refers to, in module and line order."""
    roots = _targets() | LIBRARY
    defs = []  # (qualified name, bare name, node, qualified name of its class or None)
    everywhere: Counter = Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        everywhere += _references(tree)
        for node in tree.body:
            inner = node.body if isinstance(node, ast.ClassDef) else []
            for n, owner in [(node, "")] + [(m, node.name + ".") for m in inner]:
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.append((f"{path.stem}.{owner}{n.name}", n.name, n,
                                 f"{path.stem}.{node.name}" if owner else None))
    candidates = [(q, name, node) for q, name, node, _ in defs
                  if q not in roots and not (name.startswith("__") and name.endswith("__"))
                  and not _is_command(node)]
    own = {q: _references(node) for q, _, node, _ in defs}
    owner_of = {q: cls for q, _, _, cls in defs}
    dead: set[str] = set()
    while True:
        # references from code that is itself unreached do not count
        live = everywhere.copy()
        for q in dead:
            if owner_of[q] not in dead:  # a dead class's count holds its methods'
                live -= own[q]
        newly = {q for q, name, _ in candidates
                 if q not in dead and live[name] - own[q][name] <= 0}
        if not newly:
            return [q for q, _, _ in candidates if q in dead]
        dead |= newly


def test_src_holds_only_reached_code():
    offenders = unreached()
    assert not offenders, ("defined in src/presforge but reached only from tests; "
                           "move to tests/oracles.py: " + ", ".join(offenders))
