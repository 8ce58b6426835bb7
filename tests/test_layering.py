"""The package's modules import each other in one order, and only at the
top of a module, so that every shared rule sits below all of its users.

errors -> output -> graph -> contagion -> exact -> {approx, sis,
montecarlo} -> experiments -> cli: a module imports only modules of an
earlier rank.  The one import made inside a function is exact's Monte
Carlo fallback (``average_infection_rate`` past the enumeration cap),
which runs a layer above exact.  ``__init__`` holds the version and
imports nothing.
"""

import ast
from pathlib import Path

import polya_net

PACKAGE = Path(polya_net.__file__).parent
RANKS = {"errors": 0, "output": 1, "graph": 2, "contagion": 3, "exact": 4,
         "approx": 5, "sis": 5, "montecarlo": 5, "experiments": 6, "cli": 7}
FALLBACK = ("exact", "average_infection_rate", "montecarlo")


def _imports(module: str):
    """(function or None, imported module) for each package import in
    ``module``, None for an import at module or class level; a name that
    ``__init__`` defines (the version) counts as ``__init__``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import) or (isinstance(child, ast.ImportFrom)
                                                 and not child.level):
                modules = ([a.name for a in child.names] if isinstance(child, ast.Import)
                           else [child.module])
                assert all(m.split(".")[0] != "polya_net" for m in modules), \
                    f"{module} imports the package by its absolute name"
            elif isinstance(child, ast.ImportFrom):
                names = [child.module] if child.module else [a.name for a in child.names]
                found.extend((function, n if n in RANKS else "__init__") for n in names)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else function)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), None)
    return found


def test_every_module_has_a_rank():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(RANKS)
    assert _imports("__init__") == []


def test_each_module_imports_only_earlier_ranks_at_its_top():
    wrong, inside = [], []
    for module, rank in RANKS.items():
        for function, target in _imports(module):
            if function is not None:
                inside.append((module, function, target))
            elif target != "__init__" and RANKS[target] >= rank:
                wrong.append(f"{module} imports {target}")
    assert not wrong
    assert inside == [FALLBACK]


def test_the_sis_recursion_and_the_urn_dynamics_import_no_exact_table():
    for module in ("contagion", "sis"):
        assert "exact" not in {target for _, target in _imports(module)}
