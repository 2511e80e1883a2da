"""No name in ``src/repro`` whose only users are its own tests, and no
parameter no caller passes.

An AST scan over the program: every top-level ``def``, ``class`` or
assignment in ``src/repro`` must be referenced, outside its own definition,
somewhere in ``src/repro``, ``benchmarks/perf`` or ``examples/``.  Tests do
not count as users.  A reference is a name, an attribute, a ``from ...
import`` of it, or a string spelling it (a forward annotation, an
``__all__`` entry, a ``getattr``).  A package ``__init__.py`` that
re-exports a name does not use it, so its imports and strings are not
counted.  Dunder names are exempt.

The names that stay without a user are listed in :data:`ALLOWED`, each with
its reason, and the list must be exact: a name that gains a user leaves it.

The parameter scan: a defaulted parameter of a function, method or
constructor in ``src/repro`` must be passed, by keyword or by position, by
some call in ``src/repro``, ``benchmarks/perf``, ``examples/`` or the tests
-- else it is a constant spelt as a parameter.  A call is matched to a
definition by name only (a constructor by its class's name, or by ``cls``
in the class's own methods), so a name and parameter defined more than
once are skipped, and a call that splats ``*args`` or ``**kwargs`` passes
everything.  The parameters that stay unpassed are listed in
:data:`UNPASSED`, each with its reason, exactly.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
USERS = (SRC, ROOT / "benchmarks" / "perf", ROOT / "examples")
CALLERS = (*USERS, ROOT / "tests")

_PINNED = "a pinned golden test prints it; deleting it would move a digest"
_BENCHED = "only a per-artifact bench uses it, and ROADMAP item 5 turns those benches into claims"

#: ``module.name`` (module relative to ``repro``) -> why it stays unused.
ALLOWED: Dict[str, str] = {
    "analysis.phases.phase_breakdowns": _PINNED,
    "analysis.phases.render_phase_table": _PINNED,
    "experiments.observatory.observe_run": _PINNED,
    "analysis.availability.unresponsive_resolvers": _BENCHED,
    "analysis.correlation.latency_correlation": _BENCHED,
    "analysis.response_times.resolver_median": _BENCHED,
    "core.odoh.OdohProbe": _BENCHED,
    "webload.page.simple_page": "ROADMAP item 14(b) decides whether webload/ stays",
    "dnswire.message.memo_stats": "ROADMAP item 12(a) turns it into always-on counters",
}


#: ``module.callable(parameter)`` -> why no call passes it.
UNPASSED: Dict[str, str] = {
    "core.probes.Do53Probe(recorder)": (
        "the per-transport probe aliases go together, with a benchmark change"
    ),
}


def top_level_definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.stmt]]:
    """(name, defining statement) for each top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def references(tree: ast.Module, reexports_only: bool) -> Iterator[Tuple[str, int]]:
    """(name, line) for each reference in a module.

    ``reexports_only`` marks a package ``__init__.py``: its imports and
    strings only re-export, so only its names and attributes count.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif reexports_only:
            continue
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            yield node.value, node.lineno


def orphans(sources: Dict[Path, str], src: Path) -> Set[str]:
    """``module.name`` of every definition under ``src`` with no reference
    outside its own definition in ``sources`` (path -> module text)."""
    used: Dict[str, List[Tuple[Path, int]]] = {}
    definitions: List[Tuple[Path, str, ast.stmt]] = []
    for path, text in sources.items():
        tree = ast.parse(text, filename=str(path))
        if src in path.parents:
            definitions.extend((path, name, node) for name, node in top_level_definitions(tree))
        for name, line in references(tree, path.name == "__init__.py"):
            used.setdefault(name, []).append((path, line))
    found = set()
    for path, name, node in definitions:
        if name.startswith("__") and name.endswith("__"):
            continue
        outside = [
            (where, line)
            for where, line in used.get(name, ())
            if not (where == path and node.lineno <= line <= node.end_lineno)
        ]
        if not outside:
            module = ".".join(path.relative_to(src).with_suffix("").parts)
            found.add(f"{module}.{name}")
    return found


def _program() -> Dict[Path, str]:
    return {
        path: path.read_text(encoding="utf-8")
        for root in USERS
        for path in sorted(root.rglob("*.py"))
    }


def callables(tree: ast.Module) -> Iterator[Tuple[str, str, ast.FunctionDef]]:
    """(the name a call uses, qualified name, definition) of every function
    at any depth: a constructor under its class's name, other dunders not
    at all."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, functions):
                    continue
                methods.add(item)
                if item.name == "__init__":
                    yield node.name, node.name, item
                elif not item.name.startswith("__"):
                    yield item.name, f"{node.name}.{item.name}", item
    for node in ast.walk(tree):
        if isinstance(node, functions) and node not in methods:
            if not node.name.startswith("__"):
                yield node.name, node.name, node


def defaulted(function: ast.FunctionDef) -> Iterator[Tuple[str, Optional[int]]]:
    """(parameter, positional index or None) of each defaulted parameter; an
    index does not count a method's ``self`` or ``cls``."""
    args = function.args
    positional = args.posonlyargs + args.args
    bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first):
        yield arg.arg, index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _shape(call: ast.Call) -> Tuple[int, Set[str], bool]:
    """(positional count, keywords, whether it splats) of one call."""
    splat = any(isinstance(arg, ast.Starred) for arg in call.args) or any(
        keyword.arg is None for keyword in call.keywords
    )
    return len(call.args), {keyword.arg for keyword in call.keywords}, splat


def unpassed(sources: Dict[Path, str], src: Path) -> Set[str]:
    """``module.callable(parameter)`` of every defaulted parameter under
    ``src`` that no call in ``sources`` (path -> module text) passes."""
    definitions: List[Tuple[str, str, Optional[int], str]] = []
    defined: Dict[Tuple[str, str], int] = {}
    #: callable name -> (positional count, keywords, splats) of each call.
    calls: Dict[str, List[Tuple[int, Set[str], bool]]] = {}
    for path, text in sources.items():
        tree = ast.parse(text, filename=str(path))
        module = ".".join(path.relative_to(src).with_suffix("").parts) if src in path.parents else None
        for name, qualified, function in callables(tree):
            for param, index in defaulted(function):
                defined[name, param] = defined.get((name, param), 0) + 1
                if module is not None:
                    definitions.append(
                        (name, param, index, f"{module}.{qualified}({param})")
                    )
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(_shape(node))
            elif isinstance(node, ast.ClassDef):
                # ``cls(...)`` in a class's own methods constructs that class.
                calls.setdefault(node.name, []).extend(
                    _shape(call)
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "cls"
                )
    found = set()
    for name, param, index, where in definitions:
        if defined[name, param] > 1:
            continue
        if not any(
            splat or param in keywords or (index is not None and count > index)
            for count, keywords, splat in calls.get(name, ())
        ):
            found.add(where)
    return found


def test_every_defaulted_parameter_is_passed_by_some_call():
    found = unpassed(
        {path: path.read_text(encoding="utf-8") for root in CALLERS
         for path in sorted(root.rglob("*.py"))},
        SRC,
    )
    new = sorted(found - set(UNPASSED))
    assert not new, f"no call passes these; make each a constant: {new}"
    stale = sorted(set(UNPASSED) - found)
    assert not stale, f"these are passed now, or gone; drop them from UNPASSED: {stale}"


def test_every_top_level_name_has_a_user_outside_the_tests():
    found = orphans(_program(), SRC)
    new = sorted(found - set(ALLOWED))
    assert not new, (
        "no caller in src/repro, benchmarks/perf or examples/: give each a "
        f"caller or delete it with its tests: {new}"
    )
    stale = sorted(set(ALLOWED) - found)
    assert not stale, f"these have a user now, or are gone; drop them from ALLOWED: {stale}"


def test_allow_list_entries_name_definitions_and_reasons():
    assert len(ALLOWED) == 9
    for key, reason in ALLOWED.items():
        module, _, name = key.rpartition(".")
        path = SRC.joinpath(*module.split(".")).with_suffix(".py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert name in dict(top_level_definitions(tree)), key
        assert reason.strip(), key


def test_an_unreferenced_function_added_to_the_program_is_flagged():
    program = _program()
    stats = SRC / "analysis" / "stats.py"
    program[stats] += "\n\ndef never_called():\n    return None\n"
    assert orphans(program, SRC) - set(ALLOWED) == {"analysis.stats.never_called"}


def test_top_level_definitions_are_defs_classes_and_assignment_targets():
    tree = ast.parse(
        "A, (B, C) = 1, (2, 3)\n"
        "D: int = 4\n"
        "E = F = 5\n"
        "class G:\n"
        "    H = 6\n"
        "    def method(self):\n"
        "        local = 7\n"
        "def i():\n"
        "    J = 8\n"
        "async def k():\n"
        "    pass\n"
        "if A:\n"
        "    L = 9\n"
    )
    assert [name for name, _node in top_level_definitions(tree)] == [
        "A", "B", "C", "D", "E", "F", "G", "i", "k",
    ]


def test_the_scan_counts_users_and_not_self_references_or_reexports():
    src = Path("/pkg/src/repro")
    sources = {
        src / "mod.py": (
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "\n"
            "def called():\n"
            "    pass\n"
            "\n"
            "ALIAS = 'Forward'\n"
            "\n"
            "class Forward:\n"
            "    pass\n"
            "\n"
            "def helper():\n"
            "    called()\n"
            "\n"
            "UNUSED: int = 3\n"
        ),
        src / "__init__.py": (
            "from repro.mod import UNUSED, recursive\n"
            "__all__ = ['UNUSED', 'recursive']\n"
        ),
        Path("/pkg/examples/demo.py"): "from repro.mod import helper\nhelper()\n",
    }
    assert orphans(sources, src) == {"mod.recursive", "mod.ALIAS", "mod.UNUSED"}


def test_the_parameter_scan_sees_keywords_positions_splats_and_repeats():
    src = Path("/pkg/src/repro")
    sources = {
        src / "mod.py": (
            "def f(a, b=1, c=2, *, d=3, e=4):\n"
            "    pass\n"
            "\n"
            "class Box:\n"
            "    def __init__(self, size=1, label=''):\n"
            "        pass\n"
            "\n"
            "    @classmethod\n"
            "    def small(cls):\n"
            "        return cls(0)\n"
            "\n"
            "    def fill(self, amount=1):\n"
            "        pass\n"
            "\n"
            "def g(x=1):\n"
            "    pass\n"
        ),
        src / "other.py": "def g(x=2):\n    pass\n",
        Path("/pkg/tests/test_mod.py"): (
            "f(0, 1, d=5)\n"
            "Box().fill(*[])\n"
        ),
    }
    assert unpassed(sources, src) == {"mod.f(c)", "mod.f(e)", "mod.Box(label)"}
