"""No name in ``src/repro`` whose only users are its own tests.

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
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
USERS = (SRC, ROOT / "benchmarks" / "perf", ROOT / "examples")

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
