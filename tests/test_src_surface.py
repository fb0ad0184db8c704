"""Guard against code in ``src/`` that only tests (or nothing) call.

Every module under ``src/vidconceal/`` is parsed with ``ast``. A definition
is flagged when no ``ast.Name`` or ``ast.Attribute`` that reads anywhere
under ``src/`` carries its name. The definitions checked are module-level
functions, classes and constants, and the non-dunder methods, properties
and fields (class-level assignments) of module-level classes. A name
written but never read counts as unused, and so does one that appears only
as a keyword argument or in an import.

The check goes by bare name, not by owner, so it cannot see a name that
another definition shares: ``MvField.mb_cols`` would pass next to
``Frame.mb_cols``, because ``frame.mb_cols`` reads the same attribute name.
A name read through a string, as ``getattr(obj, "name")`` does, does not
count either.

``ALLOWED`` lists the names that have readers outside ``src/``, each with
that reader.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vidconceal"

ALLOWED = {
    # perfbench/tracing.py:hook_select_mv reads the per-side dicts and the
    # fallback flag
    "engine.BoundaryDistortion.classic",
    "engine.BoundaryDistortion.proposed",
    "engine.BoundaryDistortion.chosen",
    "engine.BoundaryDistortion.collocated_fallback",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _targets(node: ast.stmt) -> list[str]:
    """Plain names an assignment statement binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = []
    for t in targets:
        for n in ast.walk(t):
            if isinstance(n, ast.Name):
                names.append(n.id)
    return names


def definitions(tree: ast.Module, module: str) -> list[str]:
    """Qualified names of the definitions the guard checks in one module."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(f"{module}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            out.append(f"{module}.{node.name}")
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [member.name]
                else:
                    names = _targets(member)
                out += [f"{module}.{node.name}.{n}" for n in names if not _dunder(n)]
        else:
            out += [f"{module}.{n}" for n in _targets(node) if not _dunder(n)]
    return out


def used_names(trees: list[ast.Module]) -> set[str]:
    """Every name a Name or an Attribute reads; an augmented assignment
    reads its target as well."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                used.add(node.attr)
            elif isinstance(node, ast.AugAssign):
                t = node.target
                used.add(t.id if isinstance(t, ast.Name) else getattr(t, "attr", ""))
    return used


def unused_definitions(src: pathlib.Path) -> list[str]:
    modules = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    used = used_names(list(modules.values()))
    return [
        qualname
        for module, tree in modules.items()
        for qualname in definitions(tree, module)
        if qualname.rsplit(".", 1)[1] not in used
    ]


def test_every_src_definition_has_a_src_reader():
    unused = [q for q in unused_definitions(SRC) if q not in ALLOWED]
    assert unused == [], f"read by nothing under src/ (delete it, or allowlist it with its outside reader): {unused}"


def test_allowlist_names_live_unused_definitions():
    # an entry whose name is gone, or that src/ now reads, is stale
    assert ALLOWED <= set(unused_definitions(SRC))


def test_guard_flags_a_test_only_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "K = 1\n"
        "class C:\n"
        "    x: int = 0\n"
        "    def used(self):\n"
        "        return self.x + K\n"
        "    def only_tested(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    (tmp_path / "b.py").write_text("from a import C\nC().used()\n")
    assert unused_definitions(tmp_path) == ["a.C.only_tested"]
