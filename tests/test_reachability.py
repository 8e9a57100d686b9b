"""Every top-level function and class in ``src/repro`` is reached by a
program path: a ``src/`` module, an example or a benchmark.

A symbol counts as reached when some ``ast.Name`` or ``ast.Attribute``
in those files names it, outside the symbol's own definition. Its
``def``/``class`` statement, its ``__all__`` entry and ``from … import``
re-exports are not uses, so a symbol that only tests call is flagged.
Tests themselves are not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Symbols kept although no program path names them, with the reason.
ALLOWLIST = {
    "telemetry/export.py:read_jsonl":
        "the reader for the --jsonl export format; its round-trip test "
        "is the only check that the writer emits every span field",
}


def _src_modules():
    for path in sorted(SRC.rglob("*.py")):
        yield (path.relative_to(SRC).as_posix(),
               ast.parse(path.read_text(), filename=str(path)))


def _names(node):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def unreached_symbols() -> list[str]:
    """``"<path>:<name>"`` of each top-level def/class no program path
    names, in file order."""
    # name -> places naming it; a place inside src is the top-level
    # statement's key, so a symbol's own body does not reach it.
    places: dict[str, set[str]] = {}
    symbols = []
    for rel, tree in _src_modules():
        for node in tree.body:
            place = f"{rel}:<module>"
            if isinstance(node, DEFINITIONS):
                place = f"{rel}:{node.name}"
                symbols.append((place, node.name))
            for name in _names(node):
                places.setdefault(name, set()).add(place)
    for folder in ("examples", "benchmarks"):
        for path in sorted((ROOT / folder).glob("*.py")):
            for name in _names(ast.parse(path.read_text())):
                places.setdefault(name, set()).add(str(path))
    return [key for key, name in symbols
            if not places.get(name, set()) - {key}]


def test_every_symbol_is_reached_by_a_program_path():
    unreached = [key for key in unreached_symbols() if key not in ALLOWLIST]
    assert unreached == [], (
        "only tests reach these symbols; delete them, wire them in, or "
        f"allowlist them with a reason: {unreached}"
    )


def test_allowlist_entries_are_unreached_and_explained():
    unreached = set(unreached_symbols())
    for key, reason in ALLOWLIST.items():
        assert reason.strip(), f"{key} needs a reason"
        assert key in unreached, f"{key} is reached now; drop its entry"
