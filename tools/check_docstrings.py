#!/usr/bin/env python
"""Docstring audit for the public API surface (pydocstyle-lite, stdlib-only).

Walks an explicit allowlist of public modules and requires a docstring on
the module itself and on every public class, function, method and
property (names not starting with ``_``; ``__init__`` documents itself
through its class docstring and is exempt).  Docstrings must be
non-trivial: a non-empty first line of at least eight characters.

The container bakes no ``pydocstyle``, so this script *is* the check —
run directly (CI docs job) or through ``tests/test_docs.py`` so the
public surface can never silently regress to undocumented::

    python tools/check_docstrings.py            # exit 1 + listing on gaps
    python tools/check_docstrings.py --list     # show the audited modules
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: The audited public surface.  Additions are welcome; removals should
#: accompany an actual module removal.
PUBLIC_MODULES = (
    "core/heatmap.py",
    "core/registry.py",
    "core/regionset.py",
    "core/surface.py",
    "core/sweep_batched.py",
    "approx/__init__.py",
    "approx/knn_graph.py",
    "approx/lsh.py",
    "approx/engines.py",
    "dynamic/heatmap.py",
    "dynamic/assignment.py",
    "errors.py",
    "render/png.py",
    "render/colormap.py",
    "render/image.py",
    "server/__init__.py",
    "server/app.py",
    "server/errors.py",
    "server/http.py",
    "server/openapi.py",
    "server/router.py",
    "server/wire.py",
    "service/__init__.py",
    "service/async_service.py",
    "service/cache.py",
    "service/fingerprint.py",
    "service/flight.py",
    "service/latency.py",
    "service/service.py",
    "service/store.py",
    "service/tiles.py",
    "fleet/__init__.py",
    "fleet/ring.py",
    "fleet/events.py",
    "fleet/proxy.py",
    "fleet/health.py",
    "faults/__init__.py",
    "faults/inject.py",
    "faults/retry.py",
    "faults/breaker.py",
)

_MIN_DOC_LEN = 8


def _docstring_ok(node) -> bool:
    doc = ast.get_docstring(node)
    if doc is None:
        return False
    first = doc.strip().splitlines()[0].strip() if doc.strip() else ""
    return len(first) >= _MIN_DOC_LEN


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _check_function(node, qualname: str, violations: "list[str]", path) -> None:
    if not _is_public(node.name):
        return
    if not _docstring_ok(node):
        violations.append(
            f"{path}:{node.lineno}: missing/trivial docstring on "
            f"def {qualname}"
        )


def check_module(path: Path) -> "list[str]":
    """Audit one module file; returns human-readable violations."""
    try:
        rel = path.relative_to(REPO)
    except ValueError:
        rel = path
    tree = ast.parse(path.read_text(encoding="utf-8"))
    violations: "list[str]" = []
    if not _docstring_ok(tree):
        violations.append(f"{rel}:1: missing/trivial module docstring")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _check_function(node, node.name, violations, rel)
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            if not _docstring_ok(node):
                violations.append(
                    f"{rel}:{node.lineno}: missing/trivial docstring on "
                    f"class {node.name}"
                )
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _check_function(
                        member, f"{node.name}.{member.name}", violations, rel
                    )
    return violations


def audit() -> "list[str]":
    """Audit every allowlisted module; returns all violations."""
    violations: "list[str]" = []
    for name in PUBLIC_MODULES:
        path = SRC / name
        if not path.exists():
            violations.append(f"{name}: allowlisted module does not exist")
            continue
        violations.extend(check_module(path))
    return violations


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point: print violations, exit non-zero when any exist."""
    args = sys.argv[1:] if argv is None else argv
    if "--list" in args:
        for name in PUBLIC_MODULES:
            print(name)
        return 0
    violations = audit()
    for line in violations:
        print(line)
    if violations:
        print(f"\n{len(violations)} docstring violation(s) in the public surface")
        return 1
    print(f"docstring audit clean over {len(PUBLIC_MODULES)} public modules")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
