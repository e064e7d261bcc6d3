"""The documentation system is tested, not aspirational.

* every relative link in README.md and docs/*.md resolves to a real file;
* the named guides the docs system promises actually exist;
* the public-API docstring audit (``tools/check_docstrings.py``) is clean,
  so the documented surface cannot silently regress.
"""

import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "tools"))
import check_docstrings  # noqa: E402

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

REQUIRED_DOCS = (
    "docs/architecture.md",
    "docs/http-api.md",
    "docs/serving.md",
    "docs/performance.md",
    "docs/incremental-updates.md",
    "docs/async-serving.md",
    "docs/fleet.md",
    "docs/resilience.md",
    "docs/approx.md",
    "docs/openapi.yaml",
)


def _markdown_files():
    return [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))


def test_required_guides_exist():
    for rel in REQUIRED_DOCS:
        assert (REPO / rel).is_file(), f"{rel} is missing"


@pytest.mark.parametrize("path", _markdown_files(), ids=lambda p: p.name)
def test_relative_links_resolve(path):
    broken = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"broken links in {path.name}: {broken}"


def test_readme_links_into_docs():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    for rel in ("docs/architecture.md", "docs/http-api.md", "docs/serving.md"):
        assert rel in text, f"README must link to {rel}"


def test_docstring_audit_is_clean():
    violations = check_docstrings.audit()
    assert not violations, "\n".join(violations)


def test_audit_catches_missing_docstrings(tmp_path):
    bad = tmp_path / "bad_module.py"
    bad.write_text(
        '"""Module docstring that is long enough."""\n'
        "class Public:\n"
        "    def method(self):\n"
        "        return 1\n"
        "def _private():\n"
        "    return 2\n"
    )
    violations = check_docstrings.check_module(bad)
    joined = "\n".join(violations)
    assert "class Public" in joined
    assert "Public.method" in joined
    assert "_private" not in joined
