"""Every source file parses as Python 3.10, the oldest version the package
supports, so syntax added in 3.11 (such as ``except*``) fails here even
when only a newer interpreter is installed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "scripts")
                 for path in (ROOT / folder).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_newer_syntax_is_rejected():
    sample = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(sample, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(sample, feature_version=(3, 10))
