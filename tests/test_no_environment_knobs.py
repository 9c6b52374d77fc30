"""The library reads no environment variables.

Every choice the package makes — codec, worker count, pool kind — comes from
the caller or from a probe, never from the process environment: a knob that
lives in the environment is invisible in the code that is affected by it and
in every result it changes.  This test parses every module under
``src/repro`` and fails on any use of ``os.environ``, ``os.environb``,
``os.getenv`` or ``os.putenv`` (attribute access or ``from os import``),
naming the file and line.
"""

import ast
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
FORBIDDEN = frozenset({"environ", "environb", "getenv", "putenv"})


def environment_reads(path: Path):
    """``(line, name)`` of every environment access in one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FORBIDDEN
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(
                (node.lineno, f"from os import {alias.name}")
                for alias in node.names
                if alias.name in FORBIDDEN
            )
    return sorted(found)


def test_no_module_reads_the_environment():
    modules = sorted(SOURCE_ROOT.rglob("*.py"))
    assert len(modules) > 10, f"no package found under {SOURCE_ROOT}"
    offenders = [
        f"{path.relative_to(SOURCE_ROOT.parent)}:{line}: {name}"
        for path in modules
        for line, name in environment_reads(path)
    ]
    assert not offenders, "environment reads under src/repro:\n" + "\n".join(offenders)


def test_detector_catches_every_form(tmp_path):
    module = tmp_path / "knobs.py"
    module.write_text(
        "import os\n"
        "from os import getenv\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('Y')\n"
        "os.putenv('Z', '1')\n"
    )
    assert environment_reads(module) == [
        (2, "from os import getenv"),
        (3, "os.environ"),
        (4, "os.getenv"),
        (5, "os.putenv"),
    ]
