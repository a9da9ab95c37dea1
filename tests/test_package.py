"""The names the README, the tests and the benchmark import from the
package itself, rather than from one of its modules, must all resolve."""

import importlib
import re
from pathlib import Path

import ddcid

ROOT = Path(__file__).resolve().parents[1]
FROM_PACKAGE = re.compile(r"from ddcid import (\([^)]*\)|[\w ,]+)")
ATTRIBUTE = re.compile(r"\bddcid\.(\w+)")


def _sources():
    yield ROOT / "README.md"
    for folder in ("tests", "perfbench"):
        yield from sorted((ROOT / folder).glob("*.py"))


def _resolves(name: str) -> bool:
    if hasattr(ddcid, name):
        return True
    try:
        importlib.import_module(f"ddcid.{name}")   # a module, such as ddcid.cli
    except ModuleNotFoundError:
        return False
    return True


def test_every_name_imported_from_the_package_resolves():
    names = {}
    for path in _sources():
        text = path.read_text()
        for group in FROM_PACKAGE.findall(text):
            for name in re.findall(r"\w+", group):
                names.setdefault(name, path.name)
        for name in ATTRIBUTE.findall(text):
            names.setdefault(name, path.name)
    assert {"explore", "ExplorationConfig", "get_potential", "monte_carlo_descent"} <= set(names)
    missing = sorted(f"{name} ({where})" for name, where in names.items() if not _resolves(name))
    assert missing == []
