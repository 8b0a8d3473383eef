"""The public API: every name in ``qmatch.__all__`` has a caller.

A caller is a use of the name (a load or an attribute access) in a package
module other than ``__init__.py`` and outside the name's own ``def`` or
``class``, in a study script, or in the benchmark's workloads.  Imports
alone do not count.  A name that only the tests use belongs in
``tests/oracles.py``.
"""

import ast
from pathlib import Path

import qmatch

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(qmatch.__file__).resolve().parent


def _uses(path):
    """Names a module loads or accesses as attributes, leaving out each
    top-level def or class's uses of its own name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses = set()
    for node in tree.body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                name = sub.attr
            else:
                continue
            if name != own:
                uses.add(name)
    return uses


def test_every_public_name_has_a_caller():
    callers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(_uses(p) for p in callers))
    assert not [name for name in qmatch.__all__ if name not in used]
