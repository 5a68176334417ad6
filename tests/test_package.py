"""The package root: it binds its modules and re-exports none of their names,
and its version is the one pyproject.toml declares. No module imports a name
it never uses, or a module beyond the standard library, numpy and the
package's own. Only ``dwoa`` reads the whale pool's raw stream, only
``shuffle`` names the masking round's block size and its one apply, and
only ``orchestrator`` names the int64 wire's refusal."""

import ast
import sys
from pathlib import Path

import pytest

import v2gdispatch

MODULES = ("baselines", "config", "costs", "dwoa", "fleet", "harness", "orchestrator", "records",
           "shuffle", "topology")


def test_root_binds_the_modules_and_no_module_names():
    for name in MODULES:
        assert getattr(v2gdispatch, name).__name__ == f"v2gdispatch.{name}"
    for name in ("run_optimization", "run_scenario", "build_topology", "shuffle_round"):
        assert not hasattr(v2gdispatch, name), name


def test_version_is_the_one_pyproject_declares():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        assert v2gdispatch.__version__ == tomllib.load(fh)["project"]["version"]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds and the module never reads,
    except ``__future__`` imports and imports on a line marked ``noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_unused_imports_finds_only_unread_names():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "import numpy.linalg\nfrom .a import b, c  # noqa: F401\nfrom .d import e\n"
              "print(system.argv, numpy)\n")
    assert unused_imports(source) == [(2, "os"), (5, "e")]


def test_no_module_imports_a_name_it_never_uses():
    root = Path(v2gdispatch.__file__).parent
    for path in sorted(root.glob("*.py")):
        # the package root imports its modules for its callers
        bindings = set(MODULES) if path.name == "__init__.py" else set()
        unused = [(line, name) for line, name in unused_imports(path.read_text())
                  if name not in bindings]
        assert unused == [], path.name


def outside_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each absolute import of a module that is neither in
    the standard library nor numpy; relative imports are the package's own."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        outside += [(node.lineno, m) for m in modules if m.split(".")[0] not in allowed]
    return outside


def test_outside_imports_finds_only_third_party_modules():
    source = ("from __future__ import annotations\nimport json, scipy.linalg\n"
              "import numpy.linalg as la\nfrom .costs import EvCostTable\n"
              "from pandas import DataFrame\nfrom collections.abc import Sequence\n")
    assert outside_imports(source) == [(2, "scipy.linalg"), (5, "pandas")]


def test_no_module_imports_beyond_the_standard_library_and_numpy():
    # numpy is the one dependency pyproject.toml declares
    root = Path(v2gdispatch.__file__).parent
    for path in sorted(root.glob("*.py")):
        assert outside_imports(path.read_text()) == [], path.name


def test_only_dwoa_names_a_bit_generator():
    # the pool's stream has one reader, ``dwoa.PoolDraws``: a second one
    # elsewhere would draw words the pool's moves expect
    root = Path(v2gdispatch.__file__).parent
    naming = [path.name for path in sorted(root.glob("*.py"))
              if any(word in path.read_text() for word in ("PCG64", "bit_generator"))]
    assert naming == ["dwoa.py"]


def test_only_shuffle_names_the_mask_round():
    # the masking round has one home: an epoch reaches the block size and
    # the round's apply through ``shuffle.MaskBlocks``, not by name
    root = Path(v2gdispatch.__file__).parent
    naming = [path.name for path in sorted(root.glob("*.py"))
              if any(word in path.read_text() for word in ("BLOCK_CELLS", "mask_units"))]
    assert naming == ["shuffle.py"]


def test_only_orchestrator_names_the_wire_refusal():
    # the wire refusal has one site, the epoch's: the CLI reports the epoch's
    # ProtocolError and keeps no first-epoch check of its own
    root = Path(v2gdispatch.__file__).parent
    naming = [path.name for path in sorted(root.glob("*.py")) if "wire_refusal" in path.read_text()]
    assert naming == ["orchestrator.py"]
