"""Source-layout guards: one spectral kernel, one owner of the dimension range, no thread pools,
and a public surface trimmed to what the solvers, the CLI and the benchmark call."""

from __future__ import annotations

import ast
from pathlib import Path

import bellforge

PACKAGE = Path(bellforge.__file__).parent
EIG_NAMES = {"eig", "eigh", "eigvals", "eigvalsh"}
# The closed-form two-qubit CHSH oracle keeps its own 3x3 real eigen-solve,
# so that it stays an independent reference for the see-saw.
EIG_EXEMPT = {("bell.py", "horodecki_chsh_oracle")}
# The supported local-dimension range is checked by ``states._check_local_dim`` alone.
LOCAL_DIM_NAMES = {"MIN_LOCAL_DIM", "MAX_LOCAL_DIM"}


def _modules() -> list[tuple[str, ast.Module]]:
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules found in {PACKAGE}"
    return [(p.name, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def _eig_uses(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing top-level name, line) of every ``*.linalg.eig*`` attribute."""
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in EIG_NAMES
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
            ):
                found.append((owner, node.lineno))
    return found


def test_eigensolvers_live_in_linalg():
    stray = [
        f"{name}:{line} in {owner}"
        for name, tree in _modules()
        if name != "linalg.py"
        for owner, line in _eig_uses(tree)
        if (name, owner) not in EIG_EXEMPT
    ]
    assert not stray, f"eigensolver calls outside linalg.py: {stray}"


def test_guard_sees_the_exempt_oracle():
    uses = dict(_modules())
    assert [owner for owner, _ in _eig_uses(uses["bell.py"])] == ["horodecki_chsh_oracle"]
    assert _eig_uses(uses["linalg.py"])


def _local_dim_uses(tree: ast.Module) -> list[int]:
    """Lines that name ``MIN_LOCAL_DIM`` or ``MAX_LOCAL_DIM``, imports included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in LOCAL_DIM_NAMES:
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in LOCAL_DIM_NAMES:
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            found += [node.lineno for alias in node.names if alias.name in LOCAL_DIM_NAMES]
    return found


def test_dimension_range_lives_in_states():
    modules = dict(_modules())
    stray = [
        f"{name}:{line}"
        for name, tree in modules.items()
        if name != "states.py"
        for line in _local_dim_uses(tree)
    ]
    assert not stray, f"MIN_LOCAL_DIM / MAX_LOCAL_DIM outside states.py: {stray}"
    assert _local_dim_uses(modules["states.py"])


def test_no_thread_pools():
    imports = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [(name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append((name, node.module))
    pools = [(name, module) for name, module in imports if module.startswith("concurrent")]
    assert not pools, f"concurrent.futures imported: {pools}"


PUBLIC_NAMES = {
    "__version__",
    # linalg
    "TensorOperator", "identity", "kron", "trace", "frobenius_distance", "partial_trace",
    "reorder_factors", "eigenvalues", "operator_norm", "operator_to_text", "operator_from_text",
    "save_operator", "load_operator",
    # states
    "DensityOperator", "Permutation3", "ALL_PERMUTATIONS_3", "density_deficits", "flip",
    "antisym_projector", "permutation_operator", "antisymmetrizer3", "werner", "singlet",
    "dso_two_qubit", "dso_general",
    # extensions
    "MarginalPattern", "InfeasibilityCertificate", "FeasibilityResult", "verify_marginals",
    "pattern_sym3", "pattern_right2", "dykstra_find_extension",
    # bell
    "Observable", "SeeSawConfig", "OptimizationResult", "correlation", "original_bell_gap",
    "chsh_value", "seesaw_original_bell", "seesaw_chsh", "horodecki_chsh_oracle",
}


def test_public_surface_is_pinned():
    """A name leaves or joins the package's public surface only by editing this list."""
    assert set(bellforge.__all__) == PUBLIC_NAMES
    assert len(bellforge.__all__) == len(PUBLIC_NAMES)
    assert all(hasattr(bellforge, name) for name in bellforge.__all__)
    assert not hasattr(bellforge.Permutation3, "compose")


def test_package_exports_exactly_the_module_lists():
    """``__init__.py`` names no public name: each module's ``__all__`` is its export list."""
    modules = (bellforge.linalg, bellforge.states, bellforge.extensions, bellforge.bell)
    assert bellforge.__all__ == ["__version__", *(name for m in modules for name in m.__all__)]
    tree = dict(_modules())["__init__.py"]
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported <= {"*", "annotations", "bell", "extensions", "linalg", "states"}
