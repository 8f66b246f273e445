"""Source-layout guards: one spectral kernel, one owner of the weight-sector block layout and of
the dimension range, no thread pools, the see-saw's state layouts multiplied only by its two
effective-operator functions, one command-line parser, one report writer, one permutation-sum
builder, one random stream for the see-saw's starts, and a public surface trimmed to what the
solvers, the CLI and the benchmark call, with no operator algebra beside numpy, no wrapper
between a state and its operator and no alias that restates a fact its callers hold."""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import io
import json
from pathlib import Path

import pytest

import bellforge
import bellforge.cli
from test_states import _perm

PACKAGE = Path(bellforge.__file__).parent
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
EIG_NAMES = {"eig", "eigh", "eigvals", "eigvalsh"}
# The closed-form two-qubit CHSH oracle keeps its own 3x3 real eigen-solve,
# so that it stays an independent reference for the see-saw.
EIG_EXEMPT = {("bell.py", "horodecki_chsh_oracle")}
# The supported local-dimension range is checked by ``states._check_local_dim`` alone.
LOCAL_DIM_NAMES = {"MIN_LOCAL_DIM", "MAX_LOCAL_DIM"}


def _modules(directory: Path = PACKAGE) -> list[tuple[str, ast.Module]]:
    paths = sorted(directory.glob("*.py"))
    assert paths, f"no modules found in {directory}"
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


def test_eigvalsh_has_one_caller_in_linalg():
    """Every eigenvalue-only solve in ``linalg`` runs in ``_eigenvalues``, which the spectral
    kernel and Dykstra's blockwise ``lambda_min`` both call."""
    tree = dict(_modules())["linalg.py"]
    owners = [
        top.name
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "eigvalsh"
    ]
    assert owners == ["_eigenvalues"]


def test_multisets_are_read_only_by_the_sector_definition():
    """Whether an operator conserves weight, and which states form its sectors, are decided
    in ``linalg._conserves`` and ``_sectors`` alone; the kernel and Dykstra both call them."""
    owners = sorted(
        f"{name}:{getattr(top, 'name', '<module>')}"
        for name, tree in _modules()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "_multisets"
    )
    assert owners == ["linalg.py:_conserves", "linalg.py:_sectors"]


def test_block_layout_is_read_only_in_linalg():
    """``linalg`` owns the weight-sector block layout: only it reads a layout's ``chunks`` and
    ``traced``, and ``_layout``, which caches one per dimension, alone groups the sectors."""
    modules = _modules()
    readers = sorted(
        {
            name
            for name, tree in modules
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("chunks", "traced")
        }
    )
    assert readers == ["linalg.py"]
    owners = sorted(
        f"{name}:{getattr(top, 'name', '<module>')}"
        for name, tree in modules
        for top in tree.body
        for node in ast.walk(top)
        if (isinstance(node, ast.Name) and node.id == "_sectors")
        or (isinstance(node, ast.alias) and node.name == "_sectors")
    )
    assert owners == ["linalg.py:_layout"]


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


def _layout_uses(tree: ast.Module) -> list[str]:
    """Enclosing top-level name of every ``r[0]`` and ``r[1]``: in ``bell.py``, ``r`` always
    names the pair of ``d² x d²`` layouts of the state that ``bell._layouts`` returns."""
    return [
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "r"
        and isinstance(node.slice, ast.Constant)
        and node.slice.value in (0, 1)
    ]


def test_layouts_are_multiplied_only_by_the_effective_operators():
    """Every contraction with the state forms an effective operator; correlations are read off
    those, so each sweep multiplies by the layouts once per effective operator."""
    owners = _layout_uses(dict(_modules())["bell.py"])
    assert sorted(owners) == ["_alice_effective", "_bob_effective"]


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


def _call_owners(name: str) -> list[str]:
    """``module:top-level name`` of every call to ``name`` or to an attribute ``name``."""
    return sorted(
        f"{module}:{getattr(top, 'name', '<module>')}"
        for module, tree in _modules()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_one_parser_serves_every_main_call():
    """``cli.build_parser``, built once per process, is the only place a parser is constructed,
    and ``cli.main`` the only caller, so no second parser path bypasses the shared one."""
    assert _call_owners("ArgumentParser") == ["cli.py:build_parser"]
    assert _call_owners("build_parser") == ["cli.py:main"]


def test_one_writer_serves_every_report():
    """``cli.main`` writes each report with ``json.dumps`` and is its only caller; no renderer of
    the package's own sits beside it."""
    assert _call_owners("dumps") == ["cli.py:main"]
    assert not hasattr(bellforge.cli, "render_json")


def test_one_permutation_sum_builds_every_named_operator():
    """``states._permutation_sum`` is the only caller of the factor-permutation primitive, so
    each operator the paper names is one ordered sum of permutation operators, and ``states``
    adds no identity of its own."""
    assert _call_owners("_permutation") == ["states.py:_permutation_sum"]
    assert not [owner for owner in _call_owners("identity") if owner.startswith("states.py:")]


def _scatter_owners() -> list[str]:
    """``module:top-level name``, or ``module:Class.method``, of every store into a matrix at
    ``rows`` and ``cols``, the one way a layout's block vector becomes a dense matrix."""
    return sorted(
        f"{module}:{getattr(top, 'name', '<module>')}" + (f".{fn.name}" if fn is not top else "")
        for module, tree in _modules()
        for top in tree.body
        for fn in (top.body if isinstance(top, ast.ClassDef) else [top])
        for node in ast.walk(fn)
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Store)
        and [getattr(e, "attr", getattr(e, "id", None)) for e in getattr(node.slice, "elts", [])]
        == ["rows", "cols"]
    )


def test_one_property_scatters_a_search_result():
    """A search returns its best point as block entries, and ``FeasibilityResult.candidate``
    scatters them into a dense matrix on first read through ``linalg._dense``, the package's one
    scatter, which the two source states also call."""
    assert _scatter_owners() == ["linalg.py:_dense"]
    assert _call_owners("_dense") == [
        "extensions.py:FeasibilityResult",
        "states.py:dso_general",
        "states.py:dso_two_qubit",
    ]


def _module_stores(name: str) -> list[str]:
    """``module:top-level name`` of every assignment to ``name``."""
    return sorted(
        f"{module}:{getattr(top, 'name', '<module>')}"
        for module, tree in _modules()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Store)
    )


def test_one_integer_table_per_operator(monkeypatch):
    """The terms of P_minus, Q and the two-qubit source are declared once each, at ``states``'
    module level, with integer signs; only ``states`` sums them, with ``_permutation_sum``, and
    ``_scaled`` multiplies them by integers only, so each float state and ``verify``'s exact
    operators come from one integer build; ``cli`` imports neither the tables nor the
    summing helpers nor the integer builders, only ``states._source_proof``, and from ``linalg``
    only the text format; only ``linalg`` imports ``Fraction``; and ``verify``'s ``results`` are
    the same bytes on every call."""
    for table in ("_P_MINUS", "_Q", "_DSO_TWO_QUBIT"):
        assert _module_stores(table) == ["states.py:<module>"], table
        assert all(type(s) is int for _, s in getattr(bellforge.states, table)), table
    assert _call_owners("_permutation") == ["states.py:_permutation_sum"]
    for helper in ("_permutation_sum", "_scaled"):
        owners = _call_owners(helper)
        assert owners and all(owner.startswith("states.py:") for owner in owners), helper
    cli_imports = {
        (getattr(node, "module", None), alias.name)
        for node in ast.walk(dict(_modules())["cli.py"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    hidden = {"_P_MINUS", "_Q", "_DSO_TWO_QUBIT", "_permutation_sum", "_scaled"}
    hidden |= {"_werner_sum", "_source_sum", "numpy"}
    assert not {name for _, name in cli_imports} & hidden, cli_imports
    linalg_names = {name for module, name in cli_imports if module == "linalg"}
    assert linalg_names == {"_split_text", "operator_from_text", "operator_to_text"}
    assert ("states", "_source_proof") in cli_imports
    coefficients = []

    def spy(table, coef, eye, _original=bellforge.states._scaled):
        coefficients.append((coef, eye))
        return _original(table, coef, eye)

    monkeypatch.setattr(bellforge.states, "_scaled", spy)
    for d in range(2, 7):
        bellforge.states.werner(d)
        bellforge.states._source_sum(d)
        if d >= 3:
            bellforge.states.dso_general(d)
    assert coefficients
    assert all(type(c) is int for pair in coefficients for c in pair), coefficients
    importers = sorted(
        {
            name
            for name, tree in _modules()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and {"fractions", "Fraction"}
            & {getattr(node, "module", None), *(alias.name for alias in node.names)}
        }
    )
    assert importers == ["linalg.py"]
    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert bellforge.cli.main(["verify", "--d", "4", "--quiet"]) == 0
        outputs.append(json.dumps(json.loads(buffer.getvalue())["results"]))
    assert outputs[0] == outputs[1]


def _numpy_random_reads(tree: ast.Module) -> list[int]:
    """Lines that read ``np.random`` or ``numpy.random``, or import ``numpy.random``."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and getattr(node.value, "id", None) in ("np", "numpy")
        ):
            found.append(node.lineno)
        elif isinstance(node, ast.Import):
            found += [node.lineno for alias in node.names if alias.name == "numpy.random"]
        elif isinstance(node, ast.ImportFrom) and (
            node.module == "numpy.random"
            or (node.module == "numpy" and any(alias.name == "random" for alias in node.names))
        ):
            found.append(node.lineno)
    return found


def test_one_stream_draws_every_start():
    """Every see-saw start is read from one stream, the package's own SplitMix64 hash under the
    key ``bell._START_KEY``, declared once: ``bell._mix`` is called only by
    ``_draw_observables``, and no module reads ``numpy.random`` or names a per-seed generator,
    so none can be built beside it."""
    per_seed = {"default_rng", "Generator", "SeedSequence"}
    named = [
        f"{module}:{node.lineno}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if getattr(node, "id", getattr(node, "attr", None)) in per_seed
    ]
    assert not named, f"per-seed generators named: {named}"
    assert set(_call_owners("_mix")) == {"bell.py:_draw_observables"}
    reads = [f"{name}:{line}" for name, tree in _modules() for line in _numpy_random_reads(tree)]
    assert not reads, f"numpy.random read at {reads}"
    keys = [
        f"{module}:{getattr(top, 'name', '<module>')}"
        for module, tree in _modules()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Name)
        and node.id == "_START_KEY"
        and isinstance(node.ctx, ast.Store)
    ]
    assert keys == ["bell.py:<module>"]


def test_numpy_random_guard_sees_every_form():
    forms = [
        "np.random.default_rng()",
        "numpy.random.Philox",
        "import numpy.random",
        "from numpy.random import Philox",
        "from numpy import random",
    ]
    assert [_numpy_random_reads(ast.parse(form)) for form in forms] == [[1]] * 5
    assert _numpy_random_reads(ast.parse("np.linalg.eigh; rng.random(3); import random")) == []


PUBLIC_NAMES = {
    "__version__",
    # linalg
    "TensorOperator", "eigenvalues", "operator_norm", "operator_to_text", "operator_from_text",
    # states
    "DensityOperator", "density_deficits", "werner", "singlet", "dso_two_qubit", "dso_general",
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
    retired = (
        "Permutation3", "ALL_PERMUTATIONS_3", "permutation_operator",
        "flip", "antisym_projector", "antisymmetrizer3",
    )
    assert [name for name in retired if hasattr(bellforge, name)] == []


def test_operators_carry_no_algebra():
    """An operator is its entries and factor dimensions: callers combine ``entries`` with numpy,
    and ``linalg`` keeps no dense identity, trace, distance or partial trace of its own."""
    arithmetic = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__")
    assert [name for name in arithmetic if hasattr(bellforge.TensorOperator, name)] == []
    dense = ("identity", "trace", "frobenius_distance", "partial_trace")
    assert [name for name in dense if hasattr(bellforge.linalg, name)] == []


def test_a_density_operator_is_an_operator():
    """A state is its own operator: ``DensityOperator`` subclasses ``TensorOperator`` with no
    field of its own, so no caller reaches through a wrapper to the entries, and a state is as
    frozen as any operator."""
    assert issubclass(bellforge.DensityOperator, bellforge.TensorOperator)
    fields = dataclasses.fields
    assert fields(bellforge.DensityOperator) == fields(bellforge.TensorOperator)
    state = bellforge.werner(2)
    assert not hasattr(state, "op")
    for obj in (state, bellforge.TensorOperator(_perm(2, (2, 1)), (2, 2))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.op = None


def test_no_one_expression_aliases():
    """An operator's side and factor count, an observable's dimension, a state's entries and
    local dimension, a correlation and the script's exit are read where they are held; no
    property, helper or wrapper restates one of them in one expression."""
    aliases = (
        (bellforge.TensorOperator, "side"),
        (bellforge.TensorOperator, "nfactors"),
        (bellforge.Observable, "dim"),
        (bellforge.bell, "_check_state"),
        (bellforge.bell, "_corr_raw"),
        (bellforge.cli, "entrypoint"),
    )
    assert [name for owner, name in aliases if hasattr(owner, name)] == []
    assert bellforge.cli.__all__ == ["main"]
    # plain text: ``tomllib`` is not in Python 3.10
    lines = PYPROJECT.read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if line.startswith("bellforge =")] == [
        'bellforge = "bellforge.cli:main"'
    ]


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


# Public names that nothing in the package or the benchmark calls yet, each with its reason.
UNCALLED_PUBLIC = {
    "original_bell_gap": "re-evaluates a see-saw optimum in the exact model",
    "chsh_value": "re-evaluates a see-saw optimum in the exact model",
    "dso_two_qubit": "the paper's d = 2 source operator, scattered from the proved block entries",
    "dso_general": "the paper's d >= 3 source operator, scattered from the proved block entries",
}


def _module_aliases(tree: ast.Module) -> set[str]:
    """Names that a file binds to ``bellforge`` or to one of its modules."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {
                a.asname or "bellforge" for a in node.names if a.name.split(".")[0] == "bellforge"
            }
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "bellforge"):
            aliases |= {a.asname or a.name for a in node.names}
    return aliases


def _bound(top: ast.stmt) -> set[str]:
    """Names that a top-level statement defines or assigns."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _called_names() -> set[str]:
    """Names imported from a bellforge module, read as an attribute of one, or used in their own
    module outside their definition, across the package and the benchmark; ``np.kron`` is none."""
    called = set()
    for _, tree in [*_modules(), *_modules(BENCHMARKS)]:
        aliases = _module_aliases(tree)
        defined = set().union(*map(_bound, tree.body))
        for top in tree.body:
            own = defined - _bound(top)
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "bellforge"
                ):
                    called |= {a.name for a in node.names}
                elif isinstance(node, ast.Attribute):
                    root = node.value
                    while isinstance(root, ast.Attribute):
                        root = root.value
                    if isinstance(root, ast.Name) and root.id in aliases:
                        called.add(node.attr)
                elif isinstance(node, ast.Name) and node.id in own:
                    called.add(node.id)
    return called


def test_public_names_have_callers():
    """Each public name is called by the solvers, the CLI or the benchmark, or is listed, with
    its reason, in ``UNCALLED_PUBLIC``; a listed name that gains a caller leaves the list."""
    uncalled = set(bellforge.__all__) - _called_names()
    assert uncalled == set(UNCALLED_PUBLIC), (
        f"public names without a caller: {sorted(uncalled - set(UNCALLED_PUBLIC))}; "
        f"listed but called: {sorted(set(UNCALLED_PUBLIC) - uncalled)}"
    )
