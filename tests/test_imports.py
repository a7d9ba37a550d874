"""Every import in the package is used: each name a module imports is read
somewhere in it or exported through its ``__all__``.  ``from .m import *``
binds the names of m's literal ``__all__``, and ``__all__ += m.__all__``
exports them.  The source checks use the standard library only; the last
test imports the package to check the names it exports."""

import ast
import importlib
from pathlib import Path

import pytest

import mpsrestrict

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mpsrestrict"


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "__all__"


def _declared(module: str) -> list[str]:
    """The entries of the literal ``__all__`` of the package's module; a
    module without one fails the check."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(_is_all(t) for t in node.targets):
            return [entry.value for entry in node.value.elts]
    raise AssertionError(f"{module}.py has no literal __all__ to star-import")


def _imported(tree: ast.Module):
    """(name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name == "*":
                    yield from ((name, node.lineno) for name in _declared(node.module))
                else:
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            yield node.returns


def _used(tree: ast.Module) -> set[str]:
    """The names a module reads: in code, in quoted annotations such as
    ``-> "KrausFamily"``, as the entries of its ``__all__`` and as those of
    each ``m.__all__`` added to it."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(_is_all(t) for t in node.targets):
            used |= {entry.value for entry in node.value.elts}
        elif isinstance(node, ast.AugAssign) and _is_all(node.target):  # __all__ += m.__all__
            used |= set(_declared(node.value.value.id))
    return used


MODULES = sorted(PACKAGE.glob("*.py"))


def test_the_check_sees_every_module():
    assert len(MODULES) >= 12


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree: ast.Module):
    """(name, node) for each module-level function, class or variable whose
    name starts with a single underscore."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            names = [node.name]
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(node: ast.AST, skip: ast.AST | None = None):
    """The names read below node, as bare names or attributes, leaving out
    the subtree ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, skip)


def test_every_private_name_is_read_in_the_package():
    """A private helper that only the tests still call, such as a kernel
    that another has replaced, is deleted rather than kept."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    unread = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            read = any(name in _reads(t, node if t is tree else None) for t in trees.values())
            if not read:
                unread.append(f"{module}: {name} (line {node.lineno})")
    assert not unread, f"private names never read in src: {unread}"


# The modules whose ``__all__`` the package re-exports, and the public names,
# pinned so that a name joining or leaving the package is a visible change.
REEXPORTED = ("chain", "gibbs", "linalg", "models", "modelio", "purity", "restriction", "trajectories")
PUBLIC = set(
    """
    __version__ MpsRestrictError
    KrausFamily BoundaryPair ChainGeometry TransferFixedPoint transfer_apply transfer_adjoint_apply
    transfer_matrix fixed_point left_environment right_environment sqrt_env normalization_k2 renormalize
    ChainDistribution LocalHamiltonian marginal local_hamiltonian partition_function gibbs_distribution
    relative_entropy cmi_decomposition_check tail_bound_check
    Spectrum herm_eigen singular_values von_neumann_entropy shannon_entropy binary_entropy g_func
    exterior_square clock_shift_basis gram_matrix gram_rank
    aklt aklt_pauli jordan markov clock damping BUILTINS
    ModelFile load_model save_model
    CorrectableReport DecaySeries PurityVerdict product_set span_purity_test correctable_subspace
    purity_verdict w_series f_series estimate_rate haar_kraus build_r_operator constructive_purity_family
    RestrictionContext CmiReport RestrictionSummary DEFAULT_GUARD string_probability
    post_measurement_spectrum average_entropy quantum_cmi average_purity_q restriction_scan
    window_distribution window_distributions chain_distribution classical_cmi cmi_report
    MartingaleTrace sample_trajectory sample_trajectories martingale_step_check mean_m_check
    purification_statistic
    """.split()
)


def test_each_public_name_has_one_owner():
    """A name a module declares public is the package's name for the same
    object, and no name is declared by two modules, so none is declared by
    a module that only imports it."""
    for module in REEXPORTED:
        owner = importlib.import_module(f"mpsrestrict.{module}")
        for name in owner.__all__:
            assert getattr(mpsrestrict, name) is getattr(owner, name), f"{module}.{name}"
    assert len(mpsrestrict.__all__) == len(set(mpsrestrict.__all__))
    assert set(mpsrestrict.__all__) == PUBLIC
