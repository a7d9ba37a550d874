"""Every import in the package and in its tests is used: each name a module
imports is read somewhere in it or exported through its ``__all__``.
``from .m import *`` binds the names of m's literal ``__all__``, and
``__all__ += m.__all__`` exports them.  The source checks use the standard
library only; the last test imports the package to check the names it
exports."""

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
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
# (file, name) of the one import made for its side effect, not for a name:
# conftest's hypothesis.extra._patching, on a line marked noqa: F401
SIDE_EFFECT_IMPORTS = {("conftest.py", "hypothesis")}


def test_the_check_sees_every_module():
    assert len(MODULES) >= 12
    assert len(TESTS) >= 18


def _side_effect(path: Path, name: str, line: int) -> bool:
    text = path.read_text(encoding="utf-8").splitlines()[line - 1]
    return (path.name, name) in SIDE_EFFECT_IMPORTS and "# noqa: F401" in text


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in _imported(tree)
        if name not in used and not _side_effect(path, name, line)
    ]
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


def _error_classes(tree: ast.Module) -> list[str]:
    """The classes errors.py derives from MpsRestrictError, directly or
    through another of its classes."""
    classes = ["MpsRestrictError"]
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id in classes for b in node.bases):
            classes.append(node.name)
    return classes[1:]


def test_every_error_class_is_named_by_code_outside_errors():
    """An error class that no code of the package raises, passes or catches,
    such as the error of a check that was deleted, is deleted with it.  Only
    code counts: an import, a docstring or a comment naming the class does
    not."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    read = {name for module, tree in trees.items() if module != "errors.py" for name in _reads(tree)}
    classes = _error_classes(trees["errors.py"])
    assert len(classes) >= 20
    dead = [name for name in classes if name not in read]
    assert not dead, f"error classes no code outside errors.py names: {dead}"


def _readers(tree: ast.Module, names: set[str]) -> set[str]:
    """The module-level definitions of tree (a class counting with its
    methods, other statements as "<module>") whose code reads any of names."""
    return {getattr(node, "name", "<module>") for node in tree.body if names & set(_reads(node))}


def test_one_loop_and_one_bound_iterate_the_transfer_map():
    """Every power of E or E* comes from ``chain._powers``, after the one
    bound ``chain._check_steps``: no other code of the package applies a
    transfer map, save ``fixed_point``'s residual, and no other code reads
    the cap.  A second loop or a second cap fails here."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}

    def readers(names):
        return {(module, name) for module, tree in trees.items() for name in _readers(tree, names)}

    assert readers({"transfer_apply", "transfer_adjoint_apply"}) == {("chain.py", "_powers"), ("chain.py", "fixed_point")}
    assert readers({"_MAX_ENV_ITER"}) == {("chain.py", "_check_steps")}
    assert readers({"_check_steps"}) == {("chain.py", "_powers"), ("purity.py", "span_purity_test")}


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
    window_distribution chain_distribution classical_cmi cmi_report
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


def test_one_kernel_takes_each_string_products_spectrum_and_nu1_nu2():
    """The spectrum of a string product's Gram T T^dag and its nu1 nu2
    come from ``restriction._spectra`` (closed forms at D = 2), which the
    scans, ``post_measurement_spectrum`` and w's closed form read; its
    D >= 3 nu1 nu2 and w's check route are ``_nu12``, the one reader of
    the exterior square.  A second eigvalsh dispatch or |det| fails here."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}

    def readers(names):
        return {(module, name) for module, tree in trees.items() for name in _readers(tree, names)}

    assert readers({"_spectra"}) == {
        ("restriction.py", "_scans"),
        ("restriction.py", "post_measurement_spectrum"),
        ("purity.py", "_w_pair"),
    }
    assert readers({"_nu12"}) == {("restriction.py", "_spectra"), ("purity.py", "_w_leaf")}
    assert readers({"exterior_square"}) == {("restriction.py", "_nu12")}


def test_the_restriction_module_owns_the_cmi_table_route():
    """The rows' classical CMI has one path, inside ``restriction`` alone:
    ``_cmi_rows`` takes four streamed window entropies from the walks of
    ``_window_walk``, the one window path, which ``window_distribution``
    also reads for its one table.  No route is picked: ``_stationary`` is
    read only where the stationary context is its own fold.  The walk's
    entropy is the one ``_StreamedEntropy``, and one generator,
    ``_batches``, joins a depth's stacks for it and for ``_string_tables``.
    Each entropy's sums, of the streamed blocks and of the Shannon and von
    Neumann entropies, are the one ``linalg._plogp_sums``.  The CLI imports
    no window path."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}

    def readers(names):
        return {(module, name) for module, tree in trees.items() for name in _readers(tree, names)}

    assert readers({"_stationary"}) == {("restriction.py", "_absorb_windows")}
    assert readers({"_window_walk"}) == {("restriction.py", "window_distribution"), ("restriction.py", "_cmi_rows")}
    assert readers({"_StreamedEntropy"}) == {("restriction.py", "_window_walk")}
    assert readers({"_batches"}) == {("restriction.py", "_string_tables"), ("restriction.py", "_window_walk")}
    assert readers({"_plogp_sums"}) == {
        ("linalg.py", "von_neumann_entropy"),
        ("linalg.py", "shannon_entropy"),
        ("restriction.py", "_StreamedEntropy"),
    }
    assert not {"_window_walk", "window_distribution"} & {name for name, _ in _imported(trees["cli.py"])}


def _literal(tree: ast.Module, name: str) -> ast.expr:
    """The value a module-level assignment, annotated or not, binds to name."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node.value
    raise AssertionError(f"no module-level assignment of {name}")


def test_the_names_the_benchmark_traces_are_the_packages():
    """perfbench/tracer.py wraps package functions by name and binds their
    parameters by name, so a function or parameter that is retired or
    renamed fails here, read from the tracer's source with no import: each
    ``module.name`` of ``TRACED`` and ``CLI_VERBS`` is a module-level
    function of that module, and each ``_COUNTERS`` entry's counter (such as
    ``_table("m")``) names a parameter of its function."""
    tracer = ast.parse((PACKAGE.parent.parent / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    functions = {}
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                functions[f"{path.stem}.{node.name}"] = {a.arg for a in args}
    traced = [e.value for name in ("TRACED", "CLI_VERBS") for e in _literal(tracer, name).elts]
    assert len(traced) >= 19
    assert [name for name in traced if name not in functions] == []
    counters = _literal(tracer, "_COUNTERS")
    bound = {key.value: [a.value for a in call.args] for key, call in zip(counters.keys, counters.values)}
    assert len(bound) >= 9 and all(len(params) == 1 for params in bound.values())
    for name, (param,) in bound.items():
        assert param in functions.get(name, ()), f"{name} has no parameter {param!r}"
