import functools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracle
from mpsrestrict import __version__, errors
from mpsrestrict.cli import main
from mpsrestrict.modelio import load_model
from mpsrestrict.restriction import _CHUNK_STRINGS

GOLDEN = Path(__file__).parent / "golden"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mpsrestrict" in capsys.readouterr().out


def test_the_package_version_is_pyprojects():
    """One version: pyproject's (read with a regex, as Python 3.10 has no
    tomllib) is the one ``--version`` and every report show."""
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'(?m)^version\s*=\s*"([^"]+)"$', text) == [__version__]


@pytest.mark.parametrize(
    "argv,code,out",
    [(["--version"], 0, f"mpsrestrict {__version__}\n"), (["--no-such-flag"], 3, "")],
)
def test_python_dash_m_passes_the_exit_code_through(argv, code, out):
    """``python -m mpsrestrict`` runs the CLI and exits with its code: 0 for
    --version, 3 for a usage error."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "mpsrestrict", *argv], capture_output=True, text=True, env=env
    )
    assert run.returncode == code
    assert run.stdout == out
    assert ("usage:" in run.stderr) == (code == 3)


def test_analyze_golden_report(tmp_path):
    """Byte-exact regression against the committed reference report."""
    out = tmp_path / "report.json"
    rc = main(["analyze", "--builtin", "aklt", "--nmax", "4", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "aklt_nmax4.json").read_bytes()


def test_analyze_finite_golden_report(tmp_path, monkeypatch):
    """Byte-exact regression of a finite-chain report: the Haar D3 d3 family
    of seed 7 with fixed boundaries L = e0 and R = (1, i, 1)/sqrt(3), whose
    window tables are walks on vectors with F != 1.  The model path is relative, so
    the report's ``source`` does not depend on where the tests run."""
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / "report.json"
    rc = main(["analyze", "--model", "haar_d3_d3_finite_model.json", "--nmax", "3", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "haar_d3_d3_finite_nmax3.json").read_bytes()


@pytest.mark.parametrize(
    "flags,sites",
    [
        (["--builtin", "aklt", "--nmax", "8"], 12),
        (["--model", str(GOLDEN / "haar_d3_d3_finite_model.json"), "--nmax", "3"], 7),
    ],
)
def test_analyze_builds_every_window_table_from_one_walk(flags, sites, monkeypatch, capsys):
    """The one window table analyze forms, the Gibbs chain's, comes from the
    walk of the given context to the longest window (a+nmax+c sites), which
    also streams that context's row entropies.  A finite chain (here a = c
    = 2) walks each of its three folded contexts once more, to a+nmax,
    nmax+c and nmax sites; the stationary context is its own fold and is
    walked once.  Every row's scan comes from one walk to the longest
    block, and each length of w from one walk at D >= 3 (the finite model)
    and from none at D = 2 (AKLT), where w is the determinant sum; the
    restriction module walks no other tree."""
    from mpsrestrict import restriction

    walks = []
    products = restriction._products

    def counted(K, root, n, guard):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_recorded":  # named by the reduction it records
            caller = caller.f_back
        walks.append((caller.f_code.co_name, n))
        return products(K, root, n, guard)

    monkeypatch.setattr(restriction, "_products", counted)
    assert main(["analyze", *flags]) == 0
    nmax = int(flags[-1])
    finite = "aklt" not in flags
    windows = [sites, sites - 2, sites - 2, sites - 4] if finite else [sites]
    w_walks = [("_w_pair", n) for n in range(1, nmax + 1)] if finite else []
    assert walks == [*(("_window_walk", m) for m in windows), ("_scans", nmax), *w_walks]


def _spy_window_walks(monkeypatch, argv: list[str]) -> tuple[list, list]:
    """Run ``argv``, check that no (context, length) entropy is taken twice,
    and return each window walk as (context, entropy lengths, table length
    or None) and each adopted table as (length, inside the Gibbs block, a
    raw table of a walk)."""
    from mpsrestrict import cli, gibbs, restriction

    walks, adopted, taken, raw = [], [], [], []
    in_gibbs = [False]
    walk, block = restriction._window_walk, cli._gibbs_block
    adopt = gibbs.ChainDistribution.__dict__["_adopt"].__func__
    entropy = restriction._StreamedEntropy.entropy

    def spy_walk(ctx, entropies, table, guard):
        h, out = walk(ctx, entropies, table, guard)
        assert (out is None) == (table is None)
        walks.append((ctx, list(h), table))
        taken.extend((ctx, m) for m in h)
        raw.append(out)
        return h, out

    def spy_block(dist, ell):
        in_gibbs[0] = True
        try:
            return block(dist, ell)
        finally:
            in_gibbs[0] = False

    def spy_adopt(cls, length, d, table, smoothing_eps=None):
        adopted.append((length, in_gibbs[0], any(table is t for t in raw)))
        return adopt(cls, length, d, table, smoothing_eps)

    def spy_entropy(self):
        spy_entropy.calls += 1
        return entropy(self)

    spy_entropy.calls = 0
    monkeypatch.setattr(restriction, "_window_walk", spy_walk)
    monkeypatch.setattr(cli, "_gibbs_block", spy_block)
    monkeypatch.setattr(gibbs.ChainDistribution, "_adopt", classmethod(spy_adopt))
    monkeypatch.setattr(restriction._StreamedEntropy, "entropy", spy_entropy)
    assert main(argv) == 0
    assert spy_entropy.calls == len(taken) == len({(id(ctx), m) for ctx, m in taken})
    return walks, adopted


def test_stationary_analyze_takes_each_level_entropy_once(monkeypatch, capsys):
    """The stationary context is its own fold, so analyze walks it once:
    that walk streams the entropy of each length 1..a+nmax+c once and fills
    the one table, the Gibbs chain's 6 sites, which the Gibbs block adopts
    in place from the walk's raw table.  Nothing else is adopted but the
    block's smoothed copy and its fit's Gibbs table."""
    walks, adopted = _spy_window_walks(monkeypatch, ["analyze", "--builtin", "aklt", "--nmax", "8"])
    assert [(h, t) for _, h, t in walks] == [(list(range(1, 13)), 6)]
    assert adopted == [(6, False, True), (6, True, False), (6, True, False)]


def test_finite_analyze_adopts_each_table_once(tmp_path, monkeypatch, capsys):
    """Finite rows walk four distinct contexts once each, the given one
    first: it streams the a+b+c entropies (5..8 sites) and fills the Gibbs
    chain's table, the one table adopted, in place.  The folds (sigma, F_c),
    (sigma_a, F) and (sigma_a, F_c) stream the a+b, b+c and b entropies
    (3..6, 3..6 and 1..4 sites) and form no table, and the last is the
    context the scans read."""
    from mpsrestrict import restriction
    from mpsrestrict.chain import BoundaryPair
    from mpsrestrict.modelio import save_model
    from mpsrestrict.purity import haar_kraus

    rng = np.random.default_rng(40)
    L, R = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
    model = tmp_path / "m.json"
    save_model(model, haar_kraus(3, 5, seed=40), boundaries=BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R)))
    scanned = []
    scans = restriction._scans
    monkeypatch.setattr(restriction, "_scans", lambda ctx, ns, guard: scanned.append(ctx) or scans(ctx, ns, guard))
    walks, adopted = _spy_window_walks(monkeypatch, ["analyze", "--model", str(model), "--nmax", "4"])
    assert json.loads(capsys.readouterr().out)["mode"] == "finite"
    assert [(h, t) for _, h, t in walks] == [([5, 6, 7, 8], 6), ([3, 4, 5, 6], None), ([3, 4, 5, 6], None), ([1, 2, 3, 4], None)]
    contexts = [ctx for ctx, _, _ in walks]
    assert len({id(ctx) for ctx in contexts}) == 4
    assert scanned == [contexts[3]]
    assert adopted == [(6, False, True), (6, True, False)]


@pytest.mark.parametrize("source", ["aklt", "haar-D3-d5-boundaries"])
def test_analyze_peaks_below_two_megabytes(source, tmp_path):
    """With every row entropy streamed and the Gibbs chain's table the one
    table formed, a whole analyze run stays below 2 MB traced: the
    valence-bond chain at --nmax 8 (a 12-site walk; 6.75 MB with a table
    per length) and a Haar D3 d5 chain with boundaries at --nmax 4 (four
    walks to 8, 6, 6 and 4 sites; 6.30 MB with a table per row)."""
    from mpsrestrict.chain import BoundaryPair
    from mpsrestrict.modelio import save_model
    from mpsrestrict.purity import haar_kraus

    if source == "aklt":
        argv = ["analyze", "--builtin", "aklt", "--nmax", "8"]
    else:
        rng = np.random.default_rng(41)
        L, R = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
        ends = BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R))
        save_model(tmp_path / "m.json", haar_kraus(3, 5, seed=41), boundaries=ends)
        argv = ["analyze", "--model", str(tmp_path / "m.json"), "--nmax", "4"]
    argv += ["--out", str(tmp_path / "r.json")]
    assert main(argv) == 0  # imports and first-call caches, untraced
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_analyze_folds_the_window_sites_once(monkeypatch, capsys):
    """A finite chain's rows share their window sites, so analyze folds
    them into the environments once for all its blocks: each of the three
    folds (0, c), (a, 0) and (a, c) is formed once."""
    from mpsrestrict import restriction

    folds = []
    absorb = restriction._absorb_windows

    def counted(ctx, window_a, window_c):
        folds.append((window_a, window_c))
        return absorb(ctx, window_a, window_c)

    monkeypatch.setattr(restriction, "_absorb_windows", counted)
    model = str(GOLDEN / "haar_d3_d3_finite_model.json")
    assert main(["analyze", "--model", model, "--nmax", "3", "--geometry", "1,2,2"]) == 0
    assert folds == [(0, 2), (1, 0), (1, 2)]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--builtin", "aklt", "--nmax", "x"],
        ["analyze", "--nmax", "2"],
        ["analyze", "--builtin", "aklt", "--format", "xml"],
        ["nosuch"],
        [],
    ],
)
def test_usage_errors_exit_3(argv, capsys):
    """A malformed, missing or unknown flag is bad input (exit 3); exit 2
    is the enumeration guard's alone."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["sample", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_analyze_thread_count_does_not_change_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["analyze", "--builtin", "aklt", "--nmax", "4", "--threads", "1", "--out", str(a)]) == 0
    assert main(["analyze", "--builtin", "aklt", "--nmax", "4", "--threads", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_analyze_report_contents(tmp_path):
    out = tmp_path / "r.json"
    assert main(["analyze", "--builtin", "markov", "--nmax", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["model"]["D"] == 2 and rep["model"]["d"] == 4
    assert rep["model"]["normalization_residual"] < 1e-12
    assert rep["mode"] == "stationary"
    assert [r["n"] for r in rep["per_n"]] == [1, 2, 3]
    for row in rep["per_n"]:
        assert row["p_sum"] == pytest.approx(1.0, abs=1e-10)
        assert abs(row["classical_cmi"]) <= 1e-9  # Markov chains have none
        assert row["w"] == 0.0
    assert rep["rates"]["w"]["all_zero"] is True
    assert rep["rates"]["w"]["fitted"] is None  # -inf is serialized as null
    assert rep["purity"]["status"] == "SatisfiedUpToN"
    assert rep["gibbs"]["partition_function"] == pytest.approx(1.0, abs=1e-9)


def test_analyze_clock_replacement_row(tmp_path):
    out = tmp_path / "r.json"
    assert main(["analyze", "--builtin", "clock", "--nmax", "2", "--geometry", "1,2,1", "--ell", "1", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    for row in rep["per_n"]:
        assert row["w"] == pytest.approx(1.0, abs=1e-12)
        assert row["quantum_cmi"] == pytest.approx(2.0 * np.log(3.0), abs=1e-10)
    assert rep["purity"]["status"] == "ViolatedUpToN"


def test_analyze_at_a_loose_tol_reports_no_violation_that_w_refutes(capsys):
    """At --tol 0.5 the staircase keeps AKLT's invariant full space through
    n = 4, but w(1) = 1/3 < 1 rules out any rank-2 scalar subspace."""
    assert main(["analyze", "--builtin", "aklt", "--nmax", "4", "--tol", "0.5"]) == 0
    purity = json.loads(capsys.readouterr().out)["purity"]
    assert purity["correctable_ranks"] == [2, 2, 2, 2]
    assert purity["status"] == "Undetermined"
    assert "w(1) = 0.333333 < 1 rules out a rank-2 scalar subspace" in purity["evidence"]


def test_analyze_reports_a_staircase_whose_ranks_rise(tmp_path, capsys):
    """At D = 4 and a loose tol the search finds at length 4 a rank-3
    subspace it missed at length 3.  Each rank is a lower bound, reported as
    found, and the verdict is Undetermined."""
    from families import dark_block_family
    from mpsrestrict.modelio import save_model

    model = tmp_path / "m.json"
    save_model(model, dark_block_family(3, 1, 2, 53))
    assert main(["analyze", "--model", str(model), "--nmax", "5", "--tol", "1e-3"]) == 0
    purity = json.loads(capsys.readouterr().out)["purity"]
    assert purity["correctable_ranks"] == [2, 2, 2, 3, 3]
    assert purity["status"] == "Undetermined"


def test_analyze_csv(capsys):
    assert main(["analyze", "--builtin", "aklt", "--nmax", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,p_sum,avg_entropy,quantum_cmi,classical_cmi,avg_purity_q,w,f"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[6]) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_analyze_finite_model(tmp_path, capsys):
    model = tmp_path / "m.json"
    out = tmp_path / "r.json"
    from mpsrestrict.chain import BoundaryPair, ChainGeometry
    from mpsrestrict.modelio import save_model
    from mpsrestrict.models import damping

    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    save_model(
        model,
        damping(0.5),
        boundaries=BoundaryPair(L=v, R=v),
        geometry=ChainGeometry(len_a=1, len_b=2, len_c=1),
        label="damped",
    )
    assert main(["check", str(model)]) == 0
    assert "geometry: (1, 2, 1)" in capsys.readouterr().out.splitlines()
    assert main(["analyze", "--model", str(model), "--nmax", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["mode"] == "finite"
    assert rep["label"] == "damped"
    for row in rep["per_n"]:
        assert row["p_sum"] == pytest.approx(1.0, abs=1e-10)
        assert row["classical_cmi"] <= row["quantum_cmi"] + 1e-9


def test_analyze_records_the_geometry_it_applies(tmp_path):
    """A model file's geometry sets the window sites a and c, and the fit
    chain keeps --geometry's a+b+c sites, so the report records the windows
    and the Gibbs block the run used, not the flag's value."""
    from mpsrestrict.chain import BoundaryPair, ChainGeometry
    from mpsrestrict.modelio import save_model
    from mpsrestrict.purity import haar_kraus

    v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    model, out = tmp_path / "m.json", tmp_path / "r.json"
    save_model(model, haar_kraus(2, 3, seed=3), boundaries=BoundaryPair(L=v, R=v), geometry=ChainGeometry(1, 3, 1))
    assert main(["analyze", "--model", str(model), "--nmax", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["guards"]["geometry"] == [1, 4, 1]
    assert rep["gibbs"]["sites"] == 6


def test_exit_code_guard():
    assert main(["analyze", "--builtin", "aklt", "--nmax", "20", "--guard", "100"]) == 2


def test_exit_code_inconsistency(monkeypatch, capsys):
    from mpsrestrict import cli
    from mpsrestrict.errors import NumericalInconsistency

    def broken(*args, **kwargs):
        raise NumericalInconsistency("w(1) routes disagree")

    monkeypatch.setattr(cli, "w_series", broken)
    assert main(["analyze", "--builtin", "aklt", "--nmax", "2"]) == 4
    assert "w(1) routes disagree" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--guard", "-5"], ["--tol", "nan"]])
def test_sample_rejects_the_analyze_only_flags(flag, capsys):
    """sample enumerates nothing, so it has no guard and no tolerance:
    argparse rejects both flags with its usage error (exit 3) instead of
    ignoring them, while analyze keeps exit 2 for its guard and 3 for a bad
    tol."""
    argv = ["sample", "--builtin", "aklt", "--nmax", "1", "--trajectories", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 3
    assert "unrecognized arguments" in capsys.readouterr().err
    want = {"--guard": 2, "--tol": 3}[flag[0]]
    assert main(["analyze", "--builtin", "aklt", "--nmax", "2"] + flag) == want


def test_exit_code_bad_model(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "kraus-family", "schema_version": 1, "d": 1, "D": 1, "matrices": [[[[0.5, 0.0]]]]}')
    assert main(["check", str(bad)]) == 3
    assert main(["analyze", "--model", str(bad), "--nmax", "2"]) == 3
    assert main(["check", str(tmp_path / "missing.json")]) == 3
    assert main(["analyze", "--builtin", "nosuch", "--nmax", "2"]) == 3
    assert main(["analyze", "--builtin", "aklt", "--geometry", "1,2"]) == 3


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--builtin", "aklt", "--geometry", "2,x,2"], "--geometry entries must be integers, got '2,x,2'"),
        (["--builtin", "markov", "--p", "0.8,x;0.3,0.7"], "--p expects rows like '0.8,0.2;0.3,0.7'"),
        # a given --p is parsed whatever its text, not read as the default matrix
        (["--builtin", "markov", "--p", ""], "--p expects rows like '0.8,0.2;0.3,0.7', got ''\n"),
    ],
)
def test_a_malformed_flag_value_exits_3_with_its_message(flags, message, capsys):
    assert main(["analyze", *flags, "--nmax", "2"]) == 3
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "flags",
    [["--builtin", "damping", "--gamma", "0.5"], ["--builtin", "jordan", "--dim", "4"], ["--builtin", "clock", "--dim", "3"]],
    ids=lambda flags: flags[1],
)
def test_an_omitted_builtin_flag_takes_the_constructors_default(flags, tmp_path):
    given, omitted = tmp_path / "given.json", tmp_path / "omitted.json"
    assert main(["analyze", *flags, "--nmax", "2", "--out", str(given)]) == 0
    assert main(["analyze", *flags[:2], "--nmax", "2", "--out", str(omitted)]) == 0
    assert given.read_bytes() == omitted.read_bytes()


# flags each family does not take, and the message
STRAY_FLAGS = {
    "aklt-dim": (["--builtin", "aklt", "--dim", "5"], "--dim does not apply to builtin 'aklt'"),
    "clock-gamma": (["--builtin", "clock", "--gamma", "0.2"], "--gamma does not apply to builtin 'clock'"),
    "damping-p": (["--builtin", "damping", "--p", "0.5,0.5;0.5,0.5"], "--p does not apply to builtin 'damping'"),
    "model-dim": (["--model", "m.json", "--dim", "3"], "--dim does not apply to --model"),
}


@pytest.mark.parametrize("verb", ["analyze", "sample"])
@pytest.mark.parametrize("case", sorted(STRAY_FLAGS))
def test_a_stray_builtin_flag_exits_3_naming_it_before_any_model_work(verb, case, tmp_path, monkeypatch, capsys):
    """No family is built, no file loaded and nothing walked or sampled, and
    an existing --out keeps its bytes."""
    from mpsrestrict import cli
    from mpsrestrict.models import BUILTINS

    def forbidden(*args, **kwargs):
        raise AssertionError("model work before the flags were checked")

    _forbid_enumeration(monkeypatch)
    monkeypatch.setattr(cli, "load_model", forbidden)
    monkeypatch.setattr(cli, "sample_trajectories", forbidden)
    for name, family in BUILTINS.items():  # each keeps its signature
        monkeypatch.setitem(BUILTINS, name, functools.wraps(family)(lambda *a, **k: forbidden()))
    flags, message = STRAY_FLAGS[case]
    out = tmp_path / "out.txt"
    out.write_text("as it was\n")
    assert main([verb, *flags, "--nmax", "2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert out.read_text() == "as it was\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize(
    "cls",
    [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.MpsRestrictError)],
    ids=lambda c: c.__name__,
)
def test_every_error_class_carries_the_exit_code_main_returns(cls, monkeypatch, capsys):
    """2 is the guard's alone, the internal failures give 4, and ``main``
    returns the code of whatever a verb raises."""
    from mpsrestrict import cli

    assert cls.exit_code in (2, 3, 4)
    assert (cls.exit_code == 2) == issubclass(cls, errors.EnumerationTooLarge)
    internal = (errors.NumericalInconsistency, errors.NonConvergent, errors.CompletionFailed)
    if cls in internal:
        assert cls.exit_code == 4

    def raises(args):
        # built without __init__, whose arguments differ between classes
        raise cls.__new__(cls, "the verb failed")

    monkeypatch.setattr(cli, "cmd_check", raises)
    assert main(["check", "m.json"]) == cls.exit_code
    assert capsys.readouterr().err == "error: the verb failed\n"


def test_generate_check_analyze_pipeline(tmp_path, capsys):
    model = tmp_path / "haar.json"
    assert main(["generate", "haar", "--dim", "2", "--phys", "3", "--seed", "5", "--out", str(model)]) == 0
    assert main(["check", str(model)]) == 0
    out = capsys.readouterr().out
    assert "d: 3" in out and "D: 2" in out
    report = tmp_path / "r.json"
    assert main(["analyze", "--model", str(model), "--nmax", "3", "--out", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["mode"] == "stationary"  # no boundaries in the file
    assert rep["purity"]["status"] == "SatisfiedCertified"


def test_generate_constructive(tmp_path):
    model = tmp_path / "c.json"
    assert main(["generate", "constructive", "--dim", "3", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    assert doc["d"] == 5 and doc["D"] == 3
    # even bond dimension is rejected as a parameter error
    assert main(["generate", "constructive", "--dim", "4", "--out", str(model)]) == 3


def test_sample_csv_deterministic(capsys):
    args = ["sample", "--builtin", "aklt", "--nmax", "3", "--trajectories", "2", "--seed", "9", "--format", "csv"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "trajectory,step,outcome,lambda1,lambda2,path_prob"
    assert len(lines) == 1 + 2 * 3


def test_sample_json(tmp_path):
    out = tmp_path / "s.json"
    assert main(["sample", "--builtin", "jordan", "--dim", "3", "--nmax", "4", "--trajectories", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["steps"] == 4 and doc["trajectories"] == 2
    assert len(doc["rows"]) == 8
    for row in doc["rows"]:
        assert 0.0 <= row["path_prob"] <= 1.0 + 1e-12


def test_sample_runs_past_the_float_floor_of_the_path_probability(tmp_path):
    """clock's path probability 9^-n leaves the floats near n = 340; the
    sampler used to die there with all continuations at zero weight."""
    out = tmp_path / "s.json"
    assert main(["sample", "--builtin", "clock", "--nmax", "400", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 100 * 400
    assert all(np.isfinite(r["lambda1"]) and np.isfinite(r["lambda2"]) for r in rows)
    assert rows[-1]["path_prob"] == 0.0


def test_sample_blocks_are_the_oracle_rows(tmp_path):
    """600 trajectories cross the 512-stream block boundary; the JSON and CSV
    bytes are rows built from the one-step-at-a-time oracle."""
    model = tmp_path / "haar.json"
    assert main(["generate", "haar", "--dim", "3", "--phys", "3", "--seed", "4", "--out", str(model)]) == 0
    K = load_model(model).kraus
    count = 600
    assert count > _CHUNK_STRINGS
    rows = oracle.sample_rows(K, 4, 3, count)
    args = ["sample", "--model", str(model), "--nmax", "4", "--trajectories", str(count), "--seed", "3"]
    js, csv = tmp_path / "s.json", tmp_path / "s.csv"
    assert main(args + ["--out", str(js)]) == 0
    assert main(args + ["--format", "csv", "--out", str(csv)]) == 0
    doc = json.loads(js.read_text())
    doc["rows"] = rows
    assert js.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    assert csv.read_bytes() == oracle.sample_csv(rows).encode()


_ODD_LABEL = 'he wrote "rows": [] in Z\u00fcrich'

# (builtin flags or None for a model file labelled _ODD_LABEL, steps, trajectories)
SAMPLE_EDGES = {
    "one": (["--builtin", "aklt"], 3, 1),
    "one-block": (["--builtin", "aklt"], 3, _CHUNK_STRINGS),
    "one-past-a-block": (["--builtin", "aklt"], 3, _CHUNK_STRINGS + 1),
    # a block is rendered in slices of _CHUNK_STRINGS // steps trajectories
    "one-past-a-slice": (["--builtin", "aklt"], 3, _CHUNK_STRINGS // 3 + 1),
    # a slice holds one trajectory when it has more steps than _CHUNK_STRINGS
    "longer-than-a-slice": (["--builtin", "aklt"], _CHUNK_STRINGS + 1, 2),
    "bond-dimension-one": (["--builtin", "markov", "--p", "1"], 3, 4),
    "odd-label": (None, 2, 3),
}


def _sample_output(args, out, capsys) -> bytes:
    if out is None:
        capsys.readouterr()
        assert main(args) == 0
        return capsys.readouterr().out.encode()
    assert main(args + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("dest", ["out", "stdout"])
@pytest.mark.parametrize("case", sorted(SAMPLE_EDGES))
def test_sample_edges_are_the_oracle_bytes(tmp_path, capsys, case, dest):
    from mpsrestrict.models import aklt, markov

    flags, steps, count = SAMPLE_EDGES[case]
    if flags is None:
        model = tmp_path / "odd.json"
        assert main(["generate", "haar", "--dim", "2", "--phys", "3", "--seed", "1", "--label", _ODD_LABEL, "--out", str(model)]) == 0
        flags, K, label = ["--model", str(model)], load_model(model).kraus, _ODD_LABEL
    else:
        K, label = (aklt() if flags[1] == "aklt" else markov([[1.0]])), flags[1]
    rows = oracle.sample_rows(K, steps, 5, count)
    args = ["sample", *flags, "--nmax", str(steps), "--trajectories", str(count), "--seed", "5"]
    js = _sample_output(args, tmp_path / "s.json" if dest == "out" else None, capsys)
    csv = _sample_output(args + ["--format", "csv"], tmp_path / "s.csv" if dest == "out" else None, capsys)
    doc = json.loads(js)
    assert (doc["label"], doc["steps"], doc["trajectories"]) == (label, steps, count)
    doc["rows"] = rows
    assert js == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    assert csv == oracle.sample_csv(rows).encode()
    if K.D == 1:
        assert {r["lambda2"] for r in rows} == {0.0}


def test_sample_writes_non_finite_values_as_json_and_csv_did(monkeypatch, tmp_path):
    """json.dumps spells nan and +-inf NaN, Infinity and -Infinity; the CSV
    writes repr: nan, inf and -inf."""
    from mpsrestrict import cli
    from mpsrestrict.models import aklt

    drawn = cli.sample_trajectories
    poison = [float("nan"), float("inf"), float("-inf")]

    def poisoned(*args):
        outcomes, m_ops, probs = drawn(*args)
        probs[0, :3] = poison
        return outcomes, m_ops, probs

    monkeypatch.setattr(cli, "sample_trajectories", poisoned)
    rows = oracle.sample_rows(aklt(), 4, 0, 2)
    for row, value in zip(rows, poison):
        row["path_prob"] = value
    args = ["sample", "--builtin", "aklt", "--nmax", "4", "--trajectories", "2"]
    js, csv = tmp_path / "s.json", tmp_path / "s.csv"
    assert main(args + ["--out", str(js)]) == 0
    assert main(args + ["--format", "csv", "--out", str(csv)]) == 0
    doc = json.loads(js.read_text())
    doc["rows"] = rows
    assert js.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    assert csv.read_bytes() == oracle.sample_csv(rows).encode()
    for spelling in ("NaN", "Infinity", "-Infinity"):
        assert f'"path_prob": {spelling},' in js.read_text()
    for spelling in ("nan", "inf", "-inf"):
        assert f",{spelling}\n" in csv.read_text()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_failing_sample_writes_no_file(monkeypatch, tmp_path, fmt):
    """A bad length fails before sampling, and a zero-probability path in the
    second block after the first was rendered; neither leaves a file."""
    from mpsrestrict import cli
    from mpsrestrict.errors import ZeroProbabilityPath

    out = tmp_path / "f"
    assert main(["sample", "--builtin", "aklt", "--nmax", "0", "--format", fmt, "--out", str(out)]) == 3
    assert not out.exists()

    drawn = cli.sample_trajectories

    def dies_in_the_second_block(K, n, seed, streams):
        if streams[0] > 0:
            raise ZeroProbabilityPath("all continuations have zero weight")
        return drawn(K, n, seed, streams)

    monkeypatch.setattr(cli, "sample_trajectories", dies_in_the_second_block)
    count = str(_CHUNK_STRINGS + 1)
    assert main(["sample", "--builtin", "aklt", "--nmax", "2", "--trajectories", count, "--format", fmt, "--out", str(out)]) == 3
    assert not out.exists()


def _dies_in_the_second_block(monkeypatch):
    from mpsrestrict import cli
    from mpsrestrict.errors import ZeroProbabilityPath

    drawn = cli.sample_trajectories

    def dies(K, n, seed, streams):
        if streams[0] > 0:
            raise ZeroProbabilityPath("all continuations have zero weight")
        return drawn(K, n, seed, streams)

    monkeypatch.setattr(cli, "sample_trajectories", dies)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_failing_sample_on_stdout_keeps_the_rows_it_wrote(monkeypatch, capsys, fmt):
    """Rows stream to stdout as they are rendered: a run that dies in its
    second block exits 3 with the first block's two slices written."""
    from mpsrestrict.models import aklt

    _dies_in_the_second_block(monkeypatch)
    count = _CHUNK_STRINGS + 1
    capsys.readouterr()
    assert main(["sample", "--builtin", "aklt", "--nmax", "2", "--trajectories", str(count), "--format", fmt]) == 3
    out = capsys.readouterr().out
    rows = oracle.sample_rows(aklt(), 2, 0, _CHUNK_STRINGS)
    if fmt == "csv":
        assert out == oracle.sample_csv(rows)
    else:
        doc = {
            "schema_version": 1, "library_version": __version__, "label": "aklt", "source": "builtin:aklt",
            "seed": 0, "steps": 2, "trajectories": count, "rows": rows,
        }
        # the document up to the last row written: no closing bracket, no tail
        assert out == json.dumps(doc, indent=2, sort_keys=True).partition("\n  ],\n")[0]


@pytest.mark.parametrize("verb", ["sample", "analyze"])
def test_a_bad_out_fails_before_any_model_work(tmp_path, capsys, verb):
    """The destination is opened first, so a missing directory exits 3 at
    once, not after seconds of sampling or enumeration."""
    import time

    model = tmp_path / "haar.json"
    assert main(["generate", "haar", "--dim", "4", "--phys", "3", "--seed", "1", "--out", str(model)]) == 0
    # seconds of work each: 20,000 trajectories, or 3^13 dense strings per table
    work = {
        "sample": ["--nmax", "20", "--trajectories", "20000"],
        "analyze": ["--nmax", "11", "--geometry", "1,11,1"],
    }[verb]
    out = tmp_path / "missing" / "r.json"
    t0 = time.perf_counter()
    assert main([verb, "--model", str(model), *work, "--out", str(out)]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert str(out) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [model]


@pytest.mark.parametrize("verb", ["sample", "analyze"])
def test_an_empty_out_exits_3_before_any_model_work(tmp_path, capsys, verb, monkeypatch):
    """An empty --out names no file, as for generate: it exits 3 with a
    message naming --out, not a report on stdout, and reads no model."""
    from mpsrestrict import cli

    monkeypatch.setattr(cli, "_resolve_model", lambda args: pytest.fail("resolved the model"))
    monkeypatch.chdir(tmp_path)
    assert main([verb, "--builtin", "aklt", "--nmax", "2", "--out", ""]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "--out" in err
    assert list(tmp_path.iterdir()) == []


def test_generate_with_an_empty_out_exits_3_before_building_the_family(tmp_path, capsys, monkeypatch):
    from mpsrestrict import cli

    monkeypatch.setattr(cli, "haar_kraus", lambda *a: pytest.fail("built the family"))
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "haar", "--out", ""]) == 3
    assert capsys.readouterr().err == "error: --out names no file: the path is empty\n"
    assert list(tmp_path.iterdir()) == []


# (argv, exit code): sample dies in its second block, analyze at the guard
_FAILING_RUNS = {
    "sample": (["sample", "--builtin", "aklt", "--nmax", "2", "--trajectories", str(_CHUNK_STRINGS + 1)], 3),
    "analyze": (["analyze", "--builtin", "aklt", "--nmax", "20", "--guard", "100"], 2),
}


@pytest.mark.parametrize("verb", sorted(_FAILING_RUNS))
def test_a_failing_run_leaves_an_existing_out_as_it_was(monkeypatch, tmp_path, verb):
    _dies_in_the_second_block(monkeypatch)
    out = tmp_path / "r.json"
    out.write_bytes(b"the previous report\n")
    argv, code = _FAILING_RUNS[verb]
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == b"the previous report\n"
    assert list(tmp_path.iterdir()) == [out]


def test_out_gets_the_mode_open_would_leave(tmp_path):
    import stat

    args = ["sample", "--builtin", "aklt", "--nmax", "2", "--trajectories", "3"]
    plain = tmp_path / "plain"
    open(plain, "w").close()
    new = tmp_path / "new.json"
    assert main(args + ["--out", str(new)]) == 0
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    # an existing file keeps its mode, as when open(path, "w") truncates it
    new.chmod(0o604)
    assert main(args + ["--out", str(new)]) == 0
    assert stat.S_IMODE(new.stat().st_mode) == 0o604
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json", "plain"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("verb", ["sample", "analyze"])
def test_a_fifo_out_is_written_in_place(tmp_path, verb):
    """A FIFO is not replaced by a file: it gets the bytes a regular --out
    gets and is still a FIFO afterwards."""
    import stat
    import threading

    argv = [verb, "--builtin", "aklt", "--nmax", "3"] + (["--trajectories", "200"] if verb == "sample" else [])
    regular = tmp_path / "regular"
    assert main(argv + ["--out", str(regular)]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(argv + ["--out", str(fifo)]) == 0
    finally:
        reader.join(timeout=5)
        if reader.is_alive():  # the FIFO was never opened for writing: release the reader
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=5)
    assert got == [regular.read_bytes()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "regular"]


def test_sample_memory_does_not_grow_with_trajectories(tmp_path):
    """Rows are written as they are rendered, so the traced peak at four
    blocks of trajectories stays that of one block."""

    def peak(count: int) -> int:
        out = tmp_path / f"s{count}.json"
        tracemalloc.start()
        try:
            assert main(["sample", "--builtin", "aklt", "--nmax", "20", "--trajectories", str(count), "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # builds the builtin's cached state untraced
    assert peak(4 * _CHUNK_STRINGS) <= 1.25 * peak(_CHUNK_STRINGS)


def test_builtin_parameters(tmp_path):
    out = tmp_path / "r.json"
    assert main(["analyze", "--builtin", "damping", "--gamma", "0.25", "--nmax", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["per_n"][0]["w"] == pytest.approx(np.sqrt(0.75), rel=1e-12)
    assert main(["analyze", "--builtin", "markov", "--p", "0.5,0.5;0.5,0.5", "--nmax", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["fixed_point"]["gap"] == pytest.approx(1.0, abs=1e-10)
    assert main(["analyze", "--builtin", "markov", "--p", "0.5,0.6;0.5,0.5", "--nmax", "2"]) == 3


def _forbid_enumeration(monkeypatch):
    from mpsrestrict import cli

    def enumerated(*args, **kwargs):
        raise AssertionError("analyze enumerated before validating its plan")

    # analyze enumerates only through these
    for name in ("_cmi_rows", "w_series", "purity_verdict"):
        monkeypatch.setattr(cli, name, enumerated)


def test_analyze_guard_fails_before_enumerating(monkeypatch):
    _forbid_enumeration(monkeypatch)
    # the first rows fit (3^5 strings), the last windowed block (3^11) does not
    assert main(["analyze", "--builtin", "aklt", "--nmax", "7", "--guard", "100000"]) == 2
    # the rows fit (3^3), the Gibbs chain of the geometry (3^14) does not
    assert main(["analyze", "--builtin", "aklt", "--nmax", "1", "--geometry", "1,12,1", "--guard", "1000"]) == 2
    # a guard error is reported before a bad --ell
    assert main(["analyze", "--builtin", "aklt", "--nmax", "7", "--guard", "100000", "--ell", "5"]) == 2


def test_finite_analyze_checks_the_guard_before_forming_an_environment(monkeypatch):
    """A finite chain's context needs K^2 over its windows and a one-site
    block, here 200,002 sites: the guard refuses the plan first, with no
    step of the transfer map."""
    import time

    from mpsrestrict import chain

    for name in ("transfer_apply", "transfer_adjoint_apply"):
        monkeypatch.setattr(chain, name, lambda *a: pytest.fail("formed an environment"))
    model = str(GOLDEN / "haar_d3_d3_finite_model.json")
    start = time.perf_counter()
    assert main(["analyze", "--model", model, "--geometry", "200000,1,0", "--nmax", "1"]) == 2
    assert time.perf_counter() - start < 1.0


def test_finite_analyze_forms_each_transfer_power_once(monkeypatch, capsys):
    """A finite chain of geometry 2,2,2 and nmax 3 steps the transfer map 8
    times: 5 for the bare context's check of K^2 over 2 + 1 + 2 sites, 1
    for the fixed point's residual and 2 more for the 7-site window table.
    The scans of the rows fold the 2 left window sites into sigma' =
    E^2(sigma), and their powers E^n(sigma'), n <= 3, are the bare
    context's E^{2+n}(sigma), which the folded context starts from: they
    step the map no more (3 more steps before).  The adjoint map steps 2
    times, for the bare context's E*^2(F^dag F), which the folds (0, 2)
    and (2, 2) both read (4 steps before, 2 per fold)."""
    from mpsrestrict import chain

    calls = []
    for name in ("transfer_apply", "transfer_adjoint_apply"):
        step = getattr(chain, name)
        monkeypatch.setattr(chain, name, lambda K, M, _step=step, _name=name: calls.append(_name) or _step(K, M))
    model = str(GOLDEN / "haar_d3_d3_finite_model.json")
    assert main(["analyze", "--model", model, "--nmax", "3", "--geometry", "2,2,2"]) == 0
    assert calls.count("transfer_apply") == 8
    assert calls.count("transfer_adjoint_apply") == 2


def test_analyze_bad_ell_fails_before_enumerating(monkeypatch):
    _forbid_enumeration(monkeypatch)
    assert main(["analyze", "--builtin", "aklt", "--nmax", "7", "--ell", "5"]) == 3
    assert main(["analyze", "--builtin", "aklt", "--geometry", "0,1,0", "--ell", "1"]) == 3


@pytest.mark.parametrize("geometry, sites", [("0,1,0", 1), ("1,1,0", 2)])
def test_a_gibbs_chain_under_three_sites_names_its_geometry(geometry, sites, monkeypatch, capsys):
    """The range-ell fit needs 1 <= ell <= sites-2, so a chain of one or two
    sites has no ell at all: the error says so, before any walk."""
    _forbid_enumeration(monkeypatch)
    assert main(["analyze", "--builtin", "aklt", "--nmax", "1", "--geometry", geometry]) == 3
    err = capsys.readouterr().err
    assert f"geometry {geometry} gives {sites}" in err and "at least 3 sites" in err
    assert "= -1" not in err and "= 0," not in err


def test_the_gibbs_block_holds_few_tables():
    """The fit of the 10-site valence-bond table of --geometry 3,4,3 (which
    has zero strings, so it is smoothed first) peaks within 4.5 of its
    tables: the smoothed table, the Gibbs table formed in the log-weights'
    buffer, and the log ratio with one temporary.  Copies of each, and the
    expression temporaries of the energies and entropies, took 7.1; a Gibbs
    table beside the log-weights took 5.0."""
    from mpsrestrict import cli
    from mpsrestrict.models import aklt
    from mpsrestrict.restriction import RestrictionContext, window_distribution

    ctx = RestrictionContext.stationary(aklt())
    table = window_distribution(ctx, 10)
    assert table.min_entry == 0.0
    tracemalloc.start()
    try:
        block = cli._gibbs_block(table, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * table.table.nbytes
    assert block["sites"] == 10 and block["smoothing_eps"] == 1e-8


def test_analyze_rejects_a_single_outcome_before_enumerating(monkeypatch, tmp_path):
    from mpsrestrict.chain import KrausFamily
    from mpsrestrict.modelio import save_model

    _forbid_enumeration(monkeypatch)
    model = tmp_path / "m.json"
    save_model(model, KrausFamily(ops=np.eye(2, dtype=complex)[None]))
    assert main(["check", str(model)]) == 0
    assert main(["analyze", "--model", str(model)]) == 3


def test_analyze_purity_covers_nmax_past_twenty_thousand_strings(tmp_path):
    """The verdict's horizon is --nmax under the one enumeration guard, even
    where 2^15 products exceed the 20 000 the staircase used to be capped at."""
    from mpsrestrict.models import damping
    from mpsrestrict.purity import purity_verdict

    out = tmp_path / "r.json"
    args = ["--builtin", "damping", "--nmax", "15", "--geometry", "1,1,1", "--ell", "1"]
    assert main(["analyze", *args, "--out", str(out)]) == 0
    got = json.loads(out.read_text())["purity"]
    want = purity_verdict(damping(0.5), 15)
    assert got == {
        "status": want.status,
        "evidence": want.evidence,
        "n_max": 15,
        "span_passed_at": want.span_passed_at,
        "span_ranks": list(want.span_ranks),
        "correctable_ranks": list(want.correctable_ranks),
        "w_fitted_rate": want.w_fitted_rate,
    }


def test_analyze_enumerates_the_decay_series_once(monkeypatch, tmp_path):
    """The scans of the rows are walked once, and at D = 2 no length of w is
    walked at all, since w is the determinant sum: the verdict fits the
    w(1..6) of the rows' series, with the bits of the verdict run on its
    own."""
    from mpsrestrict import purity, restriction
    from mpsrestrict.models import aklt

    want = purity.purity_verdict(aklt(), 8)
    real = restriction._string_sum
    walks = []

    def counted(tree, depths, leaf):
        walks.append((leaf is purity._w_leaf, depths))
        return real(tree, depths, leaf)

    monkeypatch.setattr(restriction, "_string_sum", counted)
    out = tmp_path / "r.json"
    assert main(["analyze", "--builtin", "aklt", "--nmax", "8", "--out", str(out)]) == 0
    assert walks == [(False, list(range(1, 9)))]
    rep = json.loads(out.read_text())
    assert rep["purity"] == {
        "status": want.status,
        "evidence": want.evidence,
        "n_max": 8,
        "span_passed_at": want.span_passed_at,
        "span_ranks": list(want.span_ranks),
        "correctable_ranks": list(want.correctable_ranks),
        "w_fitted_rate": want.w_fitted_rate,
    }


def test_analyze_builds_its_gibbs_fit_once(monkeypatch, tmp_path):
    from mpsrestrict import gibbs

    calls = []
    for name in ("local_hamiltonian", "_energies"):
        real = getattr(gibbs, name)
        monkeypatch.setattr(gibbs, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    assert main(["analyze", "--builtin", "aklt", "--nmax", "4", "--out", str(tmp_path / "r.json")]) == 0
    assert sorted(calls) == ["_energies", "local_hamiltonian"]


_CMI_FIELDS = ("n", "p_sum", "avg_entropy", "quantum_cmi", "classical_cmi", "avg_purity_q", "f")


@pytest.mark.parametrize("source", ["aklt", "haar-D3-d3"])
def test_analyze_stationary_rows_are_cmi_report_bit_for_bit(tmp_path, source):
    from mpsrestrict.models import aklt
    from mpsrestrict.modelio import save_model
    from mpsrestrict.purity import haar_kraus
    from mpsrestrict.restriction import RestrictionContext, cmi_report

    out = tmp_path / "r.json"
    if source == "aklt":
        K, flags = aklt(), ["--builtin", "aklt"]
    else:
        K = haar_kraus(3, 3, seed=8)
        save_model(tmp_path / "m.json", K)
        flags = ["--model", str(tmp_path / "m.json")]
    assert main(["analyze", *flags, "--nmax", "4", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["per_n"]
    ctx = RestrictionContext.stationary(K)
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    for row in rows:
        rep = cmi_report(ctx, row["n"], 2, 2)
        for field in _CMI_FIELDS:
            assert row[field] == getattr(rep, field), (row["n"], field)


@pytest.mark.parametrize("geometry_flag", [None, "2,2,1"])
def test_analyze_finite_rows_match_the_oracle_chain(tmp_path, geometry_flag):
    """Classical CMI from the brute-force chain table, the quantum side from a
    context dressed with the window sites (the way analyze used to build it)."""
    import oracle
    from mpsrestrict.chain import BoundaryPair, ChainGeometry
    from mpsrestrict.gibbs import ChainDistribution
    from mpsrestrict.modelio import save_model
    from mpsrestrict.purity import haar_kraus
    from mpsrestrict.restriction import RestrictionContext, classical_cmi, restriction_scan

    K = haar_kraus(2, 3, seed=21)
    rng = np.random.default_rng(21)
    L, R = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
    b = BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R))
    model, out = tmp_path / "m.json", tmp_path / "r.json"
    if geometry_flag is None:
        a, c = 1, 1
        save_model(model, K, boundaries=b, geometry=ChainGeometry(a, 3, c))
        flags = []
    else:
        a, c = 2, 1
        save_model(model, K, boundaries=b)
        flags = ["--geometry", geometry_flag]
    assert main(["analyze", "--model", str(model), "--nmax", "3", *flags, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["mode"] == "finite"
    ctx = RestrictionContext.from_boundaries(K, b, ChainGeometry(a, 1, c))
    for row in rep["per_n"]:
        n = row["n"]
        geom = ChainGeometry(a, n, c)
        table = ChainDistribution(length=geom.total, d=K.d, table=oracle.chain(K, b, geom.total))
        scan = restriction_scan(ctx, n)
        want = {
            "p_sum": scan.p_sum,
            "avg_entropy": scan.avg_entropy,
            "quantum_cmi": 2.0 * scan.avg_entropy,
            "classical_cmi": max(0.0, classical_cmi(table, geom)),
            "avg_purity_q": scan.avg_purity_q,
            "f": scan.f_value,
        }
        for field, value in want.items():
            assert abs(row[field] - value) <= 1e-12, (n, field)


def test_analyze_finite_checks_k2_over_the_chains_it_tabulates(tmp_path):
    """A period-2 Markov chain from and to state 0 has K^2 = 0 on odd chains.
    With windows (1, 0) the one-site block's chain (2 sites) and the Gibbs
    chain (6 sites) are even, so --nmax 1 runs; --nmax 2 needs the 3-site
    chain and is rejected.  The 1-site chain of the windows alone is never
    tabulated, so its K^2 = 0 must not reject the pair."""
    from mpsrestrict.chain import BoundaryPair, ChainGeometry
    from mpsrestrict.modelio import save_model
    from mpsrestrict.models import markov

    e0 = np.array([1.0, 0.0])
    model = tmp_path / "m.json"
    save_model(
        model,
        markov([[0.0, 1.0], [1.0, 0.0]]),
        boundaries=BoundaryPair(L=e0, R=e0),
        geometry=ChainGeometry(len_a=1, len_b=1, len_c=0),
    )
    assert main(["analyze", "--model", str(model), "--nmax", "1", "--out", str(tmp_path / "r.json")]) == 0
    assert main(["analyze", "--model", str(model), "--nmax", "2", "--out", str(tmp_path / "r.json")]) == 3


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_analyze_rejects_a_bad_tol_before_enumerating(monkeypatch, tol):
    """NaN used to report aklt as ViolatedUpToN with a NaN in the JSON, and
    -1 died in a RecursionError."""
    _forbid_enumeration(monkeypatch)
    assert main(["analyze", "--builtin", "aklt", "--nmax", "2", "--tol", tol]) == 3


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_boundaries_fail_check_and_analyze(monkeypatch, tmp_path, bad):
    from mpsrestrict.chain import BoundaryPair
    from mpsrestrict.models import damping
    from mpsrestrict.modelio import save_model

    model = tmp_path / "m.json"
    v = np.array([1.0, 0.0])
    save_model(model, damping(0.5), boundaries=BoundaryPair(L=v, R=v))
    doc = json.loads(model.read_text())
    doc["boundaries"]["L"][0] = [bad, 0.0]
    model.write_text(json.dumps(doc))  # written as NaN / Infinity
    assert ("NaN" if bad != bad else "Infinity") in model.read_text()
    assert main(["check", str(model)]) == 3
    _forbid_enumeration(monkeypatch)
    assert main(["analyze", "--model", str(model), "--nmax", "2"]) == 3
