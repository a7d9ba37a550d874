import json
from pathlib import Path

import numpy as np
import pytest

import oracle
from mpsrestrict.cli import main
from mpsrestrict.modelio import load_model
from mpsrestrict.restriction import _CHUNK_STRINGS

GOLDEN = Path(__file__).parent / "golden"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mpsrestrict" in capsys.readouterr().out


def test_analyze_golden_report(tmp_path):
    """Byte-exact regression against the committed reference report."""
    out = tmp_path / "report.json"
    rc = main(["analyze", "--builtin", "aklt", "--nmax", "4", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "aklt_nmax4.json").read_bytes()


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


def test_analyze_csv(capsys):
    assert main(["analyze", "--builtin", "aklt", "--nmax", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,p_sum,avg_entropy,quantum_cmi,classical_cmi,avg_purity_q,w,f"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[6]) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_analyze_finite_model(tmp_path):
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
    assert main(["analyze", "--model", str(model), "--nmax", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["mode"] == "finite"
    assert rep["label"] == "damped"
    for row in rep["per_n"]:
        assert row["p_sum"] == pytest.approx(1.0, abs=1e-10)
        assert row["classical_cmi"] <= row["quantum_cmi"] + 1e-9


def test_exit_code_guard():
    assert main(["analyze", "--builtin", "aklt", "--nmax", "20", "--guard", "100"]) == 2


def test_exit_code_bad_model(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "kraus-family", "schema_version": 1, "d": 1, "D": 1, "matrices": [[[[0.5, 0.0]]]]}')
    assert main(["check", str(bad)]) == 3
    assert main(["analyze", "--model", str(bad), "--nmax", "2"]) == 3
    assert main(["check", str(tmp_path / "missing.json")]) == 3
    assert main(["analyze", "--builtin", "nosuch", "--nmax", "2"]) == 3
    assert main(["analyze", "--builtin", "aklt", "--geometry", "1,2"]) == 3


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
    for name in ("cmi_report", "window_distribution", "w_series", "purity_verdict"):
        monkeypatch.setattr(cli, name, enumerated)


def test_analyze_guard_fails_before_enumerating(monkeypatch):
    _forbid_enumeration(monkeypatch)
    # the first rows fit (3^5 strings), the last windowed block (3^11) does not
    assert main(["analyze", "--builtin", "aklt", "--nmax", "7", "--guard", "100000"]) == 2
    # the rows fit (3^3), the Gibbs chain of the geometry (3^14) does not
    assert main(["analyze", "--builtin", "aklt", "--nmax", "1", "--geometry", "1,12,1", "--guard", "1000"]) == 2
    # a guard error is reported before a bad --ell
    assert main(["analyze", "--builtin", "aklt", "--nmax", "7", "--guard", "100000", "--ell", "5"]) == 2


def test_analyze_bad_ell_fails_before_enumerating(monkeypatch):
    _forbid_enumeration(monkeypatch)
    assert main(["analyze", "--builtin", "aklt", "--nmax", "7", "--ell", "5"]) == 3
    assert main(["analyze", "--builtin", "aklt", "--geometry", "0,1,0", "--ell", "1"]) == 3


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
    """The verdict fits the w series the rows already hold, with the bits of
    the verdict that recomputes w(1..6) itself."""
    from mpsrestrict import cli, purity
    from mpsrestrict.models import aklt

    want = purity.purity_verdict(aklt(), 8)
    w_series = purity.w_series
    calls = []

    def counted(K, n_max, *args, **kwargs):
        calls.append(n_max)
        return w_series(K, n_max, *args, **kwargs)

    monkeypatch.setattr(cli, "w_series", counted)
    monkeypatch.setattr(purity, "w_series", counted)
    out = tmp_path / "r.json"
    assert main(["analyze", "--builtin", "aklt", "--nmax", "8", "--out", str(out)]) == 0
    assert calls == [8]
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
