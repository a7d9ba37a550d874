import json
from pathlib import Path

import numpy as np
import pytest

from mpsrestrict.chain import BoundaryPair, ChainGeometry
from mpsrestrict.errors import NotLeftNormalized
from mpsrestrict.modelio import load_model, save_model
from mpsrestrict.models import aklt, markov


def test_round_trip(tmp_path):
    path = tmp_path / "model.json"
    K = markov()
    b = BoundaryPair(L=np.array([1.0, 0.0]), R=np.array([1.0, 1.0]) / np.sqrt(2.0))
    g = ChainGeometry(len_a=1, len_b=2, len_c=1)
    save_model(path, K, boundaries=b, geometry=g, label="markov-test")
    mf = load_model(path)
    assert mf.label == "markov-test"
    assert np.allclose(mf.kraus.ops, K.ops, atol=0.0)
    assert np.allclose(mf.boundaries.L, b.L)
    assert np.allclose(mf.boundaries.R, b.R)
    assert (mf.geometry.len_a, mf.geometry.len_b, mf.geometry.len_c) == (1, 2, 1)


def test_round_trip_preserves_floats_exactly(tmp_path):
    """repr round-tripping keeps every matrix entry bit-identical."""
    path = tmp_path / "model.json"
    K = aklt()
    save_model(path, K)
    mf = load_model(path)
    assert np.array_equal(mf.kraus.ops, K.ops)
    assert mf.boundaries is None and mf.geometry is None


def test_load_rejects_not_normalized(tmp_path):
    path = tmp_path / "bad.json"
    doc = {
        "format": "kraus-family",
        "schema_version": 1,
        "d": 1,
        "D": 2,
        "matrices": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(NotLeftNormalized) as exc:
        load_model(path)
    assert "sum A^dag A - I" in str(exc.value)
    assert exc.value.residual > 0.1


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(format="other"), "format"),
        (lambda d: d.update(schema_version=99), "schema_version"),
        (lambda d: d.pop("d"), "'d'"),
        (lambda d: d.update(matrices=[]), "matrices"),
        (lambda d: d["matrices"][0].pop(0), "rows"),
        (lambda d: d["matrices"][0][0].__setitem__(0, [1.0]), "[re, im]"),
        (lambda d: d.update(label=7), "label"),
    ],
)
def test_load_rejects_malformed(tmp_path, mutate, fragment):
    path = tmp_path / "m.json"
    doc = {
        "format": "kraus-family",
        "schema_version": 1,
        "d": 1,
        "D": 2,
        "matrices": [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]],
    }
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert fragment in str(exc.value)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("not json {")
    with pytest.raises(ValueError):
        load_model(path)


def test_an_integer_too_long_to_read_is_named_without_interpreter_advice(tmp_path, capsys):
    """A 5000-digit integer fails inside the JSON parser, past the digits
    int() reads from a string; the loader says what is wrong in the file,
    and ``check`` and ``analyze`` exit 3 with that message."""
    from mpsrestrict.cli import main

    path = tmp_path / "m.json"
    path.write_text('{"d": 1' + "0" * 4999 + "}")
    with pytest.raises(ValueError, match="model file holds an integer with too many digits"):
        load_model(path)
    for argv in (["check", str(path)], ["analyze", "--model", str(path), "--nmax", "2"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "too many digits" in err and "set_int_max_str_digits" not in err


def test_loader_tolerance_is_relaxed(tmp_path):
    """Files are accepted at 1e-8 even when in-memory construction uses the
    stricter 1e-10 default."""
    path = tmp_path / "m.json"
    eps = 3e-9
    doc = {
        "format": "kraus-family",
        "schema_version": 1,
        "d": 1,
        "D": 1,
        "matrices": [[[[1.0 + eps, 0.0]]]],
    }
    path.write_text(json.dumps(doc))
    mf = load_model(path)
    assert mf.kraus.d == 1


def _full_model(path):
    """AKLT (d = 3, D = 2) with boundaries, geometry and a label, as a dict."""
    v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    g = ChainGeometry(len_a=1, len_b=2, len_c=1)
    save_model(path, aklt(), boundaries=BoundaryPair(L=v, R=v), geometry=g, label="full")
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(d=3.7), "'d'"),
        (lambda d: d.update(D="2"), "'D'"),
        (lambda d: d.update(d=None), "'d'"),
        (lambda d: d["geometry"].update(len_a=1.9), "len_a"),
        (lambda d: d["geometry"].update(len_b=2.5), "len_b"),
        (lambda d: d["geometry"].pop("len_c"), "len_c"),
        (lambda d: d["geometry"].update(len_b=True), "len_b"),
        (lambda d: d["matrices"][0][0].__setitem__(0, [True, 0.0]), "matrices[0][0][0]"),
        (lambda d: d["matrices"][1][0].__setitem__(1, [10**400, 0.0]), "matrices[1][0][1]"),
    ],
    ids=["d-float", "D-string", "d-null", "len_a-float", "len_b-float", "no-len_c",
         "len_b-bool", "bool-entry", "huge-int-entry"],
)
def test_load_rejects_what_the_shared_contract_rejects(tmp_path, mutate, fragment):
    """Lengths that are not integers, booleans and integers too large for a
    float are named ValueErrors (exit 3), not truncated, read as 1, or an
    uncaught OverflowError."""
    from mpsrestrict.cli import main

    path = tmp_path / "m.json"
    doc = _full_model(path)
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        load_model(path)
    assert fragment in str(exc.value)
    assert main(["check", str(path)]) == 3
    assert main(["analyze", "--model", str(path), "--nmax", "2"]) == 3


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: [d], "model file must contain a JSON object"),
        (lambda d: {**d, "boundaries": {"L": d["boundaries"]["L"]}}, "'boundaries' must carry vectors 'L' and 'R'"),
        (lambda d: {**d, "geometry": [1, 2, 1]}, "'geometry' must be an object"),
    ],
    ids=["list", "no-R", "list-geometry"],
)
def test_check_names_a_malformed_block(tmp_path, mutate, message, capsys):
    """A document that is no object, boundaries without R and a geometry
    that is no object each exit 3 with their message."""
    from mpsrestrict.cli import main

    path = tmp_path / "m.json"
    path.write_text(json.dumps(mutate(_full_model(path))))
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_model(path)
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_resaving_the_golden_model_rewrites_it_byte_for_byte(tmp_path):
    golden = Path(__file__).parent / "golden" / "haar_d3_d3_finite_model.json"
    mf = load_model(golden)
    out = tmp_path / "m.json"
    save_model(out, mf.kraus, mf.boundaries, mf.geometry, mf.label)
    assert out.read_bytes() == golden.read_bytes()


def test_round_trips_keep_the_bytes_with_boundaries_and_geometry(tmp_path):
    paths = [tmp_path / f"m{i}.json" for i in range(3)]
    _full_model(paths[0])
    for src, dst in zip(paths, paths[1:]):
        mf = load_model(src)
        save_model(dst, mf.kraus, mf.boundaries, mf.geometry, mf.label)
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
