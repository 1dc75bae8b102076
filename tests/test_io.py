import json

import numpy as np
import pytest

from edsim.io import (INCOMPLETE_MARKER, RunWriter, dump_json_bytes,
                      from_jsonable, load_json, save_json, sha256_hex,
                      to_jsonable, verify_run_dir, write_csv)


def test_array_round_trip_preserves_dtype_and_values():
    payload = {
        "f": np.linspace(-3.0, 7.0, 11),
        "c": np.exp(1j * np.linspace(0, 2 * np.pi, 8)),
        "i": np.arange(12, dtype=np.int64).reshape(3, 4),
        "scalar": np.float64(0.1),
        "z": 1.5 - 2.0j,
        "nested": {"list": [1, "two", None, True]},
    }
    back = from_jsonable(json.loads(dump_json_bytes(to_jsonable(payload))))
    for key in ("f", "c", "i"):
        assert back[key].dtype == payload[key].dtype
        assert np.array_equal(back[key], payload[key])
    assert back["scalar"] == 0.1
    assert back["z"] == 1.5 - 2.0j
    assert back["nested"] == {"list": [1, "two", None, True]}


def test_json_bytes_deterministic_and_sorted():
    a = dump_json_bytes({"b": 1, "a": [2.0, 3]})
    b = dump_json_bytes({"a": [2.0, 3], "b": 1})
    assert a == b
    assert a.index(b'"a"') < a.index(b'"b"')


def test_nan_rejected():
    with pytest.raises(ValueError):
        dump_json_bytes({"x": float("nan")})


def test_save_and_load(tmp_path):
    path = tmp_path / "payload.json"
    save_json(path, {"arr": np.array([1.0, 2.0])})
    back = load_json(path)
    assert np.array_equal(back["arr"], [1.0, 2.0])


def test_csv_floats_survive_round_trip(tmp_path):
    rows = [[0.1, 1 / 3], [np.pi, 2e-17]]
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    for line, row in zip(lines[1:], rows):
        for text, val in zip(line.split(","), row):
            assert float(text) == val


def test_run_writer_lifecycle(tmp_path):
    out = tmp_path / "run"
    writer = RunWriter(out)
    writer.write_config({"alpha": 1})
    assert (out / INCOMPLETE_MARKER).exists()
    writer.write_json("data.json", {"x": np.arange(4)})
    writer.write_csv("table.csv", ["t"], [[0.0], [1.0]])
    writer.finish()
    assert not (out / INCOMPLETE_MARKER).exists()

    check = verify_run_dir(out)
    assert check["complete"]
    assert check["mismatches"] == []
    assert check["checked"] == 3

    manifest = load_json(out / "manifest.json")
    assert manifest["config_sha256"] == sha256_hex(
        (out / "config.json").read_bytes())
    assert set(manifest["versions"]) >= {"package", "numpy", "scipy", "python"}


def test_run_writer_detects_tampering(tmp_path):
    out = tmp_path / "run"
    writer = RunWriter(out)
    writer.write_config({"alpha": 1})
    writer.write_json("data.json", {"x": 3})
    writer.finish()
    (out / "data.json").write_bytes(b'{"x":4}\n')
    check = verify_run_dir(out)
    assert check["mismatches"] == ["data.json"]


def test_unfinished_run_reported_incomplete(tmp_path):
    out = tmp_path / "run"
    writer = RunWriter(out)
    writer.write_config({"alpha": 1})
    check = verify_run_dir(out)
    assert not check["complete"]


@pytest.mark.parametrize("value, expect", [
    (np.bool_(True), True), (np.bool_(False), False),
    (np.int32(-3), -3), (np.uint8(7), 7)],
    ids=["bool-true", "bool-false", "int32", "uint8"])
def test_numpy_scalars_become_python_scalars(value, expect):
    got = to_jsonable(value)
    assert type(got) is type(expect) and got == expect


def test_unknown_types_are_refused():
    with pytest.raises(TypeError, match="cannot serialize set"):
        to_jsonable({"x": {1, 2}})
