import json

import pytest

from tqecsynth.cli import EXIT_OK, EXIT_PARSE, EXIT_SYNTH, EXIT_VERIFY, main


@pytest.fixture()
def src_file(tmp_path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_synth_json_to_stdout(src_file, capsys):
    path = src_file("p.tq", "qubits 1\np 0\n")
    rc, out, _ = run_cli(capsys, "synth", path)
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["reports"]["schedule"]["boxes_total"] == 1


def test_synth_writes_file_formats(src_file, tmp_path, capsys):
    path = src_file("t.tq", "qubits 1\nt 0\n")
    out_base = str(tmp_path / "out")
    rc, _, _ = run_cli(capsys, "synth", path, "--out", out_base,
                       "--format", "json", "--format", "obj", "--format", "csv")
    assert rc == EXIT_OK
    assert (tmp_path / "out.json").exists()
    assert (tmp_path / "out.obj").exists()
    assert (tmp_path / "out.csv").exists()
    doc = json.loads((tmp_path / "out.json").read_text())
    assert len(doc["boxes"]) == 2


def test_synth_parse_error_exit_code(src_file, capsys):
    path = src_file("bad.tq", "qubits 1\nwat 0\n")
    rc, _, err = run_cli(capsys, "synth", path)
    assert rc == EXIT_PARSE
    assert "unknown statement" in err


@pytest.mark.parametrize("command", ["synth", "metrics", "slice"])
def test_synth_exhaustion_exit_code(src_file, capsys, command):
    path = src_file("p.tq", "qubits 1\np 0\n")
    rc, out, err = run_cli(capsys, command, path, "--success-rate", "0.0",
                           "--spares-y", "0")
    assert rc == EXIT_SYNTH
    report = json.loads(out)
    assert report["error"] == "distillation-exhausted"
    assert "unserved pin pairs: y@j=" in report["detail"]
    assert err == ""


def test_synth_spare_flags(src_file, capsys):
    path = src_file("p.tq", "qubits 1\np 0\n")
    rc, out, _ = run_cli(capsys, "synth", path, "--success-rate", "0.8",
                         "--spares-y", "4", "--seed", "1")
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["reports"]["schedule"]["boxes_total"] == 5


def test_config_file_and_flag_precedence(src_file, tmp_path, capsys):
    path = src_file("p.tq", "qubits 1\np 0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"success_rate": 0.8, "spares_y": 4, "seed": 3}))
    rc, out, _ = run_cli(capsys, "synth", path, "--config", str(cfg))
    assert rc == EXIT_OK
    assert json.loads(out)["reports"]["schedule"]["boxes_total"] == 5
    # flag overrides the file
    rc, out, _ = run_cli(capsys, "synth", path, "--config", str(cfg),
                         "--spares-y", "2")
    assert json.loads(out)["reports"]["schedule"]["boxes_total"] == 3


def test_env_seed_fallback(src_file, capsys, monkeypatch):
    path = src_file("p.tq", "qubits 1\np 0\n")
    monkeypatch.setenv("TQEC_SEED", "17")
    rc, out, _ = run_cli(capsys, "synth", path)
    assert rc == EXIT_OK
    assert json.loads(out)["metadata"]["seed"] == 17


def test_box_dims_file(src_file, tmp_path, capsys):
    path = src_file("p.tq", "qubits 1\np 0\n")
    dims = tmp_path / "dims.json"
    dims.write_text(json.dumps({"y": [6, 6, 10], "a": [8, 8, 12]}))
    rc, out, _ = run_cli(capsys, "synth", path, "--box-dims", str(dims))
    assert rc == EXIT_OK
    doc = json.loads(out)
    assert doc["boxes"][0]["spans"] == [6, 6, 10]


def test_verify_pass_and_report(src_file, capsys):
    path = src_file("toff.tq", "qubits 3\ntoffoli 0 1 2\n")
    rc, out, _ = run_cli(capsys, "verify", path)
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_infidelity"] <= 1e-10
    # one record per teleported gate: seven T-type plus seven P/V-type
    assert len(report["instances"]) == 14
    assert "toffoli_sequence" in report["identities"]


def test_verify_hadamard_source(src_file, capsys):
    path = src_file("h.tq", "qubits 1\nh 0\n")
    rc, out, _ = run_cli(capsys, "verify", path)
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["identities"]["h_equals_pvp"] <= 1e-10
    assert len(report["instances"]) == 3  # the P, V, P teleports


def test_verify_cnot_only_trivially_passes(src_file, capsys):
    path = src_file("c.tq", "qubits 2\ncnot 0 1\n")
    rc, out, _ = run_cli(capsys, "verify", path)
    assert rc == EXIT_OK
    report = json.loads(out)
    assert report["instances"] == []
    assert report["pass"] is True


def test_verify_impossible_tolerance_fails(src_file, capsys):
    path = src_file("p.tq", "qubits 1\np 0\n")
    rc, out, _ = run_cli(capsys, "verify", path, "--tolerance", "0")
    assert rc == EXIT_VERIFY


def test_metrics_reports(src_file, capsys):
    path = src_file("p.tq", "qubits 1\np 0\n")
    rc, out, _ = run_cli(capsys, "metrics", path)
    assert rc == EXIT_OK
    reports = json.loads(out)
    assert reports["distance"]["code_distance"] >= 4
    assert reports["volume"]["volume_units"] >= 1


def test_slice_stream(src_file, capsys):
    path = src_file("c.tq", "qubits 1\n")
    rc, out, _ = run_cli(capsys, "slice", path)
    assert rc == EXIT_OK
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["op"] == "init"
    assert lines[-1]["op"] == "measure"
    measures = [l for l in lines if l["op"] == "measure"]
    layer_indices = {layer["index"] for l in lines for layer in l["layers"]}
    assert len(measures) == len(layer_indices)


def test_slice_explicit_cells_too_small(src_file, capsys):
    path = src_file("c.tq", "qubits 1\n")
    rc, _, err = run_cli(capsys, "slice", path, "--cells", "1", "1", "1")
    assert rc == EXIT_PARSE
    assert "extent" in err


@pytest.mark.parametrize("command", ["synth", "metrics", "slice"])
def test_spare_cap_exit_code(src_file, capsys, command):
    path = src_file("t.tq", "qubits 1\nt 0\n")
    rc, out, err = run_cli(capsys, command, path, "--success-rate", "0.0001")
    assert rc == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: more than") and "spares" in err


@pytest.mark.parametrize("command", ["synth", "metrics", "slice"])
def test_box_dims_scheduling_error_exit_code(src_file, tmp_path, capsys, command):
    path = src_file("t.tq", "qubits 1\nt 0\n")
    dims = tmp_path / "dims.json"
    dims.write_text(json.dumps({"y": [6, 6, 10], "a": [6, 6, 10]}))
    rc, _, err = run_cli(capsys, command, path, "--box-dims", str(dims))
    assert rc == EXIT_PARSE
    assert "wider" in err


def test_invalid_config_value_exit_code(src_file, capsys):
    path = src_file("p.tq", "qubits 1\np 0\n")
    rc, _, err = run_cli(capsys, "synth", path, "--success-rate", "2")
    assert rc == EXIT_PARSE
    assert "success rate" in err


BAD_INPUTS = {
    "missing-source": ["missing.tq"],
    "non-utf8-source": ["latin1.tq"],
    "missing-box-dims": ["p.tq", "--box-dims", "missing.json"],
    "missing-config": ["p.tq", "--config", "missing.json"],
    "malformed-config": ["p.tq", "--config", "bad.json"],
    "unknown-box-dims-key": ["p.tq", "--box-dims", "dims_q.json"],
    "two-span-box-dims": ["p.tq", "--box-dims", "dims_short.json"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
@pytest.mark.parametrize("command", ["synth", "metrics", "slice"])
def test_bad_input_files_exit_code(tmp_path, monkeypatch, capsys, command, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.tq").write_text("qubits 1\np 0\n")
    (tmp_path / "latin1.tq").write_bytes(b"qubits 1\n# caf\xe9\n")
    (tmp_path / "bad.json").write_text('{"seed": 1,')
    (tmp_path / "dims_q.json").write_text(json.dumps({"q": [1, 1, 1]}))
    (tmp_path / "dims_short.json").write_text(json.dumps({"y": [1, 1]}))
    rc, out, err = run_cli(capsys, command, *BAD_INPUTS[case])
    assert rc == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_missing_source_exit_code(tmp_path, capsys):
    rc, out, err = run_cli(capsys, "verify", str(tmp_path / "missing.tq"))
    assert rc == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_box_dims_errors_name_the_entry(src_file, tmp_path, capsys):
    path = src_file("p.tq", "qubits 1\np 0\n")
    dims = tmp_path / "dims.json"
    dims.write_text(json.dumps({"q": [1, 1, 1]}))
    _, _, err = run_cli(capsys, "synth", path, "--box-dims", str(dims))
    assert "'q'" in err
    dims.write_text(json.dumps({"y": [1, 1]}))
    _, _, err = run_cli(capsys, "synth", path, "--box-dims", str(dims))
    assert "'y'" in err and "three" in err


def test_slice_out_file_matches_stdout(src_file, tmp_path, capsys):
    path = src_file("t.tq", "qubits 1\nt 0\n")
    rc, out, _ = run_cli(capsys, "slice", path)
    assert rc == EXIT_OK
    target = tmp_path / "layers.jsonl"
    rc, _, _ = run_cli(capsys, "slice", path, "--out", str(target))
    assert rc == EXIT_OK
    assert target.read_text() == out
    assert out.endswith("}\n") and "\n\n" not in out
