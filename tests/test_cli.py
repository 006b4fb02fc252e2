import dataclasses
import hashlib
import json
import math
import random
import re
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tqecsynth.analysis import layer_marks
from tqecsynth.circuit import MAX_QUBITS, InitBasis
from tqecsynth import cli
from tqecsynth.cli import EXIT_OK, EXIT_PARSE, EXIT_SYNTH, EXIT_VERIFY, main
from tqecsynth.document import export
from tqecsynth.pipeline import PipelineConfig, SparePolicy, run_pipeline
from tqecsynth.scheduling import MAX_BOX_SPAN, BoxDim

CIRCUITS = Path(__file__).parent.parent / "circuits"
sys.path.insert(0, str(CIRCUITS.parent / "perfbench"))
import workloads  # noqa: E402


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


def test_synth_out_dash_writes_every_format_to_stdout(monkeypatch, tmp_path, capsysbinary):
    monkeypatch.chdir(tmp_path)
    path = str(CIRCUITS / "t_gate.tq")
    singles = []
    for fmt in ("json", "obj"):
        assert main(["synth", path, "--format", fmt]) == EXIT_OK
        singles.append(capsysbinary.readouterr().out)
    assert main(["synth", path, "--out", "-", "--format", "json", "--format", "obj"]) == EXIT_OK
    assert capsysbinary.readouterr().out == b"".join(singles)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["synth", "--out", ""],
    ["synth", "--out", "", "--format", "json", "--format", "obj"],
    ["slice", "--out", ""],
])
def test_empty_out_path_is_refused(monkeypatch, tmp_path, capsys, argv):
    # an empty path is not stdout, and with several formats it must not
    # become '.json' and '.obj' either
    monkeypatch.chdir(tmp_path)
    command, *flags = argv
    rc, out, err = run_cli(capsys, command, str(CIRCUITS / "t_gate.tq"), *flags)
    assert rc == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and "''" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_slice_out_dash_writes_to_stdout(monkeypatch, tmp_path, capsysbinary):
    monkeypatch.chdir(tmp_path)
    path = str(CIRCUITS / "t_gate.tq")
    assert main(["slice", path]) == EXIT_OK
    want = capsysbinary.readouterr().out
    assert main(["slice", path, "--out", "-"]) == EXIT_OK
    assert capsysbinary.readouterr().out == want
    assert list(tmp_path.iterdir()) == []


def test_one_parser_serves_every_call_after_an_argparse_error(tmp_path, capsysbinary):
    path = str(CIRCUITS / "t_gate.tq")
    calls = [
        ["synth", path, "--out", "-", "--format", "obj", "--format", "csv"],
        ["synth", path],
        ["verify", path, "--tolerance", "0.5"],
        ["verify", path],
        ["slice", path, "--cells", "12", "16", "36"],
        ["slice", path],
    ]

    def outputs():
        got = []
        for argv in calls:
            assert main(argv) == EXIT_OK
            got.append(capsysbinary.readouterr().out)
        return got

    before = outputs()
    with pytest.raises(SystemExit) as exc:
        main(["synth", path, "--format", "png"])
    assert exc.value.code == 2
    assert b"invalid choice" in capsysbinary.readouterr().err
    assert outputs() == before
    # no value of one call reaches the next: without --format, synth writes JSON
    assert json.loads(before[1])["version"] == 2 and before[2] != before[3]


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


# Each pipeline setting: a flag value, a config-file value, and the
# PipelineConfig field it sets.
SETTING_CASES = {
    "success_rate": ("0.5", 0.25, "success_rate"),
    "seed": ("3", 5, "seed"),
    "spares_y": ("2", 4, "spares"),
    "spares_a": ("2", 4, "spares"),
    "spare_epsilon": ("0.2", 0.3, "spares"),
    "distance": ("2", 3, "cube_side"),
    "box_dims": ("flag_dims.json", "file_dims.json", "box_dims"),
}
SHARED_FLAGS = ["--config", "--success-rate", "--seed", "--spares-y", "--spares-a",
                "--spare-epsilon", "--distance", "--box-dims"]


def built_config(tmp_path, monkeypatch, key, flag=False, file=False) -> PipelineConfig:
    """``build_config`` of ``synth`` with ``key`` set by its flag, its config key, both or neither."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TQEC_SEED", raising=False)
    (tmp_path / "flag_dims.json").write_text('{"y": [6, 6, 10]}')
    (tmp_path / "file_dims.json").write_text('{"y": [8, 8, 12]}')
    flag_value, file_value, _ = SETTING_CASES[key]
    argv = ["synth", "c.tq"]
    if flag:
        argv += ["--" + key.replace("_", "-"), flag_value]
    if file:
        (tmp_path / "cfg.json").write_text(json.dumps({key: file_value}))
        argv += ["--config", "cfg.json"]
    return cli.build_config(cli._parser().parse_args(argv))


def test_setting_cases_cover_the_settings_table():
    assert list(SETTING_CASES) == list(cli._SETTINGS)


@pytest.mark.parametrize("key", list(SETTING_CASES))
def test_each_setting_comes_from_flag_then_file_then_default(tmp_path, monkeypatch, key):
    field = SETTING_CASES[key][2]
    neither = built_config(tmp_path, monkeypatch, key)
    flag = built_config(tmp_path, monkeypatch, key, flag=True)
    file = built_config(tmp_path, monkeypatch, key, file=True)
    assert neither == PipelineConfig()
    assert built_config(tmp_path, monkeypatch, key, flag=True, file=True) == flag
    # each source sets the setting's own field, to its own value, and no other field
    assert len({repr(getattr(config, field)) for config in (neither, flag, file)}) == 3
    for config in (flag, file):
        assert config == dataclasses.replace(neither, **{field: getattr(config, field)})


@pytest.mark.parametrize("command", ["synth", "metrics", "slice"])
def test_each_shared_flag_is_listed_once_in_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in SHARED_FLAGS:
        assert len(re.findall(rf"^\s+{flag}\b", text, re.M)) == 1, flag


@pytest.mark.parametrize("command", ["synth", "metrics", "slice"])
def test_pipeline_setting_help_states_range_and_default(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for key in ("success_rate", "seed", "spares_y", "spares_a", "spare_epsilon"):
        help_text = cli._SETTINGS[key][3]
        assert "default" in help_text and " ".join(help_text.split()) in text, key
    assert "[0, 1] (default 1.0)" in text and "[0, 1] (default 0.01)" in text
    assert "(default: TQEC_SEED if set, else 0)" in text
    assert text.count("0 to 10000") == 2


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


@pytest.mark.parametrize("spans", [[100_000_000, 3, 3], [4, 1001, 8], [4, 4, 2**63]])
@pytest.mark.parametrize("command", ["synth", "metrics", "slice"])
def test_huge_box_span_exit_code(src_file, tmp_path, capsys, monkeypatch, command, spans):
    import tqecsynth.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    # the span is refused while the config is read, before anything is placed
    monkeypatch.setattr(cli, "run_pipeline", refuse)
    path = src_file("t.tq", "qubits 1\nt 0\n")
    dims = tmp_path / "dims.json"
    dims.write_text(json.dumps({"y": spans}))
    rc, out, err = run_cli(capsys, command, path, "--box-dims", str(dims))
    assert rc == EXIT_PARSE and out == ""
    assert err == "error: box spans must be at most 1000 cells\n"


@pytest.mark.parametrize("command", ["synth", "metrics", "slice"])
def test_one_cell_wide_box_exit_code(src_file, tmp_path, capsys, monkeypatch, command):
    import tqecsynth.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    # both output pins of a one-cell-wide box would sit on one point
    monkeypatch.setattr(cli, "run_pipeline", refuse)
    dims = tmp_path / "dims.json"
    dims.write_text(json.dumps({"y": [1, 4, 8]}))
    rc, out, err = run_cli(capsys, command, str(CIRCUITS / "p_gate.tq"), "--box-dims", str(dims))
    assert rc == EXIT_PARSE and out == ""
    assert err == ("error: box i span must be at least 2 cells: a box needs two distinct "
                   "output pins, one at each i end\n")


def test_largest_box_span_is_accepted():
    assert BoxDim(InitBasis.Y, MAX_BOX_SPAN, 1, MAX_BOX_SPAN).ispan == MAX_BOX_SPAN == 1000


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
    # an empty path is a path that names no file, not an unset one
    "empty-box-dims": ["p.tq", "--box-dims", ""],
    "empty-config": ["p.tq", "--config", ""],
    "config-empty-box-dims": ["p.tq", "--config", "cfg_empty_dims.json"],
    "malformed-config": ["p.tq", "--config", "bad.json"],
    "unknown-box-dims-key": ["p.tq", "--box-dims", "dims_q.json"],
    "two-span-box-dims": ["p.tq", "--box-dims", "dims_short.json"],
    "config-string-success-rate": ["p.tq", "--config", "cfg_rate.json"],
    "config-string-spares-y": ["p.tq", "--config", "cfg_spares.json"],
    "config-string-seed": ["p.tq", "--config", "cfg_seed.json"],
    "config-int-box-dims": ["p.tq", "--config", "cfg_dims.json"],
    "config-bool-distance": ["p.tq", "--config", "cfg_distance.json"],
    "config-negative-seed": ["p.tq", "--config", "cfg_negative_seed.json"],
    "config-unknown-key": ["p.tq", "--config", "cfg_unknown.json"],
    "negative-seed-flag": ["p.tq", "--seed", "-1"],
    "explicit-spares-over-cap": ["p.tq", "--spares-y", "10001"],
    "epsilon-above-one": ["p.tq", "--spare-epsilon", "2"],
}

CONFIG_FILES = {
    "cfg_rate.json": {"success_rate": "x"},
    "cfg_spares.json": {"spares_y": "3"},
    "cfg_seed.json": {"seed": "1"},
    "cfg_dims.json": {"box_dims": 5},
    "cfg_empty_dims.json": {"box_dims": ""},
    "cfg_distance.json": {"distance": True},
    "cfg_negative_seed.json": {"seed": -1},
    "cfg_unknown.json": {"sed": 1},
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
    for name, cfg in CONFIG_FILES.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    rc, out, err = run_cli(capsys, command, *BAD_INPUTS[case])
    assert rc == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["synth", "metrics", "slice", "verify"])
def test_huge_qubit_count_exit_code(src_file, capsys, command):
    path = src_file("huge.tq", "qubits 99999999999999\nt 0\n")
    rc, out, err = run_cli(capsys, command, path)
    assert rc == EXIT_PARSE
    assert out == ""
    assert err == f"error: line 1, column 8: qubit count must not exceed {MAX_QUBITS}\n"


qubit_args = st.sampled_from(["0", "1", "2"])
fuzz_statements = st.one_of(
    st.builds("{} {}".format, st.sampled_from(["t", "tdg", "p", "pdg", "v", "vdg", "h"]),
              qubit_args),
    st.permutations("012").map(lambda qs: "cnot {} {}".format(*qs)),
    st.builds("init {} {}".format, qubit_args,
              st.sampled_from(["zero", "plus", "y", "a", "open"])),
    st.builds("measure {} {}".format, qubit_args, st.sampled_from(["z", "x", "open"])),
)
malformed_statements = st.one_of(
    st.sampled_from(["qubits 0", "qubits 2", "qubits 99999999999999", "t -1", "t 3",
                     "cnot 0", "cnot 1 1", "h x", "measure 0 up", "init 0 z"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


def _small_source(head: str, body: list[str], extra: list[str], at: int) -> str:
    body = body[:6 - len(extra)]
    return "\n".join([head, *body[:at], *extra, *body[at:]]) + "\n"


# Up to 3 qubits and 6 statements. A third of the sources hold one malformed
# statement and a third one to three Toffolis (slicing three takes about a
# second); some lack the qubit declaration, declare too few qubits or more
# than MAX_QUBITS.
toffolis = st.permutations("012").map(lambda qs: "toffoli {} {} {}".format(*qs))
small_sources = st.builds(
    _small_source,
    st.sampled_from(["qubits 3"] * 4 + ["qubits 1", "", "qubits 99999999999999"]),
    st.lists(fuzz_statements, max_size=6),
    st.one_of(st.just([]), malformed_statements.map(lambda s: [s]),
              st.lists(toffolis, min_size=1, max_size=3)),
    st.integers(0, 6))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["synth", "metrics", "slice"]), source=small_sources)
def test_any_small_source_ends_in_an_exit_code(tmp_path, capsys, command, source):
    path = tmp_path / "fuzz.tq"
    path.write_text(source, encoding="utf-8")
    rc, _, err = run_cli(capsys, command, str(path))
    assert rc in (EXIT_OK, EXIT_PARSE, EXIT_SYNTH)
    if rc == EXIT_PARSE:
        assert err.startswith("error:") and err.count("\n") == 1
    else:
        assert err == ""


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


def test_config_type_errors_name_the_key(src_file, tmp_path, capsys):
    path = src_file("p.tq", "qubits 1\np 0\n")
    cfg = tmp_path / "cfg.json"
    for bad, words in (({"success_rate": "x"}, ("'success_rate'", "number")),
                       ({"spares_a": 1.5}, ("'spares_a'", "integer")),
                       ({"box_dims": ["d.json"]}, ("'box_dims'", "string")),
                       ({"success-rate": 0.5}, ("unknown", "'success-rate'"))):
        cfg.write_text(json.dumps(bad))
        rc, _, err = run_cli(capsys, "synth", path, "--config", str(cfg))
        assert rc == EXIT_PARSE
        assert err.count("\n") == 1 and all(w in err for w in words), err


@pytest.mark.parametrize("command", ["synth", "metrics", "slice"])
@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_bad_env_seed_exit_code(src_file, capsys, monkeypatch, command, value):
    path = src_file("p.tq", "qubits 1\np 0\n")
    monkeypatch.setenv("TQEC_SEED", value)
    rc, out, err = run_cli(capsys, command, path)
    assert rc == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and "seed" in err.lower()


def test_verify_negative_seed_exit_code(src_file, capsys):
    path = src_file("t.tq", "qubits 1\nt 0\n")
    rc, out, err = run_cli(capsys, "verify", path, "--seed", "-1")
    assert rc == EXIT_PARSE
    assert out == ""
    assert err == "error: seed must be a non-negative integer\n"


def test_verify_reports_every_validation_diagnostic_as_synth_does(src_file, capsys):
    path = src_file("two.tq", "qubits 2\ninit 0 a\ninit 1 y\n")
    runs = [run_cli(capsys, command, path) for command in ("synth", "metrics", "slice", "verify")]
    err = ("error: qubit 0: injection-initialised qubit carries an open output; "
           "qubit 1: injection-initialised qubit carries an open output\n")
    assert runs == [(EXIT_PARSE, "", err)] * 4


@pytest.mark.parametrize("flag,value", [
    ("--trials", "0"), ("--trials", "-3"), ("--tolerance", "nan"),
    ("--tolerance", "inf"), ("--tolerance", "-inf"), ("--tolerance", "-1e-9"),
])
def test_verify_bad_trials_or_tolerance_exit_code(src_file, capsys, flag, value):
    path = src_file("t.tq", "qubits 1\nt 0\n")
    rc, out, err = run_cli(capsys, "verify", path, f"{flag}={value}")
    assert rc == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: " + flag[2:]) and err.count("\n") == 1


def test_verify_one_trial_zero_tolerance_are_accepted(src_file, capsys):
    path = src_file("c.tq", "qubits 2\ncnot 0 1\n")
    rc, out, _ = run_cli(capsys, "verify", path, "--trials", "1", "--tolerance", "0")
    assert rc == EXIT_OK
    assert json.loads(out)["tolerance"] == 0


@pytest.mark.parametrize("entry", [{"a": [8, 8, 12]}, {"y": [4, 4, 8]}])
def test_partial_box_dims_file_keeps_other_defaults(tmp_path, capsys, entry):
    path = str(CIRCUITS / "t_gate.tq")
    rc, want, _ = run_cli(capsys, "synth", path)
    assert rc == EXIT_OK
    dims = tmp_path / "dims.json"
    dims.write_text(json.dumps(entry))
    rc, got, err = run_cli(capsys, "synth", path, "--box-dims", str(dims))
    assert (rc, err) == (EXIT_OK, "")
    assert got == want


def test_partial_box_dims_file_overrides_its_type(tmp_path, capsys):
    dims = tmp_path / "dims.json"
    dims.write_text(json.dumps({"a": [10, 10, 12]}))
    rc, out, _ = run_cli(capsys, "synth", str(CIRCUITS / "t_gate.tq"), "--box-dims", str(dims))
    assert rc == EXIT_OK
    spans = {box["state"]: box["spans"] for box in json.loads(out)["boxes"]}
    assert spans == {"a": [10, 10, 12], "y": [4, 4, 8]}


def test_slice_lines_are_canonical_json(capsys):
    rc, out, _ = run_cli(capsys, "slice", str(CIRCUITS / "t_gate.tq"),
                         "--success-rate", "0.8", "--seed", "53")
    assert rc == EXIT_OK
    lines = out.splitlines(keepends=True)
    assert len(lines) > 10
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":")) + "\n"


def test_slice_encodes_each_layer_once(capsys, monkeypatch):
    import tqecsynth.cli as cli
    pulled = []

    def counting_marks(*args, **kwargs):
        for marked in layer_marks(*args, **kwargs):
            pulled.append(len(pulled))
            yield marked

    monkeypatch.setattr(cli, "layer_marks", counting_marks)
    rc, out, _ = run_cli(capsys, "slice", str(CIRCUITS / "p_gate.tq"))
    assert rc == EXIT_OK
    named = {layer["index"] for line in out.splitlines()
             for layer in json.loads(line)["layers"]}
    assert pulled == sorted(named) == list(range(len(named)))


@pytest.mark.parametrize("cells", [("50", "400", "99999999"), ("1", "1", "99999999"),
                                   ("99999999", "99999999", "40")])
def test_slice_huge_lattice_exit_code(tmp_path, capsys, cells):
    out = tmp_path / "layers.jsonl"
    rc, stdout, err = run_cli(capsys, "slice", str(CIRCUITS / "t_gate.tq"),
                              "--cells", *cells, "--out", str(out))
    assert rc == EXIT_PARSE
    assert stdout == "" and not out.exists()
    assert err.startswith("error: lattice of") and err.count("\n") == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.just("a\0b"),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6)
config_keys = st.sampled_from(["success_rate", "spare_epsilon", "seed", "spares_y",
                               "spares_a", "distance", "box_dims"])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=st.dictionaries(config_keys, json_values | st.integers(0, 40)
                           | st.floats(0, 1), min_size=1, max_size=4))
def test_any_config_values_end_in_an_exit_code(tmp_path, monkeypatch, capsys, cfg):
    import tqecsynth.pipeline as pipeline
    # a lower explicit-spare cap keeps large drawn counts from placing thousands of boxes
    monkeypatch.setattr(pipeline, "MAX_SPARES", 64)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.tq").write_text("qubits 1\nt 0\n")
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    rc, _, err = run_cli(capsys, "synth", "t.tq", "--config", "cfg.json")
    assert rc in (EXIT_OK, EXIT_PARSE, EXIT_SYNTH)
    if rc == EXIT_PARSE:
        assert err.startswith("error:") and err.count("\n") == 1
    else:
        assert err == ""


class RecordingHandle:
    """A binary sink that counts its writes and hashes their bytes, keeping none."""

    def __init__(self) -> None:
        self.writes = 0
        self.bytes = 0
        self.digest = hashlib.sha256()

    def write(self, data) -> int:
        self.writes += 1
        self.bytes += len(data)
        self.digest.update(data)
        return len(data)


def test_synth_streams_the_json_document_in_whole_buffers(monkeypatch, src_file):
    # the 16-Toffoli ladder rung; its document is 2.4 MB, and the pipeline
    # (distance included) runs before the trace, so the trace sees the
    # command write the document alone
    source = workloads.toffoli_source(random.Random(1), 16, 6)
    result = run_pipeline(source, PipelineConfig(
        success_rate=0.9, seed=1, spares=SparePolicy("binomial", epsilon=1e-6)))
    result.distance
    expected = export(result, "json")
    monkeypatch.setattr(cli, "run_pipeline", lambda source, config: result)
    handle = RecordingHandle()
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(buffer=handle))
    path = src_file("toffoli16.tq", source)
    tracemalloc.start()
    try:
        assert main(["synth", path, "--format", "json"]) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert handle.digest.digest() == hashlib.sha256(expected).digest()
    assert handle.bytes == len(expected) > 2 * cli.WRITE_BYTES
    assert handle.writes <= math.ceil(len(expected) / cli.WRITE_BYTES) + 2
    # the dict tree and its one-string encoding took about 17 MB here
    assert peak < 4 * 2**20
