import json

import pytest

from geohom.atlas import load_atlas
from geohom.cli import main
from geohom.graph_core import ParseError

FAST = ["--window", "3000", "--max-samples", "100000"]


def run(args):
    return main(list(args))


def test_enumerate_writes_atlas(tmp_path, capsys):
    out = tmp_path / "atlas.json"
    rc = run(["enumerate", "--graph", "k33", "--seed", "7", *FAST, "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "19 classes; histogram 1:1 3:7 5:8 7:2 9:1" in stdout
    records = json.loads(out.read_text())
    assert len(records) == 19
    assert records[0]["label"] == "1.1"


def test_enumerate_is_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run(["enumerate", "--seed", "7", *FAST, "--out", str(first)])
    run(["enumerate", "--seed", "7", *FAST, "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_enumerate_k6(tmp_path, capsys):
    out = tmp_path / "k6.json"
    rc = run(["enumerate", "--graph", "k6", "--seed", "7", *FAST, "--out", str(out)])
    assert rc == 0
    assert "15 classes" in capsys.readouterr().out


def test_enumerate_grid_too_small_exits_2(tmp_path, capsys):
    out = tmp_path / "grid.json"
    rc = run(
        ["enumerate", "--mode", "grid", "--bound", "3", "--out", str(out)]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert "incomplete" in captured.out
    assert json.loads(out.read_text())  # partial atlas still written


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as info:
        run(["enumerate", "--bogus"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["poset", "--bound", "1"],
        ["hom", "3.1", "5.1", "--window", "0"],
        ["export", "--what", "hasse", "--max-samples", "0"],
        ["enumerate", "--bound", "2000000"],
        ["verify", "--window", "0"],
    ],
)
def test_out_of_range_flag_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"geohom {argv[0]}: error: ")
    assert not list(tmp_path.iterdir())  # nothing enumerated or written


@pytest.mark.parametrize("flag", ["--parity-sets", "--quadruples"])
def test_verify_rejects_empty_check_before_enumerating(flag, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("geohom.verify.enumerate_classes", refuse)
    assert run(["verify", flag, "0"]) == 2
    assert "must be positive" in capsys.readouterr().err


def test_tampered_atlas_rejected(tmp_path, capsys):
    atlas = tmp_path / "atlas.json"
    run(["enumerate", "--seed", "7", *FAST, "--out", str(atlas)])
    records = json.loads(atlas.read_text())
    records[3]["signature"]["thickness"] += 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(records))
    with pytest.raises(ParseError, match="record 3: stored signature"):
        load_atlas(tampered)
    capsys.readouterr()
    assert run(["hom", "3.1", "5.1", "--atlas", str(tampered)]) == 1
    assert "stored signature" in capsys.readouterr().err


def test_hom_witnesses(tmp_path, capsys):
    atlas = tmp_path / "atlas.json"
    run(["enumerate", "--seed", "7", *FAST, "--out", str(atlas)])
    capsys.readouterr()
    rc = run(["hom", "3.1", "5.1", "--atlas", str(atlas)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "hom"
    assert payload["witnesses"]

    rc = run(["hom", "3.7", "5.1", "--atlas", str(atlas)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == "no-hom"
    assert "cond2_ex_hom_exists" in payload["failed_conditions"]

    rc = run(["hom", "9.1", "9.1", "--atlas", str(atlas)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(range(6)) in payload["witnesses"]


def test_hom_unknown_label(tmp_path, capsys):
    atlas = tmp_path / "atlas.json"
    run(["enumerate", "--seed", "7", *FAST, "--out", str(atlas)])
    rc = run(["hom", "3.9", "5.1", "--atlas", str(atlas)])
    assert rc == 1
    assert "unknown label" in capsys.readouterr().err


def test_poset_outputs(tmp_path, capsys):
    atlas = tmp_path / "atlas.json"
    run(["enumerate", "--seed", "7", *FAST, "--out", str(atlas)])
    out = tmp_path / "poset.json"
    rc = run(["poset", "--atlas", str(atlas), "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["labels"]) == 19
    dot = tmp_path / "hasse.dot"
    rc = run(["poset", "--atlas", str(atlas), "--format", "dot", "--out", str(dot)])
    assert rc == 0
    assert dot.read_text().startswith("digraph hasse {")


def test_export_graphs(tmp_path, capsys):
    atlas = tmp_path / "atlas.json"
    run(["enumerate", "--seed", "7", *FAST, "--out", str(atlas)])
    capsys.readouterr()
    rc = run(["export", "--what", "ex", "--label", "3.7", "--atlas", str(atlas)])
    assert rc == 0
    assert "graph edge_crossings" in capsys.readouterr().out
    rc = run(["export", "--what", "lex", "--label", "5.1", "--atlas", str(atlas)])
    assert rc == 0
    assert "style=dashed" in capsys.readouterr().out
    rc = run(["export", "--what", "hasse", "--atlas", str(atlas), "--format", "dot"])
    assert rc == 0
    assert "peripheries=2" in capsys.readouterr().out
    rc = run(["export", "--what", "ex", "--atlas", str(atlas)])
    assert rc == 1  # --label missing


def test_verify_passes(capsys):
    rc = run(
        [
            "verify",
            "--seed", "7",
            "--seed2", "101",
            "--window", "3000",
            "--max-samples", "100000",
            "--parity-sets", "300",
            "--quadruples", "150",
        ]
    )
    captured = capsys.readouterr()
    lines = [l for l in captured.out.splitlines() if l]
    assert rc == 0
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)


def test_verify_flags_truncated_atlas(tmp_path, capsys):
    atlas = tmp_path / "atlas.json"
    run(["enumerate", "--seed", "7", *FAST, "--out", str(atlas)])
    records = json.loads(atlas.read_text())
    atlas.write_text(json.dumps(records[:18]))
    capsys.readouterr()
    rc = run(
        [
            "verify",
            "--atlas", str(atlas),
            "--window", "3000",
            "--max-samples", "100000",
            "--parity-sets", "100",
            "--quadruples", "50",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL atlas-counts" in captured.out
    assert "FAILED: atlas-counts" in captured.err
