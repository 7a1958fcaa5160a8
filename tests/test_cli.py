import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geohom
from geohom.atlas import atlas_to_json, load_atlas
from geohom.cli import main
from geohom.graph_core import ParseError
from geohom.morphisms import hom_query

FAST = ["--max-samples", "100000"]


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


@pytest.mark.parametrize("seed", [3, 7, 10, 101])
def test_enumerate_writes_the_pinned_labels(seed, tmp_path):
    # a k33 atlas file carries the labels every label query pins, so
    # pinning it again reproduces the file byte for byte
    written, exported = tmp_path / "atlas.json", tmp_path / "pinned.json"
    assert run(["enumerate", "--seed", str(seed), "--out", str(written)]) == 0
    assert run([
        "export", "--what", "atlas", "--atlas", str(written), "--out", str(exported)
    ]) == 0
    assert exported.read_bytes() == written.read_bytes()


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


def test_enumerate_stalled_exits_2(tmp_path, capsys):
    # at bound 2 two K_6 classes never appear: the run gives up, it does not
    # label 13 classes as complete
    out = tmp_path / "k6.json"
    rc = run(["enumerate", "--graph", "k6", "--bound", "2", "--seed", "1", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "13 classes (incomplete)" in captured.out
    assert "with 13 of 15 classes" in captured.err
    assert all(record["label"] is None for record in json.loads(out.read_text()))


def test_enumerate_grid_bound_4_completes(tmp_path, capsys):
    out = tmp_path / "grid.json"
    rc = run(["enumerate", "--mode", "grid", "--bound", "4", "--out", str(out)])
    assert rc == 0
    assert "19 classes; histogram 1:1 3:7 5:8 7:2 9:1" in capsys.readouterr().out


def _python_m(module, *args, timeout=None):
    src = str(Path(geohom.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_grid_budget_counts_degenerate_draws(tmp_path):
    # every 6-subset of the bound-50 grid among its first ~2.9e9 holds the
    # collinear (0,0), (0,1), (0,2): the budget must still end the sweep
    out = tmp_path / "grid.json"
    done = _python_m(
        "geohom", "enumerate", "--mode", "grid", "--bound", "50",
        "--max-samples", "1000", "--out", str(out),
        timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert "stopped after 0 samples with 0 of 19 classes" in done.stderr
    assert "0 classes (incomplete); no atlas written" in done.stdout
    assert not out.exists()


def test_grid_bound_above_the_limit_is_a_usage_error(tmp_path, capsys):
    rc = run(["enumerate", "--mode", "grid", "--out", str(tmp_path / "grid.json")])
    assert rc == 2
    assert "grid mode needs a coordinate bound of at most 100" in capsys.readouterr().err
    assert not (tmp_path / "grid.json").exists()


@pytest.mark.parametrize("module", ["geohom", "geohom.cli"])
def test_python_m_reports_usage_error(module):
    done = _python_m(module, "verify", "--parity-sets", "0")
    assert done.returncode == 2
    assert "must be positive" in done.stderr


def test_python_m_verify_prints_ten_passes():
    done = _python_m(
        "geohom", "verify", "--parity-sets", "100", "--quadruples", "50"
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS ") for line in lines)


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as info:
        run(["enumerate", "--bogus"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["poset", "--bound", "1"],
        ["hom", "3.1", "5.1", "--max-samples", "0"],
        ["export", "--what", "hasse", "--max-samples", "0"],
        ["enumerate", "--bound", "2000000"],
        ["verify", "--max-samples", "0"],
        # A: a valid k33 atlas, which leaves the enumeration flags unused
        ["hom", "1.1", "9.1", "--atlas", "A", "--bound", "1"],
        ["poset", "--atlas", "A", "--bound", "1"],
        ["export", "--what", "hasse", "--atlas", "A", "--max-samples", "0"],
    ],
)
def test_out_of_range_flag_is_usage_error(argv, tmp_path, monkeypatch, capsys, pinned_atlas):
    atlas = tmp_path / "atlas.json"
    atlas.write_text(atlas_to_json(pinned_atlas))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run([str(atlas) if arg == "A" else arg for arg in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"geohom {argv[0]}: error: ")
    assert not list(work.iterdir())  # nothing enumerated or written


@pytest.mark.parametrize(
    "command",
    [["enumerate"], ["verify"], ["hom", "3.1", "5.1"], ["poset"], ["export", "--what", "hasse"]],
    ids=lambda command: command[0],
)
def test_window_flag_is_unknown(command, tmp_path, monkeypatch, capsys):
    # enumerations stop at completeness or the budget: no command takes a window
    def refuse(*args, **kwargs):
        raise AssertionError("file read or sample drawn")

    for name in ("atlas.enumerate_atlases", "verify.enumerate_atlases", "verify.load_atlas"):
        monkeypatch.setattr(f"geohom.{name}", refuse)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        run([*command, "--window", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("usage: geohom ")
    assert err[1] == "geohom: error: unrecognized arguments: --window 1"
    assert not list(tmp_path.iterdir())


def test_verify_with_equal_seeds_is_a_usage_error(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("geohom.verify.enumerate_atlases", refuse)
    assert run(["verify", "--seed", "7", "--seed2", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "geohom verify: error: the two seeds must differ, got 7 twice\n"


@pytest.mark.parametrize(
    "out, code",
    [
        ("", errno.EISDIR),
        ("missing/atlas.json", errno.ENOENT),
        ("file/atlas.json", errno.ENOTDIR),
        (None, errno.ENOENT),  # the empty path itself
    ],
)
def test_enumerate_checks_the_output_path_before_sampling(
    out, code, tmp_path, monkeypatch, capsys
):
    # the message that opening the file after sampling would give
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("geohom.cli.enumerate_classes", refuse)
    (tmp_path / "file").write_text("")
    path = "" if out is None else str(tmp_path / out)
    assert run(["enumerate", "--out", path]) == 1
    error = OSError(code, os.strerror(code), path)
    assert capsys.readouterr().err == f"error: cannot write {path}: {error}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("flag", ["--parity-sets", "--quadruples"])
def test_verify_rejects_empty_check_before_enumerating(flag, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("geohom.verify.enumerate_atlases", refuse)
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


def test_non_utf8_file_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    for argv in (["hom", "3.1", "5.1"], ["poset"], ["export", "--what", "atlas"]):
        capsys.readouterr()
        assert run([*argv, "--atlas", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: atlas file is not UTF-8")
    rc = run(
        [
            "verify",
            "--atlas", str(bad),
            "--poset", str(bad),
            *FAST,
            "--parity-sets", "100",
            "--quadruples", "50",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "Traceback" not in captured.out + captured.err
    lines = captured.out.splitlines()
    assert any(
        line.startswith("FAIL atlas-counts")
        and "supplied atlas rejected: atlas file is not UTF-8" in line
        for line in lines
    )
    assert any(
        line.startswith("FAIL poset-structure") and "unreadable poset file" in line
        for line in lines
    )


@pytest.fixture
def deep_json(tmp_path):
    """A JSON file nested deeper than the parser's recursion limit."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path


def test_deeply_nested_atlas_is_an_error(deep_json, capsys):
    assert run(["hom", "1.1", "9.1", "--atlas", str(deep_json)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad atlas JSON: ")


@pytest.mark.parametrize(
    "flag, check, problem",
    [
        ("--atlas", "atlas-counts", "supplied atlas rejected: bad atlas JSON: "),
        ("--poset", "poset-structure", "unreadable poset file: "),
    ],
    ids=["atlas", "poset"],
)
def test_verify_rejects_deeply_nested_file(
    flag, check, problem, deep_json, atlases_a, atlases_b, monkeypatch, capsys
):
    # the sampled atlases are the session's; only the supplied file varies
    monkeypatch.setattr(
        "geohom.verify.enumerate_atlases",
        lambda cfg: {7: atlases_a, 101: atlases_b}[cfg.seed],
    )
    rc = run(["verify", flag, str(deep_json), "--parity-sets", "100", "--quadruples", "50"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"FAILED: {check}\n"
    failing = [line for line in captured.out.splitlines() if not line.startswith("PASS ")]
    assert len(failing) == 1
    assert failing[0].startswith(f"FAIL {check}") and problem in failing[0]


@pytest.mark.parametrize(
    "field, value",
    [
        ("discovery_count", "x"),
        ("label", ["a"]),
        # true compares equal to the 1-crossing class's stored cr of 1
        ("signature/cr", True),
    ],
)
def test_malformed_record_is_an_error(field, value, tmp_path, capsys):
    atlas = tmp_path / "atlas.json"
    run(["enumerate", "--seed", "7", *FAST, "--out", str(atlas)])
    records = json.loads(atlas.read_text())
    *outer, name = field.split("/")
    holder = records[0]
    for key in outer:
        holder = holder[key]
    holder[name] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(records))
    for argv in (["hom", "3.1", "5.1"], ["poset"]):
        capsys.readouterr()
        assert run([*argv, "--atlas", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: record 0: {name} ")


def test_repeated_class_is_an_error(tmp_path, capsys):
    atlas = tmp_path / "atlas.json"
    run(["enumerate", "--seed", "7", *FAST, "--out", str(atlas)])
    records = json.loads(atlas.read_text())
    records[5] = dict(records[4], label=records[5]["label"])
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps(records))
    for argv in (["hom", "3.1", "5.1"], ["poset"]):
        capsys.readouterr()
        assert run([*argv, "--atlas", str(dup)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: record 5: same class as record 4"]
    rc = run(
        [
            "verify",
            "--atlas", str(dup),
            *FAST,
            "--parity-sets", "100",
            "--quadruples", "50",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL atlas-counts" in out and "record 5: same class as record 4" in out


def test_label_query_on_incomplete_atlas_is_an_error(tmp_path, capsys):
    partial = tmp_path / "partial.json"
    assert run(["enumerate", "--seed", "7", "--max-samples", "300", "--out", str(partial)]) == 2
    count = len(json.loads(partial.read_text()))
    assert count < 19
    full = tmp_path / "atlas.json"
    run(["enumerate", "--seed", "7", *FAST, "--out", str(full)])
    short = tmp_path / "short.json"
    short.write_text(json.dumps(json.loads(full.read_text())[:18]))
    for path, n in ((partial, count), (short, 18)):
        for argv in (["hom", "3.1", "5.1"], ["poset"], ["export", "--what", "atlas"]):
            capsys.readouterr()
            assert run([*argv, "--atlas", str(path)]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: label queries need the complete k33 atlas of 19 classes, got {n}"
            ]


def test_foreign_vertex_layout_rejected(tmp_path, capsys):
    atlas = tmp_path / "atlas.json"
    run(["enumerate", "--seed", "7", *FAST, "--out", str(atlas)])
    records = json.loads(atlas.read_text())
    # the same drawing with vertices 2 and 3 swapped
    rep = records[4]["representative"]
    rep["points"][2], rep["points"][3] = rep["points"][3], rep["points"][2]
    rep["parts"] = [[0, 1, 3], [2, 4, 5]]
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(records))
    capsys.readouterr()
    assert run(["poset", "--atlas", str(moved)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "record 4: representative is not K_{3,3} on {0,1,2} | {3,4,5}" in err


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


def test_hom_outputs_pinned(pinned_atlas):
    # the hom JSON of every label pair of the seed-7 atlas, as the CLI
    # prints it; guards witness order and the certificate fields
    digest = hashlib.sha256()
    for src in pinned_atlas.classes:
        for dst in pinned_atlas.classes:
            result = hom_query(src.representative, dst.representative, src.label, dst.label)
            digest.update((json.dumps(result, indent=2) + "\n").encode())
    assert digest.hexdigest() == (
        "ad2fa32c94980ce4a373d5c6bdc388f37a07b5d5827bdc02708046fbbd6aa81f"
    )


def test_hom_unknown_label(tmp_path, capsys):
    atlas = tmp_path / "atlas.json"
    run(["enumerate", "--seed", "7", *FAST, "--out", str(atlas)])
    rc = run(["hom", "3.9", "5.1", "--atlas", str(atlas)])
    assert rc == 1
    assert "unknown label" in capsys.readouterr().err


def test_label_query_on_k6_atlas_is_an_error(tmp_path, capsys):
    atlas = tmp_path / "k6.json"
    run(["enumerate", "--graph", "k6", "--seed", "7", *FAST, "--out", str(atlas)])
    capsys.readouterr()
    assert run(["hom", "3.1", "5.1", "--atlas", str(atlas)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: label queries need a k33 atlas"]


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
    capsys.readouterr()
    # checked before the atlas is read
    rc = run(["export", "--what", "lex", "--atlas", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "--label is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--what", "ex", "--label", "3.1", "--format", "json"], "--format applies only"),
        (["--what", "atlas", "--format", "dot"], "--format applies only"),
        (["--what", "hasse", "--label", "3.1"], "--label applies only"),
        (["--what", "atlas", "--label", "3.1"], "--label applies only"),
    ],
)
def test_export_rejects_flags_of_other_kinds(tmp_path, capsys, flags, error):
    # checked before any atlas is read or enumerated
    rc = run(["export", *flags, "--atlas", str(tmp_path / "missing.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and err.count("\n") == 1


def test_verify_passes(capsys):
    rc = run(
        [
            "verify",
            "--seed", "7",
            "--seed2", "101",
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
            "--max-samples", "100000",
            "--parity-sets", "100",
            "--quadruples", "50",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL atlas-counts" in captured.out
    assert "FAILED: atlas-counts" in captured.err
