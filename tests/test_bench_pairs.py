import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _result(failed, **values):
    return {"failed": failed, "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_summarize_gives_quartiles_lower_pairs_and_failures():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 3.0, 4.0]
    pairs = [{"parent": _result(0, a=p, b=10.0), "change": _result(i % 2, a=c, b=10.0)}
             for i, (p, c) in enumerate(zip(parent, change))]
    # a run that printed no result line counts as one failure, and its pair
    # drops out of every metric
    pairs.append({"parent": _result(0, a=100.0), "change": None})
    summary = bench_pairs.summarize(pairs, ["a", "b", "missing"])
    a = summary["a"]
    assert a["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert a["change"] == {"q1": 2.0, "median": 2.5, "q3": 3.0}
    assert a["change_minus_parent_median"] == -0.5
    assert a["parent_iqr"] == 2.0
    assert a["change_lower_pairs"] == 4 and a["pairs"] == 5
    # equal readings are not lower
    assert summary["b"]["change_lower_pairs"] == 0
    assert "missing" not in summary
    assert summary["failed"] == {"parent": 0, "change": 2 + 1}


def test_summarize_one_pair_has_its_values_as_quartiles():
    summary = bench_pairs.summarize([{"parent": _result(0, a=2.0), "change": _result(0, a=1.5)}],
                                    ["a"])
    assert summary["a"]["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert summary["a"]["change_minus_parent_median"] == pytest.approx(-0.5)
    assert summary["a"]["change_lower_pairs"] == 1


def _tree(root: Path, files: dict[str, bytes]) -> Path:
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


SOURCES = {"src/pkg/__init__.py": b"", "src/pkg/a.py": b"x = 1\n", "src/pkg/sub/b.py": b"y = 2\n"}


def test_source_digest_reads_every_source_file_and_nothing_else(tmp_path):
    base = bench_pairs.source_digest(_tree(tmp_path / "a", SOURCES))
    # the same files in another directory, plus files that are not sources
    same = _tree(tmp_path / "b", {**SOURCES, "src/pkg/data.csv": b"1,2\n",
                                  "tests/test_a.py": b"assert True\n", "README.md": b"#\n"})
    assert bench_pairs.source_digest(same) == base
    assert len(base) == 64
    # one changed byte, a renamed file, or bytes moved from one file to the
    # next each give another digest
    changed = _tree(tmp_path / "c", {**SOURCES, "src/pkg/a.py": b"x = 2\n"})
    renamed = _tree(tmp_path / "d", {"src/pkg/__init__.py": b"", "src/pkg/c.py": b"x = 1\n",
                                     "src/pkg/sub/b.py": b"y = 2\n"})
    moved = _tree(tmp_path / "e", {**SOURCES, "src/pkg/__init__.py": b"x",
                                   "src/pkg/a.py": b" = 1\n"})
    digests = {bench_pairs.source_digest(t) for t in (changed, renamed, moved)}
    assert len(digests) == 3 and base not in digests


def test_a_tree_with_bytecode_exits_2_before_any_run(tmp_path, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(bench_pairs, "_run", lambda tree, command: runs.append(tree))
    parent = _tree(tmp_path / "p", SOURCES)
    change = _tree(tmp_path / "c", {**SOURCES, "src/pkg/__pycache__/a.cpython-311.pyc": b"\0"})
    out = tmp_path / "bench.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "stream-default",
            "--seeds", "1-2", "--out", str(out)]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert "change tree" in err and str(change / "src" / "pkg" / "__pycache__") in err
    assert runs == [] and not out.exists()


def test_each_set_records_both_trees_source_digests(tmp_path, monkeypatch):
    result = _result(0, setup_s=1.0)
    monkeypatch.setattr(bench_pairs, "_run",
                        lambda tree, command: {"exit_code": 0, "result": result})
    parent = _tree(tmp_path / "p", SOURCES)
    change = _tree(tmp_path / "c", {**SOURCES, "src/pkg/a.py": b"x = 3\n"})
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload",
                             "stream-default", "--seeds", "5", "--out", str(out)]) == 0
    [bench_set] = json.loads(out.read_text())["sets"]
    assert bench_set["src_sha256"] == {"parent": bench_pairs.source_digest(parent),
                                       "change": bench_pairs.source_digest(change)}
    assert bench_set["src_sha256"]["parent"] != bench_set["src_sha256"]["change"]
