import importlib.util
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
