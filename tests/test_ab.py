"""tools/ab.py's table, on canned benchmark result lines."""
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "score", "unit": "1/s", "better": "higher", "bound": 0.25}]


def result(wall_s, score):
    return {"correct": True, "attempted": 19, "failed": 0,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "score": {"value": score, "unit": "1/s"}}}


def test_rows_give_medians_quartiles_wins_and_the_median_change():
    parent = [0.10, 0.12, 0.11, 0.13, 0.10]
    change = [0.07, 0.08, 0.11, 0.06, 0.09]  # one tie, four lower
    pairs = [(result(p, 1.0), result(c, 2.0 if k else 1.0))
             for k, (p, c) in enumerate(zip(parent, change))]
    wall, score = ab.table("ball1d", END_TO_END, pairs)
    # parent sorted 0.10 0.10 0.11 0.12 0.13, change 0.06 0.07 0.08 0.09 0.11
    assert wall == "| ball1d | wall_s | 0.11 [0.1, 0.12] | 0.08 [0.07, 0.09] | 4/5 (-27.3%) |"
    # higher is better here: four pairs doubled, one tied
    assert score == "| ball1d | score | 1 [1, 1] | 2 [2, 2] | 4/5 (+100.0%) |"


def test_the_header_matches_the_row_shape():
    (row,) = ab.table("geometry", END_TO_END[:1], [(result(0.3, 1.0), result(0.3, 1.0))] * 2)
    assert ab.HEADER.splitlines()[0].count("|") == row.count("|")
    assert row.endswith("| 0/2 (+0.0%) |")
