"""How scripts/compare_outputs.py describes a file that differs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def doc(obj):
    return json.dumps(obj).encode()


@pytest.mark.parametrize(
    "name, old, new, expected",
    [
        ("r.json", doc({"shap": {"values": [1.0, 2.0]}, "k": "a"}),
         doc({"shap": {"values": [1.0, 2.5]}, "k": "a"}), "max |change| 0.5 at $.shap.values[1]"),
        ("r.csv", b"i,shap\n0,0.5\n1,0.25\n", b"i,shap\n0,0.5\n1,0.125\n",
         "max |change| 0.12 at line 3, column shap"),
        ("r.json", doc({"x": 1.0}), doc({"x": 1}), "non-float change"),
        ("r.json", doc({"x": 1, "y": 2.0}), doc({"y": 2.0, "x": 1}), "non-float change"),
        ("r.json", doc({"x": [1.0]}), doc({"x": [1.0, 2.0]}), "non-float change"),
        ("r.json", doc({"x": None}), doc({"x": 1.0}), "non-float change"),
        ("r.json", doc({"x": True}), doc({"x": False}), "non-float change"),
        ("r.json", doc({"x": 1.0}), doc({"x": float("nan")}), "non-float change"),
        ("r.json", b"{", b"{}", "non-float change"),
        ("r.csv", b"i,shap\n0,0.5\n", b"i,shap\n1,0.5\n", "non-float change"),
        ("r.csv", b"i,shap\n0,0.5\n", b"i,shap\n0,\n", "non-float change"),
        ("r.csv", b"i,shap\n0,0.5\n", b"i,shap\n0,0.5,1.0\n", "non-float change"),
        ("r.csv", b"i,shap\n0,0.5,1.0\n", b"i,shap\n0,0.5,2.0\n", "non-float change"),
        ("r.csv", b"i,shap\n0,5e-3\n", b"i,shap\n0,-3\n", "non-float change"),
        ("r.svg", b"<svg/>", b"<svg />", "non-float change"),
    ],
)
def test_change(name, old, new, expected):
    assert compare_outputs.change(name, old, new) == expected


def test_report_lists_each_difference(capsys):
    old = {"a.json": doc([1.0]), "b.svg": b"x", "gone.csv": b""}
    new = {"a.json": doc([1.25]), "b.svg": b"x", "new.csv": b""}
    assert compare_outputs.report(old, new, "base vs work") == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: a.json: max |change| 0.25 at $[0]",
        "differs: gone.csv (base only)",
        "differs: new.csv (working tree only)",
        "1 identical, 3 differ (base vs work)",
    ]
    assert compare_outputs.report(new, new, "same") == 0
