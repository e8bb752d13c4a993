"""Grouped-bar SVG writer."""

import xml.etree.ElementTree as ET

import pytest

from devexplain.errors import ValidationError
from devexplain.svgchart import grouped_bar_svg


class TestGroupedBarSvg:
    def test_deterministic(self):
        args = ("scores", ["h", "hp", "ww"], [("mode 0", [0.4, 0.5, 0.1])])
        assert grouped_bar_svg(*args) == grouped_bar_svg(*args)

    def test_well_formed_document(self):
        svg = grouped_bar_svg("t", ["a"], [("s", [1.0])])
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        # every rect carries exactly one fill; nothing else does
        assert svg.count("fill=") == svg.count("<rect")

    def test_one_bar_per_group_and_series(self):
        svg = grouped_bar_svg(
            "t", ["a", "b", "c"], [("x", [1.0, 2.0, 3.0]), ("y", [4.0, 5.0, 6.0])]
        )
        # background + 2 legend swatches + 6 bars
        assert svg.count("<rect") == 1 + 2 + 6
        for value in ("1.0000", "2.0000", "6.0000"):
            assert value in svg

    def test_negative_bars_hang_below_baseline(self):
        pos = grouped_bar_svg("t", ["a"], [("s", [1.0])])
        neg = grouped_bar_svg("t", ["a"], [("s", [-1.0])])
        assert pos != neg
        assert "-1.0000" in neg

    def test_group_labels_rendered(self):
        svg = grouped_bar_svg("demo", ["alpha", "beta"], [("s", [0.0, 0.0])])
        assert "alpha" in svg
        assert "beta" in svg
        assert "demo" in svg

    def test_markup_in_text_is_escaped(self):
        # CSV header names reach the chart as group labels
        title, labels, name = "R&D <vs> mean", ["R&D", "x<1", "a>b"], "s&p"
        svg = grouped_bar_svg(title, labels, [(name, [0.1, 0.2, 0.3])])
        texts = [node.text for node in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert {title, name, *labels} <= set(texts)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            grouped_bar_svg("t", ["a", "b"], [("s", [1.0])])

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            grouped_bar_svg("t", ["a"], [])

    def test_too_many_series_rejected(self):
        series = [(f"s{i}", [1.0]) for i in range(6)]
        with pytest.raises(ValidationError):
            grouped_bar_svg("t", ["a"], series)
