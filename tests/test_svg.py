"""Tests for deterministic SVG rendering."""

import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from skipstack.svg import Series, bar_chart, line_chart

ALLOWED_TAGS = {"svg", "path", "line", "text"}


def tags_of(document):
    root = ET.fromstring(document)
    return {element.tag.split("}")[-1] for element in root.iter()}


def sample_series():
    return [
        Series(name="a", points=((1.0, 1.0), (2.0, 0.5), (3.0, 0.25))),
        Series(name="b", points=((1.0, 1.0), (2.0, 0.8), (3.0, 0.6))),
    ]


class TestLineChart:
    def test_only_allowed_nodes(self):
        assert tags_of(line_chart(sample_series())) <= ALLOWED_TAGS

    def test_byte_identical_for_identical_input(self):
        a = line_chart(sample_series(), title="t", x_label="x", y_label="y")
        b = line_chart(sample_series(), title="t", x_label="x", y_label="y")
        assert a == b

    def test_all_numbers_have_two_decimals(self):
        document = line_chart(sample_series(), title="t")
        for match in re.findall(r"\d+\.\d+", document):
            assert len(match.split(".")[1]) == 2, match

    def test_one_path_per_series_plus_legend(self):
        document = line_chart(sample_series())
        assert document.count("<path") == 2
        assert "a</text>" in document and "b</text>" in document

    def test_non_finite_points_skipped(self):
        series = [Series(name="a", points=((0.0, 1.0), (1.0, float("inf")), (2.0, 2.0)))]
        document = line_chart(series)
        assert "inf" not in document
        # the path keeps the two finite points
        assert document.count("<path") == 1

    def test_all_points_non_finite_rejected(self):
        series = [Series(name="a", points=((0.0, float("nan")),))]
        with pytest.raises(ValueError, match="no finite data"):
            line_chart(series)

    def test_degenerate_range_padded(self):
        series = [Series(name="a", points=((1.0, 2.0), (1.0, 2.0)))]
        document = line_chart(series)
        assert "nan" not in document

    @pytest.mark.parametrize("value", [1e16, -1e300])
    def test_degenerate_range_of_large_values_padded(self, value):
        # 0.5 is below the float spacing here, so x +- 0.5 is x again
        document = line_chart([Series(name="a", points=((value, value),))])
        assert "nan" not in document and "inf" not in document

    def test_markup_in_names_escaped(self):
        document = line_chart([Series(name="<a & b>", points=((0.0, 1.0), (1.0, 2.0)))])
        assert "<a & b>" in [node.text for node in ET.fromstring(document).iter()]

    def test_control_character_in_a_name_rejected(self):
        with pytest.raises(ValueError, match="cannot carry"):
            bar_chart([("a\x1fb", 1.0)])


class TestBarChart:
    def test_only_allowed_nodes(self):
        document = bar_chart([("L=0", 80.0), ("L=1", 92.5)], title="acc")
        assert tags_of(document) <= ALLOWED_TAGS

    def test_deterministic(self):
        bars = [("L=0", 80.0), ("L=1", 92.5)]
        assert bar_chart(bars) == bar_chart(bars)

    def test_labels_and_values_present(self):
        document = bar_chart([("L=2-0", 83.25)])
        assert "L=2-0</text>" in document
        assert "83.25</text>" in document

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no finite data"):
            bar_chart([("a", float("nan"))])


class TestNumericStability:
    def test_huge_and_tiny_values_render(self):
        series = [Series(name="a", points=tuple((float(i), float(10**i)) for i in range(5)))]
        document = line_chart(series)
        assert tags_of(document) <= ALLOWED_TAGS

    def test_random_input_round_trips_through_parser(self):
        rng = np.random.default_rng(0)
        series = [
            Series(
                name=f"s{i}",
                points=tuple((float(x), float(y)) for x, y in rng.normal(size=(20, 2))),
            )
            for i in range(9)
        ]
        ET.fromstring(line_chart(series))
