"""Deterministic SVG rendering on a fixed canvas.

Only path, line and text nodes are emitted and every number is written
with two decimals, so the bytes are a pure function of the input data.
Non-finite points are skipped rather than plotted, and data whose scaled
coordinates overflow a float is rejected, so no ``nan`` or ``inf`` is ever
written. Text is escaped, and text with a character XML cannot carry is
rejected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

WIDTH = 640.0
HEIGHT = 480.0
LEFT, RIGHT, TOP, BOTTOM = 70.0, 150.0, 40.0, 60.0
PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

# characters outside XML 1.0, which no escape can write; compiled on first
# use (re caches it), as compiling it costs about 130 kB of peak memory
NOT_XML = "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"


@dataclass(frozen=True)
class Series:
    name: str
    points: tuple[tuple[float, float], ...]

    @property
    def finite_points(self) -> list[tuple[float, float]]:
        return [(x, y) for x, y in self.points if math.isfinite(x) and math.isfinite(y)]


def _fmt(value: float) -> str:
    # every number passes here, so a range whose span or scaled coordinates
    # overflow a float is refused instead of written as nan or inf
    if not math.isfinite(value):
        raise ValueError(f"cannot scale the data onto the canvas: a coordinate is {value}")
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _escape(text: str) -> str:
    # by hand: xml.sax.saxutils would import urllib.request with the CLI
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x: float, y: float, content: str, anchor: str = "start", extra: str = "") -> str:
    if re.search(NOT_XML, content):
        raise ValueError(f"text {content!r} holds a character that SVG cannot carry")
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" font-size="11" '
        f'text-anchor="{anchor}"{extra}>{_escape(content)}</text>'
    )


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: float = 1.0, extra: str = "") -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{_fmt(width)}"{extra}/>'
    )


def _ranges(series: list[Series]) -> tuple[float, float, float, float]:
    xs = [p[0] for s in series for p in s.finite_points]
    ys = [p[1] for s in series for p in s.finite_points]
    if not xs:
        raise ValueError("nothing to plot: no finite data points")
    return (*_widen(min(xs), max(xs)), *_widen(min(ys), max(ys)))


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """A zero-width range padded by 0.5 each side, or by one float step
    where 0.5 is below the spacing of floats this large."""
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
        if hi == lo:
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def _frame(title: str, x_label: str, y_label: str) -> list[str]:
    plot_bottom = HEIGHT - BOTTOM
    plot_right = WIDTH - RIGHT
    parts = [
        _line(LEFT, plot_bottom, plot_right, plot_bottom, "#000000"),
        _line(LEFT, TOP, LEFT, plot_bottom, "#000000"),
    ]
    if title:
        parts.append(_text((LEFT + plot_right) / 2, TOP - 14.0, title, anchor="middle"))
    if x_label:
        parts.append(_text((LEFT + plot_right) / 2, HEIGHT - 14.0, x_label, anchor="middle"))
    if y_label:
        rotation = f' transform="rotate(-90 {_fmt(16.0)} {_fmt((TOP + plot_bottom) / 2)})"'
        parts.append(_text(16.0, (TOP + plot_bottom) / 2, y_label, anchor="middle", extra=rotation))
    return parts


def line_chart(
    series: list[Series],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Polyline chart with a legend entry per series."""
    x_lo, x_hi, y_lo, y_hi = _ranges(series)
    plot_bottom = HEIGHT - BOTTOM
    plot_right = WIDTH - RIGHT

    def sx(x: float) -> float:
        return LEFT + (x - x_lo) / (x_hi - x_lo) * (plot_right - LEFT)

    def sy(y: float) -> float:
        return plot_bottom - (y - y_lo) / (y_hi - y_lo) * (plot_bottom - TOP)

    parts = _frame(title, x_label, y_label)
    for tick in range(5):
        frac = tick / 4.0
        x = x_lo + frac * (x_hi - x_lo)
        y = y_lo + frac * (y_hi - y_lo)
        parts.append(_line(sx(x), plot_bottom, sx(x), plot_bottom + 4.0, "#000000"))
        parts.append(_text(sx(x), plot_bottom + 16.0, _fmt(x), anchor="middle"))
        parts.append(_line(LEFT - 4.0, sy(y), LEFT, sy(y), "#000000"))
        parts.append(_text(LEFT - 8.0, sy(y) + 4.0, _fmt(y), anchor="end"))
    for index, item in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        points = item.finite_points
        if points:
            steps = " L ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in points)
            parts.append(
                f'<path d="M {steps}" fill="none" stroke="{color}" stroke-width="1.50"/>'
            )
        legend_y = TOP + 14.0 * index
        parts.append(_line(plot_right + 10.0, legend_y, plot_right + 30.0, legend_y, color, 2.0))
        parts.append(_text(plot_right + 36.0, legend_y + 4.0, item.name))
    return _document(parts)


def bar_chart(
    bars: list[tuple[str, float]],
    title: str = "",
    y_label: str = "",
) -> str:
    """Vertical bars drawn as thick lines, one label under each."""
    finite = [(name, value) for name, value in bars if math.isfinite(value)]
    if not finite:
        raise ValueError("nothing to plot: no finite data points")
    y_hi = max(max(value for _, value in finite), 0.0) or 1.0
    plot_bottom = HEIGHT - BOTTOM
    plot_right = WIDTH - RIGHT

    def sy(y: float) -> float:
        return plot_bottom - y / (y_hi * 1.05) * (plot_bottom - TOP)

    parts = _frame(title, "", y_label)
    for tick in range(5):
        y = y_hi * 1.05 * tick / 4.0
        parts.append(_line(LEFT - 4.0, sy(y), LEFT, sy(y), "#000000"))
        parts.append(_text(LEFT - 8.0, sy(y) + 4.0, _fmt(y), anchor="end"))
    step = (plot_right - LEFT) / (len(finite) + 1)
    for index, (name, value) in enumerate(finite):
        color = PALETTE[index % len(PALETTE)]
        x = LEFT + step * (index + 1)
        parts.append(_line(x, plot_bottom, x, sy(value), color, 24.0))
        parts.append(_text(x, sy(value) - 6.0, _fmt(value), anchor="middle"))
        parts.append(_text(x, plot_bottom + 16.0, name, anchor="middle"))
    return _document(parts)


def _document(parts: list[str]) -> str:
    body = "\n".join(f"  {part}" for part in parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(HEIGHT)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">\n'
        f"{body}\n</svg>\n"
    )
