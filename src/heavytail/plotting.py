"""Deterministic SVG rendering for experiment artifacts.

Plots are emitted as self-contained SVG 1.1 documents built from CSV files
the experiment runners wrote, so a figure can always be regenerated from
its data without re-running the simulation. Two renderers read their
tables through one CSV reader:

* ``ecdf_svg``       step plots of one or more (t, G) distribution files;
* ``intervals_svg``  per-replication confidence segments grouped into
                     panels, with a horizontal reference line per panel, an
                     x marker at the reference value, and open triangles
                     flagging intervals whose lower endpoint is undefined.

No plotting library is used; output depends only on the CSV bytes and the
renderer's arguments, which keeps figures byte-stable across reruns.
"""

from __future__ import annotations

import csv
import math

from .errors import PlotDataError

PALETTE = ("#000000", "#c0392b", "#1e8449", "#1f4e9c", "#8e44ad", "#b7950b")

_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0
_PANEL_WIDTH = 720.0
_PANEL_HEIGHT = 300.0


def _f(v: float) -> str:
    """Fixed two-decimal coordinate formatting keeps documents stable."""
    return f"{v:.2f}"


def _read_table(path: str, header_rule) -> list:
    """The data rows of the CSV file at path, each converted by the function
    that header_rule(header) returns. A ValueError raised by either, or a
    csv.Error of the reader, is reported at path:line. Blank rows are
    skipped; the rest must be as wide as the header."""
    rows = []
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise PlotDataError(f"{path}: cannot read: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise PlotDataError(f"{path}:1: empty file")
            convert = header_rule(header)
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} columns, got {len(row)}")
                rows.append(convert(row))
        except (OSError, UnicodeDecodeError) as exc:
            raise PlotDataError(f"{path}: cannot read: {exc}") from exc
        except (ValueError, csv.Error) as exc:
            # a cell past csv.field_size_limit() is csv.Error, not ValueError
            raise PlotDataError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise PlotDataError(f"{path}: no data rows")
    return rows


def _ecdf_point(row: list[str]) -> tuple[float, float]:
    try:
        t = float(row[0])
        g = float(row[1])
    except ValueError as exc:
        raise ValueError(f"non-numeric value: {exc}") from exc
    if not math.isfinite(t) or not 0.0 <= g <= 1.0 + 1e-12:
        raise ValueError(f"out-of-range point ({t}, {g})")
    return t, g


def _ecdf_header(header: list[str]):
    if [c.strip() for c in header] != ["t", "G"]:
        raise ValueError(f"expected header t,G, got {header}")
    return _ecdf_point


def read_ecdf_csv(path: str) -> tuple[list[float], list[float]]:
    """Parse a (t, G) CSV; malformed content raises PlotDataError with path:line."""
    points = _read_table(path, _ecdf_header)
    ts, gs = [t for t, _ in points], [g for _, g in points]
    for name, column in (("t", ts), ("G", gs)):
        if any(a > b for a, b in zip(column, column[1:])):
            raise PlotDataError(f"{path}: {name} column must be sorted")
    return ts, gs


_INTERVAL_FIELDS = (
    "replication", "method", "target", "level_lo", "level_hi", "lower", "upper",
    "lower_defined", "upper_defined", "reference_value",
)


def _interval_header(header: list[str]):
    header = [c.strip() for c in header]
    missing = [c for c in _INTERVAL_FIELDS if c not in header]
    if missing:
        raise ValueError(f"missing columns {missing}")
    # a repeated column name reads its first occurrence
    idx = {c: header.index(c) for c in header}

    def convert(row: list[str]) -> dict:
        cell = {c: row[i] for c, i in idx.items()}
        try:
            replication = int(cell["replication"])
            levels = (float(cell["level_lo"]), float(cell["level_hi"]))
            bounds = {c: float(cell[c]) if cell[c] else None
                      for c in ("lower", "upper", "reference_value")}
        except ValueError as exc:
            raise ValueError(f"bad value: {exc}") from exc
        for name, value in bounds.items():
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} is {value}, not finite")
        if not 0 <= replication < 2**53:  # drawn at x = replication + 1, a float
            raise ValueError(f"replication {replication} is not in [0, 2**53)")
        lower, upper = bounds["lower"], bounds["upper"]
        if lower is not None and upper is not None and lower > upper:
            raise ValueError(f"lower {lower} exceeds upper {upper}")
        return {
            "group": cell.get("x_m", ""), "replication": replication,
            "method": cell["method"], "target": cell["target"], "levels": levels, **bounds,
            "lower_defined": cell["lower_defined"] == "true",
            "upper_defined": cell["upper_defined"] == "true",
        }

    return convert


def read_intervals_csv(path: str) -> list[dict]:
    """Parse an interval table; group column x_m is optional."""
    return _read_table(path, _interval_header)


class _Scale:
    """Affine data-to-pixel map; lo must lie below hi."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float):
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / max(1, n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= n - 1 + 1e-9:
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-9 * span:
        out.append(0.0 if abs(v) < 1e-12 * span else v)
        if v + step == v:  # a step below the spacing of doubles at v
            break
        v += step
    return out or [lo, hi]


def _tick_labels(ticks: list[float]) -> list[str]:
    """One axis's tick labels in .4g, or in the fewest more significant digits
    that tell adjacent ticks apart; 17 tell any two doubles apart."""
    digits = 4
    while len({f"{t:.{digits}g}" for t in ticks}) < len(ticks):
        digits += 1
    return [f"{t:.{digits}g}" for t in ticks]


def _axes(svg: list, xs: _Scale, ys: _Scale, x_ticks, y_ticks) -> None:
    svg.append(
        f'<rect x="{_f(xs.px_lo)}" y="{_f(ys.px_hi)}" width="{_f(xs.px_hi - xs.px_lo)}" '
        f'height="{_f(ys.px_lo - ys.px_hi)}" fill="none" stroke="#444444" stroke-width="1"/>'
    )
    for t, label in zip(x_ticks, _tick_labels(x_ticks)):
        px = xs(t)
        svg.append(_line(px, ys.px_lo, px, ys.px_lo + 4, "#444444"))
        svg.append(_text(px, ys.px_lo + 17, 11, label, "middle"))
    for t, label in zip(y_ticks, _tick_labels(y_ticks)):
        py = ys(t)
        svg.append(_line(xs.px_lo - 4, py, xs.px_lo, py, "#444444"))
        svg.append(_text(xs.px_lo - 7, py + 4, 11, label, "end"))


_MAX_PATH_POINTS = 2000


def _decimate(ts: list[float], gs: list[float]) -> tuple[list[float], list[float]]:
    """Thin long curves for rendering; keeps the last point so G ends at 1."""
    n = len(ts)
    if n <= _MAX_PATH_POINTS:
        return ts, gs
    stride = -(-n // _MAX_PATH_POINTS)
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return [ts[i] for i in idx], [gs[i] for i in idx]


def _step_path(ts: list[float], gs: list[float], xs: _Scale, ys: _Scale) -> str:
    # Right-continuous step: hold each G value until the next jump point.
    ts, gs = _decimate(ts, gs)
    parts = [f"M {_f(xs(xs.lo))} {_f(ys(0.0))}"]
    prev_g = 0.0
    for t, g in zip(ts, gs):
        tc = min(max(t, xs.lo), xs.hi)
        parts.append(f"L {_f(xs(tc))} {_f(ys(prev_g))}")
        parts.append(f"L {_f(xs(tc))} {_f(ys(g))}")
        prev_g = g
    parts.append(f"L {_f(xs(xs.hi))} {_f(ys(prev_g))}")
    return " ".join(parts)


def _quantile(sorted_vals: list[float], q: float) -> float:
    pos = q * (len(sorted_vals) - 1)
    i = int(pos)
    j = min(i + 1, len(sorted_vals) - 1)
    w = pos - i
    return sorted_vals[i] * (1 - w) + sorted_vals[j] * w


def _padded_range(where: str, values, q_lo: float, q_hi: float, share: float, pad_if_flat: float):
    """The q_lo..q_hi quantile range of values, widened on each side by share
    of its width, or by pad_if_flat if it has none; its width must be finite."""
    vals = sorted(values)
    lo, hi = _quantile(vals, q_lo), _quantile(vals, q_hi)
    lo = min(lo, hi)  # interpolating equal values may round hi an ulp below lo
    # a flat range's pad must move its ends, also where pad_if_flat is below an ulp
    pad = share * (hi - lo) or max(pad_if_flat, math.ulp(hi))
    lo, hi = lo - pad, hi + pad
    if not math.isfinite(hi - lo):
        raise PlotDataError(f"{where}: values {vals[0]} to {vals[-1]} overflow the axis width")
    return lo, hi


def ecdf_svg(
    csv_paths: list[str], labels: list[str] | None = None, title: str | None = None
) -> str:
    """Step plots of (t, G) files, one curve and legend label (default "series k") each."""
    curves = [read_ecdf_csv(p) for p in csv_paths]
    labels = labels or [f"series {k}" for k in range(len(curves))]
    if len(labels) != len(curves):
        raise PlotDataError(f"{len(labels)} labels for {len(curves)} csv files")

    x_lo, x_hi = _padded_range(
        ", ".join(csv_paths), [t for ts, _ in curves for t in ts], 0.002, 0.998, 0.05, 1.0
    )

    width = _MARGIN_LEFT + _PANEL_WIDTH + _MARGIN_RIGHT
    height = _MARGIN_TOP + _PANEL_HEIGHT + _MARGIN_BOTTOM
    xs = _Scale(x_lo, x_hi, _MARGIN_LEFT, _MARGIN_LEFT + _PANEL_WIDTH)
    ys = _Scale(0.0, 1.0, _MARGIN_TOP + _PANEL_HEIGHT, _MARGIN_TOP)

    svg = [_document_open(width, height, title or "empirical distributions")]
    _axes(svg, xs, ys, _ticks(x_lo, x_hi), [0.0, 0.25, 0.5, 0.75, 1.0])
    for k, (ts, gs) in enumerate(curves):
        color = PALETTE[k % len(PALETTE)]
        svg.append(
            f'<path d="{_step_path(ts, gs, xs, ys)}" fill="none" '
            f'stroke="{color}" stroke-width="1.4"/>'
        )
    _legend(svg, labels, _MARGIN_LEFT + 10, _MARGIN_TOP + 16)  # top-left inside the frame
    svg.append(_text((xs.px_lo + xs.px_hi) / 2, ys.px_lo + 34, 12, "t", "middle"))
    svg.append(_text(16, (ys.px_lo + ys.px_hi) / 2, 12, "G(t)", "middle", rotate=True))
    svg.append("</svg>")
    return "\n".join(svg) + "\n"


def intervals_svg(csv_path: str, target: str = "alpha", title: str | None = None) -> str:
    """One panel per group of the table's target rows, one colour per method
    and one x offset per series, a method at one level pair."""
    rows = [r for r in read_intervals_csv(csv_path) if r["target"] == target]
    if not rows:
        raise PlotDataError(f"{csv_path}: no rows with target {target!r}")

    groups = list(dict.fromkeys(r["group"] for r in rows))
    methods = list(dict.fromkeys(r["method"] for r in rows))
    series = list(dict.fromkeys((r["method"], r["levels"]) for r in rows))
    # one replication's series span at most 0.66 of its unit on the x axis
    step = min(0.22, 0.66 / max(len(series) - 1, 1))
    offsets = {key: (k - (len(series) - 1) / 2.0) * step for k, key in enumerate(series)}
    n_reps = 1 + max(r["replication"] for r in rows)

    width = _MARGIN_LEFT + _PANEL_WIDTH + _MARGIN_RIGHT
    panel_gap = 26.0
    height = _MARGIN_TOP + len(groups) * (_PANEL_HEIGHT + panel_gap) + _MARGIN_BOTTOM
    svg = [_document_open(width, height, title or f"{target} intervals")]

    for gi, group in enumerate(groups):
        grows = [r for r in rows if r["group"] == group]
        top = _MARGIN_TOP + gi * (_PANEL_HEIGHT + panel_gap)
        finite = [v for r in grows for v in (r["lower"], r["upper"]) if v is not None]
        refs = [r["reference_value"] for r in grows if r["reference_value"] is not None]
        finite += refs
        if not finite:
            raise PlotDataError(f"{csv_path}: group {group!r} has no finite endpoints")
        y_lo, y_hi = _padded_range(f"{csv_path}: group {group!r}", finite, 0.02, 0.98, 0.08, 0.5)
        xs = _Scale(0.0, float(n_reps + 1), _MARGIN_LEFT, _MARGIN_LEFT + _PANEL_WIDTH)
        ys = _Scale(y_lo, y_hi, top + _PANEL_HEIGHT, top)
        x_ticks = [t for t in _ticks(1, n_reps, 6) if float(t).is_integer()]
        _axes(svg, xs, ys, x_ticks, _ticks(y_lo, y_hi))
        if group:
            svg.append(_text(_MARGIN_LEFT + 6, top - 6, 12, str(group)))
        if refs and y_lo <= refs[0] <= y_hi:
            py = ys(refs[0])
            svg.append(_line(xs.px_lo, py, xs.px_hi, py, "#666666", dash="4 3"))
            # x marker for the reference value at the left edge of the panel
            mx = xs(0.45)
            svg.append(
                f'<path d="M {_f(mx - 4)} {_f(py - 4)} L {_f(mx + 4)} {_f(py + 4)} '
                f'M {_f(mx - 4)} {_f(py + 4)} L {_f(mx + 4)} {_f(py - 4)}" '
                f'stroke="#000000" stroke-width="1.6"/>'
            )
        for r in sorted(grows, key=lambda r: (r["replication"], offsets[r["method"], r["levels"]])):
            color = PALETTE[methods.index(r["method"]) % len(PALETTE)]
            px = xs(r["replication"] + 1 + offsets[r["method"], r["levels"]])
            lo_v = r["lower"] if r["lower"] is not None else y_lo
            hi_v = r["upper"] if r["upper"] is not None else y_hi
            lo_c = min(max(lo_v, y_lo), y_hi)
            hi_c = min(max(hi_v, y_lo), y_hi)
            svg.append(_line(px, ys(lo_c), px, ys(hi_c), color, "1.3"))
            # a cap at each defined bound inside the panel, the upper one first
            for v in (r["upper"], r["lower"] if r["lower_defined"] else None):
                if v is not None and y_lo <= v <= y_hi:
                    svg.append(_line(px - 3, ys(v), px + 3, ys(v), color, "1.3"))
            if not r["lower_defined"]:
                # open triangle pointing down: lower endpoint undefined
                py = ys(y_lo) - 5
                svg.append(
                    f'<path d="M {_f(px - 4)} {_f(py - 7)} L {_f(px + 4)} {_f(py - 7)} '
                    f'L {_f(px)} {_f(py)} Z" fill="none" stroke="{color}" stroke-width="1.3"/>'
                )

    _legend(svg, methods, _MARGIN_LEFT + _PANEL_WIDTH - 150, _MARGIN_TOP + 14)
    svg.append("</svg>")
    return "\n".join(svg) + "\n"


def _legend(svg: list[str], labels: list[str], x: float, y: float) -> None:
    """One palette-coloured line and label per entry, 16 px apart from (x, y) down."""
    for k, label in enumerate(labels):
        ly = y + 16 * k
        svg.append(_line(x, ly, x + 24, ly, PALETTE[k % len(PALETTE)], "1.4"))
        svg.append(_text(x + 30, ly + 4, 12, label))


def _document_open(width: float, height: float, title: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}" font-family="sans-serif">\n'
        f'<rect width="{_f(width)}" height="{_f(height)}" fill="#ffffff"/>\n'
        + _text(width / 2, 20, 14, title, "middle", fill="#111111")
    )


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: str = "1",
          dash: str = "") -> str:
    dash = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{dash}/>')


def _text(x: float, y: float, size: int, label: str, anchor: str = "",
          fill: str = "#222222", rotate: bool = False) -> str:
    """label, escaped, at (x, y); an int coordinate is written as it is, a
    float by _f. rotate turns it a quarter turn left about (x, y)."""
    x, y = (str(v) if isinstance(v, int) else _f(v) for v in (x, y))
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    turn = f' transform="rotate(-90 {x} {y})"' if rotate else ""
    label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text x="{x}" y="{y}" font-size="{size}"{anchor}{turn} fill="{fill}">{label}</text>'

