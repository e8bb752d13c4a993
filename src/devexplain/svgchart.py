"""Minimal grouped-bar SVG writer for score/attribution charts.

Hand-built SVG keeps chart output deterministic and dependency-free; the
files diff cleanly across reruns, which the reproducibility contract needs.
"""

from __future__ import annotations

from .errors import ValidationError

_PALETTE = ("#4e79a7", "#f28e2b", "#76b7b2", "#e15759", "#59a14f")
_WIDTH, _HEIGHT = 640, 400  # pixels


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def grouped_bar_svg(
    title: str,
    group_labels: list[str],
    series: list[tuple[str, list[float]]],
) -> str:
    """Render one bar per (group, series) pair with numeric value labels.

    ``series`` is a list of (name, values) where each values list has one
    entry per group.  Negative values hang below the zero baseline.  The
    title, the series names and the group labels are XML-escaped, so a
    label such as ``R&D`` or ``x<1`` leaves the file well formed.
    """
    from html import escape  # here, so a command that draws no chart never imports it
    if not series:
        raise ValidationError("need at least one series")
    n_groups = len(group_labels)
    for name, values in series:
        if len(values) != n_groups:
            raise ValidationError(
                f"series {name!r} has {len(values)} values for {n_groups} groups"
            )
    if len(series) > len(_PALETTE):
        raise ValidationError(f"at most {len(_PALETTE)} series supported")

    width, height = _WIDTH, _HEIGHT
    margin_left, margin_right = 56.0, 16.0
    margin_top, margin_bottom = 64.0, 44.0
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    all_values = [v for _, values in series for v in values]
    lo = min(0.0, min(all_values))
    hi = max(0.0, max(all_values))
    if hi == lo:
        hi = lo + 1.0
    span = (hi - lo) * 1.15  # headroom for value labels
    hi = lo + span

    def y_of(value: float) -> float:
        return margin_top + plot_h * (hi - value) / (hi - lo)

    group_w = plot_w / max(n_groups, 1)
    bar_w = group_w / (len(series) + 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_fmt(width / 2)}" y="24" text-anchor="middle" font-size="15" '
        f'font-weight="bold">{escape(title, False)}</text>',
    ]
    # legend
    lx = margin_left
    for idx, (name, _) in enumerate(series):
        color = _PALETTE[idx]
        parts.append(f'<rect x="{_fmt(lx)}" y="36" width="12" height="12" fill="{color}"/>')
        parts.append(
            f'<text x="{_fmt(lx + 16)}" y="46" font-size="12">{escape(name, False)}</text>'
        )
        lx += 16 + 8 * len(name) + 24

    zero_y = y_of(0.0)
    parts.append(
        f'<line x1="{_fmt(margin_left)}" y1="{_fmt(zero_y)}" '
        f'x2="{_fmt(width - margin_right)}" y2="{_fmt(zero_y)}" '
        f'stroke="#333" stroke-width="1"/>'
    )

    for g, label in enumerate(group_labels):
        gx = margin_left + g * group_w
        for idx, (_, values) in enumerate(series):
            value = values[g]
            color = _PALETTE[idx]
            x = gx + bar_w * (idx + 0.5)
            top = y_of(max(value, 0.0))
            bot = y_of(min(value, 0.0))
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(top)}" width="{_fmt(bar_w * 0.9)}" '
                f'height="{_fmt(max(bot - top, 0.5))}" fill="{color}"/>'
            )
            label_y = top - 4 if value >= 0 else bot + 12
            parts.append(
                f'<text x="{_fmt(x + bar_w * 0.45)}" y="{_fmt(label_y)}" '
                f'text-anchor="middle" font-size="10">{value:.4f}</text>'
            )
        parts.append(
            f'<text x="{_fmt(gx + group_w / 2)}" y="{_fmt(height - margin_bottom + 18)}" '
            f'text-anchor="middle" font-size="12">{escape(label, False)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
