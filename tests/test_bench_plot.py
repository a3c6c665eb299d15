"""Tests for the ASCII figure renderer."""

import pytest

from repro.bench.plot import GLYPHS, render_plot
from repro.bench.series import FigureSeries


def _series():
    return FigureSeries(
        name="unit", event="join", dh_group="dh-512", topology="lan",
        sizes=[2, 10, 20],
        curves={"BD": [10.0, 40.0, 100.0], "TGDH": [20.0, 25.0, 30.0]},
        membership=[1.0, 1.0, 1.0],
    )


def test_plot_contains_axes_glyphs_and_legend():
    text = render_plot(_series())
    assert "B=BD" in text and "T=TGDH" in text
    assert "+" + "-" * 64 in text
    assert "100 |" in text  # y-axis max label
    assert text.count("B") > 10  # interpolated curve, not lone points


def test_rising_curve_ends_higher_than_flat_curve():
    lines = render_plot(_series()).splitlines()
    rows_with_b = [i for i, line in enumerate(lines) if "B" in line and "|" in line]
    rows_with_t = [
        i for i, line in enumerate(lines)
        if "T" in line and "|" in line and "TGDH" not in line
    ]
    # BD reaches a higher (smaller row index) point than TGDH ever does.
    assert min(rows_with_b) < min(rows_with_t)


def test_title_override():
    assert render_plot(_series(), title="XYZ").splitlines()[0] == "XYZ"


def test_overlap_marker():
    series = FigureSeries(
        name="u", event="join", dh_group="dh-512", topology="lan",
        sizes=[2, 10],
        curves={"BD": [10.0, 10.0], "STR": [10.0, 10.0]},
        membership=[0, 0],
    )
    assert "*" in render_plot(series)


def test_size_validation():
    with pytest.raises(ValueError):
        render_plot(_series(), width=5)
    tiny = FigureSeries(
        name="u", event="join", dh_group="dh-512", topology="lan",
        sizes=[5], curves={"BD": [1.0]}, membership=[0],
    )
    with pytest.raises(ValueError):
        render_plot(tiny)


def test_every_protocol_has_a_stable_glyph():
    assert set(GLYPHS) == {"BD", "CKD", "GDH", "STR", "TGDH"}
    assert len(set(GLYPHS.values())) == 5


def test_cli_plot_flag(capsys):
    from repro.bench.cli import main

    main([
        "figure", "14", "--sizes", "2", "4", "--repeats", "1",
        "--protocols", "STR", "--plot", "--jobs", "1", "--no-cache",
    ])
    out = capsys.readouterr().out
    assert "S=STR" in out
