"""SVG line plots: ticks and axis ranges."""

import re
import signal
from contextlib import contextmanager
from xml.etree import ElementTree

import pytest

from nrtransport.cli import main as cli_main
from nrtransport.svgplot import Series, _ticks, line_plot


class Overran(Exception):
    """Raised by :func:`deadline`; not an ``OSError``, so the CLI cannot report
    it as an i/o error."""


@contextmanager
def deadline(seconds):
    """Fail the test, rather than hang the suite, when the body runs too long."""
    def expire(signum, frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_ticks_on_an_ordinary_range():
    assert _ticks(0.0, 10.0) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    assert _ticks(-1.0, 1.0) == [-1.0, -0.5, 0.0, 0.5, 1.0]


@pytest.mark.parametrize("lo,hi", [
    (40.059999999999995, 40.06),  # every bin at the peak rate, a range of 7e-15
    (5.0, 5.0),
    (0.0, 0.0),
    (3.0, 2.0),
    (-1e-300, 1e-300),
    (1e15, 1e15 + 0.125),
])
def test_flat_range_ends_with_few_ticks(lo, hi):
    with deadline(5):
        ticks = _ticks(lo, hi)
    assert 1 <= len(ticks) <= 11
    assert all(b > a for a, b in zip(ticks, ticks[1:]))


def test_flat_series_is_drawn_inside_the_plot():
    with deadline(5):
        svg = line_plot([Series("flat", [0.0, 20.0, 40.0], [40.059999999999995, 40.06, 40.06])])
    root = ElementTree.fromstring(svg)
    points = [tuple(map(float, p.split(","))) for p in root.find("{*}polyline").get("points").split()]
    assert all(40 <= y <= 425 for _, y in points)  # the plot area is y in [40, 425]
    labels = [t.text for t in root.findall(".//{*}text") if t.get("text-anchor") == "end"]
    assert labels and all(re.fullmatch(r"-?[0-9.]+", s) for s in labels)


def test_one_point_far_from_zero_has_ticks():
    # At x = 5e299, lo + 1 == lo: the flat x range must widen with |lo|.
    with deadline(5):
        svg = line_plot([Series("one bin", [5e299], [1.0])])
    texts = ElementTree.fromstring(svg).findall(".//{*}text")
    x_labels = [t.text for t in texts if t.get("font-size") == "11" and t.get("text-anchor") == "middle"]
    y_labels = [t.text for t in texts if t.get("text-anchor") == "end"]
    assert x_labels and y_labels
    # The ticks are 1e293 apart: six significant digits would print them all
    # as 5e+299.
    assert len(set(x_labels)) == len(x_labels) > 1


def test_run_with_every_bin_at_the_peak_rate_finishes(tmp_path):
    # All of this short span decodes at the peak rate, so the throughput
    # curve is flat to the last bit; its plot used to loop forever.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[hst]\nscheme = SFN\nspan_m = 20\nanchor_snr_db = 25\n")
    with deadline(30):
        assert cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    ElementTree.parse(tmp_path / "out" / "hst_throughput.svg")
