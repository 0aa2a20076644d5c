"""The traced benchmark still finds every spherecorr function it wraps.

``perfbench/layers.py`` patches functions and methods by name, so a rename in
the library would otherwise surface only when the benchmark runs.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

from spherecorr import RngStream, distortion, odd_corr, voronoi_corr  # noqa: E402


def test_layers_install_and_uninstall():
    estimate = distortion.estimate_distortion
    focus = odd_corr.OddCircleCorrespondence.__dict__["sample_focus_pairs"]
    t = Tracer()
    try:
        layers.install(t)
        assert distortion.estimate_distortion is not estimate
        assert odd_corr.OddCircleCorrespondence.__dict__["sample_focus_pairs"] is not focus
    finally:
        t.uninstall()
    assert distortion.estimate_distortion is estimate
    assert odd_corr.OddCircleCorrespondence.__dict__["sample_focus_pairs"] is focus


def test_wrapped_scalar_entry_points_take_what_layers_passes():
    # no workload reaches these wrappers, so their contract is checked here
    corr, pair = odd_corr.OddCircleCorrespondence(3), odd_corr.max_distortion_witness(3)[0]
    even, _ = voronoi_corr.even_cross(3)
    t = Tracer()
    try:
        layers.install(t)
        (first, second), value = distortion.refine_pair(corr, pair, 4, RngStream(0))
        corr.variants_of_free(0, pair[0].a[0])
        even.variants_of_free(0, np.array([1.0, 0.0]))
    finally:
        t.uninstall()
    assert value == distortion.pair_objective(corr, first, second)
    assert t.calls("distortion.refine_pair") == 1
    improved = t.counts["distortion.refine_improved"]
    assert isinstance(improved, (int, float)) and improved in (0, 1)
    assert t.counts["odd_corr.variants.calls"] == 1
    assert t.counts["voronoi_corr.variants.calls"] == 1
