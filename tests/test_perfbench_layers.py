"""The traced benchmark still finds every spherecorr function it wraps.

``perfbench/layers.py`` patches functions and methods by name, so a rename in
the library would otherwise surface only when the benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

from spherecorr import distortion, odd_corr  # noqa: E402


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
