"""Self-test of the span tracer.

Runs under pytest (`python3 -m pytest perfbench/test_tracer.py`) and, before
measuring, inside every traced benchmark run.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import cliffharm  # noqa: E402
from cliffharm import cli, fields, representations, transforms  # noqa: E402

from tracer import Tracer  # noqa: E402


def _field():
    return cliffharm.make_band_limited_random(cliffharm.GridSpec(3, 8, 10.0), "Cl3", 0.5, 3)


def test_one_hilbert_call_gives_one_span_per_layer():
    f = _field()
    tracer = Tracer().install()
    try:
        with tracer.request_span(7):
            transforms.hilbert(f)
    finally:
        tracer.uninstall()
    dump = tracer.dump()
    spans = [s for s in dump["spans"] if s["request"] == 7]
    funcs = sorted(s["func"] for s in spans if s["layer"] != "request")
    assert funcs == [
        "fields.apply_multiplier_array",
        "fields.spectral_forward",
        "fields.spectral_inverse",
        "transforms.hilbert",
        "transforms.hilbert_multiplier_array",
    ], funcs
    layers = sorted(s["layer"] for s in spans)
    assert layers == ["algebra.product", "fields.fft", "fields.fft", "request",
                      "transforms.multiplier", "transforms.operator"], layers
    root = [s for s in spans if s["layer"] == "request"]
    assert len(root) == 1
    total_self = sum(s["self"] for s in spans)
    assert abs(total_self - root[0]["dur"]) <= 1e-9 * max(1.0, root[0]["dur"]), (total_self, root[0]["dur"])
    assert all(s["self"] >= -1e-12 for s in spans)


def test_every_binding_is_wrapped_and_restored():
    originals = (transforms.hilbert, representations.hilbert, cliffharm.hilbert,
                 fields.group_inverse, fields.rotation_matrix)
    tracer = Tracer().install()
    try:
        assert transforms.hilbert is representations.hilbert is cliffharm.hilbert
        assert transforms.hilbert is not originals[0]
        assert fields.group_inverse is not originals[3]
        assert cli.tr.hilbert is transforms.hilbert
        with tracer.request_span(1):
            representations.hilbert_eigen_check(1, _field())
    finally:
        tracer.uninstall()
    assert (transforms.hilbert, representations.hilbert, cliffharm.hilbert,
            fields.group_inverse, fields.rotation_matrix) == originals
    funcs = [s["func"] for s in tracer.dump()["spans"]]
    assert funcs.count("transforms.hardy_project") == 1
    assert funcs.count("transforms.hilbert") == 1
    assert funcs.count("representations.hilbert_eigen_check") == 1


if __name__ == "__main__":
    test_one_hilbert_call_gives_one_span_per_layer()
    test_every_binding_is_wrapped_and_restored()
    print("tracer self-test passed")
