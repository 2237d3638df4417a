"""The products of the README desk scenario match their recorded digests."""
import json

import pytest

from _golden import DIGESTS, digests, numpy_major


def test_product_digests(tmp_path):
    """Every ``analytic``, ``simulate``, ``count`` and ``compare`` body of
    the golden set matches its recorded sha256.

    Their values come from elementwise IEEE operations and the seeded numpy
    ``Generator`` alone.  The ``smear`` bodies are left out: ``np.convolve``
    goes through BLAS ``ddot``, whose last bits vary between CPUs.  A
    ``Generator`` stream may change between numpy major versions, so the
    test skips under a major version other than the recorded one.
    Regenerate with ``PYTHONPATH=src python tests/_golden.py``.
    """
    recorded = json.loads(DIGESTS.read_text())
    if numpy_major() != recorded["numpy_major"]:
        pytest.skip(f"digests were recorded under numpy {recorded['numpy_major']}.x, "
                    f"this is numpy {numpy_major()}.x")
    assert digests(tmp_path) == recorded["digests"]
