"""The products of the README desk scenario match their recorded digests
and, for the 1D ``smear`` products, their recorded values."""
import json
import math

import pytest

from _golden import DIGESTS, SMEAR_VALUES, digests, numpy_major, smear_values

#: relative bound on a recorded ``smear`` value: the BLAS ``ddot`` behind
#: ``np.convolve`` may move last bits between CPUs, never the 12th digit
SMEAR_REL_TOL = 1e-12


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


def test_smear_values(tmp_path):
    """``kernel.csv``, ``g2_si_smeared.csv``, ``gbar2_c_analytic.csv`` and
    ``plateaus.csv`` of the desk ``smear``, box and triangle, match their
    recorded rows: every text field exactly, every number within
    ``SMEAR_REL_TOL`` relative."""
    recorded = json.loads(SMEAR_VALUES.read_text())
    values = smear_values(tmp_path)
    assert values.keys() == recorded.keys()
    for shape, files in recorded.items():
        assert values[shape].keys() == files.keys()
        for name, rows in files.items():
            got = values[shape][name]
            assert len(got) == len(rows), (shape, name)
            for row, ref in zip(got, rows):
                assert len(row) == len(ref) and all(
                    math.isclose(a, b, rel_tol=SMEAR_REL_TOL, abs_tol=0.0)
                    if isinstance(b, float) else a == b
                    for a, b in zip(row, ref)), (shape, name, row, ref)
