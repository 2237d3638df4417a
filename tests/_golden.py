"""Golden digests of the products whose bytes do not depend on the platform,
and golden values of the 1D ``smear`` products, whose last bits may.

The README desk scenario at ``run.duration_s = 0.01``, for each peak shape
(box, triangle) and each source model (poisson, thermal), runs through
``analytic``, ``simulate`` and ``count``; per shape, ``compare`` then sets
the thermal conditioned curve against the Poisson one.  Each CSV body is
hashed with its ``# generated_at`` line removed, each ``.evt`` file whole.
``smear`` runs on the same four scenarios; its four 1D products are
recorded as parsed values.  The surface ``p_ssi_smeared.csv`` is left out:
its t1 = 0 row is built by the code that builds ``gbar2_c_analytic.csv``.

After a declared change of a product body, rewrite the recorded digests and
values with

    PYTHONPATH=src python tests/_golden.py

and name every digest or value file that changed, and why, in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"
SMEAR_VALUES = DIGESTS.with_name("smear_values.json")
SMEAR_PRODUCTS = ("kernel.csv", "g2_si_smeared.csv", "gbar2_c_analytic.csv",
                  "plateaus.csv")
DURATION_S = "0.01"


def numpy_major() -> int:
    return int(np.__version__.split(".")[0])


def _set(text: str, key: str, value: str) -> str:
    return re.sub(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text, flags=re.M)


def desk_scenario() -> str:
    """The README's scenario block with the short golden duration."""
    (ini,) = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return _set(ini, "run.duration_s", DURATION_S)


def _run(*argv: str) -> None:
    from spdclab.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"spdclab {' '.join(argv)} exited {code}")


def _body(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix != ".csv":
        return data
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"# generated_at = "))


def digests(workdir) -> dict[str, str]:
    """Run the golden set in ``workdir`` and return the sha256 of every
    product body, keyed by its path relative to ``workdir``.

    Paths are relative so that no temporary directory reaches a body
    (``compare`` echoes its input paths).
    """
    workdir = Path(workdir)
    desk = desk_scenario()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for shape in ("box", "triangle"):
            for model in ("poisson", "thermal"):
                name = f"{shape}-{model}"
                ini = f"{name}.ini"
                Path(ini).write_text(_set(_set(desk, "source.shape", shape),
                                          "run.model", model))
                _run("analytic", ini, "-o", f"{name}/analytic")
                _run("simulate", ini, "-o", f"{name}/run")
                _run("count", ini, f"{name}/run/events.evt", "-o", f"{name}/counts")
            _run("compare", f"{shape}-poisson/counts/gbar2_c.csv",
                 f"{shape}-thermal/counts/gbar2_c.csv", "-o", f"{shape}-compare.csv")
    finally:
        os.chdir(cwd)
    return {path.relative_to(workdir).as_posix():
            hashlib.sha256(_body(path)).hexdigest()
            for path in sorted(workdir.rglob("*"))
            if path.suffix in (".csv", ".evt")}


def csv_rows(path) -> list[list]:
    """The rows below a product CSV's column header, each field a float
    where it parses as one and its text otherwise."""
    def field(text):
        try:
            return float(text)
        except ValueError:
            return text

    lines = [line for line in Path(path).read_text().splitlines()
             if not line.startswith("#")]
    return [[field(text) for text in line.split(",")] for line in lines[1:]]


def smear_values(workdir) -> dict[str, dict[str, list[list]]]:
    """Run ``smear`` on the desk scenario of each shape and source model in
    ``workdir`` and return the rows of its 1D products, keyed by
    ``shape-model`` and file name."""
    workdir = Path(workdir)
    out = {}
    for shape in ("box", "triangle"):
        for model in ("poisson", "thermal"):
            name = f"{shape}-{model}"
            ini = workdir / f"{name}-smear.ini"
            ini.write_text(_set(_set(desk_scenario(), "source.shape", shape),
                                "run.model", model))
            _run("smear", str(ini), "-o", str(workdir / f"{name}-smear"))
            out[name] = {product: csv_rows(workdir / f"{name}-smear" / product)
                         for product in SMEAR_PRODUCTS}
    return out


def _dump_rows(values) -> str:
    """``values`` as JSON with one CSV row per line."""
    return "{\n" + ",\n".join(
        f" {json.dumps(shape)}: {{\n" + ",\n".join(
            f"  {json.dumps(name)}: [\n"
            + ",\n".join(f"   {json.dumps(row)}" for row in rows) + "\n  ]"
            for name, rows in files.items()) + "\n }"
        for shape, files in values.items()) + "\n}\n"


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        record = {"numpy_major": numpy_major(), "digests": digests(workdir)}
        values = smear_values(workdir)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    SMEAR_VALUES.write_text(_dump_rows(values))
    print(f"{len(record['digests'])} digests written to {DIGESTS}, smear values "
          f"to {SMEAR_VALUES}", file=sys.stderr)


if __name__ == "__main__":
    main()
