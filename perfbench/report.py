"""Print every benchmark metric and the per-stage baseline table.

    python3 perfbench/report.py [--seed 1] [--seconds 40]

Runs each workload untraced and then traced (see ``run.py``), prints every
end-to-end and per-layer metric by name with its unit, and ends with the
stage table (wall time and peak RSS per stage at the workload sizes) in
the layout of the ROADMAP baseline table.
"""
from __future__ import annotations

import argparse
import os
import sys

import run

#: stage label, per-layer metric
STAGES = (
    ("pair generation (`gen_poisson_pairs` / `gen_thermal_cells`)", "events.gen_s"),
    ("`apply_detector_chain`", "events.chain_s"),
    ("`.evt` write", "evtfile.write_s"),
    ("`.evt` read", "evtfile.read_s"),
    ("`pair_histogram` signal1-idler", "correlate.pair_s1_s"),
    ("`pair_histogram` signal2-idler", "correlate.pair_s2_s"),
    ("`triple_histogram`", "correlate.triple_s"),
    ("zero-delay recount", "correlate.zero_s"),
    ("estimators", "correlate.estimate_s"),
    ("analytic curves", "model.analytic_s"),
    ("1D smearing", "smearing.curve_s"),
    ("`sample_p_ssi`", "smearing.sample_p_ssi_s"),
    ("`smear_surface`", "smearing.smear_surface_s"),
    ("`write_surface_csv`", "runner.surface_csv_s"),
)


def stage_table(results: dict[str, dict[str, dict]]) -> list[str]:
    names = list(results)
    lines = ["| stage | " + " | ".join(f"`{n}`" for n in names) + " |",
             "|---" * (len(names) + 1) + "|"]

    def row(label, cells):
        lines.append(f"| {label} | " + " | ".join(cells) + " |")

    def seconds(value):
        return f"{value:.3g} s" if value > 0 else "-"

    for label, key in STAGES:
        row(label, [seconds(results[n]["layers"][key]["value"]) for n in names])
    for key, label in (("step1_s", "CLI step 1 (`simulate` / `analytic`)"),
                       ("step2_s", "CLI step 2 (`count` / `smear --surface`)"),
                       ("wall_s", "whole chain")):
        row(label, [seconds(results[n]["e2e"][key]["value"]) for n in names])
    row("peak RSS", [f"{results[n]['e2e']['peak_rss_mb']['value']:.0f} MB"
                     for n in names])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(run.SRC, "spdclab", "cli.py")):
        print(f"error: no spdclab sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    results, ok = {}, True
    for name in run.WORKLOADS:
        results[name] = {}
        for trace, key in ((False, "e2e"), (True, "layers")):
            record = run.run(name, args.seed, args.seconds, trace)
            run.print_record(record)
            print()
            ok = ok and record["failed"] == 0 and not record["errors"]
            if "metrics" not in record:
                print(f"error: every {name} chain failed", file=sys.stderr)
                return 1
            results[name][key] = record["metrics"]
    print("\n".join(stage_table(results)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
