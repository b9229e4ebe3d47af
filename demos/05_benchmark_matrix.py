"""Run a small benchmark matrix and show the reports it writes.

The same thing is available from the command line:

    bincsp bench --matrix matrix.json --out-dir runs/ --time-mode zero
"""

import json
import tempfile
from pathlib import Path

from bincsp.bench import run_bench

MATRIX = {
    "paired": True,
    "cells": [
        {
            "generator": {"family": "modelb", "n": 10, "d": 4, "k": 3,
                          "p": 10, "q": 42},
            "algorithms": ["nFC3", "hFC3", "hFC5", "MGAC-2001", "MHAC-2001",
                           "dFC3", "MAC-PW-ACd"],
            "ordering": "fixed",
            "seeds": [0, 1, 2],
        },
        {
            "generator": {"family": "parity", "n": 3},
            "algorithms": ["MHAC-2001", "MAC-PW-ACd"],
            "ordering": "fixed",
            "seeds": [0],
            "node_limit": 2000,
        },
    ],
}


def main():
    with tempfile.TemporaryDirectory(prefix="bincsp_bench_") as out:
        run_bench(MATRIX, out, time_mode="zero")
        print(f"reports in {out}:\n")
        print((Path(out) / "report.csv").read_text())
        paired = json.loads((Path(out) / "paired.json").read_text())
    first = sorted(paired)[0]
    print(f"paired hierarchy verdicts for {first}:")
    for small, big, ok in paired[first]["subset"]:
        print(f"  nodes({small}) subset of nodes({big}): {ok}")
    for a, b, ok in paired[first]["equal"]:
        print(f"  nodes({a}) equal to nodes({b}): {ok}")


if __name__ == "__main__":
    main()
