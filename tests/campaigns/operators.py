"""Writes the operator files that the campaigns in this directory load by
relative path, into the working directory (or the directory given):

- repeated.csv, an 18x12 tight frame whose row 1 repeats row 0;
- repeated-phi.csv, a 6x10 gaussian Phi whose row 5 repeats row 2;
- t1-d.csv and t1-phi.csv, the matched instance (n, m) = (10, 9), seed 4.

Run it with src and tests on PYTHONPATH:

    PYTHONPATH=src:tests python tests/campaigns/operators.py [DIR]
"""

import sys
from pathlib import Path

import cosparse_grip as cg
from _support import matched_instance


def write_operators(directory) -> None:
    out = Path(directory)
    entries = cg.make_dictionary("tight-frame", 18, 12, 4).entries.copy()
    entries[1] = entries[0]
    cg.save_matrix_csv(out / "repeated.csv", cg.Dictionary(entries, "user-supplied"))
    entries = cg.make_sensing_matrix("gaussian", 6, 10, 4).entries.copy()
    entries[5] = entries[2]
    cg.save_matrix_csv(out / "repeated-phi.csv", cg.SensingMatrix(entries, "user-supplied"))
    d, phi = matched_instance(10, 9, 4)
    cg.save_matrix_csv(out / "t1-d.csv", d)
    cg.save_matrix_csv(out / "t1-phi.csv", phi)


if __name__ == "__main__":
    write_operators(sys.argv[1] if len(sys.argv) > 1 else ".")
