"""Shared helper for reading and evaluating the special-function oracle table.

Rows are read, parsed and dispatched by the same harness routines that the
specfun_oracle identity check uses, at that check's tolerance.
"""
from hypermorse.harness import TOLERANCES, _eval_specfun, _oracle_rows as load_oracle_rows, _parse_params

TOL_DEFAULT = TOLERANCES["specfun_oracle"]


def evaluate_row(row):
    """Evaluate the package function named by an oracle row.

    Returns (computed, reference, tolerance).
    """
    got = _eval_specfun(row["function"], _parse_params(row["params"]))
    ref = complex(float(row["ref_real"]), float(row["ref_imag"]))
    return got, ref, TOL_DEFAULT
