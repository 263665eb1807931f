"""Shared helper for reading and evaluating the special-function oracle table.

Rows are read, parsed and dispatched by the same harness routines that the
specfun_oracle identity check uses; only the tolerance lives here.
"""
from hypermorse.harness import _eval_specfun, _oracle_rows as load_oracle_rows, _parse_params

TOL_DEFAULT = 1e-11


def evaluate_row(row):
    """Evaluate the package function named by an oracle row.

    Returns (computed, reference, tolerance).
    """
    got = _eval_specfun(row["function"], _parse_params(row["params"]))
    ref = complex(float(row["ref_real"]), float(row["ref_imag"]))
    return got, ref, TOL_DEFAULT
