"""Shared helper for reading and evaluating the special-function oracle table.

Rows are read, parsed and dispatched by the same harness routines that the
specfun_oracle identity check uses; only the per-row tolerances live here.
"""
from hypermorse.harness import _eval_specfun, _oracle_rows as load_oracle_rows, _parse_params

TOL_DEFAULT = 1e-11
TOL_K_INT = 1e-8


def evaluate_row(row):
    """Evaluate the package function named by an oracle row.

    Returns (computed, reference, tolerance).
    """
    got = _eval_specfun(row["function"], _parse_params(row["params"]))
    ref = complex(float(row["ref_real"]), float(row["ref_imag"]))
    tol = TOL_K_INT if row["tol_class"] == "k_int" else TOL_DEFAULT
    return got, ref, tol
