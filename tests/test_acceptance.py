"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or -v to see them)
and enforces both the numerical tolerance and the runtime budget.
"""
import time

from hypermorse.harness import (
    calibrate_spectral_mapping,
    check_hyperbolic_forms,
    check_hyperbolic_heat_pde,
    check_hyperbolic_resolvent,
    check_bessel_product,
    check_morse_heat_hw_oracle,
    check_morse_resolvent,
    check_morse_wave_bessel,
    check_specfun_oracle,
    check_whittaker_product,
)


def _gate(n, label, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed <= budget else "FAIL"
    print(f"[criterion {n:2d}] {status} {label}: {detail}, {elapsed:.1f}s (budget {budget:.0f}s)")
    assert elapsed <= budget, f"criterion {n} exceeded its runtime budget"
    assert passed, f"criterion {n} failed: {detail}"


def _run(check, *args, **kwargs):
    t0 = time.perf_counter()
    rep = check(*args, **kwargs)
    return rep, time.perf_counter() - t0


class TestAcceptance:
    def test_c01_wave_form_equivalence(self):
        rep, dt = _run(check_hyperbolic_forms)
        _gate(1, "five wave-kernel forms agree (2k = 0..4, 10x10 grid)",
              rep.passed and rep.max_rel_err < 1e-9,
              f"max spread {rep.max_rel_err:.2e} < 1e-9", dt, 10.0)

    def test_c02_hyperbolic_resolvent_closed_vs_integral(self):
        rep, dt = _run(check_hyperbolic_resolvent)
        _gate(2, "hyperbolic resolvent closed vs transmutation integral",
              rep.passed and rep.max_rel_err < 1e-6,
              f"max rel err {rep.max_rel_err:.2e} < 1e-6 over "
              f"3 mu x 3 k x 5 pairs", dt, 30.0)

    def test_c03_calibration_uniqueness(self):
        t0 = time.perf_counter()
        record = calibrate_spectral_mapping()
        dt = time.perf_counter() - t0
        res = record.residuals
        unique = (record.mapping_id == "C"
                  and res["mapping_C"] < 1e-6
                  and res["mapping_A"] > 1e-1
                  and res["mapping_B"] > 1e-1)
        _gate(3, "exactly one spectral mapping passes",
              unique,
              f"C: {res['mapping_C']:.2e}, A: {res['mapping_A']:.2e}, "
              f"B: {res['mapping_B']:.2e}", dt, 10.0)

    def test_c04_heat_pde_residual(self):
        rep, dt = _run(check_hyperbolic_heat_pde)
        _gate(4, "heat kernel satisfies its evolution equation",
              rep.passed and rep.max_rel_err < 1e-3,
              f"max residual {rep.max_rel_err:.2e} < 1e-3 at 7 samples", dt, 60.0)

    def test_c05_morse_k0_bessel_reduction(self):
        t0 = time.perf_counter()
        reps = [check_morse_wave_bessel(p) for p in ("phi1", "alternate", "fourier")]
        dt = time.perf_counter() - t0
        ok = all(r.passed for r in reps) \
            and reps[0].max_rel_err < 1e-6 and reps[1].max_rel_err < 1e-6 \
            and reps[2].max_rel_err < 1e-4
        _gate(5, "Morse wave-kernel paths reduce to (1/2) J0 at k = 0",
              ok,
              f"phi1 {reps[0].max_rel_err:.2e} < 1e-6, alternate {reps[1].max_rel_err:.2e}"
              f" < 1e-6, fourier {reps[2].max_rel_err:.2e} < 1e-4", dt, 60.0)

    def test_c06_morse_resolvent_closed_vs_integral(self):
        rep, dt = _run(check_morse_resolvent)
        _gate(6, "Morse resolvent closed vs transmutation integral",
              rep.passed and rep.max_rel_err < 1e-4,
              f"max rel err {rep.max_rel_err:.2e} < 1e-4 over "
              f"k x alpha x 4 pairs", dt, 60.0)

    def test_c07_whittaker_product_identity(self):
        rep, dt = _run(check_whittaker_product)
        _gate(7, "Whittaker-product identity",
              rep.passed and rep.max_rel_err < 1e-4,
              f"max rel err {rep.max_rel_err:.2e} < 1e-4 at alpha=1.2, k=1/2",
              dt, 30.0)

    def test_c08_bessel_product_identity(self):
        rep, dt = _run(check_bessel_product)
        _gate(8, "Bessel-product integral identity",
              rep.passed and rep.max_rel_err < 1e-6,
              f"max rel err {rep.max_rel_err:.2e} < 1e-6 at alpha in "
              f"{{0.5, 1}}", dt, 10.0)

    def test_c09_hw_oracle_heat_cross_check(self):
        rep, dt = _run(check_morse_heat_hw_oracle)
        _gate(9, "heat kernel vs Hartman-Watson double-integral oracle",
              rep.passed and rep.max_rel_err < 1e-3,
              f"max rel err {rep.max_rel_err:.2e} < 1e-3 at 3 (t, k) points",
              dt, 300.0)

    def test_c10_specfun_oracle_table(self):
        rep, dt = _run(check_specfun_oracle)
        _gate(10, "arbitrary-precision reference table reproduced",
              rep.passed and rep.n_points >= 40 and rep.max_rel_err < 1e-11,
              f"{rep.n_points} rows at {rep.max_rel_err:.2e} < 1e-11", dt, 5.0)
