"""Every public name the package lists must exist."""
import hypermorse


def test_every_listed_export_resolves():
    # tools that read __all__ (the benchmark tracer wraps each listed
    # callable) fail on a stale entry left behind by a deletion; errors
    # lists none
    for mod_name in hypermorse.__all__:
        mod = getattr(hypermorse, mod_name)
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"hypermorse.{mod_name}.__all__ lists missing names {missing}"


def test_quad_is_the_trapezoid_rule_only():
    # every kernel integral is a trapezoid sum: the adaptive Gauss-Kronrod
    # integrators and their TailDivergence error are gone
    from hypermorse import errors, quad
    assert set(quad.__all__) == {"QuadConfig", "QuadratureResult", "trapezoid_even",
                                 "trapezoid_periodic"}
    for name in ("integrate_finite", "integrate_semiinfinite", "integrate_sqrt_endpoint", "_panels"):
        assert not hasattr(quad, name)
    assert not hasattr(errors, "TailDivergence")


def test_one_convention_per_kernel():
    # the kernels ship only the calibrated conventions and take k as a float;
    # the rejected candidates live in the harness calibration
    import dataclasses
    import inspect

    from hypermorse import geometry, hkernels, mkernels
    for name in ("MagneticK", "as_magnetic"):
        assert not hasattr(geometry, name)
    for name in ("SPECTRAL_MAPPINGS", "CALIBRATED_MAPPING"):
        assert not hasattr(hkernels, name)
    assert [f.name for f in dataclasses.fields(hkernels.SpectralParam)] == ["mu"]
    assert list(inspect.signature(mkernels.resolvent_closed).parameters) == ["cfg", "mu"]
    assert not hasattr(mkernels.MorseConfig, "mk")
    for name in ("wave_kernel_phi1_alt", "ALT_VARIANT_K0_SCALE"):
        assert not hasattr(mkernels, name)


def test_one_wave_form():
    # the hyperbolic wave kernel ships its closed form alone: no form list, no
    # form argument and no --form option; the reference forms live in the harness
    import inspect

    import pytest

    from hypermorse import harness, hkernels
    from hypermorse.cli import main
    assert not hasattr(hkernels, "WAVE_FORMS") and len(harness.WAVE_FORMS) == 5
    for fn in (hkernels.wave_kernel, hkernels.wave_kernel_radial):
        assert "form" not in inspect.signature(fn).parameters
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--kernel", "hwave", "--k", "0.5", "--b", "2.5", "--z", "0,1", "--zp", "0.5,2",
              "--form", "ii"])
    assert exc.value.code == 2
