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
