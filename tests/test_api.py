"""The public surface of each gpkit module: ``__all__`` and ``import *``."""

import importlib

import pytest

MODULES = ("quadspace", "weilrep", "epsilon", "quadrature", "lparam", "conjclass", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_and_star_import_works(name):
    module = importlib.import_module(f"gpkit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"stale __all__ entries in gpkit.{name}: {missing}"
    namespace = {}
    exec(f"from gpkit.{name} import *", namespace)


@pytest.mark.parametrize(
    "name,attr",
    [
        ("weilrep", "trace"),
        ("weilrep", "WeilElement"),
        ("conjclass", "token_to_complex"),
    ],
)
def test_test_oracles_are_not_exported(name, attr):
    # these live in tests/trace_reference.py, not in the library
    module = importlib.import_module(f"gpkit.{name}")
    assert not hasattr(module, attr)
    assert attr not in getattr(module, "__all__", ())


def test_stored_fields_are_only_the_defining_data():
    # everything else of a parameter or a component group is derived from
    # these on first use, so it cannot disagree with them
    from gpkit.lparam import ComponentGroup, LParameter

    assert LParameter._fields == ("rep", "target")
    assert ComponentGroup._fields == ("basis",)


@pytest.mark.parametrize(
    "module,owner,attr",
    [
        ("lparam", "ComponentGroup", "dim_sums"),
        ("lparam", "ComponentGroup", "_masks"),
        ("lparam", "ComponentGroup", "_admits"),
        ("lparam", None, "_subset_sums"),
        ("lparam", "GPCharacterTable", "mask_tables"),
        ("lparam", None, "_content"),
        ("lparam", None, "_sign"),
        ("lparam", "_TableContent", "check"),
        ("lparam", "_TableContent", "report_row"),
        ("lparam", "_TableContent", "defined"),
        ("lparam", "_TableContent", "minus"),
        ("conjclass", None, "_kappa_shapes"),
        ("cli", None, "_is_multiplicative"),
        ("cli", None, "_is_homomorphism"),
        ("epsilon", None, "_exact"),
        ("epsilon", "FourthRoot", "__mul__"),
        ("conjclass", "KappaDatum", "cfield_factors"),
        ("conjclass", "KappaDatum", "prod_c"),
        ("weilrep", "WeilRep", "__add__"),
        ("weilrep", "WeilRep", "dual"),
        ("weilrep", "WeilRep", "constituents"),
        ("epsilon", None, "PoleAt"),
        ("epsilon", None, "_hankel_G"),
        ("epsilon", None, "_radial_integral"),
        ("epsilon", None, "_RADIAL_OPTS"),
        ("epsilon", None, "_R_CUT"),
        ("quadrature", None, "power_gaussian"),
        ("quadrature", None, "loggamma"),
        ("quadrature", None, "_STIRLING"),
        ("epsilon", None, "_l_ratio"),
        ("conjclass", None, "is_in_C_VW"),
    ],
)
def test_conveniences_over_the_kept_api_stay_deleted(module, owner, attr):
    # each was a second copy of a fact that the kept API gives in one
    # expression; an owner that is gone takes its attributes with it
    mod = importlib.import_module(f"gpkit.{module}")
    assert not hasattr(getattr(mod, owner, None) if owner else mod, attr)


def test_table_memos_are_the_one_content_memo(cold, capsys):
    # a table's rows, verdicts and report rows live in one per-unit memo of
    # content records, whose scope test_memos_hold_one_unit_after_a_sweep
    # pins: the separate verdict memo is gone, and the row build keeps no
    # memo of its own.  The slot planes live only in the V group, the
    # non-central V-masks are computed in the record, and an admissible
    # pair is built afresh per call: none of them keeps a process memo.
    # The groups of the enumerated parameters live in one process memo,
    # one per distinct basis listed: 62 over every unit of the benchmark's
    # chi-wide sweep
    lparam = importlib.import_module("gpkit.lparam")
    quadspace = importlib.import_module("gpkit.quadspace")
    cli = importlib.import_module("gpkit.cli")
    assert not hasattr(lparam, "_MULTIPLICATIVE")
    assert not hasattr(lparam._factor_rows, "cache_info")
    assert not hasattr(lparam._slot_planes, "cache_info")
    assert not hasattr(quadspace.is_admissible_pair, "cache_info")
    assert not hasattr(lparam, "_noncentral")
    cold()
    assert cli.run(["--json", "verify", "dichotomy", "--max-dim", "10",
                    "--max-k", "9", "--jobs", "1"]) == 0
    capsys.readouterr()
    assert len(lparam._GROUPS) == 62
    assert all(group.basis == basis for basis, group in lparam._GROUPS.items())


def test_cli_builds_no_union_or_fiber_check():
    # conjclass.union_cases/fiber_cases list the checks of each sweep unit;
    # cli only loops over them, so it holds no space builder or pair test
    cli = importlib.import_module("gpkit.cli")
    for attr in ("_space", "is_admissible_pair"):
        assert not hasattr(cli, attr)


def test_stored_invariants_replace_the_old_properties():
    # QuadSpace.dim/.delta and the KappaDatum invariants are attributes set
    # at construction: the properties and the packed `_invariants` tuple they
    # replace stay deleted, so each invariant has one copy
    from gpkit.conjclass import KappaDatum, make_regular_kappa
    from gpkit.quadspace import QuadSpace

    for owner, names in (
        (QuadSpace, ("dim", "delta")),
        (KappaDatum, ("dim", "signature", "n_elliptic", "sum_c")),
    ):
        for name in names:
            assert name not in vars(owner)
    assert KappaDatum._fields == ("factors",)
    kappa = make_regular_kappa(2, 1)
    assert not hasattr(kappa, "_invariants")
    assert not hasattr(KappaDatum, "_invariants")
