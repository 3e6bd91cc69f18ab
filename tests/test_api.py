"""The package's export list."""
import plfilt


def test_all_names_resolve_sorted_and_unique():
    names = plfilt.__all__
    for name in names:
        assert getattr(plfilt, name) is not None, name
    assert names == sorted(names)
    assert len(set(names)) == len(names)
