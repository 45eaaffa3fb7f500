"""The package's public names: `__all__` resolves, is sorted and unique, and
`from butterflyshift import *` brings in every name it lists."""

import butterflyshift


def test_every_public_name_resolves():
    assert [n for n in butterflyshift.__all__ if not hasattr(butterflyshift, n)] == []


def test_all_is_sorted_without_duplicates():
    assert butterflyshift.__all__ == sorted(set(butterflyshift.__all__))


def test_star_import():
    namespace = {}
    exec("from butterflyshift import *", namespace)
    assert set(butterflyshift.__all__) <= namespace.keys()
