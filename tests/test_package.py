import prefvote


def test_export_list_resolves_without_duplicates():
    names = prefvote.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(prefvote, name)] == []
    namespace = {}
    exec("from prefvote import *", namespace)
    assert set(names) <= set(namespace)
