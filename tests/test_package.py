import symhess


def test_every_exported_name_resolves():
    # a stale string in __all__ does not break `import symhess`, only a
    # star import
    missing = [name for name in symhess.__all__ if not hasattr(symhess, name)]
    assert missing == []
    namespace = {}
    exec("from symhess import *", namespace)
    assert set(symhess.__all__) <= set(namespace)
