import seprec


def test_star_import_exports_every_listed_name():
    # a stale __all__ entry makes the star import raise AttributeError
    namespace: dict[str, object] = {}
    exec("from seprec import *", namespace)
    assert len(set(seprec.__all__)) == len(seprec.__all__)
    for name in seprec.__all__:
        assert namespace[name] is getattr(seprec, name), name
