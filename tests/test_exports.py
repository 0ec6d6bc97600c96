import explinfer


def test_star_import_binds_every_export():
    namespace = {}
    exec("from explinfer import *", namespace)
    missing = [n for n in explinfer.__all__ if n not in namespace]
    assert missing == []


def test_exports_are_unique():
    assert len(explinfer.__all__) == len(set(explinfer.__all__))
