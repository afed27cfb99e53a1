import oscillab


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from oscillab import *", namespace)
    for name in oscillab.__all__:
        assert namespace[name] is getattr(oscillab, name)
