from pathlib import Path

import oscillab


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from oscillab import *", namespace)
    for name in oscillab.__all__:
        assert namespace[name] is getattr(oscillab, name)


def test_no_longdouble_in_package():
    # np.longdouble is float64 on some platforms; exact phases use integers
    package = Path(oscillab.__file__).parent
    named = [p.name for p in sorted(package.rglob("*.py")) if "longdouble" in p.read_text()]
    assert named == []
