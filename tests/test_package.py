import haarshift


def test_exports_listed_once_and_resolve():
    assert len(haarshift.__all__) == len(set(haarshift.__all__))
    assert all(hasattr(haarshift, name) for name in haarshift.__all__)
