import vvsdc


def test_star_import_resolves_every_export():
    # a name left in __all__ after its function is deleted breaks this import
    namespace = {}
    exec("from vvsdc import *", namespace)
    assert all(hasattr(vvsdc, name) for name in vvsdc.__all__)
    assert set(vvsdc.__all__) <= set(namespace)
    assert len(set(vvsdc.__all__)) == len(vvsdc.__all__)
