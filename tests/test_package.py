"""The package's public names."""
import lossdepth


def test_every_exported_name_resolves():
    missing = [name for name in lossdepth.__all__ if not hasattr(lossdepth, name)]
    assert missing == []
    assert len(set(lossdepth.__all__)) == len(lossdepth.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lossdepth import *", namespace)
    assert set(lossdepth.__all__) <= set(namespace)
