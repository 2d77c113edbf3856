import inspect

import sfheat


def test_every_export_resolves():
    missing = [name for name in sfheat.__all__ if not hasattr(sfheat, name)]
    assert not missing, missing


def test_exports_unique():
    assert len(sfheat.__all__) == len(set(sfheat.__all__))


def test_exports_are_the_imported_names():
    # a name deleted from its module can no longer be imported here, so with
    # this equality it cannot stay exported either
    imported = {name for name, value in vars(sfheat).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(sfheat.__all__) == imported
