import types

import garchmc


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(garchmc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(garchmc.__all__) == public
