"""The public API: ambcsim.__all__ and the package namespace agree."""
import types

import ambcsim


def test_every_name_in_all_resolves():
    assert [n for n in ambcsim.__all__ if not hasattr(ambcsim, n)] == []
    assert len(set(ambcsim.__all__)) == len(ambcsim.__all__)


def test_every_public_attribute_is_in_all():
    public = {n for n, v in vars(ambcsim).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert sorted(public - set(ambcsim.__all__)) == []
