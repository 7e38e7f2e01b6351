"""The package's public names are its library modules' ``__all__`` lists."""

import kickscope
from kickscope import errors, experiment, hilbert, wavepacket


def test_package_exports_the_union_of_the_module_lists():
    modules = (errors, hilbert, wavepacket, experiment)
    union = [name for module in modules for name in module.__all__]
    assert len(set(union)) == len(union)
    assert sorted(kickscope.__all__) == sorted(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(kickscope, name) is getattr(module, name), name
