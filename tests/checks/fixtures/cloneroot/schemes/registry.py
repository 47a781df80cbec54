from repro.checks_fixture.schemes.impl import (
    CleanCloneScheme,
    RebuildingScheme,
)


def make_scheme(name, mapping):
    if name == "rebuilding":
        return RebuildingScheme(mapping)
    return CleanCloneScheme(mapping)
