from __future__ import annotations

import pytest

from edsim.grids import ConfigGrid

# grids for the tests of the lattice boundary rule: a hard-wall line,
# 2-point wall and periodic axes, mixed periodic/wall planes and 3-D boxes
BOUNDARY_GRIDS = [
    ConfigGrid((9,), (3.0,), (False,)),
    ConfigGrid((2,), (1.0,), (False,)),
    ConfigGrid((2, 7), (1.0, 2.5), (False, True)),
    ConfigGrid((2, 3), (0.8, 1.2), (True, False)),
    ConfigGrid((6, 5), (2.0, 1.5), (True, False)),
    ConfigGrid((5, 2), (2.0, 0.7), (True, False)),
    ConfigGrid((4, 3, 5), (1.0, 2.0, 1.5), (True, False, False)),
    ConfigGrid((3, 4, 2), (1.5, 1.0, 0.5), (False, True, False)),
]


@pytest.fixture(params=BOUNDARY_GRIDS,
                ids=lambda g: "x".join(f"{n}{'p' if p else 'w'}"
                                       for n, p in zip(g.points, g.periodic)))
def boundary_grid(request) -> ConfigGrid:
    return request.param
