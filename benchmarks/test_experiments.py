"""One benchmark per registered experiment.

Each case regenerates one experiment of ``repro.bench.registry`` -- the
paper's figures, the ablations of design choices the paper fixes or
defers, and the extension experiments (``scale``, ``ring``, ``mmap``,
``chaos``, ``simspeed``, ``tenants``, ``shard``) -- and asserts its
shape check.  See src/repro/bench/experiments/ for the definitions.
"""

import pytest

from repro.bench.registry import EXPERIMENTS


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment(figure, name):
    figure(name)
