"""Bundled example networks."""

from __future__ import annotations

from .graph import Network, parse_network

FIXTURE_NAMES = (
    "series2",
    "series3",
    "parallel2",
    "single_edge",
    "bridge",
    "triangle",
    "counterexample",
    "zigzag",
    "figure1",
    "figure2",
    "eon_par_cop",
    "eon_lon_ber_mil",
)


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled .graph file."""
    from pathlib import Path  # imported here: a CLI call never needs it

    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {FIXTURE_NAMES}")
    return Path(__file__).with_name("fixtures") / f"{name}.graph"


def load_fixture(name: str) -> Network:
    path = fixture_path(name)
    return parse_network(path.read_text())
