from pathlib import Path

import numpy as np
import pytest

import flowcert as fc
from netrand import Branch, Bus, from_records

REPO_ROOT = Path(__file__).resolve().parents[1]
FEEDER_DIR = REPO_ROOT / "data" / "feeder13"


@pytest.fixture(scope="session")
def feeder_net() -> fc.NetworkDescription:
    return fc.load_network(FEEDER_DIR / "network.json")


@pytest.fixture(scope="session")
def feeder_grid(feeder_net) -> fc.PreparedGrid:
    return fc.prepare_grid(feeder_net)


@pytest.fixture(scope="session")
def feeder_s_hat(feeder_net) -> np.ndarray:
    return fc.load_injections(feeder_net, FEEDER_DIR / "injections_base.json")


@pytest.fixture(scope="session")
def feeder_s_next(feeder_net) -> np.ndarray:
    return fc.load_injections(feeder_net, FEEDER_DIR / "injections_next.json")


@pytest.fixture(scope="session")
def feeder_op(feeder_net) -> fc.OperatingPoint:
    return fc.load_operating_point(feeder_net, FEEDER_DIR / "operating_point.json")


@pytest.fixture
def two_bus_net() -> fc.NetworkDescription:
    buses = [Bus("0", "slack"), Bus("1", "load")]
    branches = [Branch("0", "1", "line", 1 - 10j)]
    return from_records(buses, branches, power_base=1.0, voltage_base=1.0)
