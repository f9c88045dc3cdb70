"""FedAvg aggregation, which the hierarchical strategies reduce to."""

from __future__ import annotations

import numpy as np


def fedavg_aggregate(client_params: list[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of the client parameter vectors."""
    if len(client_params) == 0:
        raise ValueError("participant list is empty")
    total = np.zeros_like(client_params[0])
    for p in client_params:
        total += p
    return total / len(client_params)
