"""Trained-weights fixture: the serving workloads load it instead of training.

The fixture is the ci-scale six-device MP-CC DDNN trained once with the
repository's own training path (``make_fixture.py``) and committed under
``perfbench/fixtures``.  Loading it checks the weights digest, so a later
change to training numerics cannot shift the serving workloads' accuracy,
bytes or simulated latency, and a corrupted fixture fails loudly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable

import numpy as np

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
WEIGHTS_PATH = FIXTURE_DIR / "mpcc_ci.npz"
META_PATH = FIXTURE_DIR / "mpcc_ci.json"


def state_digest(state: Dict[str, np.ndarray]) -> str:
    """SHA-256 over every array's name, dtype, shape and bytes, in name order."""
    digest = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def curve_digest(losses: Iterable[float]) -> str:
    """SHA-256 over a float64 loss curve's exact bytes."""
    return hashlib.sha256(np.asarray(list(losses), dtype=np.float64).tobytes()).hexdigest()


def fixture_record() -> dict:
    """What was recorded when the fixture was trained (digests, loss curve)."""
    return json.loads(META_PATH.read_text())


def load_fixture_model():
    """Build the ci-scale MP-CC DDNN and load the fixture weights into it.

    Raises ``RuntimeError`` when the stored weights do not match the digest
    recorded beside them.
    """
    from repro.core.ddnn import build_ddnn
    from repro.experiments.runner import ci_scale
    from repro.nn.serialization import load_state

    meta = fixture_record()
    state = load_state(WEIGHTS_PATH)
    found = state_digest(state)
    if found != meta["weights_sha256"]:
        raise RuntimeError(
            f"fixture {WEIGHTS_PATH.name} digest {found} does not match the "
            f"recorded {meta['weights_sha256']}; regenerate it with make_fixture.py"
        )
    model = build_ddnn(ci_scale().ddnn_config())
    model.load_state_dict(state)
    model.eval()
    return model, meta
