"""Regenerate the trained-weights fixture the serving workloads load.

Run from the repository root::

    python3 perfbench/make_fixture.py

It trains the ci-scale MP-CC DDNN exactly as the experiment harness does
(``train_fresh_ddnn(ci_scale())``), then writes the weights and a JSON
record of their digest, the float64 loss curve and the training settings.
Regenerating changes the serving workloads' deterministic metrics, so do it
only in a change that redefines the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.fixture import META_PATH, WEIGHTS_PATH, curve_digest, state_digest  # noqa: E402


def main() -> None:
    from repro.experiments.runner import ci_scale, train_fresh_ddnn
    from repro.nn.serialization import save_state

    scale = ci_scale()
    model, trainer = train_fresh_ddnn(scale)
    state = model.state_dict()
    WEIGHTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    save_state(state, WEIGHTS_PATH)
    losses = trainer.history.losses()
    meta = {
        "weights_sha256": state_digest(state),
        "loss_curve": losses,
        "loss_curve_sha256": curve_digest(losses),
        "scale": scale.name,
        "epochs": scale.epochs,
        "train_samples": scale.train_samples,
        "data_seed": scale.data_seed,
        "model_seed": scale.model_seed,
    }
    META_PATH.write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {WEIGHTS_PATH.name} ({meta['weights_sha256'][:12]}) and {META_PATH.name}")


if __name__ == "__main__":
    main()
