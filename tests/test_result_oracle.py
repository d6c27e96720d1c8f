"""Result oracle: every experiment's quick output, pinned by digest.

``tests/golden/result_digests.json`` maps each case to the SHA-256 of
its result's canonical JSON (:meth:`ExperimentResult.to_json`).  The
cases are all registered experiments in quick packet mode, plus the
bulk sweeps fig05a/fig06a/fig07a under ``flow_mode="auto"`` (keys
``<id>@flow=auto``).  Every number the simulator produces is
deterministic, so a change that reorders two same-time events, or
alters a protocol constant, turns the matching case red by name.

Regenerate only after an intentional change of simulated results, and
name the change and its reason wherever the change is recorded::

    PYTHONPATH=src python tests/test_result_oracle.py --regen
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.registry import EXPERIMENTS

DIGESTS = Path(__file__).parent / "golden" / "result_digests.json"

#: Experiments whose bulk tails repro.flow collapses; pinned in both modes.
FLOW_IDS = ("fig05a", "fig06a", "fig07a")

#: The package's own experiments; other test modules register fixture
#: experiments into the same registry while they are collected.
PACKAGE_IDS = sorted(exp_id for exp_id, runner in EXPERIMENTS.items()
                     if runner.raw_fn.__module__.startswith("repro."))

CASES = ([(exp_id, None) for exp_id in PACKAGE_IDS]
         + [(exp_id, "auto") for exp_id in FLOW_IDS])


def _key(exp_id, flow_mode):
    return exp_id if flow_mode is None else f"{exp_id}@flow={flow_mode}"


def _digest(result) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def _pinned() -> dict:
    return json.loads(DIGESTS.read_text())


def test_oracle_covers_every_experiment():
    assert sorted(_pinned()) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("exp_id,flow_mode", CASES,
                         ids=[_key(*case) for case in CASES])
def test_result_matches_digest(quick_result, exp_id, flow_mode):
    key = _key(exp_id, flow_mode)
    assert _digest(quick_result(exp_id, flow_mode)) == _pinned()[key], (
        f"{key}: simulated result changed (regenerate {DIGESTS.name} only "
        f"for an intentional change of results)")


def _regen() -> None:
    from repro.core.registry import run_experiment
    from repro.flow.context import activated
    digests = {}
    for exp_id, flow_mode in CASES:
        with activated(flow_mode):
            digests[_key(exp_id, flow_mode)] = _digest(
                run_experiment(exp_id, quick=True))
        print(f"{_key(exp_id, flow_mode)}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
