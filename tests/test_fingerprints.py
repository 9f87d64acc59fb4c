"""Every seed's bits stay those checked in: the fingerprints that
``tools/equivalence.py`` writes now, compared with ``tools/fingerprints.json``.

A change that moves bits on purpose rewrites the file
(``python3 tools/equivalence.py write tools/fingerprints.json``) and states
what moved. On another numpy, BLAS or CPU build the bits may differ without
a fault, so there the test warns and applies the build-tolerant rule of
``compare`` (its ``tolerant`` parameter) instead of exact equality."""

import copy
import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _equivalence():
    spec = importlib.util.spec_from_file_location("equivalence", TOOLS / "equivalence.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EQ = _equivalence()
STORED = json.loads((TOOLS / "fingerprints.json").read_text())


def _differences(out: str) -> str:
    return "\n".join(line for line in out.splitlines() if ": identical" not in line)


def test_fingerprints_match_the_checked_in_file(capsys):
    recorded = {key: val for key, val in STORED["_build"].items() if key != "seeds"}
    same_build = recorded == EQ.build()
    if not same_build:
        warnings.warn(
            f"fingerprints were written on {recorded}, this is {EQ.build()}: "
            "judged by the build-tolerant rule, not bit for bit",
            UserWarning,
        )
    fresh = EQ.fingerprints(STORED["_build"]["seeds"])
    assert fresh.keys() == STORED.keys()
    failed = EQ.compare(STORED, fresh, tolerant=not same_build)
    assert failed == 0, _differences(capsys.readouterr().out)


def _moved(key, edit):
    moved = copy.deepcopy(STORED)
    edit(moved[key])
    return moved


def _shift(b64: str, by: float) -> str:
    values = EQ._values(b64).copy()
    values[-1] += by
    return EQ._b64(values, complex)


def test_tolerant_rule_flags_what_a_build_cannot_move():
    """The rule for other builds still fails on a moved array, abort or
    ensemble, and lets last-bit moves through."""
    oracle, ensemble, aborted = "oracle/eternally_nm", "batched/mcwf@5", "abort/mcwf@5"
    assert EQ.compare(STORED, copy.deepcopy(STORED)) == 0
    last_bits = _moved(oracle, lambda e: e.update(values="x", values_b64=_shift(e["values_b64"], 1e-15)))
    assert EQ.compare(STORED, last_bits) == 1
    assert EQ.compare(STORED, last_bits, tolerant=True) == 0
    moved = _moved(oracle, lambda e: e.update(values="x", values_b64=_shift(e["values_b64"], 1e-6)))
    assert EQ.compare(STORED, moved, tolerant=True) == 1
    far = _moved(ensemble, lambda e: e["series"].update(rho_hat_b64=_shift(e["series"]["rho_hat_b64"], 0.5)))
    assert EQ.compare(STORED, far, tolerant=True) == 1
    other_abort = _moved(aborted, lambda e: e["abort"].update(error="StepTooLarge"))
    assert EQ.compare(STORED, other_abort, tolerant=True) == 1
    assert np.isfinite(STORED[ensemble]["oracle_score"])
