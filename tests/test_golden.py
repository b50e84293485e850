"""Seeded solution bytes, pinned.

The sha256 of the `serialize_solution` bytes of every bundled model under
the Gibbs backend at seeds 0-2 and the exact backend.  A change that claims
to keep seeded output must keep these digests; one that changes output on
purpose records the new ones here and says which files changed and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from irid.data import BUNDLED, load_bundled
from irid.gibbs import SamplerConfig
from irid.modelfile import serialize_solution
from irid.solver import SolveOptions, solve

SETTINGS = {
    **{
        f"gibbs_seed{seed}": SolveOptions(backend="gibbs", sampler=SamplerConfig(seed=seed))
        for seed in range(3)
    },
    "exact": SolveOptions(backend="exact"),
}

GOLDEN = {
    "gibbs_seed0/wildcatter_irid": "6a439f0797dfc96ffc292c15e9f25158601aa320a8dd66b5b8bb6abdec626136",
    "gibbs_seed0/wildcatter_irid_alt_probs": "1ca54f0322e4e7ef00798e3ec557e953ddb6772912c9790a667437cc866250d3",
    "gibbs_seed0/wildcatter_irid_payoff_values": "b4ad602c56a1a2c4b2c000ea548d6dd2df47549d5661053cc25877e67307bb2e",
    "gibbs_seed0/wildcatter_info_only": "21abffe1a1cf6bf7c86cce1efc5aa9d8054de1ece9e49eada80c9053241b59d1",
    "gibbs_seed0/wildcatter_deterministic_workaround": "699a7e1d3f2035e7887218589f5842d51aafaca111f702e21868348bd5d0da69",
    "gibbs_seed1/wildcatter_irid": "1fa3dce63e61a00bc41a50b3cedd560f54949b437c15f6f4b0e9de083a1c107e",
    "gibbs_seed1/wildcatter_irid_alt_probs": "297a34b0c6f910737c99a0415fe5b29ad4a77681b30c342c9f7bbcb2c4b727db",
    "gibbs_seed1/wildcatter_irid_payoff_values": "108106006320237933d14cdcd3632d1cf96cb30a00f5c2aa3a821e09a33cc3c9",
    "gibbs_seed1/wildcatter_info_only": "b28dba1e7f20b25267f5e414127941e63970008cdc6fadef201dc532cac8690c",
    "gibbs_seed1/wildcatter_deterministic_workaround": "38b5ba9c1295630a62f8e90920dadd72011799b035634bf89353cc989b297d0d",
    "gibbs_seed2/wildcatter_irid": "f499b35cc9f9d47a8af6a06c358ee30aa28889e42fc15030742febd52b636200",
    "gibbs_seed2/wildcatter_irid_alt_probs": "e977009f64d00b7975f3bb8fe8f30ec3ecd5d00dd9b4fd728e776fc430035334",
    "gibbs_seed2/wildcatter_irid_payoff_values": "38921c08037965f4b165408201c025f3c12844cfb6bf52e8e42772482bf4a040",
    "gibbs_seed2/wildcatter_info_only": "3a8ac131238fd5e982b69dc8fe460da18889a5f2eb1389846d833b89fd1156b0",
    "gibbs_seed2/wildcatter_deterministic_workaround": "5fc1a3320289425ae9e0acc99b0c6f49dac85ac2a26b84f62c9e4cf85d6c47f5",
    "exact/wildcatter_irid": "711aa0f674528432efc483896cc3c7ee6f0e8d97f9954b470c00ef09303caa13",
    "exact/wildcatter_irid_alt_probs": "39ba9ae6a81fa855cf40058bdb743213005098556d060f2001d4b7f3584188e1",
    "exact/wildcatter_irid_payoff_values": "a17d39cd70500dced71fda56678c87b2a4e573f973242fb8064cc485b63228bf",
    "exact/wildcatter_info_only": "f7ef913ac0d3f5aa559eb4b3b4444a9da48400742aa9c8804119e06ea840a9df",
    "exact/wildcatter_deterministic_workaround": "df14d67f1f962c29402144813e8ff64ea0b847f4a251e950e51881a3b35fa247",
}


def digests() -> dict[str, str]:
    """'setting/model' -> sha256 of the solution bytes, for every setting
    and bundled model."""
    models = {name: load_bundled(name) for name in BUNDLED}
    return {
        f"{setting}/{name}": hashlib.sha256(serialize_solution(solve(model, options))).hexdigest()
        for setting, options in SETTINGS.items()
        for name, model in models.items()
    }


@pytest.fixture(scope="module")
def in_process():
    return digests()


def test_solution_bytes_match_the_pinned_digests(in_process):
    assert in_process == GOLDEN


def test_optimized_interpreter_writes_the_same_bytes(in_process):
    """Under `python -O` the sampler's debug checks do not run; the bytes
    must not depend on them."""
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    script = "import json, test_golden; print(json.dumps([__debug__, test_golden.digests()]))"
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
        capture_output=True,
        check=True,
        text=True,
    )
    debug, optimized = json.loads(out.stdout)
    assert debug is False
    assert optimized == in_process
