"""Seeded solution bytes, pinned.

The sha256 of the `serialize_solution` bytes of every bundled model under
the Gibbs backend at seeds 0-2 and a thinned sampler, and the exact
backend.  A change that claims to keep seeded output must keep
these digests; one that changes output on purpose records the new ones here
and says which files changed and why.
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
    "gibbs_thinned": SolveOptions(
        backend="gibbs", sampler=SamplerConfig(seed=0, burn_in=37, samples=7001, thinning=3)
    ),
    "exact": SolveOptions(backend="exact"),
}

GOLDEN = {
    "gibbs_seed0/wildcatter_irid": "5b8040b1b74d501b5ef314821324926648f946d5862f171b8d10250075c663d8",
    "gibbs_seed0/wildcatter_irid_alt_probs": "19a5489db3c001e6399866bcf7910800021c017017933eed0b1d6817d3cd191f",
    "gibbs_seed0/wildcatter_irid_payoff_values": "bf5cb1a2251e4c0cac285eb36ae16aee986c622db336f5424017f536e9ba8da7",
    "gibbs_seed0/wildcatter_info_only": "7de62f1dc184b07beb0c6a882d2f9aeed5bec1b9d79ee3ab60bd1534f509ab6d",
    "gibbs_seed0/wildcatter_deterministic_workaround": "4eafd453d82e6f4d7cf798f800a0167582610d4783fdf0b5a6c9cff794596d2a",
    "gibbs_seed1/wildcatter_irid": "b6fbc1722a0cbc64620edb7dcb3c56038637d9406783e099ee9f48cb5884b987",
    "gibbs_seed1/wildcatter_irid_alt_probs": "d386120d84995369ad6d7c069ce2bdaa6bb522316f93a16e8b7054e5bcbc42e5",
    "gibbs_seed1/wildcatter_irid_payoff_values": "85fd63c41deac96b8f9f65cd09d4d1c3702ea7342a2e8fb1469251ab8bb168f4",
    "gibbs_seed1/wildcatter_info_only": "27fb99a74e2c177bb65e0583a36282bdd17f4ed524d93323540ba42cac213fc5",
    "gibbs_seed1/wildcatter_deterministic_workaround": "1dff5b7ab958170c3fe615a66a4e0c538aa53fbf015f24adb413f0f6df21ecf7",
    "gibbs_seed2/wildcatter_irid": "ff3ec03b9f05850a31d568dd100d6ac6edf435b54d2c46ccadc50c044be572b0",
    "gibbs_seed2/wildcatter_irid_alt_probs": "075d2061aa6b298e1f43c48f0afa4a2ce4af4114534d3b0321d6260db83c6868",
    "gibbs_seed2/wildcatter_irid_payoff_values": "d85b06f307a15ba3ed5a19b5be6511a4a9feeea3521b0721644bd2ae430f85d3",
    "gibbs_seed2/wildcatter_info_only": "650d272f9425ca6ee836c3131e47ee5513fa85c376a08445f24a46c3f436be4c",
    "gibbs_seed2/wildcatter_deterministic_workaround": "bf46afad504545c954a80392765bb905024413aec382905d29bdc0c43a7b6fdc",
    "gibbs_thinned/wildcatter_irid": "f26f714339da9f8923898297356a961209488c00e0c58cfa324c8f56541f1e78",
    "gibbs_thinned/wildcatter_irid_alt_probs": "7cd3d7d77f96e9ae7a8d07a8be74716608692cd7f975ef84f749b572c9df4527",
    "gibbs_thinned/wildcatter_irid_payoff_values": "2e520c3e90660668441bc470e46c41be553dfc2262ddbebe1123c68017e598c6",
    "gibbs_thinned/wildcatter_info_only": "fa9a546de93c3775a880ddddf17076604601042f45182dffc4c84052f8bbf24e",
    "gibbs_thinned/wildcatter_deterministic_workaround": "29c7c81b669ca82dfed7ddced63f5a431bd1e0fe426b303667f75f447aba2a75",
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
