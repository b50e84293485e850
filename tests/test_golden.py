"""Seeded solution bytes, pinned.

The sha256 of the `serialize_solution` bytes of every bundled model under
the Gibbs backend at seeds 0-2, a thinned sampler, common random numbers and
the exact backend.  A change that claims to keep seeded output must keep
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
    "gibbs_crn": SolveOptions(
        backend="gibbs", sampler=SamplerConfig(seed=0), common_random_numbers=True
    ),
    "exact": SolveOptions(backend="exact"),
}

GOLDEN = {
    "gibbs_seed0/wildcatter_irid": "eaa8bbd8609ed5f7bb1ab57459606d75a83f0e7d1b65a2c8105e9db3aa60d7ae",
    "gibbs_seed0/wildcatter_irid_alt_probs": "1a60b11f1c39d02414c47e8ab43566fef314fde6a4a02e35b3e3226fead8e1e1",
    "gibbs_seed0/wildcatter_irid_payoff_values": "bf565bec1185cd662c660d4c28682f9fd5c7b10c5de2ca482c15a28d054c17fe",
    "gibbs_seed0/wildcatter_info_only": "82d94e9eb2b4ba65470053797b69625aa927ce527a7d005b9e88423d7076b622",
    "gibbs_seed0/wildcatter_deterministic_workaround": "c8027f7768ab0ff07e76ff4c1166a92044b6f890a8ac8ea0ce4c99be060cb46f",
    "gibbs_seed1/wildcatter_irid": "ae52cd274725e4021f336847cc8b8ab4eea4eff3a2bae746ef5898ddfa986f08",
    "gibbs_seed1/wildcatter_irid_alt_probs": "b5a616ac3752b22f5db602a17e6453f86c52a05e2dd766a57cd663c1ef531983",
    "gibbs_seed1/wildcatter_irid_payoff_values": "520b3cbcf8e80830bb1812ef808ab9deda894f9c67033e86d846700122f3c2fe",
    "gibbs_seed1/wildcatter_info_only": "e694a8e814eb84fb86fff6dc8424793f8f7b71f8890ddc01038abad2c3786738",
    "gibbs_seed1/wildcatter_deterministic_workaround": "3f9a6ab12fbf4447f979bc5c5f0ffd97e0a4c3c9f68967212d0a7a11ce8f4bb9",
    "gibbs_seed2/wildcatter_irid": "7f0e1acef2e5efb7f9bc3997a9b193b7d1c93a6a631e0860e3d0358ed765846a",
    "gibbs_seed2/wildcatter_irid_alt_probs": "1d042b54ecc95e2a719b10270407afc957a6f8c4c9c484803b8ce54f1ca63226",
    "gibbs_seed2/wildcatter_irid_payoff_values": "f8afbb9f1d757e26c468109e6bf03e0502fec17d62f31f2c896abab23911bfd7",
    "gibbs_seed2/wildcatter_info_only": "a3c3c28eeb7fd5d1fe83a05204b22b4b54465c88556174ec5bc9e247d54a7846",
    "gibbs_seed2/wildcatter_deterministic_workaround": "2560d6a8e84028e24524691d03784db27eb35bdb3cbc9806d44cc2b2c7b8221a",
    "gibbs_thinned/wildcatter_irid": "9a3ef05097384b296a8ef348680e0ab9ae3969b05ccdfcc297b57b7027e17350",
    "gibbs_thinned/wildcatter_irid_alt_probs": "57d88d4d5be7e77d703f2623bfac15c6f194e7c77ef0160c13cd9cbb7afaec1e",
    "gibbs_thinned/wildcatter_irid_payoff_values": "1c7b3954d2ecc7e9c63f3b865b0772b74f0bd15cb53c3597781e72e61f8ee31d",
    "gibbs_thinned/wildcatter_info_only": "2cdd7c5a1c74e627671434cd15e2f0281954e10e7b84b2daf188ad2179d279b2",
    "gibbs_thinned/wildcatter_deterministic_workaround": "b31fd3a8591605f559ce812ae00a5ccb060f733396c55dad1e5b92a2015c596b",
    "gibbs_crn/wildcatter_irid": "5b8040b1b74d501b5ef314821324926648f946d5862f171b8d10250075c663d8",
    "gibbs_crn/wildcatter_irid_alt_probs": "19a5489db3c001e6399866bcf7910800021c017017933eed0b1d6817d3cd191f",
    "gibbs_crn/wildcatter_irid_payoff_values": "bf5cb1a2251e4c0cac285eb36ae16aee986c622db336f5424017f536e9ba8da7",
    "gibbs_crn/wildcatter_info_only": "7de62f1dc184b07beb0c6a882d2f9aeed5bec1b9d79ee3ab60bd1534f509ab6d",
    "gibbs_crn/wildcatter_deterministic_workaround": "4eafd453d82e6f4d7cf798f800a0167582610d4783fdf0b5a6c9cff794596d2a",
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
