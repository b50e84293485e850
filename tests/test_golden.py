"""Seeded solution bytes and canonical model bytes, pinned.

The sha256 of the `serialize_solution` bytes of every bundled model under
the Gibbs backend at seeds 0-2 and the exact backend, and of the
`serialize_model` bytes of generated models.  A change that claims
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

import numpy as np

from irid.data import BUNDLED, load_bundled
from irid.gibbs import SamplerConfig
from irid.modelfile import serialize_model, serialize_solution
from irid.solver import SolveOptions, solve

from model_gen import escaped_label_model, random_model, with_point_masses

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


#: sha256 of `serialize_model` for random models (with and without zeros
#: and decisions), models with point masses, and labels that need escapes
MODEL_GOLDEN = {
    "random0": "52e2b1189fc01b395ead5eff1117cd6300c97de0a34436c0b0ea2d5c40401bed",
    "random1": "5ffe29b2aaa5f0f72fdded76f1244e0b0c6353fa51915b05e2bbf56a9daf555e",
    "random2": "7c5eb82675fc88352d4d1559309cd34e2f2a2f8ec0f8bf755768b686e2f14d86",
    "random3": "42735d884bdff8e88dad2e72a97dd234e895438338b485262419de074df961f8",
    "random4": "6d58810e023450d7bb00fc8fa12d0be99149f710a193ef9630abc6802651b5aa",
    "random5": "9425d21c60059dcb94559cdaa6e6701ec380f86f5833972af3b4a17af3cab5cd",
    "random6": "c9f266b6afd18966a7552206996670a555373c132efcddc08e5b569297a01df0",
    "random7": "04dc237ec019fc5ca5048bae24ed7d1d832a0793a5dadc898dd000041f792ed8",
    "random8": "16d06d8fe832d4ed393d65672322da32e9b3724af5cfbd004c169a98d24026fe",
    "random9": "61476751a4cad7ab723892a646ddd12e715fd0c643b0bc8f152cb566e3d19e4d",
    "random10": "f8f954a0282724e04eba76e50744675f710e69ec14bf7e0d848c1f333d39d38d",
    "random11": "58f66d82a3c3a0da11f57167dade4cec85c2f7e6bb9c66735ea45c55682f59d5",
    "random12": "ca66aa298b92da4dc6401e7085d5fe58701f16f9888416c8c65cd1ebdbc2f4be",
    "random13": "171e764fa48124a1ed6860468bd1f2671a6468b8e6b14639e2042a225ff76dc0",
    "random14": "8fcefd0f0ca4cdd0c61c4bcc981712a10ff23850951f71bb27d881ba827ad34f",
    "random15": "8a5c7a6e827acae1bf0f0df88fa7bf491201505e98313e99c847965137d1865a",
    "random16": "068678b91bab89d8f40893a07952bb6b2cb44bef253692633b2e7478895952b0",
    "random17": "94359fb643bf50e0cf3f787f70d4a596f6fe0a306ec738d7476a156f724c09c4",
    "random18": "53cbc16462ec048f95b344fb7498983f58b1796165c7dd29a20afb9d63b092c7",
    "random19": "253a510920fe157271ff31abdb190daeafd420dc16af3d29036bb922057aa40e",
    "random20": "016dfabd0ddf2e413a075148a07b4551d1b64ce1b31bb3dbff6d216dd2f85db2",
    "random21": "2cffd42281da500111ec5228c66c1b79320cd858ccb3283130f049dce4e404a0",
    "random22": "39b1593cc7679925cde8a3c365f5d2376e948f9de65ac6e2dcc97f369d5fbc2d",
    "random23": "183d5cc1d9c5e115e74dd7fde6c84fda9056501e67c5a35bf42b7d0427eae89c",
    "random24": "b5741f080a64cdf13a70976faf5e0c61a659737e88ca4889864180b7580abc55",
    "random25": "5cd14941e69b59c0ae558dcba870f593866c7e980527569b0876ad70d69e2e42",
    "random26": "9cdbbfb94cba5fb4e8ef8646acbd4c4ea4b466ce7a39bae47a3723b942cbeab4",
    "random27": "4c7c4f0ba6282cf00f4a635c4d0db875f040c9e0268fd64a36b52ae9c7918df4",
    "random28": "5e9fe7d955f3312b73bba506fc1eac5a0920fc8c30d948f397f4c64ca8f70735",
    "random29": "5d3951877e461df048ce83ab4faf64f1636dd31a0ceb2b1d11a2fead7ff1a97b",
    "random30": "b30ed08bc65ad285f893a3894511d01d72c146ce1db16c1a03b3cf9ab8535907",
    "random31": "116700d3fdf76e3c1d10e952fd30f2488214de23c50ab5b873f9587348856a48",
    "random32": "4873b245f07af22b6d19feff9ae860128816d0a9fe46d12a5ecb49486b8e97a1",
    "random33": "167d7b0f059079d35f9aacbcd1223c2ddc47f86dd3e53c6ed061ed87fa4d9c88",
    "random34": "d2313ca91640e9850fb3baf33d290a1dfee6b7da5d78d2bdfde94b96d04a491b",
    "random35": "cab0eb41d8c432404d24707bd26cc610a2ab988292ffb3473cd0f92701f1297c",
    "random36": "3bd8f62452b832592abe6d701c893a3f4563fd6f4ca23cf96e17407e25efc12f",
    "random37": "a6fb04341fa097a6a1d4a609c32d293342d4d07f9293defa8bee5c799b39337d",
    "random38": "9f3a789cf2583bb167f25c478f0b381160df6352c0346d7037ad719c2cd37789",
    "random39": "2e004d65597d01a311b1beab97f90ccc70107fce343c90c02dddc144b573949a",
    "random40": "8b355696e0d14f423ba4c8fbee82942f77a087f31ca44c2a8506a027c3e07d31",
    "random41": "ffd0bdfe4b49c4d0abacead1fff275e7113505ac06924e31e4febe00b154b0d6",
    "random42": "5feb23d180cebbf9a674707b98589effc184257bc68349806b60b20395860f7d",
    "random43": "b4c6212ca69439e8e40876c129fb3475e81304f5b485d7a03703158ec72213ed",
    "random44": "1bfc155ba087f1f9c71ad7e25a24e2e66a3383aa3e1a473cf15e33108d2484fa",
    "random45": "7cd7440be57978725f4d79df99d4605d79d2fad3ea13c4fadea87e9c97621944",
    "random46": "8b242f51cb1e74c43a256198c18668f9489455fce1b321a48eb963c57fa7959c",
    "random47": "152a94e5971a60e9fc7e56a8c3d934703433dc7b83661d5c331690ac84f0cac7",
    "random48": "4cebce36bb23608ce5acb3f35776febc184dc6498ee5451bcd957cbc5c3ef038",
    "random49": "13e9654cc214868df7f7f1528f0c021d42112296175a699272ab0f283e41ff55",
    "point_masses0": "fa635a3df6c3a44000f4dbd8e61f8793899080fe10fbc858ced2cbbd85461509",
    "point_masses1": "8ff3ec45e71a9f758b6f794158868548e2cd96cae3b200f56bccc0a8b8030d86",
    "point_masses2": "7c3399a287bb0cbc70b47362966bf090c00eef9dd8293a215663d212573dab37",
    "point_masses3": "7d618789a8e695e5656b6189711b80042359a7871977a276877c671c1bcfb0f4",
    "point_masses4": "16247757460f7b459c7810c2d2f0f4b5f2d85fc21df98efd180dd87d3f6ab4a1",
    "point_masses5": "a2f7e4b79cc673bd7ed326378749c600fc0ac6ee809dab428326e92af9da03c0",
    "point_masses6": "162725c18572b4e7b061293cf9ed3026959a04fc012cb162561fdf8af0106ba4",
    "point_masses7": "01fa747ecad4dfea5bffaaf4cf3132ff2a0df168434acb52aec56266809e85b2",
    "point_masses8": "682be07032741026263da464c52fad75544aa30c91dbe26be96f54fc60693e97",
    "point_masses9": "4dd592ea40a589ee353b1ea7433b6134947cd35beead4b90fcf26e7b4e5d81c9",
    "escaped_labels": "a031d3bcaab5a0d09d7827ef5addf9e8f28498eab2353c75ff076c6720f5c3ce",
}


def model_digests() -> dict[str, str]:
    models = {
        f"random{s}": random_model(s, n_decisions=(0, 3), allow_zeros=s % 2 == 0)
        for s in range(50)
    }
    for s in range(10):
        base = random_model(7000 + s, n_chance=(1, 5), n_decisions=(1, 3))
        models[f"point_masses{s}"] = with_point_masses(base, np.random.default_rng(s))
    models["escaped_labels"] = escaped_label_model()
    return {name: hashlib.sha256(serialize_model(m)).hexdigest() for name, m in models.items()}


def test_model_bytes_match_the_pinned_digests():
    assert model_digests() == MODEL_GOLDEN
