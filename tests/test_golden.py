"""Seeded solution bytes and canonical model bytes, pinned.

The sha256 of the `serialize_solution` bytes of every bundled model under
the Gibbs backend at seeds 0-2 and the exact backend, of the
`serialize_model` bytes of generated models, and of the solution bytes of
those models, of one-sample Gibbs solves, of names that need escapes and of
seed-0 Gibbs solves of models with cells of coupled stages with evidence.
A change that claims to keep seeded output must keep these digests; one
that changes output on purpose records the new ones here and says which
files changed and why.
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

from model_gen import (
    certificate_model,
    escaped_decision_model,
    escaped_label_model,
    multisite_model,
    random_model,
    with_point_masses,
)

SETTINGS = {
    **{
        f"gibbs_seed{seed}": SolveOptions(backend="gibbs", sampler=SamplerConfig(seed=seed))
        for seed in range(3)
    },
    "exact": SolveOptions(backend="exact"),
}

GOLDEN = {
    "gibbs_seed0/wildcatter_irid": "d7f76f85bca237e9cf71669f3141ba4c4d2345d55462886f6eed2e8c833a7ba9",
    "gibbs_seed0/wildcatter_irid_alt_probs": "5fc535c94d16195ae2021084e9e54c0341c5f15d01ef967f060497f18b44c9ac",
    "gibbs_seed0/wildcatter_irid_payoff_values": "9ea9700b721c67a98e308fbdfe0b5f908e9d43db6a62ca43747fa469d448f68c",
    "gibbs_seed0/wildcatter_info_only": "ab3d86b22ed49784d70f4656d29dd0154398f9b39c254fe8e8a2ab14ae139e54",
    "gibbs_seed0/wildcatter_deterministic_workaround": "cf6e4ca4b7dbe0a51f1d030b30748d5ab29f777a9347bbad846050582f6f2a06",
    "gibbs_seed1/wildcatter_irid": "74a2f540ff8119951135911bbd1bbeeb072427075672548c7828c2bf8cc2e912",
    "gibbs_seed1/wildcatter_irid_alt_probs": "b7f64b5f6f2f7e015319e9ea7d2bd99883a2471196a4475e140ab05a4a0ef9ff",
    "gibbs_seed1/wildcatter_irid_payoff_values": "3996fa6c66a924dd896a2b744331d2b405530a836942d2710ab674d95311ac12",
    "gibbs_seed1/wildcatter_info_only": "fa58a671b967d12953a0fd2a6ad09c6865e3fe80143cb62e31fc7815bdbad0fc",
    "gibbs_seed1/wildcatter_deterministic_workaround": "2a48b14d51b9c10ce3de856fec63abe157f259f49d64f216121954add663a078",
    "gibbs_seed2/wildcatter_irid": "ccd8d9e65645bddca4c6dafd33b6e5a125ad416b1e033265f2cb88bc23efd604",
    "gibbs_seed2/wildcatter_irid_alt_probs": "49678c69b05efce8109fa4bc52c1d922bde5c8ea90e969448cbfdd8b3d8b22ae",
    "gibbs_seed2/wildcatter_irid_payoff_values": "fd969bb826ed27af2817e19f6a580eb0fee27208b1789c67f49d47dcf2a001c8",
    "gibbs_seed2/wildcatter_info_only": "6e4464e4e16528404753db391b9820fd3f63b7c995b65041bc116230287acdb5",
    "gibbs_seed2/wildcatter_deterministic_workaround": "a34cd36c2ba191c4e9d9ef5e513b79fdfa89436ceb80b7b6e680d998e1e8e46c",
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
    script = (
        "import json, test_golden; print(json.dumps("
        "[__debug__, test_golden.digests(), test_golden.solution_digests()]))"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
        capture_output=True,
        check=True,
        text=True,
    )
    debug, optimized, solutions = json.loads(out.stdout)
    assert debug is False
    assert optimized == in_process
    assert solutions == SOLUTION_GOLDEN


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


def generated_models() -> dict:
    models = {
        f"random{s}": random_model(s, n_decisions=(0, 3), allow_zeros=s % 2 == 0)
        for s in range(50)
    }
    for s in range(10):
        base = random_model(7000 + s, n_chance=(1, 5), n_decisions=(1, 3))
        models[f"point_masses{s}"] = with_point_masses(base, np.random.default_rng(s))
    models["escaped_labels"] = escaped_label_model()
    return models


def model_digests() -> dict[str, str]:
    return {
        name: hashlib.sha256(serialize_model(m)).hexdigest()
        for name, m in generated_models().items()
    }


def test_model_bytes_match_the_pinned_digests():
    assert model_digests() == MODEL_GOLDEN


#: sha256 of `serialize_solution` for exact solves of the generated models
#: (some without a decision), one-sample Gibbs solves of the bundled models,
#: whose standard errors are all undefined, a decision whose names and
#: labels need escapes, and default Gibbs solves of generated models with
#: cells of coupled stages with evidence (point masses 47 and 140,
#: `multisite_model(2, default_rng(2))` and `certificate_model(33)`)
SOLUTION_GOLDEN = {
    "exact/random0": "a3fbdb3311549d9c6f897c54a9ae37b84ad2ac60d5f119d5a23fef25280edcd5",
    "exact/random1": "cc9f643897f9a4fd24ad7c4e68f81bbe1f40ba25c6b007e7fba39808aecbed9b",
    "exact/random2": "4af8459ce9134e1d642a9d331abd8ee66798e68512d65a75d950a1c4f488a233",
    "exact/random3": "3d6a3a80376d58b0c88500aa4db6d41ddde22574fb46b909cd6f8617e3231732",
    "exact/random4": "0e46bd1c93968e18b39909ea7975bfe4acb986f9a8b38fbc22c039b1f58fecab",
    "exact/random5": "c9e2c32c2d46f6aaf9b9d5711cc26bd2de0546c1227cb6df9743920c9a00d77d",
    "exact/random6": "e0f17249459afd6534704433457e70c6952c343deb7cf2edefdc09750cd9c1a2",
    "exact/random7": "c8cb5e5d41b609062d06bafb7793f4f2d4a852ddda14dfc36b63a135987661ef",
    "exact/random8": "8b534fd46bad8bb75b5977e4e27a2f2a4eb9d363f43d36bae782a84cec5bef6e",
    "exact/random9": "bbf2db1a887276ce9e0f788ab0546da5b61e72cf2e6def97b6a78aa4f6d60ee4",
    "exact/random10": "c9b2d54c0afddb8d58065bcf739fd40f3b029ded264ba1aa566154eae1db0531",
    "exact/random11": "d25bf849c5764f6ab3b3ec468dc8710efe21f7acc296193c271b3d3b752c9ff5",
    "exact/random12": "ed0437cd6e44ea33d0c174f9a9f8566770876f35d6279f863f75453837d47704",
    "exact/random13": "25b5cec847bcf822aea89e7adb0fa1a6d7fd0f5f262a38906d11e5e7b359802e",
    "exact/random14": "f3fdfb5c23747e9800632750e00c4b2b18d3cf417859a454d608909df1dd3ef2",
    "exact/random15": "1b0239980d672ce2d7b432aa888a6f57a8e3351929cf52e090a1d3d9b04ef71e",
    "exact/random16": "7ce552405c7550106e3bca4cfdba8b51021d22d9d485d27ed83ecf1ea0d2fb57",
    "exact/random17": "07ff54a61ea651d32769681cfc64ac44ad239a1ce57f9e7dcde9aab1074ea852",
    "exact/random18": "e578d6413e2f2947212c742d711bd679144644d2c373de2e5503d1e74caded83",
    "exact/random19": "a0ea94c4f5f92fcbbcf29d7d6161657f16d9046f67f62a5c60f7cf1dcd315025",
    "exact/random20": "322f31a1c15d7a6b90dd88aa2849d9765ae6de38f4e331ae7dd975cf961dc8b7",
    "exact/random21": "e131f84273c7ee0a6444b0f9b6b9e14aab712d43ca2ebc9838c9bf74dbe3d8c3",
    "exact/random22": "83c9213de248a0d7b20d1dfa974fd5ee9fc998080d2fe1395f3eee339f0d5966",
    "exact/random23": "a8f0f97f85d18c58f96a0355976cb63695a171c19e9b455e343c7beec8339f1a",
    "exact/random24": "b28d907c2ad373baaf0b2856fdc6013bda0d1b004e0a844600187751aae321c8",
    "exact/random25": "2f09a51873ca1f0346a32763bed09561535d86e968fb4edebf406b6e81af0162",
    "exact/random26": "48318dc763cf3d5e069ec01e150085d8481551a30426e5bad74399374f469b91",
    "exact/random27": "825e0e1e8470002588ab04ffb080043b7b9ca693b98eac719103b976efdae26b",
    "exact/random28": "7ad9fbea5e54415fff090f0b53263fc8f3751a1d3d7e36298c1d80bb12444d3b",
    "exact/random29": "5abfaf5c0e0e3a51f07fa0c5996487bb3932724c5d2367ffeedb4f2ad540f365",
    "exact/random30": "dabbc7f2f32cd76f923cb464de6c63cfb250979bfe678313ed46549c94e5afd8",
    "exact/random31": "df01895e89482ba5a22df728a10d007d49dfbfcb54ac1b60b15c77d126e55db8",
    "exact/random32": "c1cba7642d5a4628ef3f3358a865519e5d947a6813d3fbecbd8e2aa9883e2d5a",
    "exact/random33": "6e1e53b072a80e0fe05350c19140a4ad01a2fd2ff88e7991b92602208e06bfe0",
    "exact/random34": "083e065e3c9d2225d7d20e1a9f7d5f57893307b50ba3076e9affe992927860f3",
    "exact/random35": "145fcad0613c29ee6ad6a117dd5c3d70d46ff258358891acf83c131ef052a994",
    "exact/random36": "86686857b8aec22b2315aa11e611f7a16ef41d30ea7728836751806920929bb7",
    "exact/random37": "8c651ab6bd03eda04aa098ca8d7444929555195cdbf67fe587a43dfdd669e76f",
    "exact/random38": "84c0403523053ec30312485598518e2dbef0da853acd90e19de9221add2784ea",
    "exact/random39": "f261cfc0c08c1652cb9e1eb877cef168e6113a6d212a383b8a519e657ee8de9c",
    "exact/random40": "cc84fa345acb8d52625a19fb114611905b0778f0211d7466ba58cba5389b8585",
    "exact/random41": "c391b4e82365f9eed0f191731c2583c4b3ff8a01c15aefc4a1bd53e363a9efc4",
    "exact/random42": "bfbe12d80ab7623fd5d116a3ec1be62bef3b80bcd7820e51891796656e30f74d",
    "exact/random43": "d5117fead218c0f9a9d1ba2cf961f8ff95b0e626cb1d77e0abd20d171b804b77",
    "exact/random44": "b842d09c4d38d1dad173a51721b06a1a1e1cb73b77633287ec1a4d6c5ed1a8c5",
    "exact/random45": "02b7da03d0c36a60d9440c3f00ec2b27c4ef01e210d9967cb82cbfc5c292e4cf",
    "exact/random46": "6c645b004665ee58c7898eec736ed4ddf7dfe1ee922fa8fd45d125bee65a3be5",
    "exact/random47": "78f0b3e4908df89db746952499d6d8bb7b107e71f433a2ad29c6ff408fd747e9",
    "exact/random48": "8a178b14f5096fb44b38ebbaef1c30447b4e5b665aaf508e4a75f051a1268de8",
    "exact/random49": "93b81b89fa5285df84f4a303de675cf4350130a79d7640e1d6df414b8c862103",
    "exact/point_masses0": "006651b1034c3aca538b2090e6a91efde8c52a76bbbaeeda0be5fa7e93c3ca44",
    "exact/point_masses1": "121af058c1e156a8167cfeb24435928974dc7fec820a3abb2590f939640a6b1c",
    "exact/point_masses2": "7c1aafc9cdba67f5e9de1800c8ca0b6821e042e57d371ab1fdcf2d1d5cfb03e5",
    "exact/point_masses3": "d04a85e70c2b7053f544654549f994ce461f8771e6c1abbfa14b1e6410538a54",
    "exact/point_masses4": "b5ee3914994889f459e16562be1411f375570609fc168d5ec53c15f3b91c9a6a",
    "exact/point_masses5": "2841a7c67fa2d2c8db0b563f7b5f00129c62ba32ce3e6726d75da44ac66db17a",
    "exact/point_masses6": "2654488a35e50371cfd895df945a786011f1b373347a5bfd7355f582dcccf25f",
    "exact/point_masses7": "fb7f86390f5164b31445b9a1d3409824fb8b30a3799196778ead5dbb90368a11",
    "exact/point_masses8": "90af28c3c292fc892f818f0490e2794b8c7057acee26e46c5a8eadd1a19d7966",
    "exact/point_masses9": "729475248ea5de70c9934eac2b4b14f9e89ea94d60a260dfb26d43b3faa16f0a",
    "exact/escaped_labels": "d00afa3bc5ba84265ea41bbcefd6328381ddbd006669ddb3923b018bbc01228d",
    "gibbs_samples1/wildcatter_irid": "a1eba520c48f5634190c1032085c3ea8ceb5db873b6bf52da205fe03262c60f0",
    "gibbs_samples1/wildcatter_irid_alt_probs": "00b4a6d0e5f095049f7d70d41f2759dd7b800d55d56a009477c1146e0f54b620",
    "gibbs_samples1/wildcatter_irid_payoff_values": "7746878d701755389f65e52187e00dd5f8479e9ff79d8731690959b2b327d088",
    "gibbs_samples1/wildcatter_info_only": "759aeaec780001cd9615c722aa21e9caec21419c516c0d60302260b9790a257e",
    "gibbs_samples1/wildcatter_deterministic_workaround": "181e1c5f010a057b95ec8853c7061537131f7373e063984ca770ea0e4f345df8",
    "exact/escaped_decision": "26c210724d60a01ebd196fc0123eda111392b92722e4fd59ee6c6c76cbbfd0f9",
    "gibbs_seed0/escaped_decision": "ca19533f875b04669214fecb453c369e8382d93da6ab0e9619d6fd0ee441834f",
    "gibbs_seed0/point_masses47": "5412443cd119cbb0662e7e54745f48c72f782789ae4a395535537d3d5233501b",
    "gibbs_seed0/point_masses140": "a6e0c3b24446910000583db76478371245d378b70e25c60e1d711543abd12ac6",
    "gibbs_seed0/multisite2": "980035fb4f33b958092f584245f44a389d5378bcc428d8e346c4697aae1f3a70",
    "gibbs_seed0/certificate33": "703b42b0444a526d06d698ea61b3d7a652a8127ca91f3e406de422b4b0948133",
}


def solution_digests() -> dict[str, str]:
    exact = SolveOptions(backend="exact")
    one_sample = SolveOptions(backend="gibbs", sampler=SamplerConfig(seed=0, samples=1))
    gibbs = SolveOptions(backend="gibbs", sampler=SamplerConfig(seed=0))
    escaped = escaped_decision_model()
    runs = {f"exact/{name}": (m, exact) for name, m in generated_models().items()}
    runs.update({f"gibbs_samples1/{name}": (load_bundled(name), one_sample) for name in BUNDLED})
    runs["exact/escaped_decision"] = (escaped, exact)
    runs["gibbs_seed0/escaped_decision"] = (escaped, gibbs)
    # models with cells of coupled stages with evidence
    for s in (47, 140):
        base = random_model(7000 + s, n_chance=(1, 5), n_decisions=(1, 3))
        model = with_point_masses(base, np.random.default_rng(s))
        runs[f"gibbs_seed0/point_masses{s}"] = (model, gibbs)
    runs["gibbs_seed0/multisite2"] = (multisite_model(2, np.random.default_rng(2)), gibbs)
    runs["gibbs_seed0/certificate33"] = (certificate_model(33), gibbs)
    return {
        key: hashlib.sha256(serialize_solution(solve(m, options))).hexdigest()
        for key, (m, options) in runs.items()
    }


def test_solution_bytes_of_generated_and_escaped_models_match_the_pinned_digests():
    assert solution_digests() == SOLUTION_GOLDEN
