"""Pinned ``CompileOptions.fingerprint()`` digests over the option grid.

Every registered compiler, on both ISAs, at the logical level and on a
2x3 grid, at every optimisation level, with the default ``lookahead``.
The digests were recorded before the option set last shrank; a drift
here means cache entries written earlier are silently never found again.
"""

from __future__ import annotations

import pytest

from repro.pipeline.options import OPTIMIZATION_LEVELS, CompileOptions
from repro.pipeline.registry import compiler_names

PINNED_FINGERPRINTS = {
    "2qan-cnot-all-O0": "5b1d9c7a504183a090d6b414d95497ba4007a73854a4260e60c66705ceaee615",
    "2qan-cnot-all-O1": "742972d7bc1340a9db0ade57318858cfab3f62b2a902801af7d12fde69d64bf9",
    "2qan-cnot-all-O2": "3555e616b90e811710588265e61f4b276e41d02a287f0f86dcb12bbe7542bf30",
    "2qan-cnot-all-O3": "ec5b7afc4853ba890575b0b57ca898809e0cea5bdc922a7b011033e26f94de85",
    "2qan-cnot-grid-2x3-O0": "b0992076c7f4044d1994c9be6e7a8ea979675ab044c561968ebc7308e6a8f794",
    "2qan-cnot-grid-2x3-O1": "7d53abd9839da32b01208385434c836723125c78466f37370b698264dd07fd5d",
    "2qan-cnot-grid-2x3-O2": "1c5a399d7878063ebe5ff63b5687c65ad6da2a98a3dafe7a0da54ee52e886aec",
    "2qan-cnot-grid-2x3-O3": "1136cebdc3321c462b4d517bb0efa40c0efbb239d37081d4fff69c1d3e8e5a6f",
    "2qan-su4-all-O0": "7717091d18529df8f34f8782f490c958352c646f103334f9be2786a13e48e0b3",
    "2qan-su4-all-O1": "acc95e49edc721605bbd46ad9089a2784ad81079d59703f7e7e4c4d7480d8271",
    "2qan-su4-all-O2": "801242a8299b49fae99603debb9c69bed42d82eb366ecdab8aee2fcdd9d9eb62",
    "2qan-su4-all-O3": "e9dd18b77260e24c2a06c5fdf5e3a079095416531b44356d8d9db9a0ec1164c2",
    "2qan-su4-grid-2x3-O0": "9b5cfaa40977612bdeda8918358e994016df98b8bb7683719986b347d86b07c5",
    "2qan-su4-grid-2x3-O1": "0565a0d60940a323006612d4a1594f009f93115856a01cd2e2618656a48a2b8b",
    "2qan-su4-grid-2x3-O2": "e00bad9c83824dcaf6f28abab05972d4f70008ca8c14da73385554a7586121d4",
    "2qan-su4-grid-2x3-O3": "d47036adc1a43bd40d4c3a4dac51398da28b8516e9f137dc49d271f070a75c4b",
    "naive-cnot-all-O0": "74a0bb40a888511e88696cfe0571159b52cb14c94426a008c85131891a343c59",
    "naive-cnot-all-O1": "037a3d6bca22bfad199782752a89e931187de1b5af1029bff73193476c6a1fa4",
    "naive-cnot-all-O2": "5198a97418b8857f3c38376c95896a89db278a06cb0e0f92a7b48d0c519222e7",
    "naive-cnot-all-O3": "3b6a901803fb4d0ff4f532b734b6d7bbcb4a009b59deedcf4872c69d330da5a6",
    "naive-cnot-grid-2x3-O0": "fbc432aaa84874aa0b9d7e8f72845618c43aa4511e5d45d375914f2cccc16c0f",
    "naive-cnot-grid-2x3-O1": "2d48696dec08080c4c5f038b3f2a16a1fcbba9c74c52be3f9fd8b1eddc460d21",
    "naive-cnot-grid-2x3-O2": "e302e1a304113161379961396305b55a24b5f953b777ba8a6afaa121259d55f5",
    "naive-cnot-grid-2x3-O3": "31403d9ba37f04dcc8cb617847a19622593626e1eef165487de3de965f2b57f9",
    "naive-su4-all-O0": "e4ed66a6b6fe6fc1d100b643867112ab7a32733bbd2664182cda436f10a05b6b",
    "naive-su4-all-O1": "719f92707b0a3b1894ef3263fef2d474afb7d9ab6bea91b17dc2e7f862d51288",
    "naive-su4-all-O2": "7f618662eed0ce08097bfe7e6d5c2996c5d8c6735c38e46da7e011b74f404291",
    "naive-su4-all-O3": "08bcdd7eb3ff84764fe0de3d3da50e13db41d10daad98e35840da8b2e8b0d37b",
    "naive-su4-grid-2x3-O0": "b014afdf5ddb1beddb4ddc3d1491b45758b5dd27114fef6a6223265b7a260243",
    "naive-su4-grid-2x3-O1": "c01aa36dac2752e601191993472bb8e75ce1eeb15a2e2484fbcc1704c391b92c",
    "naive-su4-grid-2x3-O2": "eb67e0a999bfc010183f5e272f47177c6d696ef5939936668a1ebd4a385bf20e",
    "naive-su4-grid-2x3-O3": "4179f8dafe47e75595b9b5acf27d39a731075a1e873460431919c580dc3ea39d",
    "paulihedral-cnot-all-O0": "579b023f84e40022f688290ca14a7518ca65c5b760162bfdf6dc6a472f130ebf",
    "paulihedral-cnot-all-O1": "7c97c6e647a670128bba17022ce5834ed619b69233b188ec8df5a9345bd0718b",
    "paulihedral-cnot-all-O2": "d0ee808bb7af5fe8b79761b8ac153c6f3ab9e1febbae6ac49b3f7314e7a3f139",
    "paulihedral-cnot-all-O3": "c0ae83c9dffb983724ee356a0a0d4fc790ff61a598fb9d3f5fd8b52e90e1dc03",
    "paulihedral-cnot-grid-2x3-O0": "a58dfccb0dbcff88053591ba9ca780b2bc9c34607ed1c52588908fb087d3e609",
    "paulihedral-cnot-grid-2x3-O1": "4ebbce25278a6d2e051ef06541b7a66975268ff003fab452287fe8e720346635",
    "paulihedral-cnot-grid-2x3-O2": "943466177539780ed940c06badf56939d1f816313550be50ab397a4db6d3b57d",
    "paulihedral-cnot-grid-2x3-O3": "0da1fa081cb73c2a55e5f7c89352cdd96760316b4d76585927a64974acf3f6ab",
    "paulihedral-su4-all-O0": "cf55add9fd5ec68f551ed5141b1a4633c0ad22cac814262327fe3e5ddbd3b542",
    "paulihedral-su4-all-O1": "d5fec93cd59afabe43f84193fd5e0579e8f0d80d5503c99ed3e7761199796945",
    "paulihedral-su4-all-O2": "0b1f52b32102de26102f6b8aafcb0ce883cd886517f2214213b873e2260641e6",
    "paulihedral-su4-all-O3": "093cdc74e1d43bb19ecdb97d009efad6f8eb4261da599e248ad29e2906945a46",
    "paulihedral-su4-grid-2x3-O0": "599f81437cca2b90b1ab9a7ad8d052cd26fce8f0c6512f1c501f0de28775343e",
    "paulihedral-su4-grid-2x3-O1": "760554d5f471a01a3238d4fbf7d2b036f7593c20de07935721912a6fa92bb09f",
    "paulihedral-su4-grid-2x3-O2": "6373f269d6d59a3f0cd0951e86a760c4229378cd84b88554806fd51e9cc775d1",
    "paulihedral-su4-grid-2x3-O3": "e0245b9c46ea0e0a27c019a77bcf7bb85eb35d094de5f6a02449bb96df19a06f",
    "phoenix-cnot-all-O0": "c9b3ca7c1be1f64c10e199349d99e2f01298ef6ab07fd3904fa107684eb99ccb",
    "phoenix-cnot-all-O1": "65d180fa90af0cdbb7f825b7a4409f67a16b051ed04ea6b34d338f8927b357bd",
    "phoenix-cnot-all-O2": "5a2b8242075da6c2373eb5f239ed8819e26a619f0b3bbd2dba19e2c411941a43",
    "phoenix-cnot-all-O3": "ad654ee4ad61d14530dd58267efd7b217631b108000c27be43191b34d25e9e60",
    "phoenix-cnot-grid-2x3-O0": "75382f1ba60cfa8391cfaa6c84d0d8051681974c60bf2ba296c91c6bda7585b2",
    "phoenix-cnot-grid-2x3-O1": "780fead043c1e83bacff4a6ae184a27d8e6cab93fcbd195eb1979f9f9563b0c4",
    "phoenix-cnot-grid-2x3-O2": "7aafba04e4db25057d625348004005f4b2e714b2642c96c330778ff0ead936c6",
    "phoenix-cnot-grid-2x3-O3": "b69b09d6eb5fabf6e44a81ac6739dad184cf0cd3ccbf056017774f75749f39de",
    "phoenix-su4-all-O0": "5cc6aa78c95223a8fb4afffcdee68107bb88238c9c6848a68646eef6864d69c9",
    "phoenix-su4-all-O1": "f5695268a1762fadb65ee000c2825193f331bfa6bfbe896c1a2bfa98d5f5c0d6",
    "phoenix-su4-all-O2": "e53a819e6e64e9bc8da12da10a042cfb949b8c3d33ebcac4e02aeda4764108d7",
    "phoenix-su4-all-O3": "5d43707bca92d1b11e11adb5a4ad1ce8555c90abb17aaeec2a092cf6664044a7",
    "phoenix-su4-grid-2x3-O0": "4aa4872b9d3ae507450017843646421ba97a238cf99297f7a4dab9b2f9949ebc",
    "phoenix-su4-grid-2x3-O1": "7a65c37bea34c0fa8977ff921bcb7997d6fa05f5509d4618d1fce2a594f74fc9",
    "phoenix-su4-grid-2x3-O2": "01dbbfb8064976eea097ae8c43c17732be52492a61de7ad64a40cd25e97607e3",
    "phoenix-su4-grid-2x3-O3": "ba98890c7af9fb635890bb5a3a029c778f09cb85185d53d052b18e13d12b76ae",
    "tetris-cnot-all-O0": "a215c4bbfade55de4d0fc299d2c6536ebb8c59d7deea650adbe1b17167798a17",
    "tetris-cnot-all-O1": "019ab8754d69b810932e3b52e22c7f4a00b5759a23156b9d3d372fcc59b2169a",
    "tetris-cnot-all-O2": "1b6be1ff658facf4a8452530360aef87865b227753c8c19b136ecd5d12c468d5",
    "tetris-cnot-all-O3": "7ceb320a453be107df3d786c5438bf16b8dffd5d3d32a863518490e4dbdd9723",
    "tetris-cnot-grid-2x3-O0": "f09378126abedf52fdbaa1f68a1918689f74d6d013cfac7a724ce3928c2d403a",
    "tetris-cnot-grid-2x3-O1": "147c82123fd2f8fc05d3c8ef2f77592916c70bc47d4799ca4deb55597cf71fae",
    "tetris-cnot-grid-2x3-O2": "58c56a970dd6079dbd2e50543cf01eb8fdc8d56e2823bf68ad64147b9a576844",
    "tetris-cnot-grid-2x3-O3": "b27226bee0793308f074c3af329e020344b8c83bfc7e69b5b741c15d83cea78d",
    "tetris-su4-all-O0": "dfcfbcda9d424bbee20bc2ce4d7d08e0ba22e351ba758fc07f6fcb57af760904",
    "tetris-su4-all-O1": "3c2ba2d356f86114869466c0650d4096af87513a8903adb143b0cff13e397210",
    "tetris-su4-all-O2": "dc9d3dc6e8a23812d66eec904bcea03cd338371db678da4eb5899ecf2ee0816d",
    "tetris-su4-all-O3": "305ff7ea480a8da6d61be8f1a5ff8a662b4ff8502c3fe1192e1329fcc56f2835",
    "tetris-su4-grid-2x3-O0": "bb40c082bab1c934ade996852141d1db0a970640bd36c38b17ffc13d9fd4317a",
    "tetris-su4-grid-2x3-O1": "a0a51f52bc807a00e95da96a6df1275130781882a69ac9fd084ce80bd9c7c66a",
    "tetris-su4-grid-2x3-O2": "de5a829678925723f5d9b5faf67e695b979ede117452c63a2ea7441b465216ea",
    "tetris-su4-grid-2x3-O3": "aff0c7a3908b290b60e841b3597ccf52b294399050cc87ee137c418c9bfe5dc6",
    "tket-cnot-all-O0": "10ca07d629b012401df7bd8ed2bfeb4658dcc94481cb0467a6bb202eb9390267",
    "tket-cnot-all-O1": "f61d159443bc282b1a8e79fe461ab0d621daf93471a535542bad5e50146affd8",
    "tket-cnot-all-O2": "3567aeaac4223fcbc64c62d46a3fe4c36aef5094ac397f12437f5a7a0073e85c",
    "tket-cnot-all-O3": "b720dc93eb90e29f35d5d45eb33d5097da4e71b0a1fd7b38269d7a0d3db0909c",
    "tket-cnot-grid-2x3-O0": "8d41d36edbfb67a3de48fa4a89c142c3ae44c0c66cef7bf4286c9d8c10c6d633",
    "tket-cnot-grid-2x3-O1": "236cbb2bc174d64ce4cf152c6c0a9146f58aaa3b9ed1ca76f567bd0abaa6e693",
    "tket-cnot-grid-2x3-O2": "a94b0475aaabef2b415149058667b0c0293a6a14fb2687bb9a069f383c215fe3",
    "tket-cnot-grid-2x3-O3": "d28d2eb695db3902049b3ee6c36cf7644717a05a9dd70b59abb8b81cc06f5e05",
    "tket-su4-all-O0": "dd3c3a7b3db12bf29611251ca664a58bbb1cccffda2b8336a44e06369491544b",
    "tket-su4-all-O1": "4c07cf20fb2aac23fa655058d9254d6b8458d062e012c728f37112ad883bb5b9",
    "tket-su4-all-O2": "415215d47818892476b85225e6991e85261ef79f3a09e4c7867d36ad7c2b3c3e",
    "tket-su4-all-O3": "3dbb770d7c87227a4fa2d474bef2e9c5e02a58cbeb4d9b030facc942e5bc080e",
    "tket-su4-grid-2x3-O0": "1d0470a91292031b78b87c2ec98fa68cf5dd6826254b7467790d70b11f9e8c96",
    "tket-su4-grid-2x3-O1": "68ace5ff961e9a723f0221785f2144c33a0727ba54fa2139bb23a6691bbce135",
    "tket-su4-grid-2x3-O2": "3cc61495dfbbe5bfa36f34dda1686d5312165d01c313d0c37e6ec4f08301ad4d",
    "tket-su4-grid-2x3-O3": "1220a08ffe70e34b14c616eda71505145cd684fa95f7e3dc9fa6c8569f1037f2",
}


def _cases():
    for compiler in compiler_names():
        for isa in ("cnot", "su4"):
            for topology in (None, "grid-2x3"):
                for level in OPTIMIZATION_LEVELS:
                    yield compiler, isa, topology, level


def test_the_pins_cover_the_whole_grid():
    assert len(PINNED_FINGERPRINTS) == len(list(_cases()))


@pytest.mark.parametrize("compiler,isa,topology,level", list(_cases()))
def test_fingerprint_matches_the_pin(compiler, isa, topology, level):
    options = CompileOptions(
        compiler=compiler, isa=isa, topology=topology, optimization_level=level
    )
    key = f"{compiler}-{isa}-{topology or 'all'}-O{level}"
    assert options.fingerprint() == PINNED_FINGERPRINTS[key]
