"""Pinned verifier verdicts.

The sha256 of ``verify_payload(c).summary()`` for each golden certificate
and for three seeded single-coefficient mutations of each, so any change to
how the verifier reads or multiplies (payload interning, fused products)
that moves a verdict, a check count or a failure detail fails here.  The
inputs are fixed and independent of SRPB_SEED.
"""

import copy
import hashlib
import random

import pytest

from srpb import verify_payload
from test_golden import GOLDEN
from test_verifier import mutate_one_coefficient

MUTATIONS = 3


def _digest(cert) -> str:
    return hashlib.sha256(verify_payload(cert).summary().encode()).hexdigest()


def verdict_digests(build) -> list:
    cert = build().certificate
    out = [_digest(cert)]
    for k in range(MUTATIONS):
        rng = random.Random(f"verdict:{build.__name__}:{k}")
        out.append(_digest(mutate_one_coefficient(cert, rng)))
    return out


VERDICTS = {
    "extend_constant": [
        "c02340804d305d96c65bc72f9fafce516607be10a7d0cc999078022609cb066e",
        "4cdafa194d93c532a6a0be0adec3aa62e894c9f1ebb60dc68f1c94769cc1dffc",
        "4cdafa194d93c532a6a0be0adec3aa62e894c9f1ebb60dc68f1c94769cc1dffc",
        "ee5f6f7ba19c931a1d550f2b9a04b6790ab892b7364af1bfac6bbe83a417a149",
    ],
    "extend_smith": [
        "1bcf33decb4cfaa6472ebd203d916be6bec73c0735e400c69d3b07e6f40cf87c",
        "4066868fc5d5fc383622d3148a8d52be08375c32813a54023bd87f7e14d1fe57",
        "2b9a3301947d12559a6deaa0b2cae259e946d371e2ad47eb7c97b768f4c4dfdd",
        "91a6bfd2a4b2f836f93a917ab2c887a0275c1487bd289891669f018d304d1860",
    ],
    "extend_hollow_oracle": [
        "887cc5b6a751090d915f884a333e8f1e295ac5bbe22abba4bd11393106788f5d",
        "c9602f2b9edddb22446163284dae0188c39293689e33a36ca3a1467299080c0f",
        "17c76a7ec5dffc23bd155d531bc3cf608ebbb470c714c509a89caa483809d033",
        "66943d81e0fd35bd4297e45045557505cb4b2902b3be21ba4a9a5132021c008a",
    ],
    "extend_always_fail": [
        "3c663dee9267873b753e5d9c8ef9398537d80b6b72bec0a0f861d441cbb77ff8",
        "9f0c6458863d2e0e4e3db36a5e6efb65a728ea8a72970434ba96957c83f6c0e0",
        "3c663dee9267873b753e5d9c8ef9398537d80b6b72bec0a0f861d441cbb77ff8",
        "190972be7be45af789325bbce9eb5a79eb3ab5f7048aea64cb7441b0f5a24bd5",
    ],
    "extend_stable_none": [
        "d6e235590b2db526370e9e8ee316e4354d9a62f7bcb9d20400857c842514a8e9",
        "d6e235590b2db526370e9e8ee316e4354d9a62f7bcb9d20400857c842514a8e9",
        "80f92367fe7e55d676397e3e156b7e8ea2a295b32690c66cbad7f9ab9ad7643e",
        "34af12d3f1339d0f86a7a76010c90f351d092b0f845c11d670f1c97ec1180a9d",
    ],
    "extend_four_cycle": [
        "5727809e70f25a6c1a0a235d1ffebd9fd63a600cd849f821c0846840a55905e0",
        "7c78986590fb250f22aa7bfb36a1e74d4b823e0e377a3cfa88963d6e0c25e3ff",
        "c9ff6b38456924d8c0c437331d9d273434d42f9c93598c73aeef801d9d987f2e",
        "9f3bb2f612042e8a70068e01a4c0dc33f28ad20b3d0759922f92306db3c8c08a",
    ],
    "cancel_conjugate_pair": [
        "0222ed456235ae067394228890056bd1275ae1f24e54b50cf9ec9b6db41db7bd",
        "79498d204995322e111284b74bb1df040e47f839499a1f8660de1105baecf22c",
        "863ee30d74547afecdcf26a41cab525fd6506353708b46e7528d086808faf1e3",
        "b2901234ba89c83e90a078c27fbf729517902d06e39512ebd33fcbf11e9d5284",
    ],
    "cancel_hollow_stub": [
        "e01cfda2eb2ca765deeb193c3eb3686a32f15395786edbd903b4db39c781a523",
        "fe650ebd24edddecd25b38ce728db4988c584a1d50cc8f069c18323dcd10b2ed",
        "73647268b433c186df39da086052b1ea5340d438303f0296576963b649c4721c",
        "e01cfda2eb2ca765deeb193c3eb3686a32f15395786edbd903b4db39c781a523",
    ],
    "cancel_lifter_error": [
        "1ad63a6c3a2fdbfc939485116d72c5e68f26e5eb3f2314488dcec9467475c8ff",
        "5fcde42ab860d4d91c11922bdcbf751d58f6bb773bdfbe029af56e684fcbb065",
        "4f52f0375a530895998d2840887f7a60b976cb6765cade587363aeda9cc72da9",
        "fea3e82a4ecf08b19e9424ba440d8463f7e6366856c092374a8147e81ecf0a1e",
    ],
    "umrow_hollow": [
        "18be4b0f38096ba98b367b1ccf35f5b266d2977f5c951910ec555d6a5976d350",
        "a4592a7bfde7d6566620b019a774104ae35911dab8720a824dfaba1da8f626ee",
        "5d25e2860e9621eca54167606110fa50e93d7f2e5e7b39b1a18600eb5215da7b",
        "521d2702a7b434681ec5376d8932a3948c365296e52869198f146c68f1de1db2",
    ],
}


@pytest.mark.parametrize("build", list(GOLDEN), ids=lambda f: f.__name__)
def test_verdict_digests(build):
    assert verdict_digests(build) == VERDICTS[build.__name__]


def test_shared_matrix_text_mutated_once_fails_at_that_node():
    """Two nodes carry the same matrix text; only the second copy is changed."""
    cert = copy.deepcopy(next(b for b in GOLDEN if b.__name__ == "extend_hollow_oracle")()
                         .certificate)
    root = cert["root"]
    child0, child1 = root["children"]
    assert child0["module"] == child1["module"]
    assert verify_payload(cert).ok
    entries = child1["module"]["entries"]
    entries[0] = "2" if entries[0] == "1" else "1"
    rep = verify_payload(cert)
    assert not rep.ok
    bad = [e for e in rep.entries if not e.ok]
    assert all(e.node.startswith("root.child1") for e in bad), rep.summary()
    assert any(e.node == "root.child1" and e.check == "restriction" for e in bad)
    assert not any(e.node.startswith("root.child0") for e in bad)
