"""Every campaign in tests/campaigns/ runs through the CLI and writes
pinned bytes.

A campaign file is named <experiment>.<name>.json, and the operator
files some of them load by relative path are written by
tests/campaigns/operators.py. CI runs the same files, and the README
campaign, in new processes under two string hash seeds and compares
the bytes of each pair. Here each campaign runs twice into one
directory, and the pins are checked on the replaced files. Like the
README digests (test_readme.py), the pins fix the writers' bytes and
the campaigns' numbers, so a moved digest is either a fault or a change
of numerics to record, old -> new.
"""

import hashlib
from pathlib import Path

import pytest

from campaigns.operators import write_operators
from cosparse_grip import cli

CAMPAIGN_DIR = Path(__file__).resolve().parent / "campaigns"
FILES = ("results.csv", "results.jsonl", "config_echo.json")

# campaign -> sha256 of FILES, in that order; the comment above each
# entry says what the campaign exercises
CAMPAIGNS = {
    # the README's verify-c2 instance with 600 trials over two pool
    # instances, so it crosses both edges of the 256-trial stream blocks
    # with its instances interleaved
    "verify-c2.streams": (
        "c6daf62146b6bf355e8c6ad1f6d3dd091dc75225d6da222f13d1cb48dce9b14a",
        "5243df91d8a2020a24034b5994bdd8c4bc6abf3147f9a5bd0519d8dd6e8df48b",
        "39567c965956cffb4b3b1f4b0ed3a722df1a38292f0d1fa3bd4861b92e57995c",
    ),
    # the pool scans delta_4 over C(18, 4) = 3060 supports, more than one
    # chunk, so both its lower and its upper sides go through the pruned
    # scan; its 300 trials cross the edge of the 256-trial stream blocks
    "verify-c1.pruned": (
        "3bf9bb820f5ca33746b43d66ffb559dacd75f494451acacec10d91b16fbfbdc9",
        "697784b81b64fe3715da6e61a2249cded53f4e97c3ad2169929d7d00d99d54ee",
        "bc3b9f373576eccc350bb002c64448bc6bbc38059e2ecaee4feb224e6b45a1f2",
    ),
    # m = 5 < k + 2 = 6 measurements for delta_4, so its lower bounds
    # prune nothing and every lower side is evaluated
    "verify-c1.wide": (
        "765c593e3aa236485045c661736d785027ffd00e83868aeab59228b73bfba400",
        "918683b0f2ddab5f82d44ab20906a9dc6cde98316d68ea08151daa904689c03c",
        "b2c22e47ce2edb82f01cd769714ef30677413f2447ca24c49bbd9fc792f5bd34",
    ),
    # the frame in repeated.csv has row 1 = row 0, so its delta_4 queues
    # mix unbounded and bounded rows and its rho_2 scan meets
    # rank-deficient bases
    "verify-c1.repeated": (
        "598e0ffd46b433a793897ce32c754708204361f0cf775c2c58599726bcc7cdb7",
        "ef0ffe8c2567c35611d8ecdb4d65d87fa77215106080983ddd8eb0a27ff8dfdc",
        "d1c3c85c348e350b54dded24365a140139590fc249c0d71244c1e385a47e204e",
    ),
    # rho_2 over the 9180 disjoint pairs of an 18x12 tight frame, so its
    # pairs go through the pruned pair scan
    "rho.rho": (
        "b899b137a006d489b626dc18b6b96490a7e326e92b533fcf0470c8b5c1c05bbd",
        "c6240c5c369af03f4cba25f49a648c5f9fe2aad25c334679e531805e0a0fb11d",
        "ed9a18e88bccfa14cfd5ce3d256de25cd0991396b034856ac51bdc13e424b93b",
    ),
    # rho_2 of 14x10 gaussian-random frames, whose projector U U^T differs
    # most from D D^+ in the last bits
    "rho.rho-random": (
        "ecd20551d08835f2706ae195d987fa4a22b539eefbe4413305bf360c709d7278",
        "b25504cc75a9c58dd511c014888d9ebe6efd07f28f7ad41b87b5ed559ee7cca8",
        "c8f8520de9e04a581f57c05c0f7fd53b87acb6d78a24da2d27fc40b7760e79b0",
    ),
    # delta_4 exactly over the 3060 supports of 18x12 gaussian-random
    # frames, so its pruned scans take trace bounds on the whitened cover
    # blocks of frames that are not tight
    "grip.grip-random": (
        "d1635a46ea959a39f024f0aafd88842910b1bb7e87742f5aed606526cefe3f76",
        "4bc3c8270f492ca0362bbb41955a0680ccbf154aefd04b290ecbf8dadd19484c",
        "16e4adee176ca8e70e60e6b387ad19060dc20e8751bff7b0bcef6d05b37c79e2",
    ),
    # delta_5 exactly over C(16, 5) = 4368 supports, so its bounds come
    # from 7x7 cover blocks and their inverse factors
    "grip.grip-k5": (
        "fb2bd3cff1f7442ae1fa3795bc8c10b633febcc96766b5d9f9504f1657d563ba",
        "0647a11fbff266786a209720f7efe582f105e9a90486f1e123dc4d747661fb92",
        "d8abaefeeca4dbd87e1948cea45cafdabc163e3b8d8d3bf9964120ac2c238298",
    ),
    # delta_4 exactly over C(24, 4) = 10626 supports, three times the
    # default budget, so its trace bounds run on a cover of 1086 blocks
    "grip.grip-p24": (
        "9d8bb530db9b95e6fa53753ab880b6d9ee18f7e91bfcbbf005e3ac8c4dca8575",
        "459c6a50f7c3b4c9755ce42231d09ff731815cdf668388f2cd854d87558eac4e",
        "4589b4b1939d284a9cdc12bc12aa1233a2a505b2e246fbd85841cd9eaf6cdaec",
    ),
    # over its support budget (C(16, 5) = 4368 > 1000), so each trial
    # samples 300 supports and evaluates both sides of each
    "grip.sampled": (
        "645d92e367abd0c166147dedbbe43f18fa158c858fa2eac659db79fefa6041e1",
        "6b29bd60592dba50c3f751e2db804c1afd75723c1f52e2d2e35d8753c6bb788f",
        "8d5a4794c5d0b906ee99ffaae2dba991ea04ee1dbf75ae0a449d96f4492b45c5",
    ),
    # delta_2 of Haar-orthogonal dictionaries
    "grip.orth": (
        "e96a59f4a624a173a694bb060c13e7197f2f7bb3e6666e32e74ddc72260141bf",
        "2888dd839a3d9c63066ac325658539e4cc92e886893d0f1a9929bff659cd6752",
        "8a9e2f42dafc12784d425afb037d44421e4a936f30d53a8784ace072bf5e7dae",
    ),
    # the recovery benchmark's family (seed 11, ungauged), whose PDHG
    # solves end at the polish; retaken when square zero sets began to
    # take their dual by one linear solve, which moved dual_residual alone
    # (they were 858dd7a1... and 1224cf78...)
    "solve.equality": (
        "a14ff501c5d7e28cee9df5c4abe739adae82c6d5ee419eedc50a8219cb753d51",
        "174b9aebe212153f6fa257fa13d44a2f1ebc64a6f8ca5408dba079e9876fd3c5",
        "a907a5d512135dc40550d284fcac61ff94c22bc50fb8fce213eb921a01f2c83c",
    ),
    # PDHG solves that project onto the l2 ball and are never polished
    "solve.l2-ball": (
        "5360f0b848994d33480cbff1300a1d2851f4fc2dac3cda7a10db1f22afc95fcc",
        "7f2d92e5147c92e882ae606f631cd16efa6d85f748ab1d90eecf20235e7e7464",
        "1c5d2e0be0148438e6146a9214bb4ac13478f2c2e59773b8cd721514cc9ec1f3",
    ),
    # every trial goes through the simplex, phase 2 alone from
    # _lp_start's point, purified to a vertex
    "solve.dantzig": (
        "4d1bb1e41b5e34ccf6b6b0adc0a22a5b603e212420226b0bc3d60020c16ed5e7",
        "a52e5cdf113396ae55a2ee40854dfccd925c2264a83a6ba491e59152e891c4e8",
        "066062cf95d00aa868aae44f79e72a7596f52ebdb8c0e8042d7b4663e3c3af43",
    ),
    # dantzig at lambda = 0, where every correlation slack t+- starts at
    # 0, so purification runs from a fully degenerate point
    "solve.dantzig-zero": (
        "26635beb03e12a9e1f9db9f7e4f18a9c1eef35b42b9c1021ec53c6d3b17ae166",
        "b2c4c483bdfde783770528eac0b111142e43bbae4d312e0acf8d8125762068d1",
        "74c18846d975725a501f2359052cfb55b5994d4d49ed9df589fbd0400a096b1d",
    ),
    # the Phi in repeated-phi.csv has row 5 = row 2, so its rank is 5 < m
    # and every dantzig trial starts from _lp_start's least-squares point
    "solve.repeated-phi": (
        "6b46582dee366564798edd5cdee7d2d7576ddb0130f4ac61f6d1af3e9dabb27b",
        "97f4249fce01a5725f3f0534afafec68a839bd52983440d85846f0c0e6e06b28",
        "bc721c41596f6696e262ee68c99f3f7c7ba9ea7dc36462287ef43ed7ce0382db",
    ),
    # each trial solved by both routes, so the synthesis route's PDHG
    # runs too
    "p1p2.p1p2": (
        "fbf73d0e5696a1a7a52838dd3f932bd556075ff0b4d22584c0cab388d7f73858",
        "30421c3502a5e2b99bc43205bd12e18ed154928b92f6c4dba3f78526b825052b",
        "526eb6715854f4df5caac7a6e958c552a7c3d8f2f8c2724abc43ed4c41b2c2fa",
    ),
    # m_grid ends at m = n = 10, where null(Phi) is trivial and the face
    # point is Phi^+ y itself
    "phase.phase": (
        "f9a2ea253bdc87467a6bb3ef60de39d9c0fd18b316dcd066e4c1b28041584fd3",
        "93084adfaab8669b954127076268f8b7f2a22b9fac4d64133274b00dcde3cce0",
        "36f306e45d6eb9b82d5b8e9e5ffa9a3afc8099a9258a0271be625448d7ee3ffc",
    ),
    # the default m sweep over a finite-difference D with a bernoulli Phi
    "phase.fd": (
        "243d5bfbaee89608cf7a0977d62a4efe5ba6f5bbfaf447f65eeff2f1c3d6d729",
        "bde4cf603251818473148fc598640c80dd56da80a94613e0a886504e25456c7c",
        "a447840ea415e291958507f80453bb3feb5f97f3f386085d54525f05ebbde256",
    ),
    # solves and checks Theorem 1 on a loaded matched instance, D and Phi
    # (t1-d.csv, t1-phi.csv)
    "verify-t1.t1": (
        "0a2f26e964d5e5f05f2acbe39d2a4542922406d4c7e1145713d669f9199aad79",
        "696f4cf9951dfe4f1e5eb8c77b438329e6720f98f20b0f2b31a4b0f01e81014a",
        "1ecd22050f7d5e2b1150687808cd59395a1d602e296121780fea290127c8191b",
    ),
    # t1 with rho zeroed, at the printed constants
    "verify-t1.t1-printed": (
        "4bd929e90b8bc96bc56e44f46ab44c39fc027f8c1b583675f1436c82d331dd97",
        "2a981de98c376dafcaea17b2c11ad7e2b24ef8d6aaa15e40a5442b3d5bcde37a",
        "b6611ae2c6a7b27e8c690bf4b558594cf701c7057a21dca328e75955aac344e8",
    ),
}


def test_every_campaign_file_is_pinned():
    assert sorted(path.stem for path in CAMPAIGN_DIR.glob("*.json")) == sorted(CAMPAIGNS)


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_campaign_writes_pinned_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_operators(tmp_path)
    experiment = name.split(".")[0]
    # the second run replaces the first run's files in the same directory
    for _ in range(2):
        assert cli.main([experiment, "--config", str(CAMPAIGN_DIR / f"{name}.json"), "--out", "out"]) == 0
    digests = tuple(hashlib.sha256((tmp_path / "out" / file).read_bytes()).hexdigest() for file in FILES)
    assert digests == CAMPAIGNS[name]
