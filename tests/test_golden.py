"""Golden artifacts: the byte gate for refactors.

Pins the SHA-256 of every artifact `susmine assess` writes for both demo
bundles, and a combined digest over `render_report` for the acceptance
corpus (the same 220 seeds and sizes as `test_acceptance.py`). A change
that moves any of these bytes is a behaviour change, not a refactor; if
it is intended, re-record the digests in the same change and say why.
"""

import hashlib

import pytest

from susmine import parse_annotations, parse_ocel, render_report, run_pipeline
from susmine.cli import main
from susmine.fixtures import fixture_path
from susmine.generator import generate_bundle
from susmine.report import OUTPUT_FILES

from oracles import rendered

DEMO_DIGESTS = {
    "mineral_water": {
        "report.json": "a1460da8a31875ef9b85b6beda7f5748610afa33281fd58a9e8cc92ee8cc9f77",
        "inventory.csv": "6a29c74cb0eaedce09f6a5b8bf04f08a20c8409703904d14a705b91766150ff7",
        "impacts.csv": "fb406eed449b9272805b78cac8675f84f87e0d9f84b46a8fb7b27e00090d3cc5",
        "impacts_scoped.csv": "f014a0f6beb5aa23e4345d7afcfbe338fea6454ea5040856529001b842c83e49",
        "ledger.csv": "2acaedc20e4b00201f97da2f287dc328827a57ebb8923fb3521900a1543cce2d",
        "dfg.dot": "61dc8e0a1e5f149de82bd41d94a437ff787c4481f00de22f8b10e4d88aafb2e3",
    },
    "machine_allocation": {
        "report.json": "2ca5a45b3737d92381a487a97e9ac1417a041df4ea2e263ee371cc840df22e62",
        "inventory.csv": "48a2b485602d699b99f2ad37077efcec194cbfa84dd44e7fb25bd3d6f9aa095a",
        "impacts.csv": "c94e9fa66327fd0945a57607796021c630a3f5eefdc9e60ec91bdee43c8791eb",
        "impacts_scoped.csv": "f8c3b6f2ff5629aca670668987e9ae9416ec6613d8b1b49785273ad63e809a31",
        "ledger.csv": "fa057c5772c5f9386f740ac73ad7ee485037c91f5517cd452f173f1e5d18c181",
        "dfg.dot": "179adcc3dab3cb74f7070a4dfb67fd420573d1f4e23afb8b230695d00f847bba",
    },
}

CORPUS_SEEDS = 220

#: SHA-256 over the concatenated hex digests of the corpus reports, in seed order.
CORPUS_DIGEST = "15db3f72b33306702d54678ee88cbfaa675dc362d4e9ea503b38786074158281"

#: First 8 hex digits of each corpus report's SHA-256, in seed order; used
#: only to name the seeds that moved when CORPUS_DIGEST disagrees.
CORPUS_PREFIXES = """
    79ffc0c8 8f7c2f5e 41ef9c0b c47568d0 5e89e428 56fc9d95 4f787e61 d55e5ede
    241a0a17 091f32e7 9dda0cec 57f4e672 4bc961f8 5d26eeea 748cd834 a4266097
    0235e27c f9f07ba7 005edbb5 8a3036f3 dd0f4fd1 ed4bb2c5 e8531c7d bdcd28a6
    81e6f02d 8696c0c5 bbf121ac 0de9fe31 1e83963c 2e5b6735 e00d9ee5 5d86dd52
    1eb4043d 7e87922a 9f261257 37539d2a 88de2dd0 d54763ab 8bc1fd30 0c0da324
    cccd6798 45c8f105 62577ed0 ceb48c4b 3aac86bc 8c2922c8 2ece5923 aac40190
    0f12dc63 87bd0914 b157a6f9 65d9ad2b bad7c69c 9c09d5c8 feb42ea9 5a3dcf1e
    314c504e 6bbdad1e 618774f9 1725d4a0 3af572be da6ec670 3d497897 331a3af1
    652a7e26 fd0b199f c625772a 746eb2c4 75fcc2a2 476e96f8 db447c4a fd363500
    3eaa1b91 bffa57f2 4bc6d3a8 e4bbb67a 096e8e8a 5dab73f9 3a0a506a 317437bb
    a4faebd5 3d4fc4c5 1d1aa097 0700ca0a 2316baec 97cb9edb 0e3f601a 5f134a2b
    05d76348 0324d0e8 2fb849b5 83b17210 bc05c665 5b7c446c bc543784 4805ba44
    912c19d4 f7a96c71 e5995f97 9c82d62a 2d985cf5 f26c1764 53d1aa54 d2aed198
    4ae027f7 25992cca 50f1d875 71bb095e 17c3cce4 8fb75167 b256699a c4480515
    a1c562e7 3273f6a7 bca16ee7 996d7a74 4fdd8d5f 175d4143 0786f676 a4cbba0e
    3f1a0863 5b30f168 d8a01f5b 9c21ea77 9ec49d0e 42a02365 5df5a1cd 4e676ae3
    dc03f9f3 fe16666e 653d3a62 ba0ed24a 8c63802a eb234c68 f3ff5172 52a3e610
    3de7e54d 3e07f577 e33c8f7f a0a10078 634b102d 8e5bd35f e7f155da a1bbe53d
    20446b5d 2de7ccf8 e7886727 a986211b c8c29a26 1a27c07d 393e1dee 2e1b9bc2
    f2c436df 9aadae50 cdf3fd41 a1906c8e 66272432 f18415da 3f2b6418 345a059a
    26a5859f 4d69f3da cfde27bf 046966e5 4014f518 c98e5a6c 67f83267 41ea5358
    7ab97b19 7f2adf47 824c2043 3db35688 afdac615 64d76fa6 cd1356ae b5c0201f
    71deaa39 f380c71e d704fa30 eb1936a3 7880cadb 11bb1fc6 606a4b78 aa419f72
    e5fa4d23 9a240629 651b06f9 dc9bc038 ebf09f3f 49cd2a90 6f19cabe 2880d891
    66d69203 a292b18f 51c2d147 05c54c10 bfe4ade0 39c6492d 43c0da3d f789afe5
    36eece01 a914f2e5 ad4d3d62 39701f47 cb335c11 35aeb9c2 20122c21 c2745d6c
    c5239285 d26e8c6a bf1dfe10 0a81f49c ac0e3ebd 077351e3 762d5eb7 6f1ed33e
    e494c2a8 0776e814 4a508cc1 c2c7b4a1
""".split()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("bundle", sorted(DEMO_DIGESTS))
def test_demo_artifacts_match_golden(bundle, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "assess",
        "--log", str(fixture_path("ocel/mineral_water.json")),
        "--annotations", str(fixture_path(f"annotations/{bundle}.json")),
        "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    assert set(DEMO_DIGESTS[bundle]) == set(OUTPUT_FILES)
    moved = [
        name for name in OUTPUT_FILES
        if _sha256((out / name).read_bytes()) != DEMO_DIGESTS[bundle][name]
    ]
    assert not moved, f"{bundle}: artifact bytes moved: {moved}"


def test_corpus_reports_match_golden():
    assert len(CORPUS_PREFIXES) == CORPUS_SEEDS
    digests = []
    for seed in range(CORPUS_SEEDS):
        gb = generate_bundle(seed, 10 + (seed * 7) % 191)
        result = run_pipeline(parse_ocel(gb.log_json), parse_annotations(gb.annotations_json))
        digests.append(_sha256(rendered(render_report, result).encode("utf-8")))
    combined = _sha256("".join(digests).encode("ascii"))
    if combined != CORPUS_DIGEST:
        moved = [seed for seed, d in enumerate(digests) if d[:8] != CORPUS_PREFIXES[seed]]
        pytest.fail(f"corpus report bytes moved; seeds {moved or 'unknown (prefixes agree)'}")
