"""Reports are deterministic, so a change that keeps the program's
behaviour keeps every report byte for byte. These digests pin the text and
JSON reports of a few builtin commands, one of them failing, and of two
modules read from a file: mn:2,2 rescaled by rational weights, whose tower
runs on fractions past int64 (the big-integer path), and mn:2,2 conjugated
by a rational unitary, whose tower quotients are found by elimination and
whose model checks fail. A change that alters a report on purpose records
its new digest here and says which report changed and why."""

import hashlib

import pytest
from test_cli import rotated_bipartite
from test_metamorphic import WEIGHTS, rescaled

from quadmod import serialize
from quadmod.cli import main
from quadmod.quadmodule import build_example_MN

DIGESTS = [
    (("full", "--builtin", "mn:2,2", "--depth", "3"), 0, {
        "text": "73fe32ff6e5b0542e9424c86b38b0da78d3e4c047c8d7aa6d6cae873004085ac",
        "json": "35c323ebdfdd64e55d019ea712dee64112b25e64a72fadded980d572ea24d6cc",
    }),
    (("ktheory", "--builtin", "mn:2,6", "--depth", "2", "--seed", "7"), 0, {
        "text": "3b9505026420d0486bf362d990220fa3d1c9d18aceca86a39fb6fa26653382f3",
        "json": "42755e93cf764e64a65f945ee7ef9e39e7e410950aeab33d65691624d4273a05",
    }),
    (("full", "--builtin", "perm:4,(0 1)(2 3),(0 2)(1 3)"), 0, {
        "text": "52747a4291d5f283afa292a64a51ef0890888bac13aa31d1104727ae11d70bd6",
        "json": "d2a8bc20b05277c2608a92d41d19c9440673d742b1b93cd82a56fd0556bd2ca3",
    }),
    # sigma and tau do not commute, so the module fails its checks
    (("full", "--builtin", "perm:3,(0 1 2),(0 1)"), 1, {
        "text": "da4d43f665588eb3ed409469da195cc011fa64b6513fd9a2afd6201e5e4f0452",
        "json": "8a6813a9cf48a96a173ef7e7218bc8ba314179a98ae0c7546812808745b617e9",
    }),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, code, digests", DIGESTS, ids=[" ".join(a) for a, _, _ in DIGESTS])
def test_reports_keep_their_pinned_digests(capsys, argv, code, digests, fmt):
    assert main([*argv, "--format", fmt]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digests[fmt]


INPUT_DIGESTS = [
    ("weighted mn:2,2", lambda: rescaled(build_example_MN(2, 2), WEIGHTS), 0, {
        "text": "73fe32ff6e5b0542e9424c86b38b0da78d3e4c047c8d7aa6d6cae873004085ac",
        "json": "35c323ebdfdd64e55d019ea712dee64112b25e64a72fadded980d572ea24d6cc",
    }),
    ("rotated mn:2,2", rotated_bipartite, 1, {
        "text": "8d79e8ed4584fbaac33e41b7216c1875f5926e1e65fcb9503a7f732c5549c29d",
        "json": "5165cb2bf417e514242889e57c5779d84cf2d3537b1064ef3722c34dbe969c73",
    }),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, build, code, digests", INPUT_DIGESTS,
                         ids=[name for name, _, _, _ in INPUT_DIGESTS])
def test_input_reports_keep_their_pinned_digests(tmp_path, capsys, name, build, code, digests,
                                                 fmt):
    path = tmp_path / "module.json"
    serialize.save(build(), path)
    assert main(["full", "--input", str(path), "--depth", "3", "--format", fmt]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digests[fmt]
