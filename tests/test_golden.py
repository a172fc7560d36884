"""Golden bytes: report digests and exit codes that a refactor must keep.

Each case pins the sha256 of the CLI's stdout and its exit code. A change
that alters one of these bytes is a schema change, not a refactor.
"""

import hashlib

import pytest

from convexa.cli import EXIT_OK, run

GOLDEN = [
    (
        ["verify-paper", "--format", "json"],
        "736e82d6944ab12dff4e5ba808fd2272e52136b5cb2f6e5cb4706a24b751a4cb",
    ),
    (
        ["verify-paper", "--format", "csv"],
        "ca7a04897276722b9e18792fb2ae6a8a9ec6e8c9e258f812a030b2cb17546b68",
    ),
    (
        ["constants", "--p", "1.01", "--p", "1.5", "--p", "1.9", "--p", "2",
         "--p", "3", "--p", "10", "--format", "csv"],
        "54567b1d6dfae41f2b80e961cfe87f03e545d8f73bfecd027dd69d92fe557504",
    ),
    (
        ["moments", "--class", "young", "--p", "1.5", "--format", "json"],
        "319cce0036a21c9386d7edf13534288382574b9a397f72fc629de5d8bd0e3ccf",
    ),
    (
        ["moments", "--class", "young", "--p", "2", "--format", "json"],
        "b4ca87d92ac702189e6c8b8170af7ed950a702bd783bfcb19c7014adfaf5ad92",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_bytes_pinned(argv, digest, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
