"""Golden bytes: report digests, help texts and exit codes that a refactor
must keep.

Each case pins the sha256 of the CLI's stdout and its exit code. A change
that alters one of these bytes is a schema change, not a refactor. The
verify-paper JSON digest is the benchmark's own (`VERIFY_PAPER_SHA256` in
perfbench/workloads.py), read from there so that it is pinned once.
"""

import hashlib
import importlib.util
import pathlib

import pytest

from convexa.cli import EXIT_OK, EXIT_VIOLATION, run

_WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _verify_paper_digest() -> str:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.VERIFY_PAPER_SHA256


GOLDEN = [
    (["verify-paper", "--format", "json"], _verify_paper_digest()),
    (
        ["verify-paper", "--format", "csv"],
        "ca7a04897276722b9e18792fb2ae6a8a9ec6e8c9e258f812a030b2cb17546b68",
    ),
    # one "[PASS] name: metric=… relation threshold=…" line per check record
    (
        ["verify-paper", "--format", "text"],
        "5c1aa2bfcf90a6998980c830ca52e20fa5b5c9ac288826d18fe38969ea82845e",
    ),
    (
        ["constants", "--p", "1.01", "--p", "1.5", "--p", "1.9", "--p", "2",
         "--p", "3", "--p", "10", "--format", "csv"],
        "54567b1d6dfae41f2b80e961cfe87f03e545d8f73bfecd027dd69d92fe557504",
    ),
    # JSON shows the note column and Nesbitt's "p": null, which CSV omits
    (
        ["constants", "--format", "json"],
        "52e47b08bb907d994d3a9503f707930d44a1c6d8cfe5d856aee9070cf0729bb2",
    ),
    # 26 rows: young_m02 diverges at p >= 2 and has no row
    (
        ["constants", "--p", "1.01", "--p", "2", "--p", "10", "--format", "json"],
        "1632cec7c669694ac506a569b2d4eb9523f344865ff20086231f8519e84268e4",
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

# the sandwich and product theorems of each class, for f = x^2 (and
# g = exp(x)) on [0, 1]
_CLASSES = {
    "classical": ["--class", "classical"],
    "young": ["--class", "young", "--p", "1.5"],
    "nesbitt": ["--class", "nesbitt"],
}
_THEOREM_DIGESTS = {
    ("sandwich", "classical"):
        "ceea78d29a3c448d20066e15bd19cd0a83d9462054bd416fea585683e566aabe",
    ("sandwich", "young"):
        "efe4483c671b796e33668a3f7030df90a285000ca7f78a2c7e1a1241d3247ff4",
    ("sandwich", "nesbitt"):
        "63cc454cb5c0019c634ceadebf2d45207483394979dacf8883bc15f670d7bedc",
    ("product", "classical"):
        "909c5e52ffe20aaae759268ff9f5a4135c78b67587d28742d487271598af29ff",
    ("product", "young"):
        "83be572f9d72cf72913c180f15e33c1b3bc484248f46ac1adeb78a78157075d6",
    ("product", "nesbitt"):
        "cea9def6b52a1fc1b162d95d840bb78fa6df3ed0cadcddd985208ef5a55a9d1d",
}
GOLDEN += [
    (
        [command, "--f", "x^2"] + (["--g", "exp(x)"] if command == "product" else [])
        + _CLASSES[cls] + ["--a", "0", "--b", "1", "--format", "json"],
        digest,
    )
    for (command, cls), digest in _THEOREM_DIGESTS.items()
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_bytes_pinned(argv, digest, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# membership scans: the report bytes and the exit code of `check`, at the
# default 41x41x99 grid and at 161x161x199, where a tile is one x row of y
# slices; for f = x, f's values are a copy of the points
_GRID = ["--nx", "161", "--ny", "161", "--nt", "199"]
CHECK_GOLDEN = [
    (
        ["--f", "x^2", "--class", "young", "--p", "1.5", "--a", "0", "--b", "1"] + _GRID,
        EXIT_OK,
        "8a87c4079e1992fe67ffdceaaadfc4226a197bb580460292e9f1e6a747f09dab",
    ),
    (
        ["--f=-1-x^2", "--class", "nesbitt", "--a", "-1", "--b", "1.5"] + _GRID,
        EXIT_VIOLATION,
        "0075b71c32cc987e49536f9aa41b3ce120cfa56f149d4a232fe5f0a2dd177c80",
    ),
    (
        ["--f=-1-x^2", "--class", "young", "--p", "2", "--a", "0", "--b", "1"],
        EXIT_VIOLATION,
        "f1943dab775ffa8b2aa4e97fc9146784f8a3f31d0057c50729113f3e11787459",
    ),
    (
        ["--f", "x", "--class", "nesbitt", "--a", "0", "--b", "1"] + _GRID,
        EXIT_OK,
        "d9f2a827dee8625a0c6233c10751cd01ad08bf998e54032163ee526c0ec11ae7",
    ),
]
# README's non-convex function that the default grid reads as a Young
# member ("What the classes contain"): the default t grid misses its
# violation (max_gap 0), and a t grid at 0.999 finds it, with a certificate
# at x = 1, y = 1.115, t = 0.999
_YOUNG_BLIND_SPOT = ["--f", "2.69 + 0.305*sin(1.13*x + 1.84) - 0.2*x",
                     "--a", "1", "--b", "3", "--class", "young", "--p", "2"]
CHECK_GOLDEN += [
    (
        _YOUNG_BLIND_SPOT,
        EXIT_OK,
        "98aa6f2a2fa2e773b7a941bda960db2d07959e7d0173026c6765b8ed0c80d3f3",
    ),
    (
        _YOUNG_BLIND_SPOT + ["--nx", "401", "--ny", "401", "--nt", "2", "--t-min", "0.999"],
        EXIT_VIOLATION,
        "6cefa265ca9e846487212f6d35cc26ed947c99e9955eedc7eef81afc4db5e9b5",
    ),
]


@pytest.mark.parametrize(
    "argv,code,digest", CHECK_GOLDEN, ids=[" ".join(a) for a, _, _ in CHECK_GOLDEN]
)
def test_check_report_bytes_pinned(argv, code, digest, capsys):
    assert run(["check"] + argv + ["--format", "json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of each --help text at 80 columns (argparse wraps help to the
# terminal width, read from COLUMNS); the layout is argparse's, so these pin
# the options, their order, choices, defaults and help strings as rendered
# by the Python 3.11 standard library
HELP_DIGESTS = {
    "": "06f16dcd30fc0b9894ecc47ab3a0781ea9da1089483809561c6ce18e6256fa38",
    "check": "795a991ea7034b14b2247584fe7958beef4aa93fa4b23ddf2d2089c68f62dbe9",
    "sandwich": "a5dadb3aa74f2988aa08ccd96246514b010d07f8987aaaed4a2a01deaac657f7",
    "product": "faeb971a1558010d778a5c28ba2cbf81f803875f6399bdfc1d5136a39a333c4f",
    "constants": "f5d45d8bc247d0bf1d39a8b23212e229ab2cc5e8beb09ae4a79aabd0ed492cb7",
    "moments": "b64cbea4959e9686bda012cf5cee93dc796771c277482ee0d2cc54068a3d77f0",
    "verify-paper": "b0ff0aa9935c4aba01fb6c1a43e6fe518025b1c60dc89cb2c9e2e21fe7ce98ff",
}


@pytest.mark.parametrize("command", list(HELP_DIGESTS), ids=lambda c: c or "convexa")
def test_help_text_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code = run(([command] if command else []) + ["--help"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HELP_DIGESTS[command]
