"""Byte-level pins of the topology tables and of sampled functions.

The digests were recorded from the per-vertex object implementation of the
topology (a `Vertex` record and a key dict per vertex) before it was replaced
by the array build, so they hold the vertex order, the CSV formatting and the
sampled values to that reference bit for bit.
"""
import hashlib

import numpy as np
import pytest

from sgszego import cli
from sgszego import topology as top
from sgszego.functions import ConstantFunction, HarmonicFunction, SimpleCellFunction

# sha256 of each CSV after its "# config_hash=" line
TOPOLOGY_DIGESTS = {
    0: ("c238ed9c3a19610dd118ef3e60e1358b88fd4b8872a07b8134d769db9155ac81",
        "18f5d25d79d2023694f9f704bb7408565e67c2ba0394c60775655658f3503fe0"),
    1: ("3801a1150acd51da175e7325a5a74b9576967eb0a9df049210d84286a8a490b3",
        "ffd1aefcd09be30eb572e06e12e5c497a0fa63eac84d6eaae542796b7bf9facb"),
    2: ("38d5da9c99dfe563f235811dd8f968fa209abc694b576bb3d557e457ba059b74",
        "47d63724d2b8fd703b6cfb14e3255814f06c8a711b895963e2f795e281d749e0"),
    3: ("ddaa8de759330d92e4a660082b3d9205036c434977a5122f57ebed6a301058c3",
        "1b329b3287088eb2f98107109c11cc8c8986f305022040c31cfc340fdd0fc4a6"),
    4: ("91ffb57ef55c19d624fdbd42ffc145f90b53a0040073be31a03d22ecaa6c66ab",
        "5afcb2ba5f26b0024804e449586c060988ae7dbdfdc56aef86c1dc54dc880a6b"),
    5: ("17f43fd88f7ec113e0de79ef248529c29dd4bae327058b75d12820a0c44dc7cf",
        "ee76b2436ea831be684a4d80eb2cbba5dfb60c054fa9344c8aaeb09ab989ad23"),
}

# sha256 of CLI CSV bodies after their "# config_hash=" line, recorded while
# each library module still wrote its own CSV, before every table went
# through cli.export_csv; they hold the float formatting to repr bit for bit.
# The spectrum --m 9 and 12 digests were recorded from the enumeration of one
# descriptor per eigenvalue, each walking its gamma sequence in Python,
# before the birth-group tables replaced it
CLI_DIGESTS = {
    ("spectrum", "--m", "5"):
        ("spectrum.csv", "7d8408ef92f55529a2997f4a8f33333acbb876798d1d65d54a47634d15868bdf"),
    ("spectrum", "--m", "9"):
        ("spectrum.csv", "a1d0ba85c05f8deb2972a322fbf83366dcc8ec0bc2f28f563020517f08c71d16"),
    ("spectrum", "--m", "12"):
        ("spectrum.csv", "040a0f0b08f7c673786bfbcf8f90a629605d184e01427d6d940a72bc7b627aeb"),
    ("resistance", "--m", "4", "--triples", "1000"):
        ("resistance.csv", "99b8f894edb3024642dd1abd2b10e31d066d78285e158d0a64ca00687e29aa2a"),
}

# sha256 of the float64 bytes of f.sample(level_topology(6))
SAMPLE_DIGESTS = {
    "harmonic:1,1.5,2": "98f9a033be897a6a8b4b54f7037f44933e6068b955684a801a14c66c474f9b29",
    "simple:1,2,3": "3d652445f3adfaa37845e10c1c01db5ffaf16489bee2223c57bd32f648b74376",
    "simple:1..9": "d7fb3d077723bb0a947da49f25381b33593837fab72631b98c4fda191f76a469",
    "constant:2.5": "4d8f0bb05f3dca5313775373385d6a98e96c6387a17209004771c1c8f4df3e0b",
}

SAMPLED = {
    "harmonic:1,1.5,2": HarmonicFunction([1.0, 1.5, 2.0]),
    "simple:1,2,3": SimpleCellFunction([1.0, 2.0, 3.0]),
    "simple:1..9": SimpleCellFunction(np.arange(1.0, 10.0)),
    "constant:2.5": ConstantFunction(2.5),
}


def _body_digest(path):
    text = path.read_bytes()
    head, _, body = text.partition(b"\n")
    assert head.startswith(b"# config_hash=")
    return hashlib.sha256(body).hexdigest()


@pytest.mark.parametrize("m", sorted(TOPOLOGY_DIGESTS))
def test_topology_csv_bodies_pinned(m, tmp_path):
    assert cli.main(["topology", "--m", str(m), "--out", str(tmp_path)]) == 0
    got = (_body_digest(tmp_path / "vertices.csv"), _body_digest(tmp_path / "cells.csv"))
    assert got == TOPOLOGY_DIGESTS[m]


@pytest.mark.parametrize("chunk", [1, 7, 40])
def test_topology_csv_bodies_pinned_across_export_chunks(chunk, tmp_path, monkeypatch):
    # the exports format a fixed number of rows at a time; the level-5 tables
    # (366 vertices, 243 cells) then span many chunks and a partial last one
    monkeypatch.setattr(cli, "EXPORT_CHUNK", chunk)
    assert cli.main(["topology", "--m", "5", "--out", str(tmp_path)]) == 0
    got = (_body_digest(tmp_path / "vertices.csv"), _body_digest(tmp_path / "cells.csv"))
    assert got == TOPOLOGY_DIGESTS[5]


@pytest.mark.parametrize("argv", sorted(CLI_DIGESTS), ids=lambda argv: f"{argv[0]}-m{argv[2]}")
def test_cli_csv_bodies_pinned(argv, tmp_path):
    name, digest = CLI_DIGESTS[argv]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert _body_digest(tmp_path / name) == digest


@pytest.mark.parametrize("chunk", [1, 7, 40])
def test_spectrum_csv_body_pinned_across_export_chunks(chunk, tmp_path, monkeypatch):
    # the spectrum rows are sorted by lambda across birth groups and
    # formatted a fixed number at a time; the 895 rows of level 9 then span
    # many chunks and a partial last one
    monkeypatch.setattr(cli, "EXPORT_CHUNK", chunk)
    argv = ("spectrum", "--m", "9")
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert _body_digest(tmp_path / "spectrum.csv") == CLI_DIGESTS[argv][1]


@pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
def test_sample_bytes_pinned(name):
    vals = np.ascontiguousarray(SAMPLED[name].sample(top.level_topology(6)), dtype=np.float64)
    assert hashlib.sha256(vals.tobytes()).hexdigest() == SAMPLE_DIGESTS[name]
