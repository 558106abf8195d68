import dataclasses
import json
import struct

import pytest

import xbwtrie.combinatorics
import xbwtrie.entropy
import xbwtrie.index
from xbwtrie import (Alphabet, PlainBitvector, XbwtIndex, build_from_strings,
                     build_index, deserialize, serialize)
from xbwtrie.cli import format_pattern, main, parse_pattern
from xbwtrie.index import crc32c
from xbwtrie.succinct import serialize_bitvector

from conftest import word_corpus, zero_weight_symbol_file

FIG = b"b\nbb\nbcba\nbcbc\n"

DUMP_GOLDEN = """\
0000100
1101000
0100100
D: 0 1 -1 0 1 -1 -1
L: 0 1 0 0 1 0 -1
colex: 1 6 2 3 5 4 7
xbwt: {b} {} {b,c} {} {a,c} {b} {}
"""


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.txt"
    path.write_bytes(FIG)
    return str(path)


@pytest.fixture
def fig_index(tmp_path, fig_file):
    out = str(tmp_path / "fig.xbwt")
    assert main(["build", fig_file, "--output", out, "--mode", "fid"]) == 0
    return out


def parse_metrics(text):
    out = {}
    for line in text.splitlines():
        cells = line.split()
        if cells and cells[0] == "metric":
            out[cells[1]] = cells[3]
    return out


def test_pattern_escapes():
    assert parse_pattern("ab") == b"ab"
    assert parse_pattern(r"\x00b") == b"\x00b"
    assert parse_pattern(r"a\\b") == b"a\\b"
    assert format_pattern(b"a\x00\\") == r"a\x00\\"
    with pytest.raises(ValueError):
        parse_pattern(r"\q")
    # exactly two hex digits: no sign, no space, no single digit
    for text in (r"\x+f", r"\x f", r"\xf ", r"\x-1"):
        with pytest.raises(ValueError, match="bad escape at offset 0"):
            parse_pattern(text)


def test_build_stats_line(fig_file, tmp_path, capsys):
    out = str(tmp_path / "i.xbwt")
    assert main(["build", fig_file, "--output", out]) == 0
    metrics = parse_metrics(capsys.readouterr().out)
    assert metrics["n"] == "7"
    assert metrics["sigma"] == "3"
    assert metrics["r"] == "6"
    assert "payload[fid]" in metrics and "payload[id]" in metrics


@pytest.mark.parametrize("command", ["build", "stats"])
def test_build_and_stats_sort_once(fig_file, tmp_path, monkeypatch, capsys,
                                   command):
    real = xbwtrie.index.colex_order
    calls = []
    monkeypatch.setattr(xbwtrie.index, "colex_order",
                        lambda trie: calls.append(trie) or real(trie))
    argv = {"build": ["build", fig_file, "--output", str(tmp_path / "f.xbwt")],
            "stats": ["stats", fig_file]}[command]
    assert main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", [*xbwtrie.index.MODES, "auto", "stats",
                                     "stats-index", "check_bounds"])
def test_only_the_kept_index_is_built(fig_file, tmp_path, monkeypatch, capsys,
                                      command):
    """`build --mode m` builds m's index alone, and `auto` the one index it
    keeps, picked by file length from the columns; `stats` and
    `check_bounds` account every back-end from the columns."""
    index_file = str(tmp_path / "f.xbwt")
    assert main(["build", fig_file, "--output", index_file]) == 0
    real = xbwtrie.index.build_index
    calls = []
    monkeypatch.setattr(xbwtrie.index, "build_index",
                        lambda trie, mode: calls.append(mode) or real(trie,
                                                                      mode))
    if command == "check_bounds":
        assert xbwtrie.entropy.check_bounds(build_from_strings(
            FIG.split()), 2).passed
        expected = []
    elif command.startswith("stats"):
        source = index_file if command == "stats-index" else fig_file
        assert main(["stats", source]) == 0
        expected = []
    else:
        assert main(["build", fig_file, "--output", index_file,
                     "--mode", command]) == 0
        with open(index_file, "rb") as fh:
            kept = xbwtrie.index.deserialize(fh.read()).mode
        assert kept == command or command == "auto"
        expected = [kept]
    assert calls == expected


def _words(seed, count):
    return b"".join(w + b"\n" for w in word_corpus(seed, count))


@pytest.mark.parametrize("text", [FIG, b"a\nb\n", b"\n", _words(1, 5000)],
                         ids=["figure", "a-b", "single", "words-5k"])
def test_build_auto_writes_smallest_file(tmp_path, capsys, text):
    """`build` without --mode writes the smallest of the four files, the
    first mode on a tie, and reports that mode and its size: 23 + sigma
    bytes of header, alphabet and CRC, and the bodies, whose bits are the
    mode's payload and overhead rows."""
    src = tmp_path / "in.txt"
    src.write_bytes(text)
    sizes = {}
    for mode in (*xbwtrie.index.MODES, "auto"):
        out = tmp_path / f"{mode}.xbwt"
        assert main(["build", str(src), "--output", str(out), "--mode", mode,
                     "--format", "tsv"]) == 0
        rows = dict(line.split("\t")[0::2]
                    for line in capsys.readouterr().out.splitlines())
        sizes[mode] = out.stat().st_size
        assert rows["bytes"] == str(sizes[mode])
        kept = rows["mode"]
        assert 8 * (sizes[mode] - 23 - int(rows["sigma"])) == \
            int(rows[f"payload[{kept}]"]) + int(rows[f"overhead[{kept}]"])
    best = min(xbwtrie.index.MODES, key=sizes.get)
    assert rows["mode"] == best
    assert (tmp_path / "auto.xbwt").read_bytes() == \
        (tmp_path / f"{best}.xbwt").read_bytes()


def test_build_reindexes_an_index_file(tmp_path, capsys):
    """`build` on an index file indexes the trie the file holds: each
    mode's file re-indexed into each mode is, byte for byte, the file and
    the rows the string set builds.  A file whose trie is too large to
    invert, the 42-byte id file declaring n = 2^64 - 1, is refused with one
    error line and no output file."""
    from xbwtrie.succinct import IdVector
    src = tmp_path / "words.txt"
    src.write_bytes(_words(1, 2000))
    built = {}
    for mode in xbwtrie.index.MODES:
        out = tmp_path / f"{mode}.xbwt"
        assert main(["build", str(src), "--output", str(out), "--mode", mode,
                     "--format", "tsv"]) == 0
        built[mode] = out.read_bytes(), capsys.readouterr().out
    for source in xbwtrie.index.MODES:
        for mode, (data, rows) in built.items():
            out = tmp_path / "again.xbwt"
            assert main(["build", str(tmp_path / f"{source}.xbwt"), "--output",
                         str(out), "--mode", mode, "--format", "tsv"]) == 0
            assert (out.read_bytes(), capsys.readouterr().out) == \
                (data, rows), (source, mode)
    n = 2 ** 64 - 1
    body = (xbwtrie.index.MAGIC
            + struct.pack("<HHQH", xbwtrie.index.VERSION,
                          xbwtrie.index.MODES.index("id"), n, 2)
            + b"\x00a" + serialize_bitvector(IdVector._restore(n, [n], True)))
    path = tmp_path / "max.xbwt"
    path.write_bytes(_with_crc(body))
    assert path.stat().st_size == 42
    out = tmp_path / "max-again.xbwt"
    assert main(["build", str(path), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: index too large\n" and captured.out == ""
    assert not out.exists()


def test_build_trailing_newline_only(tmp_path, capsys):
    src = tmp_path / "empty_string.txt"
    src.write_bytes(b"\n")
    out = str(tmp_path / "e.xbwt")
    assert main(["build", str(src), "--output", out]) == 0
    assert parse_metrics(capsys.readouterr().out)["n"] == "1"


def test_build_unreadable_path(tmp_path, capsys):
    rc = main(["build", str(tmp_path / "missing.txt"),
               "--output", str(tmp_path / "o.xbwt")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_build_empty_file(tmp_path, capsys):
    src = tmp_path / "nothing.txt"
    src.write_bytes(b"")
    rc = main(["build", str(src), "--output", str(tmp_path / "o.xbwt")])
    assert rc == 1
    assert "empty input" in capsys.readouterr().err


def test_count_golden(fig_index, capsys):
    assert main(["count", fig_index, "b", "cb", "zz"]) == 0
    assert capsys.readouterr().out == "b\t3\ncb\t1\nzz\t0\n"


def test_count_patterns_file(fig_index, tmp_path, capsys):
    pats = tmp_path / "p.txt"
    pats.write_bytes(b"b\nbcb\n")
    assert main(["count", fig_index, "--patterns-file", str(pats)]) == 0
    assert capsys.readouterr().out == "b\t3\nbcb\t1\n"


def test_count_sentinel_pattern(fig_index, capsys):
    rc = main(["count", fig_index, r"\x00b", "b"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "sentinel" in captured.err
    assert captured.out == "b\t3\n"  # good lines still answered


def test_stats_strings_input(fig_file, capsys):
    assert main(["stats", fig_file, "--k", "2"]) == 0
    text = capsys.readouterr().out
    metrics = parse_metrics(text)
    assert metrics["r"] == "6"
    assert "fail" not in text


def test_stats_index_input(fig_index, capsys):
    assert main(["stats", fig_index, "--k", "1", "--format", "tsv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "hwc\t-\t9.521600" in lines
    assert any(line.startswith("check\tsandwich_lower\tpass\t")
               for line in lines)


def test_stats_rejects_zero_weight_symbol(tmp_path, capsys):
    path = tmp_path / "zero.xbwt"
    path.write_bytes(zero_weight_symbol_file(build_from_strings(FIG.split())))
    assert main(["stats", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: not a valid XBWT: symbol labels no edge\n"


def test_stats_max_order_too_large(tmp_path, capsys):
    """sigma^(k+1) with sigma = 5 (four symbols and the sentinel) is a float
    up to k = 440; past it the order is refused before any context table
    is built."""
    src = tmp_path / "w.txt"
    src.write_bytes(b"abc\nabd\nb\n")
    assert main(["stats", str(src), "--k", "441"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: max order too large\n"
    assert captured.out == ""
    assert main(["stats", str(src), "--k", "440"]) == 0


def test_stats_complete_binary_height6(tmp_path, capsys):
    words = [bytes(c for c in w) for w in _binary_words(6)]
    src = tmp_path / "cb6.txt"
    src.write_bytes(b"".join(w + b"\n" for w in words))
    assert main(["stats", str(src), "--k", "1", "--mode", "fid"]) == 0
    assert parse_metrics(capsys.readouterr().out)["r"] == "64"


def _binary_words(height):
    out = [[]]
    for _ in range(height):
        out = [w + [c] for w in out for c in (ord("a"), ord("b"))]
    return out


def test_stats_single_node(tmp_path, capsys):
    src = tmp_path / "single.txt"
    src.write_bytes(b"\n")
    assert main(["stats", str(src)]) == 0


def test_stats_json_lines(fig_file, capsys):
    assert main(["stats", fig_file, "--format", "json-lines",
                 "--mode", "fid"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    metrics = [r for r in rows if "metric" in r]
    checks = [r for r in rows if "check" in r]
    assert metrics and checks and len(metrics) + len(checks) == len(rows)
    assert all(r["status"] == "pass" for r in checks)
    # json-lines mirrors the tsv rows one to one
    assert main(["stats", fig_file, "--format", "tsv", "--mode", "fid"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(rows)


def test_enumerate_golden(capsys):
    assert main(["enumerate", "7", "1,3,2"]) == 0
    metrics = parse_metrics(capsys.readouterr().out)
    assert metrics["formula"] == "735"
    assert metrics["matrices/n"] == "735"
    assert metrics["tries"] == "735"


def test_enumerate_single(capsys):
    assert main(["enumerate", "1", "0"]) == 0
    assert parse_metrics(capsys.readouterr().out)["formula"] == "1"


def test_enumerate_infeasible(capsys):
    assert main(["enumerate", "3", "2,2"]) == 1
    assert "infeasible: sum != n-1" in capsys.readouterr().err


def test_enumerate_cap(capsys):
    assert main(["enumerate", "8", "3,2,2", "--cap", "10"]) == 1
    assert "enumeration too large" in capsys.readouterr().err


def test_verify_small(capsys):
    assert main(["verify", "5", "2"]) == 0
    out = capsys.readouterr().out
    assert "check   verify              pass" in out or "pass" in out


@pytest.mark.parametrize("caps", [("0", "3"), ("-1", "3"), ("3", "0")])
def test_verify_rejects_empty_sweep(capsys, caps):
    """A sweep over no distribution checks nothing, so it must not pass."""
    assert main(["verify", *caps]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: max_n and max_sigma must be positive\n"
    assert captured.out == ""


def test_verify_refuses_sigma_past_enumeration_limit(capsys, monkeypatch):
    """Tries are enumerated for at most 16 symbols: a larger max_sigma is
    refused before any distribution is listed, with the error the sweep
    would reach at sigma = 17."""
    assert main(["verify", "1", "16"]) == 0
    assert "sweep[n=1,sigma=16]" in capsys.readouterr().out

    def listed(max_n, max_sigma):
        raise AssertionError("distributions listed")

    monkeypatch.setattr(xbwtrie.combinatorics, "feasible_distributions",
                        listed)
    for caps in (("3", "300"), ("1", "17")):
        assert main(["verify", *caps]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: enumeration too large\n"
        assert captured.out == ""


def _replace_first_vector(idx, blob: bytes, which: int = 0) -> bytes:
    """The index file of idx with its first vector's blob (or vector
    ``which``'s) swapped for blob, the CRC recomputed so that only the
    vector's own checks can object."""
    data = serialize(idx)
    vecs = [serialize_bitvector(v) for v in idx.vectors]
    body = (data[:len(data) - 4 - sum(map(len, vecs))]
            + b"".join(vecs[:which]) + blob + b"".join(vecs[which + 1:]))
    return body + struct.pack("<I", crc32c(body))


@pytest.mark.parametrize("mode, patch, match", [
    ("fid", lambda body: b"\x00" + body[1:], "rrr block size 0"),
    ("fid", lambda body: b"\x0f" + body[1:], "rrr block size 15"),
    # u set to 4: a 4-bit block, then a 3-bit one whose class, at 3 bits,
    # claims 4 positions
    ("fid", lambda body: b"\x04\x20" + body[2:],
     "more stored positions than bits"),
    ("id", lambda body: b"\x02" + body[1:], "id flags 2"),
    ("id", lambda body: body[:1] + struct.pack("<Q", 8) + body[9:],
     "more stored positions than bits"),
    ("fixedblock", lambda body: bytes(8) + body[8:], "block size 0"),
    # b set to 27: one 7-bit block, its count at 5 bits claiming 8 positions
    ("fixedblock", lambda body: struct.pack("<Q", 27) + b"\x08" + body[9:],
     "more stored positions than bits"),
], ids=["rrr-u-0", "rrr-u-15", "fid-class-past-block", "id-flags-2",
        "id-count-8-of-7", "fixedblock-b-0", "fixedblock-count-8-of-7"])
def test_count_rejects_bad_header_section(tmp_path, capsys, mode, patch,
                                          match):
    # the fixed-size fields at the head of the first vector's body
    idx = build_index(build_from_strings(FIG.split()), mode)
    data = _replace_first_vector(
        idx, patch(serialize_bitvector(idx.vectors[0])))
    with pytest.raises(ValueError, match=match):
        deserialize(data)
    path = tmp_path / "bad.xbwt"
    path.write_bytes(data)
    assert main(["count", str(path), "b"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _id_body(k: int, lows: int, high: int) -> bytes:
    """An id body of k positions of a length-7 vector: the flags byte 0,
    the count, the low parts' byte and the bitmap's byte."""
    return struct.pack("<BQ", 0, k) + bytes((lows, high))


# the id index of FIG (n = 7): vector 0 stores position 5 (L = 2: low part
# 1, high part 1, the bitmap 0b010 of 3 bits), vector 1 positions 1, 3 and 6
# (L = 1: low parts 0b011, high parts 0, 1 and 3 at bits 0b100101 of 7)
@pytest.mark.parametrize("which, blob, match", [
    (0, _id_body(1, 1, 0b011), "^id high bits do not hold one 1 per position$"),
    (0, _id_body(1, 1, 0b000), "^id high bits do not hold one 1 per position$"),
    # high part 2 > 7 >> 2, and high part 0 with low part 0: position 0
    (0, _id_body(1, 1, 0b100), "^position out of range$"),
    (0, _id_body(1, 0, 0b001), "^position out of range$"),
    (0, _id_body(1, 1 | 0x80, 0b010), "^bitstream has padding bits set$"),
    (0, _id_body(1, 1, 0b010 | 0x80), "^bitstream has padding bits set$"),
    # the positions 1, 1, 6, and 3, 2, 6, whose 3 and 2 share high part 1
    (1, _id_body(3, 0b011, 0b100011),
     "^positions must be strictly increasing$"),
    (1, _id_body(3, 0b001, 0b100110),
     "^positions must be strictly increasing$"),
], ids=["high-two-ones", "high-no-one", "high-part-past-m", "position-0",
        "low-padding", "high-padding", "repeat", "fall"])
def test_count_rejects_hostile_id_body(tmp_path, capsys, which, blob, match):
    """Elias-Fano bodies that no writer makes are refused at load with one
    error line: a bitmap whose ones are not one per position, a position
    outside 1..m, padding bits set in either stream, and positions that
    repeat or fall."""
    idx = build_index(build_from_strings(FIG.split()), "id")
    assert serialize_bitvector(idx.vectors[0]) == _id_body(1, 1, 0b010)
    assert serialize_bitvector(idx.vectors[1]) == _id_body(3, 0b011, 0b100101)
    data = _replace_first_vector(idx, blob, which)
    with pytest.raises(ValueError, match=match):
        deserialize(data)
    path = tmp_path / "bad.xbwt"
    path.write_bytes(data)
    assert main(["count", str(path), "b"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", crc32c(body))


def _fig_body(mode: str) -> bytearray:
    return bytearray(serialize(build_index(build_from_strings(FIG.split()),
                                           mode))[:-4])


def _weights_not_n_minus_1():
    body = _fig_body("plain")
    body[-1] = 0x04  # B_c 0010100 -> 0010000: weights sum to 5, n - 1 = 6
    return _with_crc(bytes(body))


def _plain_padding_bit():
    body = _fig_body("plain")
    body[-1] |= 0x80  # bit 8 of a 7-bit vector
    return _with_crc(bytes(body))


def _byte_after_rrr_offsets():
    body = _fig_body("fid")  # u = 1: the last vector has no offset bits
    return _with_crc(bytes(body) + b"\x00")


def _sentinel_not_smallest_free_byte():
    body = bytearray(serialize(build_index(build_from_strings([b"ab", b"b"]),
                                           "plain"))[:-4])
    assert body[18] == 0  # the alphabet starts with the sentinel
    body[18] = 0xFF
    return _with_crc(bytes(body))


@pytest.mark.parametrize("make, match", [
    (_weights_not_n_minus_1, "n - 1"),
    (_plain_padding_bit, "padding"),
    (_byte_after_rrr_offsets, "trailing bytes"),
    (_sentinel_not_smallest_free_byte, "^not a valid XBWT: sentinel"),
], ids=["weights-total", "plain-padding", "rrr-offset-length",
        "sentinel-ff"])
def test_count_rejects_inconsistent_index(tmp_path, capsys, make, match):
    data = make()
    with pytest.raises(ValueError, match=match):
        deserialize(data)
    path = tmp_path / "bad.xbwt"
    path.write_bytes(data)
    assert main(["count", str(path), "b"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# the plain-mode index of the strings "a" and "b", as version 1 wrote it
V1_FILE = bytes.fromhex(
    "58425754010000000300000000000000030000616200000000000000000100000000"
    "000000020000000000000000030000000000000001000000000000000100030000"
    "00000000000100000000000000015a67f230")


def test_count_rejects_version_1_file(tmp_path, capsys):
    path = tmp_path / "v1.xbwt"
    path.write_bytes(V1_FILE)
    assert main(["count", str(path), "b"]) == 1
    assert capsys.readouterr().err == "error: version mismatch: 1\n"


# the same index as version 2 wrote it
V2_FILE = bytes.fromhex(
    "5842575402000000030000000000000003000061620101ad0eb4f5")


def test_count_rejects_version_2_file(tmp_path, capsys):
    path = tmp_path / "v2.xbwt"
    path.write_bytes(V2_FILE)
    assert main(["count", str(path), "b"]) == 1
    assert capsys.readouterr().err == "error: version mismatch: 2\n"


# the fixed-block index of the same strings as version 3 wrote it
V3_FIXEDBLOCK_FILE = bytes.fromhex(
    "584257540300030003000000000000000300006162080000000000000001010800"
    "0000000000000101ede9eff8")


def test_count_rejects_version_3_file(tmp_path, capsys):
    path = tmp_path / "v3.xbwt"
    path.write_bytes(V3_FIXEDBLOCK_FILE)
    assert main(["count", str(path), "b"]) == 1
    assert capsys.readouterr().err == "error: version mismatch: 3\n"


# the fixed-block index of the same strings as version 4 wrote it
V4_FIXEDBLOCK_FILE = bytes.fromhex(
    "584257540400030003000000000000000300006162020000000000000001010200"
    "0000000000000101b71ee30b")


def test_count_rejects_version_4_file(tmp_path, capsys):
    path = tmp_path / "v4.xbwt"
    path.write_bytes(V4_FIXEDBLOCK_FILE)
    assert main(["count", str(path), "b"]) == 1
    assert capsys.readouterr().err == "error: version mismatch: 4\n"


# the fixed-block index of the same strings as version 5 wrote it
V5_FIXEDBLOCK_FILE = bytes.fromhex(
    "584257540500030003000000000000000300006162020000000000000001000200"
    "0000000000000100d71b9c91")


def test_count_rejects_version_5_file(tmp_path, capsys):
    path = tmp_path / "v5.xbwt"
    path.write_bytes(V5_FIXEDBLOCK_FILE)
    assert main(["count", str(path), "b"]) == 1
    assert capsys.readouterr().err == "error: version mismatch: 5\n"


# the fixed-block index of the same strings as version 6 wrote it
V6_FIXEDBLOCK_FILE = bytes.fromhex(
    "584257540600030003000000000000000300006162020000000000000001000200"
    "0000000000000100c0ffdf95")


def test_count_rejects_version_6_file(tmp_path, capsys):
    path = tmp_path / "v6.xbwt"
    path.write_bytes(V6_FIXEDBLOCK_FILE)
    assert main(["count", str(path), "b"]) == 1
    assert capsys.readouterr().err == "error: version mismatch: 6\n"


def test_stats_refuses_index_too_large(tmp_path, capsys):
    """A 39-byte ID file declaring a 2^40-node path trie (one stored zero
    of a complemented vector) loads, but inverting it is refused."""
    from xbwtrie.succinct import IdVector
    n = 2 ** 40
    body = (xbwtrie.index.MAGIC
            + struct.pack("<HHQH", xbwtrie.index.VERSION,
                          xbwtrie.index.MODES.index("id"), n, 2)
            + b"\x00a" + serialize_bitvector(IdVector._restore(n, [n], True)))
    path = tmp_path / "huge.xbwt"
    path.write_bytes(_with_crc(body))
    assert path.stat().st_size == 39
    assert main(["stats", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: index too large\n" and captured.out == ""


def test_dump_golden(fig_file, capsys):
    assert main(["dump", fig_file]) == 0
    assert capsys.readouterr().out == DUMP_GOLDEN


@pytest.mark.parametrize("mode", ["plain", "fid", "id", "fixedblock"])
def test_dump_index_dumps_its_trie(tmp_path, capsys, mode):
    """An index file dumps the trie it indexes, as its string set does."""
    src = tmp_path / "words.txt"
    src.write_bytes(b"bcbc\nb\n\nbb\nbcba\nb\n")
    out = str(tmp_path / f"words-{mode}.xbwt")
    assert main(["build", str(src), "--output", out, "--mode", mode]) == 0
    capsys.readouterr()
    assert main(["dump", str(src)]) == 0
    want = capsys.readouterr().out
    assert main(["dump", out]) == 0
    assert capsys.readouterr().out == want


def test_dump_single_node(tmp_path, capsys):
    src = tmp_path / "s.txt"
    src.write_bytes(b"\n")
    assert main(["dump", str(src)]) == 0
    out = capsys.readouterr().out
    assert "D: -1" in out and "L: -1" in out


def test_dump_height_one_binary(tmp_path, capsys):
    src = tmp_path / "ab.txt"
    src.write_bytes(b"a\nb\n")
    assert main(["dump", str(src)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "100" and out[1] == "100"


def test_non_byte_pattern_character():
    with pytest.raises(ValueError, match="non-byte character 'Ā'"):
        parse_pattern("Ā")


def test_verify_reports_a_failing_distribution(capsys, monkeypatch):
    """A distribution whose check fails gets a FAIL line on stderr, its
    sweep row counts it, and the run exits 1."""
    real = xbwtrie.combinatorics.verify_distribution
    monkeypatch.setattr(
        xbwtrie.combinatorics, "verify_distribution",
        lambda dist, cap: dataclasses.replace(real(dist, cap),
                                              rotations_ok=dist.n != 2))
    assert main(["verify", "2", "1", "--format", "tsv"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("FAIL n=2 counts=(1,) formula=1 matrices=2 "
                            "tries=1\n")
    assert captured.out.splitlines()[-2:] == [
        "sweep[n=2,sigma=1]\t-\tdists=1 matrices=2 tries=1 failures=1",
        "check\tverify\tfail\t0"]


@pytest.mark.parametrize("data, n", [
    (b"XBWTa\nab\n", 8), (b"XBWT\n", 5), (b"XBWTa\0b\n", 8),
    (b"XBWT\x06\0\x04\0\n", 9), (b"XBWT\x06\0\x03\n", 8),
    (V5_FIXEDBLOCK_FILE, None)],
    ids=["prefixed-set", "one-line-set", "nul-at-sixth-byte", "mode-4",
         "mode-past-line", "version-5"])
def test_index_file_has_version_high_byte_zero(tmp_path, capsys, data, n):
    """An input is an index file when it starts with XBWT, its sixth byte,
    the high byte of the u16 version, is 0 and its u16 mode field names a
    back-end (0 to 3): a string set that starts with XBWT, even one with a
    NUL as its sixth byte, is built, statted and dumped as one, and a
    version-5 file is still refused by its version."""
    source = tmp_path / "input"
    source.write_bytes(data)
    index_file = str(tmp_path / "input.xbwt")
    commands = [["build", str(source), "--output", index_file, "--format",
                 "tsv"], ["stats", str(source)], ["dump", str(source)]]
    if n is None:
        for argv in commands:
            assert main(argv) == 1
            assert capsys.readouterr().err == "error: version mismatch: 5\n"
        return
    assert main(commands[0]) == 0
    assert f"n\t-\t{n}\n" in capsys.readouterr().out
    first = format_pattern(data.split(b"\n")[0])
    assert main(["count", index_file, first]) == 0
    assert capsys.readouterr().out == f"{first}\t1\n"
    # the set and the index file it builds report and dump one trie
    for command in ("stats", "dump"):
        outputs = []
        for path in (str(source), index_file):
            assert main([command, path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def test_count_trusts_its_file_and_inversion_refuses_a_cycle(tmp_path,
                                                             capsys):
    """A file that passes every load check but is no trie's XBWT (rank 2
    hangs under rank 3 and rank 3 under rank 2): `count` answers from it,
    as its help says, while `stats`, `dump` and `build` refuse it through
    inversion."""
    path = tmp_path / "cycle.xbwt"
    path.write_bytes(serialize(XbwtIndex(
        3, Alphabet((97, 98), 0), "plain",
        (PlainBitvector(3, (3,)), PlainBitvector(3, (2,))))))
    assert main(["count", str(path), "a", "ab"]) == 0
    assert capsys.readouterr().out == "a\t1\nab\t1\n"
    for argv in (["stats", str(path)], ["dump", str(path)],
                 ["build", str(path), "--output", str(tmp_path / "out")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: not a valid XBWT\n"
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0
    assert "count trusts its file" in " ".join(capsys.readouterr().out.split())
