import json
import struct

import pytest

import xbwtrie.index
from xbwtrie import build_from_strings, build_index, deserialize, serialize
from xbwtrie.cli import format_pattern, main, parse_pattern
from xbwtrie.index import crc32c
from xbwtrie.succinct import serialize_bitvector

from conftest import zero_weight_symbol_file

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


def _replace_first_vector(idx, blob: bytes) -> bytes:
    """The index file of idx with its first vector's blob swapped for blob,
    the CRC recomputed so that only the vector's own checks can object."""
    data = serialize(idx)
    vecs = [serialize_bitvector(v) for v in idx.vectors]
    body = (data[:len(data) - 4 - sum(map(len, vecs))] + blob
            + b"".join(vecs[1:]))
    return body + struct.pack("<I", crc32c(body))


@pytest.mark.parametrize("mode, patch, match", [
    ("fid", lambda body: b"\x00" + body[1:], "rrr block size 0"),
    ("fid", lambda body: b"\x0f" + body[1:], "rrr block size 15"),
    ("id", lambda body: b"\x02" + body[1:], "id flags 2"),
    ("id", lambda body: body[:1] + struct.pack("<Q", 8) + body[9:],
     "more stored positions than bits"),
    ("fixedblock", lambda body: bytes(8) + body[8:], "block size 0"),
    ("fixedblock", lambda body: body[:8] + b"\x01" + body[9:], "codec 1"),
    ("fixedblock", lambda body: body[:8] + b"\x02" + body[9:], "codec 2"),
], ids=["rrr-u-0", "rrr-u-15", "id-flags-2", "id-count-8-of-7",
        "fixedblock-b-0", "fixedblock-codec-1", "fixedblock-codec-2"])
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


@pytest.mark.parametrize("make, match", [
    (_weights_not_n_minus_1, "n - 1"),
    (_plain_padding_bit, "padding"),
    (_byte_after_rrr_offsets, "trailing bytes"),
], ids=["weights-total", "plain-padding", "rrr-offset-length"])
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
