import hashlib

import pytest

from mecensus.catalog import (
    CatalogError,
    catalog_path,
    read_catalog,
    report_lines,
    write_catalog,
    write_csv_sidecars,
    write_report,
)
from mecensus.census import census, iter_skeletons

# SHA-256 of the n=6 sidecars (by_edges, by_size, joint)
SIDECARS_N6_SHA256 = (
    "969f99b684464ddf7c4271fa9c1147dac2a802c7a4c392e72003573f3e3c2dcd",
    "9103b6666ef9b6e34fa9a6346288f5b7f827fefcd897783aceb5e7caadd8ee99",
    "703a12c2c26d8d21abaeed0b89a19afcb68ce428eaf6ed08aef899d4ccf37417",
)
# SHA-256 of the same tables with the class sizes above 24 cut, header kept,
# as the former `census --size-cap 24` wrote them
SIDECARS_N6_SIZE_LE_24_SHA256 = (
    "969f99b684464ddf7c4271fa9c1147dac2a802c7a4c392e72003573f3e3c2dcd",
    "9bb30e93ee4c2c9be6af07c3aee1104dbc1a74f2e6d6162b9ddb5443cc5d67c7",
    "8d678b7f5ae963a0a9734c74fe05b0f6b1891822fb6ff885ebdb2904ac4a767e",
)


def layer_records(n, e):
    return [r for r in iter_skeletons(n) if r.graph.edge_count == e]


def test_catalog_round_trip(tmp_path):
    for e in (0, 3, 6):
        records = layer_records(4, e)
        path = catalog_path(tmp_path, 4, e)
        write_catalog(path, 4, e, records)
        n_read, e_read, back = read_catalog(path)
        assert (n_read, e_read) == (4, e)
        assert back == records


def test_catalog_regeneration_is_byte_identical(tmp_path):
    records = layer_records(5, 4)
    path = catalog_path(tmp_path, 5, 4)
    write_catalog(path, 5, 4, records)
    first = path.read_bytes()
    write_catalog(path, 5, 4, records)
    assert path.read_bytes() == first


def test_catalog_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.cat"
    p.write_text("MECCAT 9 n=4 e=0 count=1\n0 1\n")
    with pytest.raises(CatalogError, match="bad.cat"):
        read_catalog(p)


def test_catalog_rejects_count_mismatch(tmp_path):
    p = tmp_path / "short.cat"
    p.write_text("MECCAT 1 n=4 e=1 count=2\n1 6\n")
    with pytest.raises(CatalogError, match="promises 2"):
        read_catalog(p)


def test_catalog_rejects_wrong_edge_count(tmp_path):
    p = tmp_path / "edges.cat"
    p.write_text("MECCAT 1 n=4 e=2 count=1\n1 6\n")
    with pytest.raises(CatalogError, match="edges"):
        read_catalog(p)


def test_catalog_rejects_unsorted_codes(tmp_path):
    p = tmp_path / "order.cat"
    p.write_text("MECCAT 1 n=4 e=1 count=2\n1 6\n20 6\n")
    with pytest.raises(CatalogError, match="descending"):
        read_catalog(p)


@pytest.mark.parametrize("text, message", [
    ("MECCAT 1 n=3 e=1 count=1\n4 3 junk\n", "bad record '4 3 junk'"),
    ("MECCAT 1 n=3 e=1 count=1\n-1 3\n", "code -1 out of range for n=3"),
    ("MECCAT 1 n=13 e=0 count=1\n0 1\n", r"vertex count 13 outside 1\.\.12"),
    ("MECCAT 1 n=3 e=-1 count=0\n", r"edge count -1 outside 0\.\.3"),
    ("MECCAT 1 n=3 e=1 count=1\n0x4 +3\n", "bad record '0x4 \\+3'"),
    ("MECCAT 1 n=3 e=1 count=1\n4 +3\n", "bad record '4 \\+3'"),
    ("MECCAT 1 n=3 e=1 count=1\n04 3\n", "bad record '04 3'"),
    ("MECCAT 1 n=4 e=5 count=1\n3E 6\n", "bad record '3E 6'"),
    ("MECCAT 1 n=4 e=5 count=1\n3_e 6\n", "bad record '3_e 6'"),
    ("MECCAT 1 n=3 e=1 count=1\n4  3\n", "bad record '4  3'"),
    ("MECCAT 1 n=3 e=1 count=1\n4 3 \n", "bad record '4 3 '"),
    ("MECCAT 1 n=3 e=1 count=1\n\n4 3\n", "header promises 1 records, found 2"),
    ("MECCAT 1 n=03 e=1 count=1\n4 3\n", "bad header 'MECCAT 1 n=03 e=1 count=1'"),
    ("MECCAT 1 n=3 e=+1 count=1\n4 3\n", "bad header 'MECCAT 1 n=3 e=\\+1 count=1'"),
    ("MECCAT 1 n=3 e=1 count=1_0\n4 3\n", "bad header 'MECCAT 1 n=3 e=1 count=1_0'"),
    ("MECCAT  1 n=3 e=1 count=1\n4 3\n", "bad header 'MECCAT  1 n=3 e=1 count=1'"),
    ("MECCAT 1 n=3 e=1 count=1\r\n4 3\r\n", r"bad header 'MECCAT 1 n=3 e=1 count=1\\r'"),
    ("MECCAT 1 n=3 e=1 count=1\n4 3\r\n", r"bad record '4 3\\r'"),
    ("MECCAT 1 n=3 e=1 count=1\n4 3", "no newline at end of file"),
    (b"MECCAT 1 n=3 e=1 count=1\n\xff 3\n",
     "'utf-8' codec can't decode byte 0xff in position 25: invalid start byte"),
])
def test_catalog_rejects_malformed_field(tmp_path, text, message):
    p = tmp_path / "bad.cat"
    if isinstance(text, bytes):  # not UTF-8, so not writable as text
        p.write_bytes(text)
    else:
        p.write_text(text)
    with pytest.raises(CatalogError, match=r"bad\.cat: " + message):
        read_catalog(p)


def test_report_lines_content():
    r = census(3)
    lines = report_lines(r)
    assert "total_classes = 11" in lines
    assert "total_adgs = 25" in lines
    assert "ratio = 0.44000" in lines
    assert "classes_by_edges = 1,3,6,1" in lines
    assert "size_histogram = 1:4,2:3,3:3,6:1" in lines


def test_csv_sidecars_and_size_cap(tmp_path):
    # the tables are always whole: every class size, and no cap to ask for
    r = census(4)
    out = tmp_path / "report.txt"
    write_report(out, r)
    with pytest.raises(TypeError):
        write_csv_sidecars(out, r, size_cap=3)
    paths = write_csv_sidecars(out, r)
    by_size = next(p for p in paths if p.name.endswith("by_size.csv"))
    sizes = [int(line.split(",")[0]) for line in by_size.read_text().splitlines()[1:]]
    assert sizes == list(r.size_histogram)
    joint = next(p for p in paths if p.name.endswith("joint.csv"))
    assert joint.read_text().startswith("edge_count,class_size,classes\n")
    by_edges = next(p for p in paths if p.name.endswith("by_edges.csv"))
    rows = by_edges.read_text().splitlines()[1:]
    assert [int(row.split(",")[1]) for row in rows] == r.classes_by_edges


def test_csv_sidecar_bytes_are_pinned(tmp_path):
    # every byte of all three tables; cut to sizes <= 24 they are the capped
    # tables, so the cap never held a number the full tables lack
    paths = write_csv_sidecars(tmp_path / "r6.txt", census(6))
    texts = [p.read_text() for p in paths]
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert tuple(sha(t) for t in texts) == SIDECARS_N6_SHA256

    def at_most_24(text):
        # the header, then the rows whose class_size (second-last) column is <= 24
        header, *rows = text.splitlines(keepends=True)
        return header + "".join(row for row in rows if int(row.split(",")[-2]) <= 24)

    cut = [texts[0], at_most_24(texts[1]), at_most_24(texts[2])]
    assert tuple(sha(t) for t in cut) == SIDECARS_N6_SIZE_LE_24_SHA256


def test_failed_report_write_leaves_no_file(tmp_path, monkeypatch):
    # a write that dies before the rename must not leave a finished-looking report
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("mecensus.catalog.os.replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_report(tmp_path / "report.txt", census(3))
    assert list(tmp_path.iterdir()) == []
