import csv
import io
from fractions import Fraction as F

import numpy as np
import pytest

from polya_net import contagion as cg, exact, graph, output
from polya_net.errors import SizeMismatch


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    output.write_csv(path, {"x": np.float64(0.1), "n": 3, "tag": "a b"},
                     ["t", "v", "w", "s", "f"],
                     [range(1, 3), np.array([1 / 3, 0.25]), [None, 1e-300], ["0.500", "x"],
                      np.array([0.1, 2.0], dtype=np.float32)])
    assert path.read_text() == ("# x=0.1 n=3 tag=a b\n"
                                "t,v,w,s,f\n"
                                "1,0.3333333333333333,,0.500,0.10000000149011612\n"
                                "2,0.25,1e-300,x,2.0\n")
    with pytest.raises(SizeMismatch):
        output.write_csv(path, {}, ["t", "v"], [range(3), np.zeros(2)])
    with pytest.raises(SizeMismatch):
        output.write_csv(path, {}, ["t"], [range(3), range(3)])


def test_write_csv_keeps_the_bits_of_every_float(tmp_path):
    # a float column of every magnitude, subnormals and signed zeros
    # included, reads back bit for bit and as a cell-by-cell repr wrote it
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.random(200), rng.standard_normal(200) * 10.0 ** rng.integers(
        -310, 308, 200), [0.0, -0.0, 5e-324, 1e16, 1e-5, 1e-4, 123456789012345680.0]])
    path = tmp_path / "f.csv"
    output.write_csv(path, {}, ["t", "v"], [range(len(values)), values])
    lines = path.read_text().splitlines()[2:]
    assert lines == [f"{t},{float(v)!r}" for t, v in enumerate(values)]
    assert np.array_equal(np.array([float(line.split(",")[1]) for line in lines]), values)


def test_write_rows_joins_blocks_and_takes_a_path_or_a_stream(tmp_path):
    blocks = [[np.arange(2), [0.5, None]], [np.arange(2, 3), [1e-300]], [[], []]]
    buf = io.StringIO()
    output.write_rows(buf, ["one", "two=2"], ["t", "v"], blocks)
    assert buf.getvalue() == "# one\n# two=2\nt,v\n0,0.5\n1,\n2,1e-300\n"
    path = tmp_path / "rows.csv"
    output.write_rows(path, ["one", "two=2"], ["t", "v"], iter(blocks))
    assert path.read_bytes() == buf.getvalue().encode()
    # a first block that does not fit its names opens no file
    with pytest.raises(SizeMismatch):
        output.write_rows(tmp_path / "bad.csv", [], ["t", "v"], [[range(2), range(3)]])
    assert not (tmp_path / "bad.csv").exists()


def _joint_csv_by_rows(table, header_lines):
    """The joint-table CSV written a row at a time by ``csv.writer``, as
    the table wrote it before it wrote blocks of columns."""
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    n, h = table.node_count, table.horizon
    writer.writerow([f"a_{i + 1}_{t + 1}" for i in range(n) for t in range(h)]
                    + (["p_num", "p_den"] if table.exact else ["p"]))
    for code, p in enumerate(table.probs):
        bits = [(code >> (t * n + i)) & 1 for i in range(n) for t in range(h)]
        if table.exact:
            writer.writerow(bits + [F(p).numerator, F(p).denominator])
        else:
            writer.writerow(bits + [repr(float(p))])
    return buf.getvalue()


@pytest.mark.parametrize("net, init, horizon, exact_mode", [
    # 2^13 and 2^14 codes: two and four blocks of 2^12 rows
    (graph.generate_complete(1), cg.UrnInit((F(1),), (F(2),)), 13, True),
    (graph.generate_complete(2), cg.UrnInit((1.5, 0.25), (0.5, 2.0)), 7, False),
    (graph.generate_cycle(4), cg.uniform_init(4, F(1), F(1)), 2, True),
], ids=["K1_h13_exact", "K2_h7_float", "cycle4_h2_exact"])
def test_joint_table_blocks_write_the_rows_of_a_row_writer(net, init, horizon, exact_mode,
                                                           tmp_path):
    table = exact.enumerate_joint(net, init, cg.ConstantDelta(F(1) if exact_mode else 1.0),
                                  horizon, exact=exact_mode)
    header = [f"nodes={net.node_count} horizon={horizon} exact={exact_mode}"]
    buf = io.StringIO()
    table.write_csv(buf, header)
    # line by line, so that a failure names its first row without a diff of
    # thousands of lines
    lines, expected = buf.getvalue().split("\n"), _joint_csv_by_rows(table, header).split("\n")
    assert len(lines) == len(expected)
    assert next(((a, b) for a, b in zip(lines, expected) if a != b), None) is None
    table.write_csv(tmp_path / "table.csv", header)
    assert (tmp_path / "table.csv").read_bytes() == buf.getvalue().encode()


def test_edge_list_writes_the_same_bytes_to_a_path_and_a_stream(tmp_path):
    net = graph.generate("ba", 30, m=2, seed=5)
    buf = io.StringIO()
    graph.write_edge_list(net, buf)
    graph.write_edge_list(net, tmp_path / "ba30.edges")
    assert (tmp_path / "ba30.edges").read_bytes() == buf.getvalue().encode()
    assert buf.getvalue() == "30\n" + "".join(f"{i} {j}\n" for i, j in net.edges)
    assert graph.read_edge_list(tmp_path / "ba30.edges").edges == net.edges
