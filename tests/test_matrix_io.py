import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from packhedge import core, environments, matrix_io
from packhedge.core import game_rng


RAGGED = "ragged rows in matrix file"

AWKWARD = np.array(
    [
        [0.1, -1.0, 1e-17],
        [1.0, -0.0, 0.3333333333333333],
        [2**-52, -(1 - 2**-53), 0.7],
    ]
)


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "m.csv"
        matrix_io.write_matrix_csv(path, AWKWARD)
        assert np.array_equal(matrix_io.read_matrix_csv(path), AWKWARD)

    def test_golden_three_by_three(self, tmp_path):
        path = tmp_path / "golden.csv"
        matrix_io.write_matrix_csv(path, np.array([[0.5, -1.0, 0.25], [1.0, 0.0, -0.125], [0.1, 0.2, 0.3]]))
        assert path.read_text() == "0.5,-1.0,0.25\n1.0,0.0,-0.125\n0.1,0.2,0.3\n"

    def test_no_header(self, tmp_path):
        path = tmp_path / "m.csv"
        matrix_io.write_matrix_csv(path, np.zeros((2, 2)))
        first = path.read_text().splitlines()[0]
        assert first == "0.0,0.0"

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="ragged"):
            matrix_io.read_matrix_csv(path)

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("0.5,0.25\r\n\r\n1.0,abc\r\n", "line 3: could not convert string to float: 'abc'"),
            ("0.5\n\n\n1.0,\n", "line 4: could not convert string to float: ''"),
            ("0.1,0.2\n \n0.3\n", f"line 3: {RAGGED} (2 values per row expected, got 1)"),
            ("0.1,0.2\r0.3,0.4,0.5\r", f"line 2: {RAGGED} (2 values per row expected, got 3)"),
            # A form feed ends a row, as str.splitlines has it, but not a line of the file.
            ("0.1,0.2\n0.3,0.4\f0.5\n", f"line 2: {RAGGED} (2 values per row expected, got 1)"),
        ],
        ids=["token-crlf", "empty-token", "ragged", "ragged-cr", "ragged-form-feed"],
    )
    def test_parse_errors_name_the_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as caught:
            matrix_io.read_matrix_csv(path)
        assert str(caught.value) == f"{path}: {message}"

    # Line ends and blank lines as str.splitlines splits them: the streamed
    # reader returns the whole-text reader's array, or both refuse the file.
    LINE_ENDS = {
        "crlf": "0.5,-0.0\r\n1.0,5e-324\r\n",
        "lone-cr": "0.5,-0.0\r1.0,5e-324\r",
        "mixed": "0.5,-0.0\r\n1.0,5e-324\r0.25,1e-17\n-1.0,1.0",
        "form-feed": "0.5,-0.0\f1.0,5e-324\f\n0.25,1e-17\n",
        "separators": "0.5,-0.0\x0b1.0,5e-324\x1c0.25,1e-17\x85-1.0,1.0\u20280.0,0.0\u2029",
        "blank-lines": "\n\n0.5,-0.0\n\n \t\n1.0,5e-324\r\n\r\n\n",
        "no-final-newline": "0.5,-0.0\n1.0,5e-324",
        "padded-tokens": " 0.5 , -0.0 \n1.0,\t5e-324\n",
        "cr-before-crlf": "0.5,-0.0\r\r\n1.0,5e-324\r\n",
        "ragged-crlf": "0.5,-0.0\r\n1.0\r\n",
        "ragged-form-feed": "0.5,-0.0\f1.0\n",
        "bad-token-cr": "0.5,-0.0\r1.0,x\r",
        "blank-only": "\r\n\f\r \n",
        "empty": "",
    }

    @pytest.mark.parametrize("text", LINE_ENDS.values(), ids=LINE_ENDS.keys())
    def test_line_ends_read_as_the_whole_text_reader(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        try:
            expected = reference.read_matrix_csv(path)
        except ValueError as refused:
            with pytest.raises(ValueError) as caught:
                matrix_io.read_matrix_csv(path)
            # The same fault; the streamed reader adds the line where it is.
            assert str(refused).removeprefix(f"{path}: ") in str(caught.value)
        else:
            out = matrix_io.read_matrix_csv(path)
            assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            matrix_io.read_matrix_csv(path)


class TestBinary:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "m.bin"
        matrix_io.write_matrix_binary(path, AWKWARD)
        out = environments.load_matrix_file(path).to_matrix()
        assert out.tobytes() == AWKWARD.tobytes()
        assert out.shape == AWKWARD.shape

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.bin"
        matrix_io.write_matrix_binary(path, np.zeros((3, 2)))
        raw = path.read_bytes()
        assert raw[:4] == b"CHLM"
        assert raw[4] == 1
        assert int.from_bytes(raw[5:9], "little") == 3
        assert int.from_bytes(raw[9:13], "little") == 2
        assert len(raw) == 13 + 8 * 6

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            matrix_io.open_matrix_binary(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        matrix_io.write_matrix_binary(path, np.zeros((1, 1)))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            matrix_io.open_matrix_binary(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        matrix_io.write_matrix_binary(path, np.zeros((2, 2)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="size"):
            matrix_io.open_matrix_binary(path)


class TestSizeGuard:
    def test_csv_reads_refuse_above_the_guard(self, tmp_path, monkeypatch):
        matrix = game_rng(4).uniform(-1, 1, size=(12_000, 3))
        matrix_io.write_matrix_csv(tmp_path / "m", matrix)
        monkeypatch.setattr(core, "MATRIX_MAX_ENTRIES", 36_000)
        assert matrix_io.read_matrix_csv(tmp_path / "m").tobytes() == matrix.tobytes()
        monkeypatch.setattr(core, "MATRIX_MAX_ENTRIES", 20_000)
        # The read stops at the block that crosses the guard (the second one
        # here), before joining anything.
        message = (
            f"{tmp_path / 'm'}: a matrix of {2 * core.block_rounds(3)} x 3 entries is too large"
            " to load; runs stream binary matrix files (guard: 20000 entries)"
        )
        with pytest.raises(ValueError) as refused:
            matrix_io.read_matrix_csv(tmp_path / "m")
        assert str(refused.value) == message


class TestLoadMatrix:
    def test_sniffs_binary(self, tmp_path):
        path = tmp_path / "m.dat"
        matrix = game_rng(0).uniform(-1, 1, size=(4, 5))
        matrix_io.write_matrix_binary(path, matrix)
        oracle = environments.load_matrix_file(path)
        assert type(oracle) is environments.MatrixFileOracle
        assert np.array_equal(oracle.to_matrix(), matrix)

    def test_sniffs_csv(self, tmp_path):
        path = tmp_path / "m.dat"
        matrix = game_rng(1).uniform(-1, 1, size=(4, 5))
        matrix_io.write_matrix_csv(path, matrix)
        oracle = environments.load_matrix_file(path)
        assert type(oracle) is environments.MatrixOracle
        assert np.array_equal(oracle.to_matrix(), matrix)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            matrix_io.save_matrix(tmp_path / "x", np.zeros((1, 1)), fmt="parquet")

    def test_three_dimensional_input_rejected(self, tmp_path):
        for fmt in matrix_io.FORMATS:
            with pytest.raises(ValueError, match="2-D"):
                matrix_io.save_matrix(tmp_path / "x", np.zeros((2, 2, 2)), fmt=fmt)


AWKWARD_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0, 1e-17, -1e-17, 2**-52, 1 - 2**-53]

LAYOUTS = {
    "C": lambda m: m,
    "F": np.asfortranarray,
    "strided": lambda m: np.repeat(np.repeat(m, 2, axis=0), 3, axis=1)[::2, ::3],
    "reversed": lambda m: np.ascontiguousarray(m[::-1, ::-1])[::-1, ::-1],
    "float32": lambda m: m.astype(np.float32),
    ">f8": lambda m: m.astype(">f8"),
    "int": lambda m: np.rint(m).astype(np.int64),
    "list": lambda m: m.tolist(),
}


def write_binary(path, matrix):
    matrix_io.write_matrix_binary(path, matrix)
    return path


@pytest.fixture(scope="module")
def io_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("io")


def assert_writes_reference_bytes(directory, matrix):
    """Both formats' files for ``matrix`` equal the whole-file writers' byte for byte."""
    for fmt, write_reference in (
        ("csv", reference.write_matrix_csv), ("binary", reference.write_matrix_binary)
    ):
        matrix_io.save_matrix(directory / fmt, matrix, fmt)
        write_reference(directory / "reference", matrix)
        assert (directory / fmt).read_bytes() == (directory / "reference").read_bytes(), fmt


class TestStreamedIo:
    """The block writers and the streamed reader give the whole-file versions' bytes and arrays."""

    @settings(max_examples=150)
    @given(
        data=st.data(),
        T=st.integers(1, 30),
        K=st.integers(1, 12),
        layout=st.sampled_from(list(LAYOUTS)),
        entries=st.sampled_from([1, 5, 16, 36, core.BLOCK_ENTRIES]),
    )
    def test_round_trip_matches_whole_file_io(self, io_dir, data, T, K, layout, entries):
        values = st.sampled_from(AWKWARD_VALUES) | st.floats(-1.0, 1.0)
        m = np.array(data.draw(st.lists(values, min_size=T * K, max_size=T * K))).reshape(T, K)
        matrix = LAYOUTS[layout](m)
        expected = np.ascontiguousarray(matrix, dtype=np.float64)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "BLOCK_ENTRIES", entries)  # blocks of one row up to all of them
            assert_writes_reference_bytes(io_dir, matrix)
            for fmt in matrix_io.FORMATS:
                out = environments.load_matrix_file(io_dir / fmt).to_matrix()
                assert out.dtype == np.float64 and out.flags.c_contiguous
                assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
            assert matrix_io.read_matrix_csv(io_dir / "csv").tobytes() == (
                reference.read_matrix_csv(io_dir / "csv").tobytes()
            )

    # Below one block, several and a partial last one, one row per block.
    SHAPES = [(3, 5), (700, 70), (3, core.BLOCK_ENTRIES + 5)]
    INPUTS = {
        "shape-1d": np.array([0.5, -0.0, 5e-324]),
        "scalar": np.float64(-0.0),
        "non-finite": np.array([[np.inf, -np.inf, np.nan], [1.0, -1.0, 0.0]]),
    }

    @pytest.mark.parametrize("shape", SHAPES, ids=["below", "several", "wide"])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_layouts_write_the_whole_file_bytes(self, tmp_path, shape, layout):
        matrix = LAYOUTS[layout](game_rng(8).uniform(-1.0, 1.0, shape))
        assert_writes_reference_bytes(tmp_path, matrix)

    @pytest.mark.parametrize("matrix", INPUTS.values(), ids=INPUTS.keys())
    def test_odd_inputs_write_the_whole_file_bytes(self, tmp_path, matrix):
        assert_writes_reference_bytes(tmp_path, matrix)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0)], ids=["no-rows", "no-columns"])
    def test_empty_inputs_are_refused(self, tmp_path, shape):
        # No reader takes a matrix without losses, so no writer makes one.
        for fmt in matrix_io.FORMATS:
            with pytest.raises(ValueError, match=f"a {shape[0]} x {shape[1]} matrix has no losses"):
                matrix_io.save_matrix(tmp_path / fmt, np.zeros(shape), fmt)
            assert not (tmp_path / fmt).exists()

    ORACLES = {
        "dense": lambda _: environments.make_low_rank(70, 40, 2, 0.1, seed=2),
        "clustered": lambda _: environments.make_clustered_binary(70, 400, 5, seed=2),
        "file": lambda path: environments.MatrixFileOracle(
            write_binary(path, game_rng(3).uniform(-1.0, 1.0, (70, 40)))
        ),
    }

    @pytest.mark.parametrize("entries", [core.BLOCK_ENTRIES, 100, 1])
    @pytest.mark.parametrize("make", ORACLES.values(), ids=ORACLES.keys())
    def test_oracles_write_their_matrix_bytes(self, tmp_path, make, entries):
        # Written from the oracle's rows a block at a time: the bytes of its whole matrix.
        oracle = make(tmp_path / "source.bin")
        matrix = oracle.to_matrix()
        for fmt in matrix_io.FORMATS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "BLOCK_ENTRIES", entries)  # down to one row per block
                matrix_io.save_matrix(tmp_path / fmt, oracle, fmt)
            matrix_io.save_matrix(tmp_path / "whole", matrix, fmt)
            assert (tmp_path / fmt).read_bytes() == (tmp_path / "whole").read_bytes(), fmt
        if isinstance(oracle, environments.MatrixFileOracle):
            assert (tmp_path / "binary").read_bytes() == (tmp_path / "source.bin").read_bytes()

    def test_several_blocks_read_back(self, tmp_path):
        matrix = game_rng(9).uniform(-1.0, 1.0, (700, 70))
        matrix_io.write_matrix_csv(tmp_path / "m.csv", matrix)
        out = matrix_io.read_matrix_csv(tmp_path / "m.csv")
        assert out.tobytes() == matrix.tobytes() and out.shape == matrix.shape

