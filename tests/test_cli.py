"""Command-line interface tests (invoked in-process through main, and once as
``python -m invpat``)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invpat
from invpat import LabelTable, Model, RasterImage, build_param_index, cli, save_model, save_pnm
from invpat.cli import main
from invpat.errors import (
    ConfigError,
    DataError,
    FormatError,
    InvpatError,
    LevelError,
    NoEvidenceError,
    ValidationError,
)
from invpat.io_persist import (
    ColumnSchema,
    ColumnSpec,
    load_csv,
    load_schema,
    normalize_columns,
    save_schema,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def segment_model(tmp_path):
    """Path of a saved RGB model whose one class is labeled "water"."""
    m = Model(3, 256, 0)
    m.labels = LabelTable()
    m.labels.attach(m.insert_class((0, 0, 200)), "water")
    save_model(m, tmp_path / "m.ipat")
    return str(tmp_path / "m.ipat")


class TestUsage:
    def test_no_args_is_usage_error(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_classify_requires_model_flag(self, capsys):
        code, _, err = run(capsys, "classify", "data.csv")
        assert code == 1 and "--model" in err

    def test_missing_data_file_is_data_error(self, capsys, tmp_path):
        model = tmp_path / "m.ipat"
        save_model(Model(2, 16, 0), model)
        code, _, _ = run(capsys, "classify", str(tmp_path / "nope.csv"),
                         "--model", str(model))
        assert code == 2

    def test_missing_model_file_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n")
        code, _, _ = run(capsys, "classify", str(data),
                         "--model", str(tmp_path / "nope.ipat"))
        assert code == 2


class TestTrainClassify:
    def test_roundtrip(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("3 3\n3 3\n9 9\n")
        model = tmp_path / "m.ipat"
        code, out, _ = run(capsys, "train", str(data), "--x", "16",
                           "--model", str(model))
        assert code == 0 and "trained N=2" in out

        hist = tmp_path / "h.txt"
        code, out, _ = run(capsys, "classify", str(data),
                           "--model", str(model), "--out", str(hist))
        assert code == 0
        assert "0 class=1" in out and "2 class=2" in out
        assert hist.read_text() == "1 2\n2 1\n"

    def test_r_pct_conversion(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("0 0\n")
        code, out, _ = run(capsys, "train", str(data), "--x", "256",
                           "--r-pct", "10")
        assert code == 0
        assert '"r_pct": 10' in out  # config echoed in the report header

    def test_unrecognized_row(self, capsys, tmp_path):
        train = tmp_path / "t.csv"
        train.write_text("3 3\n")
        test = tmp_path / "q.csv"
        test.write_text("9 9\n")
        model = tmp_path / "m.ipat"
        run(capsys, "train", str(train), "--x", "16", "--model", str(model))
        code, out, _ = run(capsys, "classify", str(test), "--model", str(model))
        assert code == 0 and "0 unrecognized" in out


    def test_out_of_range_row_is_data_error(self, capsys, tmp_path):
        train = tmp_path / "t.csv"
        train.write_text("1 2\n3 4\n")
        test = tmp_path / "q.csv"
        test.write_text("1 2\n1 99\n")
        model = tmp_path / "m.ipat"
        run(capsys, "train", str(train), "--x", "16", "--model", str(model))
        code, _, err = run(capsys, "classify", str(test), "--model", str(model))
        assert code == 2 and "row 1" in err and "99" in err


    def test_train_out_of_range_row_is_data_error(self, capsys, tmp_path):
        train = tmp_path / "t.csv"
        train.write_text("1,2\n-1,4\n")
        code, _, err = run(capsys, "train", str(train), "--x", "16")
        assert code == 2 and "row 1" in err and "-1" in err

    def test_features_only_schema(self, capsys, tmp_path):
        """train --schema without a parameter column, then classify: the same lines as
        the library's classify loop over tuple vectors."""
        schema, train, test, model = (tmp_path / n for n in ("s.json", "t.csv", "q.csv", "m.ipat"))
        save_schema(ColumnSchema([ColumnSpec(c, "feature") for c in "abc"]), schema)
        rng = np.random.default_rng(223)
        raw = rng.normal(0, 10, size=(60, 3)).round(2)
        raw[40:] = raw[:20]  # repeated rows
        # queries: training rows and rows past the training bounds
        queries = np.vstack([raw[::7], rng.normal(0, 20, size=(8, 3)).round(2)])
        for path, table in ((train, raw), (test, queries)):
            path.write_text("".join(",".join(map(str, r)) + "\n" for r in table.tolist()))
        code, out, _ = run(capsys, "train", str(train), "--schema", str(schema), "--x", "32",
                           "--r", "2", "--model", str(model))
        assert code == 0 and "trained N=" in out
        code, out, _ = run(capsys, "classify", str(test), "--model", str(model))

        lib_schema, m, want = load_schema(schema), Model(3, 32, 2), []
        for v in normalize_columns(load_csv(train), lib_schema, 32).tolist():
            m.train_step(tuple(v))
        for i, v in enumerate(normalize_columns(load_csv(test), lib_schema, 32).tolist()):
            hist = m.classify(tuple(v))
            n = m.recognized(hist)
            want.append(f"{i} unrecognized max={hist.max_count}" if n is None
                        else f"{i} class={n} votes={hist.max_count}")
        lines = out.splitlines()
        assert code == 0 and lines[0].startswith("# invpat ") and lines[1:] == want
        assert any("class=" in ln for ln in want) and any("unrecognized" in ln for ln in want)

    def test_train_param_index_rejection_is_data_error(self, capsys, tmp_path):
        schema = tmp_path / "s.json"
        schema.write_text(
            '{"columns": [{"name": "a", "role": "feature"},'
            ' {"name": "t", "role": "parameter-t"}]}')
        data = tmp_path / "d.csv"
        data.write_text("0,7\n1,1e30\n")  # t beyond int64
        code, _, err = run(capsys, "train", str(data), "--schema", str(schema), "--x", "4")
        assert code == 2 and str(data) in err

    def test_non_integer_cell_is_data_error(self, capsys, tmp_path):
        train = tmp_path / "t.csv"
        train.write_text("1,2\n3.7,4\n")
        code, _, err = run(capsys, "train", str(train), "--x", "16")
        assert code == 2 and "row 1" in err and "3.7" in err
        train.write_text("1,2\n3.0,4\n")  # integral floats stay accepted
        model = tmp_path / "m.ipat"
        code, out, _ = run(capsys, "train", str(train), "--x", "16", "--model", str(model))
        assert code == 0 and "trained N=2" in out
        test = tmp_path / "q.csv"
        test.write_text("3,4\n1.9,2\n")
        code, _, err = run(capsys, "classify", str(test), "--model", str(model))
        assert code == 2 and "row 1" in err and "1.9" in err

    def test_non_integer_cell_message_names_the_row(self, capsys, tmp_path):
        """Without a schema the first row holding a fraction is named with its cells."""
        train = tmp_path / "t.csv"
        train.write_text("a b c\n1 2 3\n4 5 6\n-0 7 8.25\n9 10.5 11\n")
        code, out, err = run(capsys, "train", str(train), "--x", "16")
        assert code == 2 and out == ""
        assert err == f"invpat: {train}: row 2: non-integer cell in (-0.0, 7.0, 8.25)\n"


class TestHugeX:
    """An X whose K * (X + 1) offsets cannot be allocated is a usage error, exit 1."""

    @pytest.mark.parametrize("x, schema", [
        (10**12, True), (10**12, False), (2**62, False)])
    def test_unallocatable_x_is_usage_error(self, capsys, tmp_path, x, schema):
        data = tmp_path / "d.csv"
        data.write_text("1,7\n2,9\n")
        argv = ["train", str(data), "--x", str(x)]
        if schema:
            save_schema(ColumnSchema([ColumnSpec("a", "feature"),
                                      ColumnSpec("t", "parameter-t")]), tmp_path / "s.json")
            argv += ["--schema", str(tmp_path / "s.json")]
        code, _, err = run(capsys, *argv)
        assert code == 1 and f"X={x} is too large" in err and "bytes" in err

    def test_wide_t_trains_and_predicts(self, capsys, tmp_path):
        """t values 2**63 apart at one feature value make a valid table."""
        data, model = tmp_path / "d.csv", tmp_path / "p.ipat"
        data.write_text("a,t\n1,4611686018427387904\n1,-4611686018427387904\n")
        save_schema(ColumnSchema([ColumnSpec("a", "feature"), ColumnSpec("t", "parameter-t")]),
                    tmp_path / "s.json")
        with pytest.warns(UserWarning, match="constant"):
            code, out, _ = run(capsys, "train", str(data), "--schema", str(tmp_path / "s.json"),
                               "--model", str(model))
        assert code == 0 and "t=[-4611686018427387904,4611686018427387904]" in out
        with pytest.warns(UserWarning, match="constant"):
            code, out, _ = run(capsys, "predict", str(data), "--model", str(model))
        assert code == 0 and "0 t=-4611686018427387904\n1 t=-4611686018427387904\n" in out


def test_python_m_invpat_prints_what_main_prints(capsys, tmp_path):
    model, data = tmp_path / "p.ipat", tmp_path / "q.csv"
    save_model(build_param_index([((0, 1), 7), ((1, 1), 9)], X=4), model)
    data.write_text("0,1\n1,0\n3,3\n")
    argv = ["predict", str(data), "--model", str(model)]
    code, want, _ = run(capsys, *argv)
    src = str(Path(invpat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "invpat", *argv], capture_output=True,
                          text=True, env=env, timeout=60, check=False)
    elapsed = re.compile(r" in \d+\.\d+s$", re.M)  # the one line that differs run to run
    assert done.returncode == code == 0
    assert elapsed.sub("", done.stdout) == elapsed.sub("", want)
    assert "0 t=7" in want and "2 no-evidence" in want


class TestSchemaErrorsNameTheFile:
    """Data errors raised while reading a table through a schema name the file."""

    def write(self, tmp_path, roles, data):
        schema = tmp_path / "s.json"
        schema.write_text('{"columns": [%s]}' % ", ".join(
            f'{{"name": "{name}", "role": "{role}"}}' for name, role in roles))
        path = tmp_path / "d.csv"
        path.write_text(data)
        return str(path), str(schema)

    def test_nan_row(self, capsys, tmp_path):
        data, schema = self.write(tmp_path, [("a", "feature")], "-1e308\n1e308\n")
        code, _, err = run(capsys, "train", data, "--schema", schema)
        assert code == 2 and f"{data}: row 1: scales to NaN" in err

    def test_missing_column(self, capsys, tmp_path):
        data, schema = self.write(tmp_path, [("a", "feature"), ("b", "feature"), ("c", "feature")],
                                  "1,2\n3,4\n")
        code, _, err = run(capsys, "train", data, "--schema", schema)
        assert code == 2 and f"{data}: rows lack column 3 ('c')" in err

    def test_fractional_parameter(self, capsys, tmp_path):
        roles = [("a", "feature"), ("t", "parameter-t")]
        data, schema = self.write(tmp_path, roles, "1,7\n2,-0.9\n")
        code, _, err = run(capsys, "train", data, "--schema", schema)
        assert code == 2 and f"{data}: row 1: non-integer parameter-t cell -0.9" in err
        data, schema = self.write(tmp_path, roles, "1,7.0\n2,-3.0\n")  # integral floats pass
        code, out, _ = run(capsys, "train", data, "--schema", schema)
        assert code == 0 and "t=[-3,7]" in out

    @pytest.mark.parametrize("cell", ["1e19", "1e20", "-1e19"])
    def test_parameter_past_int64(self, capsys, tmp_path, cell):
        """Such a cell once failed as a float or object t column, naming no row."""
        data, schema = self.write(tmp_path, [("a", "feature"), ("t", "parameter-t")],
                                  f"1,{cell}\n2,7\n")
        code, _, err = run(capsys, "train", data, "--schema", schema)
        assert code == 2 and f"{data}: row 0: parameter-t cell {float(cell)!r}" in err


class TestPredict:
    def test_param_flow(self, capsys, tmp_path):
        schema = tmp_path / "s.json"
        schema.write_text(
            '{"columns": [{"name": "a", "role": "feature"},'
            ' {"name": "t", "role": "parameter-t"}]}')
        data = tmp_path / "d.csv"
        data.write_text("0,7\n0,7\n1,9\n")
        model = tmp_path / "p.ipat"
        code, out, _ = run(capsys, "train", str(data), "--schema", str(schema),
                           "--x", "4", "--model", str(model))
        assert code == 0 and "param-index rows=3" in out
        code, out, _ = run(capsys, "predict", str(data), "--model", str(model))
        assert code == 0 and "0 t=7" in out

    def test_test_split_without_the_parameter_column(self, capsys, tmp_path):
        """A test table that lacks the parameter-t column predicts what the same
        table with the column present predicts: the column is padded in place."""
        schema, train, model = tmp_path / "s.json", tmp_path / "d.csv", tmp_path / "p.ipat"
        save_schema(ColumnSchema([ColumnSpec("u", "id"), ColumnSpec("a", "feature"),
                                  ColumnSpec("t", "parameter-t"), ColumnSpec("b", "feature")]),
                    schema)
        train.write_text("u,a,t,b\n1,0.5,7,3\n1,1.5,9,1\n2,2.5,4,2\n2,0.25,4,3.5\n")
        code, out, _ = run(capsys, "train", str(train), "--schema", str(schema), "--x", "8",
                           "--model", str(model))
        assert code == 0 and "param-index rows=4" in out
        queries = [("3", "0.5", "3"), ("4", "2.5", "2"), ("5", "9", "-1"), ("6", "1.5", "1")]
        lines = {}
        for name, t in (("with", "0"), ("without", None)):
            path = tmp_path / f"{name}.csv"
            path.write_text("".join(",".join([u, a] + ([t] if t else []) + [b]) + "\n"
                                    for u, a, b in queries))
            code, out, _ = run(capsys, "predict", str(path), "--model", str(model))
            assert code == 0
            lines[name] = [ln for ln in out.splitlines()
                           if not ln.startswith(("# invpat ", "# predicted "))]
        assert lines["without"] == lines["with"] == ["0 t=7", "1 t=4", "2 t=4", "3 t=9"]

    def test_out_writes_the_prediction_histogram(self, capsys, tmp_path):
        model, data, out = tmp_path / "p.ipat", tmp_path / "q.csv", tmp_path / "h.txt"
        save_model(build_param_index([((0, 1), 7), ((1, 1), 9)], X=4), model)
        data.write_text("0,1\n1,1\n0,1\n3,3\n")
        code, _, _ = run(capsys, "predict", str(data), "--model", str(model), "--out", str(out))
        assert code == 0 and out.read_text() == "7 2\n9 1\n"


    def test_out_of_range_row_is_data_error(self, capsys, tmp_path):
        model = tmp_path / "p.ipat"
        save_model(build_param_index([((0, 1), 7)], X=4), model)
        data = tmp_path / "q.csv"
        data.write_text("0,1\n0,9\n")
        code, _, err = run(capsys, "predict", str(data), "--model", str(model))
        assert code == 2 and "row 1" in err

    def test_numeric_model_is_data_error(self, capsys, tmp_path):
        model = tmp_path / "m.ipat"
        save_model(Model(2, 16, 0), model)
        data = tmp_path / "q.csv"
        data.write_text("0,1\n")
        code, _, err = run(capsys, "predict", str(data), "--model", str(model))
        assert code == 2 and "not a parameter index" in err


class TestDetectSegment:
    def scene(self, tmp_path):
        """Paths of an RGB background and object frame, plus the frame's pixels."""
        frame = np.full((32, 32, 3), 30, np.uint8)
        save_pnm(RasterImage(frame), tmp_path / "bg.ppm")
        frame[8:20, 8:20] = (220, 40, 40)
        save_pnm(RasterImage(frame), tmp_path / "fr.ppm")
        return str(tmp_path / "bg.ppm"), str(tmp_path / "fr.ppm"), frame

    @pytest.mark.parametrize("model, message", [
        (build_param_index([((0, 1), 7)], X=4), "not a numeric pixel model"),
        (Model(3, 256, 0), "model carries no label table")])
    def test_segment_model_without_labels_is_data_error(self, capsys, tmp_path, model, message):
        bg_path, _, _ = self.scene(tmp_path)
        save_model(model, tmp_path / "m.ipat")
        out = tmp_path / "labels.ppm"
        code, _, err = run(capsys, "segment", bg_path, "--model", str(tmp_path / "m.ipat"),
                           "--out", str(out))
        assert code == 2 and message in err and not out.exists()

    def test_detect_gray_background_rgb_frame_is_data_error(self, capsys, tmp_path):
        _, fr_path, frame = self.scene(tmp_path)
        gray = tmp_path / "bg.pgm"
        save_pnm(RasterImage(frame[:, :, 0]), gray)
        code, _, err = run(capsys, "detect", str(gray), fr_path, fr_path)
        assert code == 2 and "bg.pgm" in err

    def test_detect_frames_of_different_sizes_is_data_error(self, capsys, tmp_path):
        bg_path, _, frame = self.scene(tmp_path)
        small = tmp_path / "small.ppm"
        save_pnm(RasterImage(frame[:16]), small)
        code, _, err = run(capsys, "detect", bg_path, str(small), bg_path)
        assert code == 2 and "small.ppm" in err

    def test_detect_gray_query_against_rgb_model_is_data_error(self, capsys, tmp_path):
        bg_path, fr_path, frame = self.scene(tmp_path)
        gray = tmp_path / "q.pgm"
        save_pnm(RasterImage(frame[:, :, 0]), gray)
        code, _, err = run(capsys, "detect", bg_path, fr_path, str(gray))
        assert code == 2 and "q.pgm" in err and "channels" in err

    def test_detect_scene(self, capsys, tmp_path):
        rng = np.random.default_rng(149)
        palette = np.array([[10, 10, 10], [30, 30, 30], [50, 50, 50]], dtype=np.uint8)
        bg = palette[rng.integers(0, 3, size=(32, 32))]
        frame = bg.copy()
        frame[8:20, 8:20] = (220, 40, 40)
        bg_path, fr_path = tmp_path / "bg.ppm", tmp_path / "fr.ppm"
        save_pnm(RasterImage(bg), bg_path)
        save_pnm(RasterImage(frame), fr_path)
        code, out, _ = run(capsys, "detect", str(bg_path), str(fr_path),
                           str(bg_path), str(fr_path),
                           "--r", "10", "--freq-threshold", "3")
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0].endswith("no-object")
        assert "object=1" in lines[1]

    def test_detect_huge_cluster_distance(self, capsys, tmp_path):
        """A distance of 2**62 runs and answers as the frame's span, 31, does:
        both put every matched pixel in one cluster."""
        bg_path, fr_path, _ = self.scene(tmp_path)
        results = []
        for dist in ("4611686018427387904", "31"):
            code, out, _ = run(capsys, "detect", bg_path, fr_path, bg_path, fr_path,
                               "--r", "10", "--freq-threshold", "3", "--cluster-dist", dist)
            assert code == 0
            results.append([ln for ln in out.splitlines() if not ln.startswith("#")])
        assert results[0] == results[1] and "object=1" in results[0][1]

    def test_segment(self, capsys, tmp_path):
        from invpat import LabelTable

        m = Model(3, 256, 0)
        table = LabelTable()
        table.attach(m.insert_class((0, 0, 200)), "water")
        m.labels = table
        model = tmp_path / "m.ipat"
        save_model(m, model)
        px = np.zeros((2, 2, 3), dtype=np.uint8)
        px[0, 0] = (0, 0, 200)
        image = tmp_path / "i.ppm"
        save_pnm(RasterImage(px), image)
        out_path = tmp_path / "labels.ppm"
        code, out, _ = run(capsys, "segment", str(image), "--model", str(model),
                           "--out", str(out_path))
        assert code == 0
        assert "water 1" in out and "unlabeled 3" in out
        assert out_path.exists()
        legend = (str(out_path) + ".legend.txt")
        assert "water" in open(legend).read()

    def test_segment_grayscale_against_rgb_model_is_data_error(self, capsys, tmp_path):
        model = segment_model(tmp_path)
        image = tmp_path / "gray.pgm"
        save_pnm(RasterImage(np.zeros((2, 2), dtype=np.uint8)), image)
        code, _, err = run(capsys, "segment", str(image), "--model", model,
                           "--out", str(tmp_path / "labels.ppm"))
        assert code == 2 and "gray.pgm" in err and "channels" in err

    def test_segment_negative_radius_is_usage_error(self, capsys, tmp_path):
        model = segment_model(tmp_path)
        image = tmp_path / "i.ppm"
        save_pnm(RasterImage(np.zeros((2, 2, 3), dtype=np.uint8)), image)
        code, _, err = run(capsys, "segment", str(image), "--model", model, "--r", "-1",
                           "--out", str(tmp_path / "labels.ppm"))
        assert code == 1 and "radius" in err


class TestUnreadablePaths:
    """A path that names a directory is a data error, exit 2, not an internal fault."""

    def test_directory_as_data_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", str(tmp_path))
        assert code == 2 and "internal error" not in err

    def test_directory_as_model_to_classify(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n")
        code, _, err = run(capsys, "classify", str(data), "--model", str(tmp_path))
        assert code == 2 and "internal error" not in err

    def test_directory_as_model_to_train(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n")
        code, out, err = run(capsys, "train", str(data), "--model", str(tmp_path))
        assert (code, out) == (2, "") and "internal error" not in err  # no report of a model

    def test_directory_as_index_to_train(self, capsys, tmp_path):
        data, schema = tmp_path / "d.csv", tmp_path / "s.json"
        data.write_text("1,2\n3,4\n")
        save_schema(ColumnSchema([ColumnSpec("a", "feature"), ColumnSpec("t", "parameter-t")]),
                    schema)
        code, out, err = run(capsys, "train", str(data), "--schema", str(schema),
                             "--model", str(tmp_path))
        assert (code, out) == (2, "") and "internal error" not in err


EXIT_CODES = [  # (error raised by a command, exit code)
    (ConfigError("bad K"), 1), (ValidationError("bad row"), 1),
    (DataError("bad cell"), 2), (FormatError("bad file"), 2),
    (IsADirectoryError(21, "is a directory"), 2), (PermissionError(13, "denied"), 2),
    (NoEvidenceError("empty"), 3), (LevelError(2, ValueError("boom")), 3),
    (InvpatError("base"), 3), (KeyError("boom"), 3),
]


@pytest.mark.parametrize("error, code", EXIT_CODES, ids=[type(e).__name__ for e, _ in EXIT_CODES])
def test_exit_code_per_error_class(capsys, monkeypatch, error, code):
    """1 for usage, 2 for data, 3 for internal faults, whichever command raises;
    the message names the error, and only an exit 3 calls it internal."""
    def broken(args):
        raise error

    monkeypatch.setattr(cli, "cmd_bench", broken)
    got, out, err = run(capsys, "bench")
    assert (got, out) == (code, "") and str(error) in err
    assert ("internal error" in err) == (code == 3)


class TestBench:
    def test_small_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "bench.txt"
        code, out, _ = run(capsys, "bench", "--n-list", "50,100", "--k", "4",
                           "--x", "32", "--seed", "1", "--out", str(out_path))
        assert code == 0
        assert "R^2" in out and out_path.exists()

    @pytest.mark.parametrize("n_list", ["a", "10,,20", "-5", "0"])
    def test_bad_n_list_is_usage_error(self, capsys, n_list):
        """A token that is not an integer is rejected as argparse reads it, a
        class count below 1 by run_bench; neither is an internal error."""
        code, out, err = run(capsys, "bench", "--n-list", n_list, "--k", "4", "--x", "32")
        assert (code, out) == (1, "") and "internal error" not in err
        assert ("--n-list" if n_list in ("a", "10,,20") else "class count") in err

    @pytest.mark.parametrize("n_list", ["5", "5,5", "7,7,7"])
    def test_one_distinct_class_count_is_usage_error(self, capsys, n_list):
        """A line through one distinct point is no fit: R^2 would read 1 or 0."""
        code, out, err = run(capsys, "bench", "--n-list", n_list, "--k", "4", "--x", "32")
        assert (code, out) == (1, "") and "internal error" not in err
        assert "two distinct class counts" in err

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bench", "--n-list", "5,10", "--k", "4", "--x", "32",
                             "--seed", "-1")
        assert (code, out) == (1, "") and "internal error" not in err and "seed" in err


class TestRadiusFlags:
    def scene(self, tmp_path):
        rng = np.random.default_rng(149)
        palette = np.array([[10, 10, 10], [30, 30, 30], [50, 50, 50]], dtype=np.uint8)
        bg = palette[rng.integers(0, 3, size=(32, 32))]
        frame = bg.copy()
        frame[8:20, 8:20] = (220, 40, 40)
        bg_path, fr_path = tmp_path / "bg.ppm", tmp_path / "fr.ppm"
        save_pnm(RasterImage(bg), bg_path)
        save_pnm(RasterImage(frame), fr_path)
        return [str(bg_path), str(fr_path), str(bg_path), str(fr_path)]

    def test_detect_r_pct_is_a_percentage_of_256(self, capsys, tmp_path):
        paths = self.scene(tmp_path)
        results = []
        for radius in (["--r", "10"], ["--r-pct", "4"]):  # 4% of 256 rounds to 10
            code, out, _ = run(capsys, "detect", *paths, *radius, "--freq-threshold", "3")
            assert code == 0
            results.append([ln for ln in out.splitlines() if not ln.startswith("#")])
        assert results[0] == results[1] and "object=1" in results[0][1]

    def inputs(self, command, tmp_path):
        """Arguments that the command runs on without error."""
        if command == "train":
            (tmp_path / "d.csv").write_text("1,2\n3,4\n")
            return [str(tmp_path / "d.csv")]
        if command == "detect":
            return self.scene(tmp_path)
        if command == "segment":
            save_pnm(RasterImage(np.zeros((2, 2, 3), np.uint8)), tmp_path / "i.ppm")
            return [str(tmp_path / "i.ppm"), "--model", segment_model(tmp_path),
                    "--out", str(tmp_path / "labels.ppm")]
        return ["--n-list", "50,100", "--k", "4"]

    @pytest.mark.parametrize("pct", ["nan", "inf", "1e400", "1e308"])
    @pytest.mark.parametrize("command", ["train", "detect", "segment", "bench"])
    def test_non_finite_r_pct_is_usage_error(self, capsys, tmp_path, command, pct):
        """A percentage that gives no finite radius is a usage error: nan, inf,
        1e400 (read as inf) and 1e308, whose share of 256 overflows."""
        code, out, err = run(capsys, command, *self.inputs(command, tmp_path), "--r-pct", pct)
        assert (code, out) == (1, "") and "internal error" not in err and "--r-pct" in err

    def test_detect_has_no_x_flag(self, capsys, tmp_path):
        code, _, err = run(capsys, "detect", *self.scene(tmp_path), "--x", "100",
                           "--r-pct", "10")
        assert code == 1 and "--x" in err

    def test_train_has_no_seed_flag(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n3,4\n")
        code, _, err = run(capsys, "train", str(data), "--x", "16", "--seed", "1")
        assert code == 1 and "--seed" in err
