"""Tests for the ``tcam`` command-line interface."""

import io
import shutil
import zipfile

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.serialize import load_params, save_params


def assert_one_line_refusal(capsys, prefix):
    """A refused command says why in one stderr line, never a traceback."""
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(prefix)
    assert "Traceback" not in err
    return lines[0]


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ratings.csv"
    code = main(
        [
            "generate",
            "--profile",
            "digg",
            "--scale",
            "0.2",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def snapshot(dataset_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.npz"
    code = main(
        [
            "fit",
            "--input",
            str(dataset_csv),
            "--model",
            "ttcam",
            "--k1",
            "6",
            "--k2",
            "6",
            "--iters",
            "20",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_csv(self, dataset_csv):
        header = dataset_csv.read_text().splitlines()[0]
        assert header == "user,interval,item,score"

    def test_unknown_profile_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--profile", "netflix", "--output", str(tmp_path / "x.csv")])

    def test_invalid_scale_is_a_usage_error(self, tmp_path, capsys):
        output = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["generate", "--scale", "nan", "--output", str(output)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --scale: must be finite and positive, got nan" in err
        assert "Traceback" not in err
        assert not output.exists()


class TestInfo:
    def test_prints_statistics(self, dataset_csv, capsys):
        assert main(["info", "--input", str(dataset_csv)]) == 0
        out = capsys.readouterr().out
        assert "users:" in out
        assert "density:" in out


class TestFit:
    def test_snapshot_created(self, snapshot):
        assert snapshot.exists()

    def test_reports_lambda(self, dataset_csv, tmp_path, capsys):
        main(
            [
                "fit",
                "--input",
                str(dataset_csv),
                "--model",
                "itcam",
                "--k1",
                "4",
                "--iters",
                "10",
                "--output",
                str(tmp_path / "it.npz"),
            ]
        )
        out = capsys.readouterr().out
        assert "λ̄" in out
        assert "snapshot written" in out

    def test_baselines_cannot_snapshot(self, dataset_csv, tmp_path):
        code = main(
            [
                "fit",
                "--input",
                str(dataset_csv),
                "--model",
                "ut",
                "--output",
                str(tmp_path / "ut.npz"),
            ]
        )
        assert code == 2


class TestRecommend:
    def test_top_k_printed(self, snapshot, capsys):
        code = main(
            [
                "recommend",
                "--model",
                str(snapshot),
                "--user",
                "0",
                "--interval",
                "3",
                "-k",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("item") >= 5
        assert "fully scored" in out

    def test_out_of_range_user(self, snapshot, capsys):
        code = main(
            [
                "recommend",
                "--model",
                str(snapshot),
                "--user",
                "999999",
                "--interval",
                "0",
            ]
        )
        assert code == 2

    def test_out_of_range_interval(self, snapshot):
        code = main(
            [
                "recommend",
                "--model",
                str(snapshot),
                "--user",
                "0",
                "--interval",
                "999999",
            ]
        )
        assert code == 2

    def test_engine_choices(self, snapshot, capsys):
        base = ["recommend", "--model", str(snapshot), "--user", "1", "--interval", "2"]
        assert main(base) == 0
        default = capsys.readouterr().out
        assert "[batch: fully scored" in default
        for engine in ("bf", "ta"):
            assert main(base + ["--engine", engine]) == 0
            out = capsys.readouterr().out
            assert f"[{engine}: fully scored" in out
            # the reference engines print the batch scorer's ranking
            assert [line.split()[2] for line in out.splitlines()[:10]] == [
                line.split()[2] for line in default.splitlines()[:10]
            ]
        for removed in ("batched-ta", "classic-ta"):
            with pytest.raises(SystemExit) as refused:
                main(base + ["--engine", removed])
            assert refused.value.code == 2

    def test_nonpositive_k_is_a_clean_error(self, snapshot, capsys):
        code = main(
            ["recommend", "--model", str(snapshot), "--user", "1", "--interval", "2", "-k", "0"]
        )
        assert code == 2
        assert "k must be positive" in capsys.readouterr().err

    def test_missing_query_and_batch_file_rejected(self, snapshot, capsys):
        code = main(["recommend", "--model", str(snapshot)])
        assert code == 2
        assert "--batch-file" in capsys.readouterr().err

    @pytest.mark.parametrize("dtype", ["float64", "int8"])
    def test_batch_file_served(self, snapshot, tmp_path, capsys, dtype):
        batch = tmp_path / "queries.csv"
        batch.write_text("# user,interval\n0,3\n1,3\n2,0\n0,3\n")
        code = main(
            [
                "recommend",
                "--model",
                str(snapshot),
                "--batch-file",
                str(batch),
                "-k",
                "5",
                "--batch-size",
                "2",
                "--serve-dtype",
                dtype,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("(")]
        assert len(lines) == 4
        assert lines[0] == lines[3]  # duplicate queries → identical rows
        assert "4 queries (0 degraded)" in out
        assert "cache hit-rate" in out

    def test_batch_file_stdin(self, snapshot, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("# user,interval\n0,3\n1,0\n"))
        code = main(
            ["recommend", "--model", str(snapshot), "--batch-file", "-", "-k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("(")]
        assert len(lines) == 2
        assert "2 queries (0 degraded)" in out

    def test_batch_file_stdin_errors_name_stdin(self, snapshot, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("bogus line\n"))
        code = main(["recommend", "--model", str(snapshot), "--batch-file", "-"])
        assert code == 2
        assert "<stdin>:1:" in capsys.readouterr().err

    def test_batch_file_empty_rejected(self, snapshot, tmp_path, capsys):
        batch = tmp_path / "queries.csv"
        batch.write_text("# only a comment\n")
        code = main(
            ["recommend", "--model", str(snapshot), "--batch-file", str(batch)]
        )
        assert code == 2


class TestRecommendMmapQuantized:
    @pytest.fixture(scope="class")
    def mmap_snapshot(self, dataset_csv, tmp_path_factory, request):
        path = tmp_path_factory.mktemp("cli-mmap") / "model.npz"
        code = main(
            [
                "fit",
                "--input", str(dataset_csv),
                "--model", "ttcam",
                "--k1", "6",
                "--k2", "6",
                "--iters", "15",
                "--output", str(path),
                "--mmap-layout",
            ]
        )
        assert code == 0
        return path

    def test_fit_writes_sidecar(self, mmap_snapshot):
        # the derived members the sidecar directory held, inside the snapshot
        with zipfile.ZipFile(mmap_snapshot) as archive:
            assert {"item_topic.npy", "tcam_manifest.npy"} <= set(archive.namelist())
        assert list(mmap_snapshot.parent.iterdir()) == [mmap_snapshot]

    @pytest.mark.parametrize("dtype", ["int8"])
    def test_quantized_batch_rows_identical_to_float64(
        self, mmap_snapshot, tmp_path, capsys, dtype
    ):
        batch = tmp_path / "queries.csv"
        batch.write_text("0,3\n1,3\n2,0\n0,3\n")
        outputs = {}
        for mode in ("float64", dtype):
            code = main(
                [
                    "recommend",
                    "--model", str(mmap_snapshot),
                    "--batch-file", str(batch),
                    "-k", "5",
                    "--select-dtype", mode,
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            outputs[mode] = [l for l in out.splitlines() if l.startswith("(")]
            assert f"dtype {mode}" in out
        assert outputs[dtype] == outputs["float64"]

    def test_malformed_batch_line_refused_clearly(self, mmap_snapshot, tmp_path, capsys):
        batch = tmp_path / "queries.csv"
        batch.write_text("user,interval\n0,0\n")
        code = main(
            [
                "recommend",
                "--model", str(mmap_snapshot),
                "--batch-file", str(batch),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "queries.csv:1" in err
        assert "'user,interval'" in err
        assert "Traceback" not in err

    def test_quantized_single_query_refused_clearly(self, mmap_snapshot, capsys):
        code = main(
            [
                "recommend",
                "--model", str(mmap_snapshot),
                "--user", "0",
                "--interval", "0",
                "--select-dtype", "int8",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--batch-file" in err
        assert "Traceback" not in err

    def test_unknown_dtype_refused_by_parser(self, mmap_snapshot, capsys):
        # int4 never existed; float32/float16 were removed — both parsers
        # offer float64 and int8 only.
        for command in (["recommend", "--user", "0", "--interval", "0"], ["serve"]):
            for dtype in ("int4", "float32", "float16"):
                with pytest.raises(SystemExit):
                    main(
                        command
                        + ["--model", str(mmap_snapshot), "--select-dtype", dtype]
                    )
                err = capsys.readouterr().err
                assert "invalid choice" in err
                assert "'float64', 'int8'" in err

    def test_mmap_single_query_serves(self, mmap_snapshot, capsys):
        code = main(
            [
                "recommend",
                "--model", str(mmap_snapshot),
                "--user", "0",
                "--interval", "3",
                "-k", "5",
            ]
        )
        assert code == 0
        assert "fully scored" in capsys.readouterr().out

    def test_mmap_flag_is_gone(self, mmap_snapshot, capsys):
        for command in (["recommend", "--user", "0", "--interval", "0"], ["serve"]):
            with pytest.raises(SystemExit) as refused:
                main(command + ["--model", str(mmap_snapshot), "--mmap"])
            assert refused.value.code == 2
            assert "unrecognized arguments: --mmap" in capsys.readouterr().err


class TestServeStartupFailure:
    """`tcam serve` on an unusable snapshot: one line on stderr, exit 2."""

    def _assert_clean_refusal(self, model, capsys):
        import multiprocessing

        code = main(["serve", "--model", str(model), "--port", "0", "--workers", "2"])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("tcam serve: worker ")
        assert " failed: " in lines[0]
        assert "Traceback" not in captured.err
        assert "workers on" not in captured.out  # never announced a port
        assert multiprocessing.active_children() == []  # every worker reaped
        return lines[0]

    def test_missing_snapshot(self, tmp_path, capsys):
        line = self._assert_clean_refusal(tmp_path / "missing.npz", capsys)
        assert "missing.npz" in line

    def test_corrupt_snapshot(self, snapshot, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(snapshot.read_bytes()[:200])
        line = self._assert_clean_refusal(corrupt, capsys)
        assert "SnapshotCorruptError" in line


class TestEvaluate:
    def test_metrics_table(self, dataset_csv, capsys):
        code = main(
            [
                "evaluate",
                "--input",
                str(dataset_csv),
                "--model",
                "ttcam",
                "--k1",
                "6",
                "--k2",
                "6",
                "--iters",
                "15",
                "--ks",
                "1,5",
                "--max-queries",
                "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "precision" in out
        assert "ndcg" in out

    def test_baseline_models_evaluable(self, dataset_csv, capsys):
        code = main(
            [
                "evaluate",
                "--input",
                str(dataset_csv),
                "--model",
                "tt",
                "--iters",
                "10",
                "--ks",
                "5",
                "--max-queries",
                "40",
            ]
        )
        assert code == 0


class TestAnalyze:
    """The former ``tcam analyze`` surface: its pool rules are gone, its
    serving-layer lock rule TCAM012 runs in ``tcam check``'s lint family."""

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "TCAM012" in out
        for code in ("TCAM010", "TCAM011"):
            assert code not in out

    def test_exit_codes(self, tmp_path, capsys):
        # TCAM012 reads its scope off the path: a file named like a serving one.
        dirty = tmp_path / "recommend" / "serving.py"
        dirty.parent.mkdir()
        dirty.write_text(
            "class Cache:\n"
            "    def put(self, key, value):\n"
            "        self._entries[key] = value\n",
            encoding="utf-8",
        )
        assert main(["check", str(dirty)]) == 1
        assert "TCAM012" in capsys.readouterr().out
        assert main(["check", "--ignore", "TCAM012", str(dirty)]) == 0

        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n", encoding="utf-8")
        assert main(["check", str(clean)]) == 0

    @pytest.mark.parametrize("preset", ["lint", "analyze", "audit", "prove"])
    def test_preset_commands_are_unknown(self, preset, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([preset])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestFitSanitize:
    """``TCAM_SANITIZE=1`` is the one sanitizer switch of ``tcam fit``."""

    def test_fit_under_sanitizer(self, dataset_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TCAM_SANITIZE", "1")
        path = tmp_path / "model.npz"
        code = main(
            [
                "fit",
                "--input",
                str(dataset_csv),
                "--model",
                "ttcam",
                "--k1",
                "4",
                "--k2",
                "4",
                "--iters",
                "3",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        assert path.exists()

    def test_sanitize_flag_is_gone(self, dataset_csv, tmp_path, capsys):
        argv = ["fit", "--input", str(dataset_csv), "--output", str(tmp_path / "m.npz")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--sanitize"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --sanitize" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--block-size", "-5")])
    def test_nonpositive_engine_flags_are_usage_errors(
        self, dataset_csv, tmp_path, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "fit",
                    "--input", str(dataset_csv),
                    "--output", str(tmp_path / "model.npz"),
                    flag, value,
                ]
            )
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {flag}: must be a positive integer" in err


    @pytest.mark.parametrize(
        "command, flag",
        [
            ("fit", "--k1"),
            ("fit", "--k2"),
            ("fit", "--iters"),
            ("fit", "--checkpoint-every"),
            ("evaluate", "--k1"),
            ("evaluate", "--k2"),
            ("evaluate", "--iters"),
            ("evaluate", "--max-queries"),
        ],
    )
    def test_zero_counts_are_usage_errors(self, dataset_csv, tmp_path, capsys, command, flag):
        argv = [command, "--input", str(dataset_csv), flag, "0"]
        if command == "fit":
            argv += ["--output", str(tmp_path / "model.npz")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer" in err
        assert "Traceback" not in err

    def test_threads_flag_is_gone(self, dataset_csv, tmp_path, capsys):
        argv = ["fit", "--input", str(dataset_csv), "--output", str(tmp_path / "m.npz")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--threads", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err


STREAM_RUN = ["stream", "run", "--log", "wal", "--snapshot", "m.npz", "--checkpoints", "c"]

#: Count flag -> the rest of a command line it belongs to.
COUNT_FLAGS = {
    "--segment-events": ["stream", "append", "--log", "wal", "--input", "e.csv"],
    "--batch-events": STREAM_RUN,
    "--checkpoint-every": STREAM_RUN,
    "--max-batches": STREAM_RUN,
    "--max-batch": ["serve", "--model", "m.npz"],
    "--workers": ["serve", "--model", "m.npz"],
    "--batch-size": ["recommend", "--model", "m.npz", "--batch-file", "q.csv"],
    "--max-topics": ["report", "--model", "m.npz", "--input", "r.csv"],
}


#: Seeded command -> the rest of its command line.
SEED_COMMANDS = {
    "generate": ["generate", "--output", "r.csv"],
    "fit": ["fit", "--input", "r.csv", "--output", "m.npz"],
    "evaluate": ["evaluate", "--input", "r.csv"],
}


class TestOutOfRangeOptions:
    """Counts and thresholds are checked by argparse: usage error, exit 2."""

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", list(COUNT_FLAGS))
    def test_nonpositive_counts(self, tmp_path, monkeypatch, capsys, flag, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([*COUNT_FLAGS[flag], flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer" in err
        assert "Traceback" not in err
        assert not (tmp_path / "wal").exists()  # refused before touching the log

    @pytest.mark.parametrize("command", list(SEED_COMMANDS))
    def test_negative_seed(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([*SEED_COMMANDS[command], "--seed", "-1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be a non-negative integer, got -1" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())  # refused before writing anything

    @pytest.mark.parametrize("value", ["0", "-1", "a", "", "1,,2"])
    def test_malformed_evaluate_ks(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([*SEED_COMMANDS["evaluate"], "--ks", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --ks: must be a comma-separated list of positive integers" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())  # refused before reading the input

    @pytest.mark.parametrize("value", ["nan", "inf", "1.5", "-1.01"])
    def test_drift_threshold_outside_cosine_range(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([*STREAM_RUN, "--drift-threshold", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --drift-threshold: must be finite and in [-1, 1]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["-1", "1", "0.85"])
    def test_drift_threshold_inside_cosine_range_parses(self, value):
        args = build_parser().parse_args([*STREAM_RUN, "--drift-threshold", value])
        assert args.drift_threshold == float(value)


class TestFitResumeRefusal:
    """`tcam fit --resume` under another configuration: one line, exit 2."""

    @pytest.mark.parametrize(
        "changed",
        [("--k1", "5"), ("--seed", "3"), ("--block-size", "64"), ("--model", "w-ttcam")],
        ids=lambda flag: flag[0].lstrip("-"),
    )
    def test_mismatched_resume_is_refused_cleanly(
        self, dataset_csv, tmp_path, capsys, changed
    ):
        base = [
            "fit",
            "--input", str(dataset_csv),
            "--k1", "4",
            "--k2", "4",
            "--iters", "4",
            "--checkpoint-dir", str(tmp_path / "ckpts"),
            "--checkpoint-every", "2",
            "--output", str(tmp_path / "model.npz"),
        ]
        assert main(base) == 0
        capsys.readouterr()
        # argparse keeps the last occurrence, so appending overrides.
        assert main(base + ["--resume", *changed]) == 2
        line = assert_one_line_refusal(capsys, "tcam fit: ")
        assert "different configuration" in line

    def test_matching_resume_still_runs(self, dataset_csv, tmp_path, capsys):
        base = [
            "fit",
            "--input", str(dataset_csv),
            "--k1", "4",
            "--k2", "4",
            "--iters", "4",
            "--checkpoint-dir", str(tmp_path / "ckpts"),
            "--checkpoint-every", "2",
            "--output", str(tmp_path / "model.npz"),
        ]
        assert main(base) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert main(base + ["--resume"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == first


class TestStream:
    @pytest.fixture()
    def events_csv(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "user,interval,item,score\n"
            "0,0,1,1.0\n"
            "1,0,2,2.0\n"
            "2,1,3,1.0\n"
            "0,2,4,\n"  # blank score defaults to implicit 1.0
        )
        return path

    def test_append_run_status_loop(self, snapshot, events_csv, tmp_path, capsys):
        log_dir = tmp_path / "wal"
        ckpt_dir = tmp_path / "ckpt"
        folded = tmp_path / "folded.npz"
        assert main(["stream", "append", "--log", str(log_dir), "--input", str(events_csv)]) == 0
        assert "appended 4 events" in capsys.readouterr().out
        assert (
            main(
                [
                    "stream", "run",
                    "--log", str(log_dir),
                    "--snapshot", str(snapshot),
                    "--checkpoints", str(ckpt_dir),
                    "--batch-events", "3",
                    "--output", str(folded),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "applied 4 events in 2 micro-batches" in out
        assert folded.exists()
        assert main(
            ["stream", "status", "--log", str(log_dir), "--checkpoints", str(ckpt_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "4 durable events" in out
        assert "offset 4" in out

    def _refused_append(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = main(["stream", "append", "--log", str(tmp_path / "wal"), "--input", str(bad)])
        assert code == 2
        assert not (tmp_path / "wal").exists()  # refused before touching the log
        return assert_one_line_refusal(capsys, "tcam stream append: ")

    def test_append_rejects_missing_columns(self, tmp_path, capsys):
        line = self._refused_append(tmp_path, capsys, "who,when\n1,2\n")
        assert "missing columns ['interval', 'item', 'user']" in line

    @pytest.mark.parametrize(
        "text, where",
        [
            ("user,interval,item,score\n0,0,1,1.0\n1,zero,2,2.0\n", "bad.csv:3: "),
            ("user,interval,item\n0,0\n", "bad.csv:2: "),
            ("user,interval,item,score\n0,0,1,1.0\n1,0,2,inf\n", "bad.csv:3: score"),
            ("user,interval,item,score\n0,0,1,nan\n", "bad.csv:2: score"),
            ("user,interval,item,score\n0,0,1,-2\n", "bad.csv:2: score"),
        ],
        ids=["non-numeric-field", "short-row", "infinite-score", "nan-score", "negative-score"],
    )
    def test_append_names_the_line_of_a_bad_field(self, tmp_path, capsys, text, where):
        assert where in self._refused_append(tmp_path, capsys, text)

    def test_status_without_checkpoints_reports_log_only(self, tmp_path, capsys):
        log_dir = tmp_path / "wal"
        # status on a brand-new (empty) log directory
        assert main(["stream", "status", "--log", str(log_dir)]) == 0
        assert "0 durable events" in capsys.readouterr().out

    def test_run_rejects_itcam_snapshot(self, dataset_csv, tmp_path, capsys):
        snap = tmp_path / "itcam.npz"
        assert (
            main(
                [
                    "fit",
                    "--input", str(dataset_csv),
                    "--model", "itcam",
                    "--k1", "4",
                    "--iters", "2",
                    "--output", str(snap),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert self._run(tmp_path, snap) == 2
        assert "TTCAM snapshot" in assert_one_line_refusal(capsys, "tcam stream run: ")
        assert not (tmp_path / "wal").exists()  # refused before touching the log

    def _run(self, tmp_path, snapshot, *extra):
        return main(
            [
                "stream", "run",
                "--log", str(tmp_path / "wal"),
                "--snapshot", str(snapshot),
                "--checkpoints", str(tmp_path / "ckpt"),
                *extra,
            ]
        )

    @pytest.mark.parametrize("every, saves", [("1", 2), ("100", 1)])
    def test_run_ends_on_exactly_one_checkpoint_of_the_last_batch(
        self, snapshot, events_csv, tmp_path, capsys, monkeypatch, every, saves
    ):
        from repro.robustness import CheckpointManager

        written = []
        save = CheckpointManager.save

        def counting_save(self, arrays, iteration, log_likelihood=None):
            written.append(iteration)
            return save(self, arrays, iteration, log_likelihood)

        monkeypatch.setattr(CheckpointManager, "save", counting_save)
        log_dir = tmp_path / "wal"
        assert main(["stream", "append", "--log", str(log_dir), "--input", str(events_csv)]) == 0
        knobs = ("--batch-events", "2", "--checkpoint-every", every, "--drift-threshold", "-1")
        mine = shutil.copy(snapshot, tmp_path / "mine.npz")
        assert self._run(tmp_path, mine, *knobs) == 0
        # Cadence 1 already checkpointed batch 2; cadence 100 left it to the CLI.
        assert written == [1, 2][-saves:]
        assert self._run(tmp_path, mine, *knobs) == 0  # nothing new: no write
        assert len(written) == saves
        # The overlay checkpoint answers `status` on its own.
        mine.unlink()
        capsys.readouterr()
        assert main(
            ["stream", "status", "--log", str(log_dir), "--checkpoints", str(tmp_path / "ckpt")]
        ) == 0
        assert "offset 4 after 2 micro-batches" in capsys.readouterr().out

    def test_run_under_a_refitted_snapshot_is_refused_cleanly(
        self, snapshot, events_csv, tmp_path, capsys
    ):
        log_dir = tmp_path / "wal"
        assert main(["stream", "append", "--log", str(log_dir), "--input", str(events_csv)]) == 0
        assert self._run(tmp_path, snapshot) == 0
        capsys.readouterr()
        params = load_params(snapshot)
        refit = save_params(
            params.with_fields(phi=params.phi[::-1].copy()), tmp_path / "refit.npz"
        )
        assert self._run(tmp_path, refit) == 2
        line = assert_one_line_refusal(capsys, "tcam stream run: ")
        assert "other phi/phi_time" in line

    def test_run_missing_snapshot_is_refused_cleanly(self, tmp_path, capsys):
        assert self._run(tmp_path, tmp_path / "missing.npz") == 2
        line = assert_one_line_refusal(capsys, "tcam stream run: ")
        assert "missing.npz" in line
        assert not (tmp_path / "wal").exists()  # refused before touching the log

    def test_run_corrupt_snapshot_is_refused_cleanly(self, snapshot, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(snapshot.read_bytes()[:200])
        assert self._run(tmp_path, corrupt) == 2
        assert "unreadable" in assert_one_line_refusal(capsys, "tcam stream run: ")

    def test_run_under_changed_batch_events_is_refused_cleanly(
        self, snapshot, events_csv, tmp_path, capsys
    ):
        log_dir = tmp_path / "wal"
        assert main(["stream", "append", "--log", str(log_dir), "--input", str(events_csv)]) == 0
        assert self._run(tmp_path, snapshot, "--batch-events", "3") == 0
        capsys.readouterr()
        assert self._run(tmp_path, snapshot, "--batch-events", "2") == 2
        line = assert_one_line_refusal(capsys, "tcam stream run: ")
        assert "different configuration" in line
