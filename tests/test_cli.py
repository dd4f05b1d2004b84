import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tagsplit import ConfigError, cli
from tagsplit.cli import (
    EXIT_GATE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    build_pipeline,
    main,
    read_tags_tsv,
    write_stats_csv,
    write_tags_tsv,
)
from tagsplit.splitter import LevelStats, TagRow, TagTable
from tagsplit.elman import generate
from tagsplit.synth import markov_text
from conftest import pair_count


@pytest.fixture(scope="module")
def elman_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "elman400.txt"
    rc = main(["generate-elman", "--sentences", "400", "--seed", "1", "--out", str(path)])
    assert rc == EXIT_OK
    return path


@pytest.fixture(scope="module")
def markov_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "markov8k.txt"
    sents = markov_text(8000, n_types=3000, n_states=16, seed=11)
    path.write_text("".join(" ".join(s) + "\n" for s in sents))
    return path


# tags TSV SHA-256 of an 8-level run on markov_corpus, top 120 words,
# --boundary token, from a search that rescored every eligible word at
# every step
GOLDEN_TAGS_SHA256 = {
    "m": "3bb13cfe52aff7be5101925cb94b870334e6cd14858cfcce8ff5508a985073f7",
    "znr": "991f72b191e9baea7cc0295a1123cd8daa46c986dc010d945c1beb70c4e491a1",
    "znrp": "5e531813e7a8947ea7d0d714b364b599a6602ca45fac25be6bd977afa04b08cb",
}


def run_cluster(corpus, tmp_path, *extra, method="znrp", levels="4", top="29"):
    tags = tmp_path / "tags.tsv"
    stats = tmp_path / "stats.csv"
    rc = main(
        [
            "cluster",
            "--in", str(corpus),
            "--top-words", top,
            "--levels", levels,
            "--method", method,
            "--tags", str(tags),
            "--stats", str(stats),
            *extra,
        ]
    )
    return rc, tags, stats


class TestGenerateElman:
    def test_writes_expected_lines(self, tmp_path):
        out = tmp_path / "c.txt"
        rc = main(["generate-elman", "--sentences", "50", "--seed", "2", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 50
        assert all(len(line.split()) in (2, 3) for line in lines)
        assert out.with_name(out.name + ".manifest.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        main(["generate-elman", "--sentences", "100", "--seed", "5", "--out", str(a)])
        main(["generate-elman", "--sentences", "100", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_matches_library_generator(self, tmp_path):
        out = tmp_path / "c.txt"
        main(["generate-elman", "--sentences", "30", "--seed", "7", "--out", str(out)])
        assert out.read_text().split() == generate(30, seed=7)

    def test_zero_sentences_rejected(self, tmp_path):
        rc = main(["generate-elman", "--sentences", "0", "--out", str(tmp_path / "x")])
        assert rc == EXIT_USAGE

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["generate-elman", "--sentences", "5", "--seed", "-1", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


class TestCluster:
    def test_outputs_and_manifest(self, elman_corpus, tmp_path):
        rc, tags, stats = run_cluster(elman_corpus, tmp_path)
        assert rc == EXIT_OK
        table = read_tags_tsv(tags)
        assert len(table.rows) == 29
        lines = stats.read_text().splitlines()
        assert lines[0] == (
            "level,iterations,committed_moves,retracted_moves,"
            "acmi_before,acmi_after,wall_seconds,capped"
        )
        assert all(line.endswith(",0") for line in lines[1:])
        assert len(lines) == 1 + 4
        manifest = json.loads((tmp_path / "tags.tsv.manifest.json").read_text())
        assert manifest["command"] == "cluster"
        assert manifest["config"]["method"] == "znrp"
        assert manifest["inputs"][0]["sha256"]
        levels = manifest["levels"]
        assert [lv["level"] for lv in levels] == [1, 2, 3, 4]
        assert all(0 < lv["words_scored"] <= lv["words_eligible"] for lv in levels)

    def test_manifest_config_reproduces_run(self, elman_corpus, tmp_path):
        pin = tmp_path / "pins.tsv"
        pin.write_text("surface\tbit_string\neat\t1\n")
        rc, tags, _ = run_cluster(
            elman_corpus, tmp_path, "--pin", str(pin), "--lowercase",
            "--boundary", "token", "--epsilon", "1e-9", method="znr",
        )
        assert rc == EXIT_OK
        config = json.loads((tmp_path / "tags.tsv.manifest.json").read_text())["config"]
        assert config.pop("vocabulary_size") == 29
        assert config.pop("bigram_total") > 0
        rerun = tmp_path / "rerun"
        rerun.mkdir()
        config.update(tags=str(rerun / "tags.tsv"), stats=str(rerun / "stats.csv"))
        argv = ["cluster", *(f"--in={p}" for p in config["inputs"])]
        for key in ("top_words", "levels", "method", "seed", "epsilon", "pin",
                    "boundary", "tags", "stats"):
            argv.append(f"--{key.replace('_', '-')}={config[key]}")
        if config["lowercase"]:
            argv.append("--lowercase")
        args = vars(build_parser().parse_args(argv))
        assert {k: v for k, v in args.items() if k not in ("command", "func")} == config
        assert main(argv) == EXIT_OK
        assert (rerun / "tags.tsv").read_bytes() == tags.read_bytes()

    def test_capped_level_marked_in_stats_file(self, tmp_path):
        path = tmp_path / "stats.csv"
        levels = [
            LevelStats(1, 5, 5, 0, 0.0, 0.5, 0.01),
            LevelStats(2, 8, 8, 0, 0.5, 2 / 3, 0.02, capped=True),
        ]
        write_stats_csv(path, levels)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [row[-1] for row in rows] == ["0", "1"]
        assert rows[1][5] == "0.666666666667"  # reals at 12 significant digits

    @pytest.mark.parametrize("bad", ["a\tb", "x\ny", "x\ry"])
    def test_tags_file_refuses_a_field_that_splits_its_row(self, tmp_path, bad):
        path = tmp_path / "tags.tsv"
        rows = [TagRow("fine", "0", 3, 0), TagRow(bad, "1", 2, 1)]
        with pytest.raises(ConfigError, match=r"cannot write surface .* on line 3:"):
            write_tags_tsv(path, TagTable(rows))
        assert path.read_text() == ""

    def test_acmi_monotone_in_stats_file(self, elman_corpus, tmp_path):
        rc, _, stats = run_cluster(elman_corpus, tmp_path)
        rows = [line.split(",") for line in stats.read_text().splitlines()[1:]]
        for row in rows:
            assert float(row[5]) >= float(row[4]) - 1e-12

    def test_byte_identical_tags_for_znrp(self, elman_corpus, tmp_path):
        r1 = tmp_path / "r1"
        r2 = tmp_path / "r2"
        r1.mkdir()
        r2.mkdir()
        _, tags1, _ = run_cluster(elman_corpus, r1, method="znrp")
        _, tags2, _ = run_cluster(elman_corpus, r2, method="znrp")
        assert tags1.read_bytes() == tags2.read_bytes()

    @pytest.mark.parametrize("method", sorted(GOLDEN_TAGS_SHA256))
    def test_tags_match_recorded_sha256(self, markov_corpus, tmp_path, method):
        # --seed 3 moves only m's draws; znrp retracts once at level 8
        rc, tags, _ = run_cluster(
            markov_corpus, tmp_path, "--boundary", "token", "--seed", "3",
            method=method, levels="8", top="120",
        )
        assert rc == EXIT_OK
        assert hashlib.sha256(tags.read_bytes()).hexdigest() == GOLDEN_TAGS_SHA256[method]

    def test_levels_over_cap_exit_2(self, elman_corpus, tmp_path, capsys):
        rc, *_ = run_cluster(elman_corpus, tmp_path, levels="11")
        assert rc == EXIT_USAGE
        assert "1024" in capsys.readouterr().err

    def test_surface_that_splits_a_row_exit_2(self, tmp_path, capsys, monkeypatch):
        # tokenize never yields such a token, so the test stands one in
        corpus = tmp_path / "in.txt"
        corpus.write_text("x y x y z\n")
        monkeypatch.setattr(
            cli, "tokenize", lambda text, options: ["x\ty", "z", "x\ty", "z", "w"]
        )
        rc, tags, stats = run_cluster(corpus, tmp_path, levels="1", top="3")
        assert rc == EXIT_USAGE
        assert "cannot write surface 'x\\ty' on line 2" in capsys.readouterr().err
        assert tags.read_text() == ""
        assert not stats.exists()

    def test_runtime_imports_only_numpy_beyond_the_stdlib(self, tmp_path):
        # a fresh interpreter, so that no test's imports count; the snapshot
        # leaves out what site's .pth hooks load before any import, and
        # _sysconfigdata_<platform> is the stdlib's own build configuration
        corpus = tmp_path / "in.txt"
        corpus.write_text("a b a c b a d\n" * 20)
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from tagsplit.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "stdlib = {m for m in new if m.startswith('_sysconfigdata_')}\n"
            "stdlib |= set(sys.stdlib_module_names)\n"
            "print(rc, sorted(new - stdlib - {'numpy', 'tagsplit'}))\n"
        )
        argv = [
            "cluster", "--in", str(corpus), "--top-words", "3", "--levels", "2",
            "--tags", str(tmp_path / "tags.tsv"), "--stats", str(tmp_path / "stats.csv"),
        ]
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(EXIT_OK), "[]"]

    @pytest.mark.parametrize("method", ["m", "znr", "znrp"])
    def test_negative_seed_exit_2(self, elman_corpus, tmp_path, capsys, method):
        rc, tags, _ = run_cluster(elman_corpus, tmp_path, "--seed", "-1", method=method)
        assert rc == EXIT_USAGE
        assert "seed" in capsys.readouterr().err
        assert not tags.exists()

    def test_zero_top_words_exit_2(self, elman_corpus, tmp_path):
        rc, *_ = run_cluster(elman_corpus, tmp_path, top="0")
        assert rc == EXIT_USAGE

    def test_empty_corpus_exit_2(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc, *_ = run_cluster(empty, tmp_path)
        assert rc == EXIT_USAGE

    def test_missing_input_exit_2(self, tmp_path):
        rc, *_ = run_cluster(tmp_path / "nope.txt", tmp_path)
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    def test_epsilon_not_finite_non_negative_exit_2(
        self, elman_corpus, tmp_path, capsys, epsilon
    ):
        rc, tags, _ = run_cluster(elman_corpus, tmp_path, f"--epsilon={epsilon}")
        assert rc == EXIT_USAGE
        assert "epsilon must be finite and non-negative" in capsys.readouterr().err
        assert not tags.exists()

    def test_bad_pin_file_exit_2(self, elman_corpus, tmp_path, capsys):
        pin = tmp_path / "pins.tsv"
        pin.write_text("surface\tbit_string\nman\t012\n")
        rc, *_ = run_cluster(elman_corpus, tmp_path, "--pin", str(pin))
        assert rc == EXIT_USAGE
        assert f"{pin}:2: bit string '012' is not a 0/1 string" in capsys.readouterr().err

    def test_undecodable_pin_file_exit_2(self, elman_corpus, tmp_path, capsys):
        pin = tmp_path / "pins.tsv"
        pin.write_bytes(b"surface\tbit_string\nm\xffan\t1\n")
        rc, *_ = run_cluster(elman_corpus, tmp_path, "--pin", str(pin))
        assert rc == EXIT_USAGE
        assert f"{pin}: undecodable byte at offset 20" in capsys.readouterr().err

    def test_duplicate_pin_surface_exit_2(self, elman_corpus, tmp_path, capsys):
        pin = tmp_path / "pins.tsv"
        pin.write_text("surface\tbit_string\nman\t1\neat\t0\nman\t0\n")
        rc, tags, _ = run_cluster(elman_corpus, tmp_path, "--pin", str(pin))
        assert rc == EXIT_USAGE
        assert f"{pin}:4: 'man' is already pinned on line 2" in capsys.readouterr().err
        assert not tags.exists()

    def test_pin_file_honored(self, elman_corpus, tmp_path):
        pin = tmp_path / "pins.tsv"
        pin.write_text("surface\tbit_string\neat\t1\nsleep\t1\n")
        rc, tags, _ = run_cluster(elman_corpus, tmp_path, "--pin", str(pin))
        assert rc == EXIT_OK
        bits = read_tags_tsv(tags).bits_by_surface()
        assert bits["eat"].startswith("1")
        assert bits["sleep"].startswith("1")

    def test_pin_path_longer_than_levels_is_truncated(self, tmp_path):
        corpus = tmp_path / "elman10k.txt"
        main(["generate-elman", "--sentences", "10000", "--seed", "1", "--out", str(corpus)])
        pin = tmp_path / "pins.tsv"
        pin.write_text("surface\tbit_string\nman\t1111111\n")
        rc, tags, _ = run_cluster(corpus, tmp_path, "--pin", str(pin), levels="3")
        assert rc == EXIT_OK
        assert read_tags_tsv(tags).bits_by_surface()["man"] == "111"


class TestEvaluate:
    def test_gate_exit_codes(self, elman_corpus, tmp_path, capsys):
        rc, tags, _ = run_cluster(elman_corpus, tmp_path, levels="6", top="29")
        assert rc == EXIT_OK
        rc = main(["evaluate", "--tags", str(tags), "--gold", "builtin-elman"])
        out = capsys.readouterr().out
        assert "error_label:" in out
        assert "dendrogram_purity:" in out
        label = [l for l in out.splitlines() if l.startswith("error_label:")][0]
        if label.split()[1] in ("none", "low"):
            assert rc == EXIT_OK
        else:
            assert rc == EXIT_GATE

    def test_shuffled_tags_fail_gate(self, elman_corpus, tmp_path):
        rc, tags, _ = run_cluster(elman_corpus, tmp_path, levels="5")
        table = read_tags_tsv(tags)
        rotated = [r.bits for r in table.rows]
        rotated = rotated[7:] + rotated[:7]
        shuffled = tags.with_name("shuffled.tsv")
        with open(shuffled, "w") as fh:
            fh.write("surface\tbit_string\tfrequency\tclass_id\n")
            for r, b in zip(table.rows, rotated):
                fh.write(f"{r.surface}\t{b}\t{r.frequency}\t{int(b, 2)}\n")
        rc = main(["evaluate", "--tags", str(shuffled), "--gold", "builtin-elman"])
        assert rc == EXIT_GATE

    def test_coverage_gap_exit_2(self, tmp_path):
        tags = tmp_path / "partial.tsv"
        tags.write_text("surface\tbit_string\tfrequency\tclass_id\nman\t0\t3\t0\n")
        rc = main(["evaluate", "--tags", str(tags), "--gold", "builtin-elman"])
        assert rc == EXIT_USAGE

    def test_writes_nothing_and_returns_gate_code(self, elman_corpus, tmp_path, capsys):
        rc, tags, _ = run_cluster(elman_corpus, tmp_path, levels="6")
        assert rc == EXIT_OK
        listing = sorted(p.name for p in tmp_path.iterdir())
        rc = main(["evaluate", "--tags", str(tags), "--gold", "builtin-elman"])
        label = capsys.readouterr().out.split("error_label: ")[1].split()[0]
        assert rc == (EXIT_OK if label in ("none", "low") else EXIT_GATE)
        assert sorted(p.name for p in tmp_path.iterdir()) == listing

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("man\tab0\t3\t0", "bit string 'ab0' is not a 0/1 string"),
            ("man\t\t3\t0", "bit string '' is not a 0/1 string"),
            ("man\t011\t3\t999", "class id 999 is not bit string '011'"),
            ("woman\t1\t3\t1", "'woman' is already listed on line 2"),
            ("man\t0\t3\t0\t1", "bad tag TSV row"),
        ],
    )
    def test_bad_tag_row_exit_2(self, tmp_path, capsys, row, problem):
        tags = tmp_path / "tags.tsv"
        tags.write_text(
            f"surface\tbit_string\tfrequency\tclass_id\nwoman\t0\t3\t0\n{row}\n"
        )
        rc = main(["evaluate", "--tags", str(tags), "--gold", "builtin-elman"])
        assert rc == EXIT_USAGE
        assert f"{tags}:3: {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("word\tgroup\tpos\textra\nman\tHUM\tN\t1\n", ":1: gold TSV header"),
            ("word\tgroup\tpos\nman\tHUM\tN\ncat\tANIM\n", ":3: bad gold TSV row"),
            (
                "word\tgroup\tpos\nman\tHUM\tnoun\nboy\tHUM\tnoun\nman\tANIM\tnoun\n",
                ":4: 'man' is already listed on line 2",
            ),
            (
                "word\tgroup\tpos\nman\tHUM\tNoun\n",
                ":2: pos label 'Noun' is not noun, verb or empty",
            ),
        ],
    )
    def test_bad_gold_file_exit_2(self, elman_corpus, tmp_path, capsys, text, where):
        rc, tags, _ = run_cluster(elman_corpus, tmp_path, levels="6")
        assert rc == EXIT_OK
        gold = tmp_path / "gold.tsv"
        gold.write_text(text)
        rc = main(["evaluate", "--tags", str(tags), "--gold", str(gold)])
        assert rc == EXIT_USAGE
        assert f"{gold}{where}" in capsys.readouterr().err

    def test_undecodable_tags_exit_2(self, tmp_path, capsys):
        tags = tmp_path / "tags.tsv"
        tags.write_bytes(b"surface\tbit_string\tfrequency\tclass_id\nman\xe9\t0\t3\t0\n")
        rc = main(["evaluate", "--tags", str(tags), "--gold", "builtin-elman"])
        assert rc == EXIT_USAGE
        assert f"{tags}: undecodable byte at offset 41" in capsys.readouterr().err

    def test_undecodable_gold_exit_2(self, elman_corpus, tmp_path, capsys):
        rc, tags, _ = run_cluster(elman_corpus, tmp_path, levels="6")
        assert rc == EXIT_OK
        gold = tmp_path / "gold.tsv"
        gold.write_bytes(b"word\tgroup\tpos\n\x80man\tnoun\tN\n")
        rc = main(["evaluate", "--tags", str(tags), "--gold", str(gold)])
        assert rc == EXIT_USAGE
        assert f"{gold}: undecodable byte at offset 15" in capsys.readouterr().err

    def test_gold_tsv_export_and_use(self, elman_corpus, tmp_path):
        gold = tmp_path / "gold.tsv"
        rc = main(["export-gold", "--out", str(gold)])
        assert rc == EXIT_OK
        header = gold.read_text().splitlines()[0]
        assert header == "word\tgroup\tpos"
        rc, tags, _ = run_cluster(elman_corpus, tmp_path, levels="6")
        rc_builtin = main(["evaluate", "--tags", str(tags), "--gold", "builtin-elman"])
        rc_file = main(["evaluate", "--tags", str(tags), "--gold", str(gold)])
        assert rc_builtin == rc_file


class TestBench:
    def test_structure_and_slope_rules(self, elman_corpus, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(
            [
                "bench",
                "--in", str(elman_corpus),
                "--top-words", "29",
                "--levels", "3",
                "--methods", "znrp,m",
                "--repeats", "3",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "V,method,seed,level,cumulative_seconds,acmi_after"
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["command"] == "bench"
        assert manifest["config"] == {
            "inp": str(elman_corpus), "top_words": "29", "levels": 3,
            "methods": "znrp,m", "repeats": 3, "lowercase": False, "out": str(out),
        }
        body = [l.split(",") for l in lines[1:]]
        # znrp once + m fastest/slowest of 3, each reporting 3 levels
        assert len(body) == 3 * 3
        assert not any(row[3] == "slope" for row in body)  # single V: no slope
        znrp_rows = [r for r in body if r[1] == "znrp"]
        cumulative = [float(r[4]) for r in znrp_rows]
        assert cumulative == sorted(cumulative)

    def test_unknown_method_exit_2(self, elman_corpus, tmp_path):
        rc = main(
            [
                "bench",
                "--in", str(elman_corpus),
                "--top-words", "29",
                "--methods", "bogus",
                "--out", str(tmp_path / "b.csv"),
            ]
        )
        assert rc == EXIT_USAGE

    def test_slope_rows_with_three_vocab_sizes(self, elman_corpus, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(
            [
                "bench",
                "--in", str(elman_corpus),
                "--top-words", "12,20,29",
                "--levels", "2",
                "--methods", "znrp",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        slopes = [r for r in rows if r[3] == "slope"]
        assert len(slopes) == 1 and slopes[0][1] == "znrp"
        float(slopes[0][4])  # slope parses as a real


class TestPathCollisions:
    @pytest.mark.parametrize(
        "argv",
        [
            "cluster --in in.txt --tags o.tsv --stats o.tsv",
            "cluster --in in.txt --tags in.txt --stats s.csv",
            "cluster --in in.txt --tags o.tsv --stats in.txt",
            "cluster --in in.txt --tags o.tsv --stats o.tsv.manifest.json",
            "cluster --in o.tsv.manifest.json --tags o.tsv --stats s.csv",
            "cluster --in in.txt --pin pins.tsv --tags pins.tsv --stats s.csv",
            "cluster --in in.txt --in sub/../in.txt --tags o.tsv --stats s.csv",
            "bench --in in.txt --out in.txt",
            "bench --in o.csv.manifest.json --out o.csv",
        ],
    )
    def test_one_file_named_twice_exit_2(self, elman_corpus, tmp_path, capsys, argv):
        (tmp_path / "sub").mkdir()
        for name in ("in.txt", "o.tsv.manifest.json", "o.csv.manifest.json"):
            (tmp_path / name).write_bytes(elman_corpus.read_bytes())
        (tmp_path / "pins.tsv").write_text("surface\tbit_string\nman\t1\n")

        def files():
            return {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

        before = files()
        command, *words = argv.split()
        paths = [w if w.startswith("--") else str(tmp_path / w) for w in words]
        rc = main([command, *paths, "--top-words", "29", "--levels", "2"])
        assert rc == EXIT_USAGE
        assert "are the same file" in capsys.readouterr().err
        assert files() == before


class TestCorpusLoading:
    @pytest.mark.parametrize("size", [0, 2**20 - 1, 2**20 + 1])
    def test_input_digest_matches_sha256(self, tmp_path, size):
        data = np.random.default_rng(size).integers(0, 256, size, np.uint8).tobytes()
        path = tmp_path / "in.bin"
        path.write_bytes(data)
        assert cli._sha256(path) == hashlib.sha256(data).hexdigest()

    def test_files_never_flow_into_each_other(self, tmp_path):
        a = tmp_path / "a.txt"
        empty = tmp_path / "empty.txt"
        b = tmp_path / "b.txt"
        a.write_text("x y")
        empty.write_text("\n")
        b.write_text("z w")
        vocab, stream, store = build_pipeline([a, empty, b], 10, False, "none")
        assert [vocab.entries[i].surface for i in stream.ids] == ["x", "y", "z", "w"]
        assert stream.breaks.tolist() == [2]
        assert pair_count(store, vocab.index["y"], vocab.index["z"]) == 0
        assert store.T == 2

    def test_ingest_never_holds_the_corpus_as_strings(self, tmp_path):
        # 300,000 tokens over about 14,500 types, 15 to a line.  The traced
        # peak was 23,482,184 bytes when every token string stayed alive until
        # the vocabulary was built (Python 3.11, numpy 2.4); streaming ingest
        # must need at most half of that.
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in (rng.zipf(1.3, 300_000) % 20_000).tolist()]
        path = tmp_path / "big.txt"
        path.write_text(
            "\n".join(" ".join(words[j : j + 15]) for j in range(0, len(words), 15)),
            encoding="utf-8",
        )
        del words
        tracemalloc.start()
        try:
            _, stream, _ = build_pipeline([path], 60, False, "token")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream.ids) == 300_000
        assert peak <= 23_482_184 // 2

    def test_undecodable_bytes_reported_with_offset(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"good text " + bytes([0xFF, 0xFE]) + b" more")
        from tagsplit import IngestionError

        with pytest.raises(IngestionError, match="offset 10"):
            build_pipeline([bad], 10, False, "none")
