"""Command-line front end: generate-elman, cluster, evaluate, bench.

Owns all on-disk formats: tag, pin, gold and vocabulary tables as TSV,
per-level stats and benchmark results as CSV, all written by write_table
and read by read_table (UTF-8, LF endings, an exact header row, reals at
12 significant digits, no tab or line break inside a field, no first
field repeated, errors naming path:line), and a JSON run manifest beside
every output whose config is the parsed arguments, so the run can be
repeated from it; a cluster manifest also lists, per level, the words
the search rescored and chose from.

Exit codes: 0 success, 1 evaluation gate failure (error level medium or
high), 2 usage or input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bigram import BigramStore, count_bigrams
from .corpus import TokenizerOptions, TokenStream, Vocabulary, build_vocabulary, tokenize
from .elman import ELMAN_GOLD, GoldReference, evaluate, sentences
from .errors import ConfigError, ConsistencyError, IngestionError, TagsplitError
from .splitter import (
    MAX_LEVELS,
    STRATEGIES,
    ClusterConfig,
    LevelStats,
    TagRow,
    TagTable,
    cluster,
)

EXIT_OK = 0
EXIT_GATE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

TAGS_HEADER = ["surface", "bit_string", "frequency", "class_id"]
GOLD_HEADER = ["word", "group", "pos"]
STATS_HEADER = [
    "level", "iterations", "committed_moves", "retracted_moves",
    "acmi_before", "acmi_after", "wall_seconds", "capped",
]
BENCH_HEADER = ["V", "method", "seed", "level", "cumulative_seconds", "acmi_after"]
_ROW_BREAKERS = frozenset("\t\n\r")


def _real(x: float) -> str:
    return format(x, ".12g")


def read_text_file(path: Path) -> str:
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise IngestionError(
            f"{path}: undecodable byte at offset {e.start} ({e.reason})"
        ) from e


def _text_lines(path: Path) -> io.StringIO:
    """A decoded file as a line stream with universal newlines, as open() gives."""
    return io.StringIO(read_text_file(path), newline=None)


def _create(path: Path):
    return open(path, "w", encoding="utf-8", newline="\n")


def read_table(
    fh, header: list[str], source: Path | str, what: str, repeat: str = "listed"
) -> list[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank row of a tab-separated table.

    Checks the whole table before returning: the exact header, one field
    per column, and no repeated first field.  Errors name ``source:line``
    and call the table `what`; `repeat` says how a repeated first field
    was already used ("listed", "pinned").
    """
    got = fh.readline().rstrip("\n").split("\t")
    if got != header:
        raise ConfigError(
            f"{source}:1: {what} header must be {', '.join(header)}; got {got}"
        )
    rows = []
    line_of: dict[str, int] = {}
    for n, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(header):
            raise ConfigError(f"{source}:{n}: bad {what} row {line!r}")
        key = fields[0]
        if key in line_of:
            raise ConfigError(
                f"{source}:{n}: {key!r} is already {repeat} on line {line_of[key]}"
            )
        line_of[key] = n
        rows.append((n, fields))
    return rows


def write_table(fh, header: list[str], rows, sep: str = "\t") -> None:
    """Write a header row and the data rows, LF-terminated.

    Reals are written at 12 significant digits, every other field as str().
    A field holding a tab, "\n" or "\r" would split its row, so it raises
    ConfigError naming its column and line, before anything is written.
    """
    lines = [sep.join(header) + "\n"]
    for n, row in enumerate(rows, start=2):
        fields = [_real(f) if isinstance(f, float) else str(f) for f in row]
        for column, field in zip(header, fields):
            if not _ROW_BREAKERS.isdisjoint(field):
                raise ConfigError(
                    f"cannot write {column} {field!r} on line {n}: "
                    "a field may not hold a tab or a line break"
                )
        lines.append(sep.join(fields) + "\n")
    fh.write("".join(lines))


def _bit_string(source: Path, n: int, bits: str) -> str:
    if not bits or set(bits) - {"0", "1"}:
        raise ConfigError(f"{source}:{n}: bit string {bits!r} is not a 0/1 string")
    return bits


def write_tags_tsv(path: Path, tags: TagTable) -> None:
    with _create(path) as fh:
        rows = ((r.surface, r.bits, r.frequency, r.class_id) for r in tags.rows)
        write_table(fh, TAGS_HEADER, rows)


def read_tags_tsv(path: Path) -> TagTable:
    rows = []
    table = read_table(_text_lines(path), TAGS_HEADER, path, "tag TSV")
    for n, (surface, bits, freq, cid) in table:
        try:
            row = TagRow(surface, bits, int(freq), int(cid))
        except ValueError as e:
            raise ConfigError(f"{path}:{n}: bad tag TSV row: {e}") from e
        if row.class_id != int(_bit_string(path, n, bits), 2):
            raise ConfigError(
                f"{path}:{n}: class id {row.class_id} is not bit string {bits!r}"
            )
        rows.append(row)
    return TagTable(rows)


def write_stats_csv(path: Path, stats: list[LevelStats]) -> None:
    rows = (
        (s.level, s.iterations, s.committed_moves, s.retracted_moves,
         s.acmi_before, s.acmi_after, s.wall_time, int(s.capped))
        for s in stats
    )
    with _create(path) as fh:
        write_table(fh, STATS_HEADER, rows, ",")


def read_pins_tsv(path: Path) -> dict[str, str]:
    header = ["surface", "bit_string"]
    rows = read_table(_text_lines(path), header, path, "pin TSV", "pinned")
    return {surface: _bit_string(path, n, bits) for n, (surface, bits) in rows}


def write_gold_tsv(fh, gold: GoldReference = ELMAN_GOLD) -> None:
    """Export a gold reference as TSV (word, group, pos-label)."""
    group_of = {w: name for name, members in gold.groups.items() for w in members}
    write_table(
        fh,
        GOLD_HEADER,
        ((w, group_of.get(w, ""), gold.pos.get(w, "")) for w in sorted(gold.words)),
    )


def read_gold_tsv(fh, source: str = "gold TSV") -> GoldReference:
    """Load a gold reference from TSV (word, group, pos-label).

    Words with an empty group are treated as ambiguous.  The pos label is
    noun, verb or empty.  Errors name `source` and the line number.
    """
    groups: dict[str, set[str]] = {}
    ambiguous: set[str] = set()
    pos: dict[str, str] = {}
    for n, (word, group, label) in read_table(fh, GOLD_HEADER, source, "gold TSV"):
        if label not in ("noun", "verb", ""):
            raise ConfigError(
                f"{source}:{n}: pos label {label!r} is not noun, verb or empty"
            )
        if group:
            groups.setdefault(group, set()).add(word)
        else:
            ambiguous.add(word)
        if label:
            pos[word] = label
    return GoldReference(
        groups={k: frozenset(v) for k, v in groups.items()},
        ambiguous=frozenset(ambiguous),
        pos=pos,
    )


def write_vocab_tsv(fh, vocab: Vocabulary) -> None:
    write_table(
        fh,
        ["word_id", "surface", "frequency", "kind"],
        ((e.word_id, e.surface, e.frequency, e.kind) for e in vocab.entries),
    )


def _manifest_path(first_output: Path) -> Path:
    return first_output.with_name(first_output.name + ".manifest.json")


def _distinct_files(*paths: Path) -> None:
    """Refuse a command that names one file twice, before it does any work,
    so no output overwrites an input or another output."""
    seen: dict[Path, Path] = {}
    for p in paths:
        resolved = p.resolve()
        if resolved in seen:
            raise ConfigError(f"{seen[resolved]} and {p} are the same file")
        seen[resolved] = p


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(
    args: argparse.Namespace,
    inputs: list[Path],
    outputs: list[Path],
    timings: dict[str, float],
    levels: list[dict] | None = None,
    **derived,
) -> None:
    """Write ``<first output>.manifest.json``; its config is the parsed
    arguments under their argparse names plus `derived` facts of the run,
    and `levels`, if given, lists per-level search counts."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    doc = {
        "tool": "tagsplit",
        "version": __version__,
        "command": args.command,
        "config": {**config, **derived},
        "inputs": [
            {"path": str(p), "sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in inputs
        ],
        "outputs": [str(p) for p in outputs],
        "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
    }
    if levels is not None:
        doc["levels"] = levels
    with _create(_manifest_path(outputs[0])) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_generate_elman(args: argparse.Namespace) -> int:
    if args.sentences < 1:
        raise ConfigError(f"--sentences must be >= 1, got {args.sentences}")
    t0 = time.perf_counter()
    corpus = sentences(args.sentences, args.seed)
    out = Path(args.out)
    with _create(out) as fh:
        for sent in corpus:
            fh.write(" ".join(sent) + "\n")
    write_manifest(args, [], [out], {"generate": time.perf_counter() - t0})
    return EXIT_OK


def build_pipeline(
    paths: list[Path], top_words: int, lowercase: bool, boundary: str
) -> tuple[Vocabulary, TokenStream, BigramStore]:
    """Shared corpus -> vocabulary -> bigram pipeline for cluster and bench.

    One streaming pass: each file is read and tokenized only when the
    vocabulary builder reaches it.  Each file's token stream is one
    segment, so no bigram spans two files.
    """
    options = TokenizerOptions(lowercase=lowercase, sentence_boundary=boundary)
    vocab, stream = build_vocabulary(
        (tokenize(read_text_file(p), options) for p in paths), top_words
    )
    return vocab, stream, count_bigrams(stream, vocab.size)


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.top_words < 1:
        raise ConfigError(f"--top-words must be >= 1, got {args.top_words}")
    inputs = [Path(p) for p in args.inputs]
    tags_path, stats_path = Path(args.tags), Path(args.stats)
    pins = [Path(args.pin)] if args.pin else []
    _distinct_files(tags_path, stats_path, _manifest_path(tags_path), *inputs, *pins)
    config = ClusterConfig(
        strategy=args.method,
        levels=args.levels,
        seed=args.seed,
        pinned=read_pins_tsv(Path(args.pin)) if args.pin else None,
    )
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    vocab, stream, store = build_pipeline(
        inputs, args.top_words, args.lowercase, args.boundary
    )
    timings["ingest"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    tags, stats = cluster(vocab, store, config)
    timings["cluster"] = time.perf_counter() - t0
    write_tags_tsv(tags_path, tags)
    write_stats_csv(stats_path, stats)
    derived = {"vocabulary_size": vocab.size, "bigram_total": store.T}
    # words rescored against words chosen from, so the kept share shows
    levels = [
        {"level": s.level, "words_scored": s.words_scored, "words_eligible": s.words_eligible}
        for s in stats
    ]
    write_manifest(args, inputs, [tags_path, stats_path], timings, levels, **derived)
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    tags = read_tags_tsv(Path(args.tags))
    if args.gold == "builtin-elman":
        gold = ELMAN_GOLD
    else:
        gold = read_gold_tsv(_text_lines(Path(args.gold)), args.gold)
    report = evaluate(tags, gold)
    print(f"level1_separation: {report.level1_separation}")
    print(f"dendrogram_purity: {_real(report.dendrogram_purity)}")
    for name, p in sorted(report.per_group_purity.items()):
        print(f"purity[{name}]: {_real(p)}")
    print(f"error_label: {report.error_label}")
    group_names = ",".join(sorted(report.per_group_purity))
    group_vals = ",".join(
        _real(report.per_group_purity[g]) for g in sorted(report.per_group_purity)
    )
    print("csv:level1_separation,dendrogram_purity,error_label," + group_names)
    print(
        f"csv:{int(report.level1_separation)},{_real(report.dendrogram_purity)},"
        f"{report.error_label},{group_vals}"
    )
    return EXIT_OK if report.error_label in ("none", "low") else EXIT_GATE


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        top_words = [int(k) for k in args.top_words.split(",")]
    except ValueError as e:
        raise ConfigError(f"--top-words must be a comma list of integers: {e}") from e
    methods = [m.strip() for m in args.methods.split(",")]
    for m in methods:
        if m not in STRATEGIES:
            raise ConfigError(f"unknown method {m!r} in --methods")
    if args.repeats < 1:
        raise ConfigError("--repeats must be >= 1")
    inp, out = Path(args.inp), Path(args.out)
    _distinct_files(out, _manifest_path(out), inp)
    rows: list[tuple[int, str, int, int, float, float]] = []
    t_bench = time.perf_counter()
    for k in top_words:
        vocab, stream, store = build_pipeline([inp], k, args.lowercase, "none")
        for method in methods:
            runs = []
            seeds = range(1, args.repeats + 1) if method == "m" else [0]
            for seed in seeds:
                config = ClusterConfig(strategy=method, levels=args.levels, seed=seed)
                t0 = time.perf_counter()
                _, stats = cluster(vocab, store, config)
                total = time.perf_counter() - t0
                runs.append((total, seed, stats))
            if method == "m" and len(runs) > 1:
                runs.sort(key=lambda r: r[0])
                runs = [runs[0], runs[-1]]  # fastest and slowest
            for _, seed, stats in runs:
                cumulative = 0.0
                for s in stats:
                    cumulative += s.wall_time
                    rows.append(
                        (vocab.size, method, seed, s.level, cumulative, s.acmi_after)
                    )
    slopes = []
    if len(top_words) >= 3:
        max_level = max(r[3] for r in rows)
        for method in methods:
            by_v: dict[int, list[float]] = {}
            for V, m, _, level, cum, _ in rows:
                if m == method and level == max_level:
                    by_v.setdefault(V, []).append(cum)
            if len(by_v) < 3:
                continue
            vs = sorted(by_v)
            ln_v = np.log([float(v) for v in vs])
            ln_t = np.log([float(np.mean(by_v[v])) for v in vs])
            slope, intercept = np.polyfit(ln_v, ln_t, 1)
            slopes.append(("", method, "", "slope", slope, intercept))
    with _create(out) as fh:
        write_table(fh, BENCH_HEADER, rows + slopes, ",")
    timings = {"bench": time.perf_counter() - t_bench}
    write_manifest(args, [inp], [out], timings)
    return EXIT_OK


def _cmd_export_gold(args: argparse.Namespace) -> int:
    out = Path(args.out)
    with _create(out) as fh:
        write_gold_tsv(fh)
    write_manifest(args, [], [out], {})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagsplit",
        description="Induce hierarchical word classes by mutual-information splitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-elman", help="write a synthetic grammar corpus")
    g.add_argument("--sentences", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate_elman)

    c = sub.add_parser("cluster", help="cluster a corpus into structured tags")
    c.add_argument("--in", dest="inputs", action="append", required=True, metavar="PATH")
    c.add_argument("--top-words", dest="top_words", type=int, required=True)
    c.add_argument("--levels", type=int, default=MAX_LEVELS)
    c.add_argument("--method", choices=STRATEGIES, default="znrp")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--pin", default=None, metavar="PATH")
    c.add_argument("--lowercase", action="store_true")
    c.add_argument("--boundary", choices=["none", "token"], default="none")
    c.add_argument("--tags", required=True, metavar="OUT")
    c.add_argument("--stats", required=True, metavar="OUT")
    c.set_defaults(func=_cmd_cluster)

    e = sub.add_parser("evaluate", help="score a tag table against a gold reference")
    e.add_argument("--tags", required=True, metavar="PATH")
    e.add_argument("--gold", default="builtin-elman", metavar="builtin-elman|PATH")
    e.set_defaults(func=_cmd_evaluate)

    b = sub.add_parser("bench", help="time the clustering methods on one corpus")
    b.add_argument("--in", dest="inp", required=True, metavar="PATH")
    b.add_argument("--top-words", dest="top_words", required=True, metavar="K1,K2,...")
    b.add_argument("--levels", type=int, default=MAX_LEVELS)
    b.add_argument("--methods", default="znrp,m", metavar="LIST")
    b.add_argument("--repeats", type=int, default=1)
    b.add_argument("--lowercase", action="store_true")
    b.add_argument("--out", required=True, metavar="CSV")
    b.set_defaults(func=_cmd_bench)

    x = sub.add_parser("export-gold", help="write the built-in gold reference as TSV")
    x.add_argument("--out", required=True)
    x.set_defaults(func=_cmd_export_gold)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyError as e:
        print(f"tagsplit: internal consistency failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except TagsplitError as e:
        print(f"tagsplit: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"tagsplit: i/o error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
