"""Command-line front end: generate-elman, cluster, evaluate, bench.

Owns all on-disk formats: tag tables and vocabularies as TSV, per-level
stats and benchmark results as CSV (UTF-8, LF endings, header rows, reals
at 12 significant digits), pin files as TSV (surface, bit_string), and a
JSON run manifest emitted alongside every output so results can be
re-derived from recorded configuration and input digests.

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
from .corpus import (
    BOUNDARY_TOKEN,
    TokenizerOptions,
    TokenStream,
    Vocabulary,
    build_vocabulary,
    tokenize,
)
from .elman import ELMAN_GOLD, evaluate, read_gold_tsv, sentences, write_gold_tsv
from .errors import (
    ConfigError,
    ConsistencyError,
    CoverageError,
    IngestionError,
    TagsplitError,
)
from .objective import EPSILON
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


def load_corpus(paths: list[Path], options: TokenizerOptions) -> list[str]:
    """Tokenize and concatenate files; a forced boundary separates files."""
    tokens: list[str] = []
    for path in paths:
        file_tokens = tokenize(read_text_file(path), options)
        if tokens and file_tokens:
            tokens.append(BOUNDARY_TOKEN)
        tokens.extend(file_tokens)
    return tokens


def write_tags_tsv(path: Path, tags: TagTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("surface\tbit_string\tfrequency\tclass_id\n")
        for r in tags.rows:
            fh.write(f"{r.surface}\t{r.bits}\t{r.frequency}\t{r.class_id}\n")


def read_tags_tsv(path: Path) -> TagTable:
    rows = []
    with _text_lines(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != ["surface", "bit_string", "frequency", "class_id"]:
            raise ConfigError(f"{path}: unexpected tag TSV header {header}")
        for n, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                surface, bits, freq, cid = line.split("\t")
                row = TagRow(surface, bits, int(freq), int(cid))
            except ValueError as e:
                raise ConfigError(f"{path}:{n}: bad tag row {line!r}") from e
            if not bits or set(bits) - {"0", "1"}:
                raise ConfigError(f"{path}:{n}: bit string {bits!r} is not a 0/1 string")
            if row.class_id != int(bits, 2):
                raise ConfigError(
                    f"{path}:{n}: class id {row.class_id} is not bit string {bits!r}"
                )
            rows.append(row)
    return TagTable(rows)


def write_stats_csv(path: Path, stats: list[LevelStats]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "level,iterations,committed_moves,retracted_moves,"
            "acmi_before,acmi_after,wall_seconds,capped\n"
        )
        for s in stats:
            fh.write(
                f"{s.level},{s.iterations},{s.committed_moves},{s.retracted_moves},"
                f"{_real(s.acmi_before)},{_real(s.acmi_after)},{_real(s.wall_time)},"
                f"{int(s.capped)}\n"
            )


def read_pins_tsv(path: Path) -> dict[str, str]:
    pins: dict[str, str] = {}
    line_of: dict[str, int] = {}
    try:
        fh = _text_lines(path)
    except OSError as e:
        raise ConfigError(f"cannot read pin file {path}: {e}") from e
    header = fh.readline().rstrip("\n").split("\t")
    if header != ["surface", "bit_string"]:
        raise ConfigError(f"{path}: pin file header must be surface<TAB>bit_string")
    for n, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[1] or set(parts[1]) - {"0", "1"}:
            raise ConfigError(f"{path}:{n}: bad pin line {line!r}")
        surface, bits = parts
        if surface in line_of:
            raise ConfigError(
                f"{path}:{n}: {surface!r} is already pinned on line {line_of[surface]}"
            )
        line_of[surface] = n
        pins[surface] = bits
    return pins


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(
    path: Path,
    command: str,
    config: dict,
    inputs: list[Path],
    outputs: list[Path],
    timings: dict[str, float],
) -> None:
    doc = {
        "tool": "tagsplit",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": [
            {"path": str(p), "sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in inputs
        ],
        "outputs": [str(p) for p in outputs],
        "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_generate_elman(args: argparse.Namespace) -> int:
    if args.sentences < 1:
        raise ConfigError(f"--sentences must be >= 1, got {args.sentences}")
    t0 = time.perf_counter()
    corpus = sentences(args.sentences, args.seed)
    out = Path(args.out)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        for sent in corpus:
            fh.write(" ".join(sent) + "\n")
    write_manifest(
        out.with_name(out.name + ".manifest.json"),
        "generate-elman",
        {"sentences": args.sentences, "seed": args.seed, "out": str(out)},
        inputs=[],
        outputs=[out],
        timings={"generate": time.perf_counter() - t0},
    )
    return EXIT_OK


def build_pipeline(
    paths: list[Path], top_words: int, lowercase: bool, boundary: str
) -> tuple[Vocabulary, TokenStream, BigramStore]:
    """Shared corpus -> vocabulary -> bigram pipeline for cluster and bench."""
    options = TokenizerOptions(
        lowercase=lowercase,
        punctuation_as_tokens=True,
        sentence_boundary=boundary,
    )
    tokens = load_corpus(paths, options)
    vocab, stream = build_vocabulary(tokens, top_words)
    del tokens  # the token strings outweigh the id stream; free them before counting
    return vocab, stream, count_bigrams(stream, vocab.size)


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.top_words < 1:
        raise ConfigError(f"--top-words must be >= 1, got {args.top_words}")
    boundary = "token" if args.boundary == "token" else "none"
    config = ClusterConfig(
        strategy=args.method,
        levels=args.levels,
        seed=args.seed,
        epsilon=args.epsilon,
        pinned=read_pins_tsv(Path(args.pin)) if args.pin else None,
    )
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    vocab, stream, store = build_pipeline(
        [Path(p) for p in args.inputs], args.top_words, args.lowercase, boundary
    )
    timings["ingest"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    tags, stats = cluster(vocab, store, config)
    timings["cluster"] = time.perf_counter() - t0
    tags_path = Path(args.tags)
    stats_path = Path(args.stats)
    write_tags_tsv(tags_path, tags)
    write_stats_csv(stats_path, stats)
    write_manifest(
        tags_path.with_name(tags_path.name + ".manifest.json"),
        "cluster",
        {
            "inputs": [str(p) for p in args.inputs],
            "top_words": args.top_words,
            "levels": args.levels,
            "method": args.method,
            "seed": args.seed,
            "epsilon": args.epsilon,
            "pin": args.pin,
            "lowercase": args.lowercase,
            "boundary": boundary,
            "tags": str(tags_path),
            "stats": str(stats_path),
            "vocabulary_size": vocab.size,
            "bigram_total": store.T,
        },
        inputs=[Path(p) for p in args.inputs],
        outputs=[tags_path, stats_path],
        timings=timings,
    )
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
    rows: list[tuple[int, str, int, int, float, float]] = []
    t_bench = time.perf_counter()
    for k in top_words:
        vocab, stream, store = build_pipeline(
            [Path(args.inp)], k, args.lowercase, "none"
        )
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
    out = Path(args.out)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("V,method,seed,level,cumulative_seconds,acmi_after\n")
        for V, method, seed, level, cum, val in rows:
            fh.write(f"{V},{method},{seed},{level},{_real(cum)},{_real(val)}\n")
        if len(top_words) >= 3:
            max_level = max(r[3] for r in rows)
            for method in methods:
                finals = [
                    (r[0], r[4])
                    for r in rows
                    if r[1] == method and r[3] == max_level
                ]
                by_v: dict[int, list[float]] = {}
                for V, t in finals:
                    by_v.setdefault(V, []).append(t)
                if len(by_v) < 3:
                    continue
                vs = sorted(by_v)
                ln_v = np.log([float(v) for v in vs])
                ln_t = np.log([float(np.mean(by_v[v])) for v in vs])
                slope, intercept = np.polyfit(ln_v, ln_t, 1)
                fh.write(f",{method},,slope,{_real(slope)},{_real(intercept)}\n")
    write_manifest(
        out.with_name(out.name + ".manifest.json"),
        "bench",
        {
            "in": args.inp,
            "top_words": top_words,
            "levels": args.levels,
            "methods": methods,
            "repeats": args.repeats,
            "out": str(out),
        },
        inputs=[Path(args.inp)],
        outputs=[out],
        timings={"bench": time.perf_counter() - t_bench},
    )
    return EXIT_OK


def _cmd_export_gold(args: argparse.Namespace) -> int:
    out = Path(args.out)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        write_gold_tsv(fh)
    write_manifest(
        out.with_name(out.name + ".manifest.json"),
        "export-gold",
        {"out": str(out)},
        inputs=[],
        outputs=[out],
        timings={},
    )
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
    c.add_argument("--epsilon", type=float, default=EPSILON)
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
    except (ConfigError, IngestionError, CoverageError) as e:
        print(f"tagsplit: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as e:
        print(f"tagsplit: internal consistency failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as e:
        print(f"tagsplit: i/o error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TagsplitError as e:
        print(f"tagsplit: error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
