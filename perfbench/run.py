"""tagsplit benchmark: the `cluster` command on seeded workloads.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is used from ``src/`` as is.
The seed picks the layout of the generated input text, never its token
statistics (see corpora.py for why); inputs are cached under
``.bench_cache/inputs`` and their generation is never timed.  For S
seconds the benchmark runs ``tagsplit.cli.main(["cluster", ...])`` in
fresh child processes (at least once), then checks every invocation's
outputs:

  * exit code 0;
  * the tags TSV lists every vocabulary entry once, class_id equals
    int(bits, 2) and no bit string is longer than the level count;
  * acmi_after >= acmi_before on every stats CSV level;
  * the final ACMI matches, to 1e-9, class_matrix + acmi recomputed over
    the zero-padded tag paths;
  * all invocations give tags with one SHA-256, which must also equal the
    SHA recorded by earlier runs of the same workload, seed and sources.

With --trace 0 it prints the end-to-end metrics (medians over the
invocations; setup_s over the invocations plus, if they are too few,
repeated set-ups in one more process).  Their times are host-scaled
seconds (see hostclock.py): wall time rescaled by a fixed reference loop
timed in the same process every 0.1 s, so a host that runs everything
slower for a while does not move them; the plain seconds are printed too.
With --trace 1 it alternates plain and traced invocations and prints the
per-layer metrics of the traced ones (see invoke.py), with the tracing
overhead (host-scaled traced over untraced cluster_s).  The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics; each run is also recorded with its machine and version details
in ``.bench_cache/runs/BENCH_*.json``.
Child processes run single-threaded (OPENBLAS_NUM_THREADS=1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"

# name -> (corpus, cluster arguments).  Why each workload exists:
#   novel-znrp     the paper's headline strategy on the reference corpus
#                  (V=503): scoring is ~90% of the time, and it is the only
#                  workload with batch commits, retractions and per-batch
#                  acmi() recomputes; C reaches 1024, the largest
#                  ContextBank.
#   novel-znr      the single-move loop: one commit per iteration, no
#                  retraction, no recompute; a scoring gain shows here, a
#                  znrp commit or rescoring gain does not.  V=253 because
#                  znr at V=503 takes about 50 s on a 2-vCPU VM.
#   corpus-ingest  ~1.6M tokens with varied surfaces: ingest is ~90% of the
#                  time and sets peak RSS, the search is small, so search
#                  optimisations should not move it.
WORKLOADS = {
    "novel-znrp": ("novel", ["--top-words", "500", "--levels", "10", "--method", "znrp"]),
    "novel-znr": ("novel", ["--top-words", "250", "--levels", "10", "--method", "znr"]),
    "corpus-ingest": (
        "brown",
        ["--boundary", "token", "--lowercase", "--top-words", "60",
         "--levels", "4", "--method", "znrp"],
    ),
}
MAX_LEVELS = 10
BLAS_THREADS = "1"  # runs are single-threaded; OpenBLAS would start one per core
# setup_s is the median of at least this many set-ups covering this many
# seconds; a single set-up of the novel corpus takes about 0.2 s
MIN_SETUP_SAMPLES = 5
MIN_SETUP_SECONDS = 4.0
CHILD_TIMEOUT_S = 150
ACMI_TOLERANCE = 1e-9


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": BLAS_THREADS}


def invoke(mode: str, inv_dir: Path, cli_args: list[str], flags: tuple = ()) -> dict:
    """Run invoke.py once in a fresh process; {} if the child failed."""
    inv_dir.mkdir(parents=True)
    out = inv_dir / "result.json"
    cmd = [sys.executable, str(HERE / "invoke.py"), mode, str(out), *flags, "--", *cli_args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{mode} invocation timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return {}
    if proc.returncode != 0 or not out.exists():
        print(f"{mode} invocation exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return {}
    if proc.stderr:
        print(proc.stderr, file=sys.stderr, end="")
    return json.loads(out.read_text(encoding="utf-8"))


class Oracle:
    """Independent recompute of a run's vocabulary, store and final ACMI."""

    def __init__(self, cli_args: list[str]):
        from tagsplit import cli
        from tagsplit.corpus import PSEUDO

        args = cli.build_parser().parse_args(["cluster", *cli_args])
        self.levels = args.levels
        boundary = "token" if args.boundary == "token" else "none"
        vocab, stream, self.store = cli.build_pipeline(
            [Path(p) for p in args.inputs], args.top_words, args.lowercase, boundary
        )
        self.surfaces = [e.surface for e in vocab.entries]
        self.tokens = len(stream)
        self.pseudo_words = sum(e.kind == PSEUDO for e in vocab.entries)
        self._by_sha: dict[str, float] = {}

    def final_acmi(self, sha: str, bits: list[str]) -> float:
        if sha not in self._by_sha:
            import numpy as np
            from tagsplit import acmi, class_matrix

            s = self.levels
            assignment = np.array([int(b.ljust(s, "0"), 2) for b in bits], dtype=np.int64)
            self._by_sha[sha] = acmi(class_matrix(self.store, assignment, 1 << s))
        return self._by_sha[sha]


def check_outputs(inv_dir: Path, result: dict, oracle: Oracle) -> tuple[list[str], str, float]:
    """Problems found in one invocation's outputs, its tags SHA and final ACMI."""
    if not result:
        return ["child process failed"], "", float("nan")
    if result["rc"] != 0:
        return [f"cluster exited {result['rc']}"], "", float("nan")
    try:
        return _check_files(inv_dir, oracle)
    except (OSError, ValueError, IndexError) as e:
        return [f"unreadable outputs: {e!r}"], "", float("nan")


def _check_files(inv_dir: Path, oracle: Oracle) -> tuple[list[str], str, float]:
    problems = []
    tags_path = inv_dir / "tags.tsv"
    raw = tags_path.read_bytes()
    sha = hashlib.sha256(raw).hexdigest()
    lines = raw.decode("utf-8").split("\n")
    if lines[0] != "surface\tbit_string\tfrequency\tclass_id":
        problems.append(f"tags header {lines[0]!r}")
    rows = [ln.split("\t") for ln in lines[1:] if ln]
    bits_of = {}
    for row in rows:
        if len(row) != 4 or not row[1] or set(row[1]) - {"0", "1"}:
            problems.append(f"bad tag row {row!r}")
            continue
        surface, bits, _freq, cid = row
        if surface in bits_of:
            problems.append(f"{surface!r} listed twice")
        bits_of[surface] = bits
        if int(cid) != int(bits, 2):
            problems.append(f"{surface!r}: class_id {cid} != int({bits}, 2)")
        if len(bits) > oracle.levels:
            problems.append(f"{surface!r}: {len(bits)} bits > {oracle.levels} levels")
    if len(rows) != len(oracle.surfaces) or set(bits_of) != set(oracle.surfaces):
        problems.append(f"tags list {len(rows)} rows for {len(oracle.surfaces)} vocabulary entries")

    stats = [ln.split(",") for ln in (inv_dir / "stats.csv").read_text("utf-8").splitlines()]
    head = stats[0]
    i_before, i_after = head.index("acmi_before"), head.index("acmi_after")
    for row in stats[1:]:
        if float(row[i_after]) < float(row[i_before]):
            problems.append(f"level {row[0]}: acmi_after {row[i_after]} < acmi_before {row[i_before]}")
    if len(stats) - 1 != oracle.levels:
        problems.append(f"stats list {len(stats) - 1} levels, expected {oracle.levels}")
    final = float(stats[-1][i_after])
    manifest = json.loads((inv_dir / "tags.tsv.manifest.json").read_text("utf-8"))
    if manifest.get("command") != "cluster":
        problems.append(f"manifest command {manifest.get('command')!r}")
    if not problems:
        expect = oracle.final_acmi(sha, [bits_of[s] for s in oracle.surfaces])
        if abs(final - expect) > ACMI_TOLERANCE:
            problems.append(f"final ACMI {final!r} != recomputed {expect!r}")
    return problems, sha, final


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "tagsplit").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def layer_metrics(traced: list[dict], plain: list[dict], oracle: Oracle) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: median over the traced invocations."""

    def one(r: dict) -> dict[str, tuple[float, str]]:
        t = r["trace"]
        own, calls, lv = t["self_s"], t["calls"], t["by_level"]

        def s(name):
            return float(own.get(name, 0.0))

        def n(name):
            return int(calls.get(name, 0))

        commits, retractions = n("splitter.commit"), n("splitter.retract")
        scored = n("objective.delta_acmi")
        m = {
            "corpus.tokenize_s": (s("corpus.tokenize"), "s"),
            "corpus.build_vocabulary_s": (s("corpus.build_vocabulary"), "s"),
            "corpus.tokens": (oracle.tokens, "count"),
            "corpus.vocab_size": (len(oracle.surfaces), "count"),
            "corpus.pseudo_words": (oracle.pseudo_words, "count"),
            "bigram.count_bigrams_s": (s("bigram.count_bigrams"), "s"),
            "bigram.pairs": (len(oracle.store.counts), "count"),
            "bigram.class_matrix_s": (s("bigram.class_matrix"), "s"),
            "bigram.context_bank_build_s": (s("bigram.context_bank_build"), "s"),
            "bigram.context_bank_bytes": (t["bank_bytes"], "bytes_computed"),
            "objective.delta_acmi_s": (s("objective.delta_acmi"), "s"),
            "objective.delta_acmi_calls": (scored, "count"),
            "objective.delta_acmi_us_per_call": (
                1e6 * s("objective.delta_acmi") / scored if scored else 0.0, "us"),
            "objective.pair_before_sum_s": (s("objective.pair_before_sum"), "s"),
            "objective.pair_before_sum_calls": (n("objective.pair_before_sum"), "count"),
        }
        for level in range(1, MAX_LEVELS + 1):
            m[f"objective.delta_acmi_s.L{level:02d}"] = (
                float(lv.get(f"objective.delta_acmi.L{level:02d}", 0.0)), "s")
        m.update({
            "splitter.commit_s": (s("splitter.commit"), "s"),
            "splitter.retract_s": (s("splitter.retract"), "s"),
            "bigram.apply_move_s": (s("bigram.apply_move"), "s"),
            "bigram.context_bank_move_s": (s("bigram.context_bank_move"), "s"),
            "objective.acmi_s": (s("objective.acmi"), "s"),
            "objective.acmi_calls": (n("objective.acmi"), "count"),
            "splitter.commits": (commits, "count"),
            "splitter.retractions": (retractions, "count"),
            "splitter.retraction_ratio": (retractions / commits if commits else 0.0, "ratio"),
            "splitter.state_build_s": (s("splitter.state_build"), "s"),
            "splitter.search_self_s": (s("splitter.run_level"), "s"),
            "splitter.iterations": (t["iterations"], "count"),
            "splitter.capped_levels": (t["capped_levels"], "count"),
        })
        for level in range(1, MAX_LEVELS + 1):
            m[f"splitter.level_s.L{level:02d}"] = (
                float(lv.get(f"splitter.run_level.incl.L{level:02d}", 0.0)), "s")
        m.update({
            "splitter.useful_ratio": ((commits - retractions) / scored if scored else 0.0, "ratio"),
            "cli.write_outputs_s": (s("cli.write_outputs"), "s"),
            "trace.cluster_s": (r["raw_cluster_s"], "s"),
            "trace.residual_s": (s("splitter.cluster"), "s"),
        })
        return m

    per_run = [one(r) for r in traced]
    out = {
        k: (statistics.median([m[k][0] for m in per_run]), unit) for k, (_, unit) in per_run[0].items()
    }
    # host-scaled, so a host slowdown between the two kinds of run cancels
    out["trace.overhead_ratio"] = (
        statistics.median([r["cluster_s"] for r in traced])
        / statistics.median([r["cluster_s"] for r in plain]), "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "tagsplit" / "cli.py").is_file():
        print(f"perfbench: no tagsplit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import corpora
    import numpy

    corpus, workload_args = WORKLOADS[args.workload]
    text = corpora.ensure(corpus, args.seed, CACHE / "inputs")
    work = CACHE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, text, work, workload_args, numpy.__version__, corpora.PARAMS[corpus])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, text: Path, work: Path, workload_args: list[str], numpy_version: str,
         corpus_params: dict) -> int:
    def cli_args(d: Path) -> list[str]:
        return ["--in", str(text), *workload_args,
                "--tags", str(d / "tags.tsv"), "--stats", str(d / "stats.csv")]

    plain: list[tuple[Path, dict]] = []
    traced: list[tuple[Path, dict]] = []
    t_start = time.perf_counter()
    last = 0.0
    # start another invocation only while it is expected to end in time
    while not plain or time.perf_counter() - t_start + last <= args.seconds:
        t0 = time.perf_counter()
        d = work / f"plain{len(plain)}"
        plain.append((d, invoke("cluster", d, cli_args(d))))
        if args.trace:
            d = work / f"traced{len(traced)}"
            traced.append((d, invoke("cluster", d, cli_args(d), ("--trace",))))
        last = time.perf_counter() - t0

    oracle = Oracle(cli_args(work))
    attempted = len(plain) + len(traced)
    problems: list[str] = []
    failed = 0
    shas, finals = set(), []
    # timings count from every invocation that exited 0; one that fails a
    # check still counts as failed
    timed_plain, timed_traced = [], []
    for group, timed in ((plain, timed_plain), (traced, timed_traced)):
        for d, result in group:
            found, sha, final = check_outputs(d, result, oracle)
            problems += [f"{d.name}: {msg}" for msg in found]
            failed += bool(found)
            if result and result["rc"] == 0:
                timed.append(result)
            if sha:
                shas.add(sha)
                finals.append(final)
    src_digest = _source_digest()
    tags_sha = min(shas) if shas else ""
    if len(shas) > 1:
        problems.append(f"invocations disagree on the tags SHA-256: {sorted(shas)}")
        failed = attempted
    elif tags_sha:
        record = CACHE / "sha" / f"{args.workload}-{text.stem}-{src_digest[:16]}.txt"
        if not record.exists():
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(tags_sha + "\n")
        elif record.read_text().strip() != tags_sha:
            problems.append(f"tags SHA-256 {tags_sha} differs from earlier run's {record.read_text().strip()}")
            failed = attempted
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    if not timed_plain or not finals or (args.trace and not timed_traced):
        print("perfbench: no invocation produced outputs to measure", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(timed_traced, timed_plain, oracle)
    else:
        setup_results = [{"setup_s": [r["setup_s"]], "raw_setup_s": [r["raw_setup_s"]],
                          "slowness": r["slowness"]} for r in timed_plain]
        setup = [r["setup_s"] for r in timed_plain]
        if len(setup) < MIN_SETUP_SAMPLES or sum(setup) < MIN_SETUP_SECONDS:
            reps = max(MIN_SETUP_SAMPLES - len(setup),
                       math.ceil((MIN_SETUP_SECONDS - sum(setup)) / statistics.median(setup)))
            r = invoke("setup", work / "setup", cli_args(work), ("--reps", str(reps)))
            if not r:
                print("perfbench: setup-only invocation failed", file=sys.stderr)
                return 1
            setup += r["setup_s"]
            setup_results.append(r)
        metrics = {
            "total_s": (statistics.median([r["total_s"] for r in timed_plain]), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "cluster_s": (statistics.median([r["cluster_s"] for r in timed_plain]), "s"),
            "acmi_final": (statistics.median(finals), "bits"),
            "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in timed_plain]), "MB"),
        }
        raw_setup = [x for r in setup_results for x in r["raw_setup_s"]]
        print(f"samples: {len(timed_plain)} invocations, {len(setup)} setups")
        print("plain seconds, not host-scaled: total_s {:.6g}, setup_s {:.6g}, cluster_s {:.6g};"
              " host slowness {:.3g}".format(
                  statistics.median([r["raw_total_s"] for r in timed_plain]),
                  statistics.median(raw_setup),
                  statistics.median([r["raw_cluster_s"] for r in timed_plain]),
                  statistics.median([r["slowness"] for r in [*timed_plain, *setup_results]])))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {failed / attempted:.6g} share ({failed} of {attempted})")
    print(f"tags_sha256 {tags_sha}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus": text.name,
        "corpus_params": corpus_params,
        "corpus_sha256": hashlib.sha256(text.read_bytes()).hexdigest(),
        "seconds": args.seconds,
        "trace": args.trace,
        "tags_sha256": tags_sha,
        "git_sha": _git_sha(),
        "src_sha256": src_digest,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": BLAS_THREADS,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    runs = CACHE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = record["utc"].replace(":", "").replace("-", "")
    (runs / f"BENCH_{stamp}_{args.workload}_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps({"record": record, **result}, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
