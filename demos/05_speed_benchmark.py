"""Timing the three strategies on a novel-sized corpus via the CLI.

Writes a synthetic ~60k-token text (use any plain-text file instead via
BENCH_IN), then runs the bench subcommand.  Expect the parallel-move
strategy to finish well ahead of the random-init baseline, with the gap
widening at deeper levels; with three or more vocabulary sizes the CSV
also carries a fitted ln(time)-vs-ln(V) slope per method.  The text and
the CSV live in a temporary directory that is removed at exit.

Run:  python3 demos/05_speed_benchmark.py
"""

import os
import tempfile
from pathlib import Path

from tagsplit.cli import main
from tagsplit.synth import markov_text

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    corpus = Path(os.environ.get("BENCH_IN", workdir / "synthetic.txt"))
    if not corpus.exists():
        sentences = markov_text(60_000, n_types=4_000, n_states=20, seed=11)
        with open(corpus, "w", encoding="utf-8") as fh:
            for sent in sentences:
                fh.write(" ".join(sent) + "\n")
        print(f"wrote synthetic benchmark text to {corpus}")

    out = workdir / "bench.csv"
    rc = main(
        [
            "bench",
            "--in", str(corpus),
            "--top-words", "128,192,256",
            "--levels", "6",
            "--methods", "znrp,znr,m",
            "--repeats", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0

    print(f"\n{out}:")
    print(out.read_text())
print("rows keep cumulative seconds per level; 'slope' rows fit ln(time) ~ ln(V)")
